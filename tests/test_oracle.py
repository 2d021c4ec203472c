"""Brute-force reference scheduler: exactness, determinism, corroboration."""

from pathlib import Path

import pytest

from srptlab import (
    OracleError,
    SpeedConfig,
    UNIT_SPEED,
    brute_force_opt,
    dump_json,
    make_instance,
    objectives,
    simulate_srpt,
    trace_to_json,
    validate_trace,
)
from srptlab.oracle import single_machine_relaxation_lb
from srptlab.rationals import rat

from helpers import random_integer_instance

DATA = Path(__file__).parent / "data"

# golden-file stem -> (id, release, size) triples, machines. Every instance
# has jobs with equal (remaining, release) pairs, some listed out of id
# order, so the traces pin which job of a tied class runs first.
GOLDEN_ORACLE = {
    "oracle_ties_m1": ([(0, 2, 1), (1, 0, 2), (2, 0, 2), (3, 2, 1), (4, 1, 3), (5, 0, 1)], 1),
    "oracle_ties_m2": (
        [(0, 1, 2), (1, 0, 3), (2, 0, 3), (3, 0, 3), (4, 1, 2), (5, 3, 1), (6, 3, 1)],
        2,
    ),
    "oracle_ties_m3": (
        [(0, 0, 2), (1, 0, 2), (2, 0, 2), (3, 0, 2), (4, 1, 1), (5, 1, 1), (6, 2, 3), (7, 2, 3)],
        3,
    ),
}


class TestBruteForce:
    def test_two_jobs_either_order(self):
        inst = make_instance([(0, 0, 2), (1, 1, 1)], machines=1)
        res = brute_force_opt(inst, k=1)
        assert res.objective == 4

    def test_three_equal_jobs_two_machines(self):
        inst = make_instance([(0, 0, 2), (1, 0, 2), (2, 0, 2)], machines=2)
        assert brute_force_opt(inst, k=1).objective == 8

    def test_squared_flow_rewards_migration(self):
        # same instance, k=2: splitting the last job across machines gives
        # completion profile (2,3,3), beating the k=1-optimal (2,2,4) layout
        inst = make_instance([(0, 0, 2), (1, 0, 2), (2, 0, 2)], machines=2)
        assert brute_force_opt(inst, k=2).objective == 22

    def test_matches_unit_srpt_single_machine(self):
        inst = make_instance([(0, 0, 4), (1, 1, 1)], machines=1)
        res = brute_force_opt(inst, k=1)
        assert res.objective == 6
        srpt = simulate_srpt(inst, UNIT_SPEED)
        assert objectives(srpt).total_flow == 6

    def test_trace_is_feasible_and_consistent(self):
        inst = make_instance([(0, 0, 2), (1, 1, 1), (2, 1, 3)], machines=2)
        for k in (1, 2, 3):
            res = brute_force_opt(inst, k=k)
            ok, violations = validate_trace(res.trace)
            assert ok, violations
            assert objectives(res.trace, ks=(k,)).kth_power_flow[k] == res.objective
            assert res.trace.speed == UNIT_SPEED

    def test_empty_instance(self):
        inst = make_instance([], machines=2)
        res = brute_force_opt(inst, k=1)
        assert res.objective == 0
        ok, _ = validate_trace(res.trace)
        assert ok

    def test_determinism(self):
        inst = make_instance([(0, 0, 3), (1, 0, 3), (2, 2, 1), (3, 2, 2)], machines=2)
        a = brute_force_opt(inst, k=1)
        b = brute_force_opt(inst, k=1)
        assert a.objective == b.objective
        assert dump_json(trace_to_json(a.trace)) == dump_json(trace_to_json(b.trace))

    @pytest.mark.parametrize("stem", GOLDEN_ORACLE)
    def test_golden_traces(self, stem):
        triples, machines = GOLDEN_ORACLE[stem]
        inst = make_instance(triples, machines=machines)
        doc = {}
        for k in (1, 2, 3):
            res = brute_force_opt(inst, k=k)
            doc[str(k)] = dict(trace_to_json(res.trace), objective=str(res.objective))
        assert dump_json(doc) == (DATA / (stem + ".json")).read_text()

    def test_rejects_non_integral(self):
        inst = make_instance([(0, 0, rat("3/2"))], machines=1)
        with pytest.raises(OracleError, match="non-integral data: job 0"):
            brute_force_opt(inst)

    def test_rejects_too_many_jobs(self):
        inst = make_instance([(i, 0, 1) for i in range(11)], machines=1)
        with pytest.raises(OracleError, match="limits exceeded: 11 jobs"):
            brute_force_opt(inst)

    def test_rejects_too_much_work(self):
        inst = make_instance([(0, 0, 41)], machines=1)
        with pytest.raises(OracleError, match="limits exceeded"):
            brute_force_opt(inst)

    def test_rejects_too_many_machines(self):
        inst = make_instance([(0, 0, 1)], machines=4)
        with pytest.raises(OracleError, match="limits exceeded"):
            brute_force_opt(inst)

    def test_bad_k(self):
        inst = make_instance([(0, 0, 1)], machines=1)
        with pytest.raises(OracleError, match="k must be an integer >= 1"):
            brute_force_opt(inst, k=0)


class TestRelaxationBound:
    def test_pooled_machine_example(self):
        inst = make_instance([(0, 0, 2), (1, 0, 2), (2, 0, 2)], machines=2)
        lb = single_machine_relaxation_lb(inst)
        assert lb == 6
        assert lb <= brute_force_opt(inst, k=1).objective

    def test_single_job(self):
        inst = make_instance([(0, 0, 5)], machines=2)
        assert single_machine_relaxation_lb(inst) == rat("5/2")

    def test_empty(self):
        assert single_machine_relaxation_lb(make_instance([], machines=3)) == 0

    @pytest.mark.parametrize("seed", range(100))
    def test_sandwich(self, seed):
        inst = random_integer_instance(seed)
        lb = single_machine_relaxation_lb(inst)
        assert lb <= brute_force_opt(inst, k=1).objective


class TestSingleMachineExactness:
    @pytest.mark.parametrize("seed", range(100))
    def test_equals_unit_srpt(self, seed):
        inst = random_integer_instance(seed, max_machines=1)
        opt = brute_force_opt(inst, k=1).objective
        srpt = objectives(simulate_srpt(inst, UNIT_SPEED)).total_flow
        assert opt == srpt
