"""Brute-force reference scheduler: exactness, determinism, corroboration."""

import json
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from srptlab import (
    OracleError,
    UNIT_SPEED,
    brute_force_opt,
    dump_json,
    make_instance,
    objectives,
    simulate_srpt,
    trace_from_json,
    trace_to_json,
    validate_trace,
)
from srptlab import oracle
from srptlab.oracle import _actions, _spt_completions
from srptlab.rationals import rat
from srptlab.workload import GenSpec, generate

from helpers import (
    least_total_completion,
    random_integer_instance,
    rebuild_remaining,
    single_machine_relaxation_lb,
)

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

GOLDEN_FAMILIES = ("uniform", "bursty", "heavy-tail-discrete")


def golden_specs():
    """The seeded instances of oracle_golden.json: small sizes and releases,
    so alive jobs often tie on remaining work with different releases."""
    return [
        GenSpec(family, 3 + seed, m, (1, 4), (0, 4), seed)
        for family in GOLDEN_FAMILIES
        for m in (1, 2, 3)
        for seed in range(6)
    ]


def golden_row(spec, k):
    res = brute_force_opt(generate(spec), k=k)
    return {
        "family": spec.family,
        "seed": spec.seed,
        "m": spec.machines,
        "k": k,
        "objective": str(res.objective),
        "trace": trace_to_json(res.trace),
    }


def golden_rows(family, m):
    return [
        golden_row(spec, k)
        for spec in golden_specs()
        if (spec.family, spec.machines) == (family, m)
        for k in (1, 2, 3)
    ]


def has_release_tie(trace):
    """Whether at some integer time two alive jobs have equal remaining work
    and different releases."""
    for t in range(int(max(trace.completions))):
        seen = {}
        for job in trace.instance.jobs:
            if job.release <= t < trace.completions[job.id]:
                seen.setdefault(rebuild_remaining(trace, job.id, t), set()).add(job.release)
        if any(len(rels) > 1 for rels in seen.values()):
            return True
    return False


class TestBruteForce:
    def test_two_jobs_either_order(self):
        inst = make_instance([(0, 0, 2), (1, 1, 1)], machines=1)
        res = brute_force_opt(inst, k=1)
        assert res.objective == 4

    @pytest.mark.parametrize(
        "k,objective,completions,segments",
        [
            # both orders tie at 4; the first take-vector runs the later release
            (1, 4, (3, 2), [(0, 1, 0), (1, 2, 1), (2, 3, 0)]),
            (2, 8, (2, 3), [(0, 2, 0), (2, 3, 1)]),
            (3, 16, (2, 3), [(0, 2, 0), (2, 3, 1)]),
        ],
    )
    def test_equal_remaining_different_releases(self, k, objective, completions, segments):
        # at t = 1 both jobs have one unit left; job 0 was released at 0, job 1 at 1
        inst = make_instance([(0, 0, 2), (1, 1, 1)], machines=1)
        res = brute_force_opt(inst, k=k)
        assert res.objective == objective
        assert res.trace.completions == completions
        assert [(s.start, s.end, s.assignment[0]) for s in res.trace.segments] == segments

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

    @pytest.mark.parametrize("family,m", list(product(GOLDEN_FAMILIES, (1, 2, 3))))
    def test_golden_searches(self, family, m):
        golden = json.loads((DATA / "oracle_golden.json").read_text())
        expected = [r for r in golden if (r["family"], r["m"]) == (family, m)]
        assert golden_rows(family, m) == expected

    def test_golden_searches_cover_release_ties(self):
        # the file pins the tie-break between equal-remaining jobs of
        # different releases, which the k = 1 search key does not tell apart
        golden = json.loads((DATA / "oracle_golden.json").read_text())
        tied = [r for r in golden if r["k"] == 1 and has_release_tie(trace_from_json(r["trace"]))]
        assert len(tied) >= 20

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


def compositions(total):
    """Tuples of positive counts summing to `total`."""
    if total == 0:
        return [()]
    return [(first,) + rest for first in range(1, total + 1) for rest in compositions(total - first)]


class TestActions:
    @pytest.mark.parametrize("total", range(1, 9))
    def test_matches_product_reference(self, total):
        for counts in compositions(total):
            for q in range(4):
                reference = sorted(
                    {t for t in product(*(range(c + 1) for c in counts)) if sum(t) == q}
                )
                assert list(_actions(counts, q)) == reference, (counts, q)


class TestSptTail:
    """The k = 1 search closes every state at or after the last release with
    SPT dealt round robin (McNaughton 1959)."""

    def test_hand_computed(self):
        # machine 0 runs works 1 then 3 and finishes them at 6 and 9,
        # machine 1 runs 2 then 4 and finishes them at 7 and 11
        assert _spt_completions(5, [1, 2, 3, 4], 2) == 6 + 7 + 9 + 11 == 33

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_matches_slot_search(self, m):
        # every multiset of at most 6 works of size 1-4
        for n in range(7):
            for works in combinations_with_replacement(range(1, 5), n):
                for t in (0, 5):
                    assert _spt_completions(t, list(works), m) == least_total_completion(t, works, m)

    @pytest.fixture
    def tail_calls(self, monkeypatch):
        calls = []

        def counted(t, works, m):
            calls.append((t, list(works), m))
            return _spt_completions(t, works, m)

        monkeypatch.setattr(oracle, "_spt_completions", counted)
        return calls

    def test_used_at_k1(self, tail_calls):
        # every job is released at 0, so the root state is closed at once:
        # works 1, 2 finish at 1, 3 on one machine and 2, 3 at 2, 5 on the other
        inst = make_instance([(0, 0, 3), (1, 0, 1), (2, 0, 2), (3, 0, 2)], machines=2)
        assert brute_force_opt(inst, k=1).objective == 11
        assert tail_calls[0] == (0, [1, 2, 2, 3], 2)

    @pytest.mark.parametrize("k", (2, 3))
    def test_never_used_at_higher_k(self, tail_calls, k):
        for seed in range(20):
            brute_force_opt(random_integer_instance(seed), k=k)
        brute_force_opt(make_instance([(0, 0, 3), (1, 0, 1), (2, 0, 2)], machines=2), k=k)
        assert tail_calls == []

    def test_spt_tail_is_not_optimal_at_k2(self):
        # at t = 10 the 2 units left of job 0 (age 10) and job 1 (size 1,
        # age 0) are all the work; running job 0 first pays 12^2 + 3^2 = 153,
        # SPT's order pays 1^2 + 13^2 = 170
        inst = make_instance([(0, 0, 12), (1, 10, 1)], machines=1)
        res = brute_force_opt(inst, k=2)
        assert res.objective == 153
        assert res.trace.completions == (12, 13)
        spt = brute_force_opt(inst, k=1).trace
        assert spt.completions == (13, 11)
        assert objectives(spt, ks=(2,)).kth_power_flow[2] == 170


class TestRelaxationBound:
    """The oracle's value from below on m >= 2, where it is only an upper
    bound on the preemptive optimum: the pooled-machine bound of
    tests/helpers.py never exceeds it."""

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


if __name__ == "__main__":
    # regenerate the golden file: PYTHONPATH=src python tests/test_oracle.py
    rows = [row for family, m in product(GOLDEN_FAMILIES, (1, 2, 3)) for row in golden_rows(family, m)]
    (DATA / "oracle_golden.json").write_text(
        "[\n" + ",\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]\n"
    )
