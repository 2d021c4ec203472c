"""Event-driven scheduler: exact completions, tie handling, policy plumbing."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from srptlab import (
    EngineError,
    InstanceError,
    SpeedConfig,
    fifo_priority,
    longest_remaining_priority,
    make_instance,
    objectives,
    simulate_policy,
    simulate_srpt,
    srpt_priority,
    validate_trace,
)
from srptlab.core import Job
from srptlab.formats import dump_json, trace_to_json
from srptlab.rationals import rat
from srptlab.workload import FAMILIES, GenSpec, XorShift64Star, generate

from helpers import job_of, random_integer_instance, rebuild_remaining, slot_srpt_completions


def lifo_tie_priority(remaining, size, release, jid):
    # pathological tie-break: newer arrivals win; used to exhibit starvation
    return (remaining, -release, jid)


DATA = Path(__file__).parent / "data"


def alive_ids(trace, t):
    return {
        j.id
        for j in trace.instance.jobs
        if j.release <= t < trace.completions[j.id]
    }


class TestCompletions:
    def test_e1_unit(self, e1_unit_trace):
        assert e1_unit_trace.completions == (3, 1, 2)
        assert objectives(e1_unit_trace).total_flow == 5

    def test_e1_fast(self, e1_fast_trace):
        assert e1_fast_trace.completions == (2, rat("2/3"), rat("5/3"))
        assert objectives(e1_fast_trace).total_flow == rat("10/3")

    def test_single_job_fast(self):
        inst = make_instance([(0, 0, 3)], machines=1)
        tr = simulate_srpt(inst, SpeedConfig.from_speed("3/2"))
        assert tr.completions == (2,)

    def test_preemption_on_arrival(self):
        # the short arrival interrupts the long resident job
        inst = make_instance([(0, 0, 4), (1, 1, 1)], machines=1)
        tr = simulate_srpt(inst, SpeedConfig.from_speed(1))
        assert tr.completions == (5, 2)
        assert objectives(tr).total_flow == 6

    def test_simultaneous_completions_in_id_order(self):
        inst = make_instance([(0, 0, 2), (1, 0, 2)], machines=2)
        tr = simulate_srpt(inst, SpeedConfig.from_speed(1))
        assert tr.completions == (2, 2)
        ok, violations = validate_trace(tr)
        assert ok, violations

    def test_idle_gap_segment(self):
        inst = make_instance([(0, 0, 1), (1, 3, 1)], machines=1)
        tr = simulate_srpt(inst, SpeedConfig.from_speed(1))
        assert tr.completions == (1, 4)
        gap = tr.segments[1]
        assert (gap.start, gap.end) == (1, 3)
        assert gap.assignment == (None,)


class TestPolicies:
    def test_fifo_on_e1(self, e1_instance):
        tr = simulate_policy(e1_instance, SpeedConfig.from_speed(1), fifo_priority)
        assert tr.completions == (3, 1, 2)

    def test_longest_remaining_runs_big_job_first(self):
        inst = make_instance([(0, 0, 1), (1, 0, 2)], machines=1)
        tr = simulate_policy(inst, SpeedConfig.from_speed(1), longest_remaining_priority)
        assert tr.completions == (3, 2)
        assert objectives(tr).total_flow == 5

    def test_srpt_is_default(self, e1_instance):
        a = simulate_policy(e1_instance, SpeedConfig.from_speed("3/2"))
        b = simulate_srpt(e1_instance, SpeedConfig.from_speed("3/2"))
        assert a == b

    def test_priority_sees_integer_ticks(self, e1_instance):
        # speed p/q = 3/2 and L = 1: sizes and remaining volumes in units of
        # 1/(q * L) = 1/2, releases in units of 1/(p * L) = 1/3
        calls = []

        def recording(remaining, size, release, jid):
            calls.append((remaining, size, release, jid))
            return srpt_priority(remaining, size, release, jid)

        tr = simulate_policy(e1_instance, SpeedConfig.from_speed("3/2"), recording)
        assert tr == simulate_srpt(e1_instance, SpeedConfig.from_speed("3/2"))
        assert all(type(x) is int for call in calls for x in call)
        assert sorted(calls) == sorted([
            (6, 6, 0, 0), (2, 2, 0, 1),  # t = 0
            (4, 6, 0, 0),  # t = 2/3: job 1 done
            (3, 6, 0, 0), (2, 2, 3, 2),  # t = 1: job 2 arrives
            (1, 6, 0, 0),  # t = 5/3: job 2 done
        ])

    def test_bad_speed(self, e1_instance):
        with pytest.raises(EngineError, match="speed must be positive"):
            simulate_policy(e1_instance, SpeedConfig.from_epsilon(-1))

    def test_invalid_instance_rejected(self):
        from srptlab import Instance

        bad = Instance(jobs=(Job(0, rat(0), rat(0)),), machines=1)
        with pytest.raises(InstanceError):
            simulate_srpt(bad, SpeedConfig.from_speed(1))


class TestStarvationContrast:
    """A stream of unit jobs with one extra job at time 0.

    The default tie order (remaining, release, id) serves the resident job
    within two slots. Flipping the tie order to favor the newest arrival
    starves it for the entire stream, which is the behavior the default
    order exists to rule out.
    """

    N = 12

    def _stream(self):
        return generate(GenSpec(family="starvation-stream", n=self.N, machines=1,
                                size_range=(1, 1), release_range=(0, 0), seed=0))

    def test_default_tie_order_no_starvation(self):
        inst = self._stream()
        tr = simulate_srpt(inst, SpeedConfig.from_speed(1))
        flows = objectives(tr).flows
        assert max(flows) == 2
        assert tr.completions[1] == 2

    def test_lifo_tie_order_starves_resident(self):
        inst = self._stream()
        tr = simulate_policy(inst, SpeedConfig.from_speed(1), lifo_tie_priority)
        # the job released alongside job 0 waits for the whole stream
        assert tr.completions[1] == self.N
        assert objectives(tr).flows[1] == self.N
        # exactly two jobs are present in every busy slot except the last one
        busy = [s for s in tr.segments if any(j is not None for j in s.assignment)]
        sizes = [len(alive_ids(tr, (s.start + s.end) / 2)) for s in busy]
        assert sizes == [2] * (len(busy) - 1) + [1]


class TestInvariants:
    SPEEDS = ("1", "3/2", "2")

    @pytest.mark.parametrize("seed", range(40))
    def test_work_conservation(self, seed):
        inst = random_integer_instance(seed)
        for speed in self.SPEEDS:
            tr = simulate_srpt(inst, SpeedConfig.from_speed(speed))
            busy_time = sum(
                (seg.end - seg.start) * sum(1 for j in seg.assignment if j is not None)
                for seg in tr.segments
            )
            assert busy_time * tr.speed.speed == sum(j.size for j in inst.jobs)

    @pytest.mark.parametrize("seed", range(40))
    def test_running_set_is_priority_prefix_midway(self, seed):
        # re-derive the chosen set at segment midpoints from raw remaining work
        inst = random_integer_instance(seed)
        tr = simulate_srpt(inst, SpeedConfig.from_speed("3/2"))
        for seg in tr.segments:
            busy = {j for j in seg.assignment if j is not None}
            mid = (seg.start + seg.end) / 2
            alive = alive_ids(tr, mid)
            order = sorted(
                alive,
                key=lambda j: srpt_priority(
                    rebuild_remaining(tr, j, mid),
                    job_of(inst, j).size,
                    job_of(inst, j).release,
                    j,
                ),
            )
            assert busy == set(order[: inst.machines])

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_slotted_rescheduler(self, seed):
        inst = random_integer_instance(seed)
        for num, den in ((1, 1), (3, 2), (2, 1)):
            tr = simulate_srpt(inst, SpeedConfig.from_speed(rat("%d/%d" % (num, den))))
            slotted = slot_srpt_completions(inst, num, den)
            for jid, comp in slotted.items():
                got = tr.completions[jid]
                assert Fraction(int(got.numerator), int(got.denominator)) == comp

    @pytest.mark.parametrize("seed", range(20))
    def test_speedup_helps_on_one_machine(self, seed):
        inst = random_integer_instance(seed, max_machines=1)
        totals = [
            objectives(simulate_srpt(inst, SpeedConfig.from_speed(s))).total_flow
            for s in self.SPEEDS
        ]
        assert totals[0] >= totals[1] >= totals[2]

    @pytest.mark.parametrize("seed", range(25))
    def test_all_traces_validate(self, seed):
        inst = random_integer_instance(seed)
        for speed in self.SPEEDS:
            for prio in (srpt_priority, fifo_priority, longest_remaining_priority):
                tr = simulate_policy(inst, SpeedConfig.from_speed(speed), prio)
                ok, violations = validate_trace(tr)
                assert ok, violations


DIGEST_POLICIES = {
    "srpt": srpt_priority,
    "fifo": fifo_priority,
    "lrpt": longest_remaining_priority,
    "lifo-tie": lifo_tie_priority,
}


def digest_instances():
    """Group name -> {instance name -> instance}: one seeded instance of
    each family on m = 1-4 machines (n = 5-24), and six instances whose
    releases and sizes have denominators 1, 2, 3, 5 and 7."""
    groups = {}
    for fi, family in enumerate(FAMILIES):
        group = groups[family] = {}
        for m in range(1, 5):
            n = 5 + 6 * (m - 1) + fi
            spec = GenSpec(family=family, n=n, machines=m, size_range=(1, 8),
                           release_range=(0, n), seed=m)
            group["m=%d n=%d" % (m, n)] = generate(spec)
    group = groups["fractional"] = {}
    for seed in range(6):
        rng = XorShift64Star(seed)
        n, m = 5 + 3 * seed, 1 + seed % 3
        triples = [(i, Fraction(rng.below(3 * n), (1, 2, 3, 7)[rng.below(4)]),
                    Fraction(1 + rng.below(9), (1, 3, 5, 7)[rng.below(4)])) for i in range(n)]
        group["seed=%d m=%d n=%d" % (seed, m, n)] = make_instance(triples, machines=m)
    return groups


def digest_speeds(m):
    """The speeds every digest instance on m machines runs at."""
    return tuple(dict.fromkeys(rat(s) for s in ("1", "5/4", "3/2", "7/3", "2", 2 - Fraction(1, m))))


def engine_traces():
    """Case name -> trace of every engine digest case: each instance of
    digest_instances() under each policy at each of its speeds, and the three
    1,500-job traces of the trace-audit benchmark at seed 1."""
    traces = {}
    for group, instances in digest_instances().items():
        for name, inst in instances.items():
            for speed in digest_speeds(inst.machines):
                for policy, priority in DIGEST_POLICIES.items():
                    traces["%s %s speed=%s policy=%s" % (group, name, speed, policy)] = simulate_policy(
                        inst, SpeedConfig.from_speed(speed), priority)
    audit = generate(GenSpec(family="uniform", n=1500, machines=4, size_range=(1, 8),
                             release_range=(0, 1500), seed=1))
    for policy in ("srpt", "fifo", "lrpt"):
        traces["trace-audit seed=1 policy=%s" % policy] = simulate_policy(
            audit, SpeedConfig.from_speed("3/2"), DIGEST_POLICIES[policy])
    return traces


def trace_digest(trace):
    return hashlib.sha256(dump_json(trace_to_json(trace)).encode()).hexdigest()


class TestEngineDigests:
    """Every engine digest case's trace, as its canonical JSON, against the
    SHA-256 digests in tests/data/engine_digests.json."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((DATA / "engine_digests.json").read_text())

    @pytest.fixture(scope="class")
    def traces(self):
        return engine_traces()

    def test_same_cases(self, golden, traces):
        assert list(traces) == list(golden)

    @pytest.mark.parametrize("group", list(FAMILIES) + ["fractional", "trace-audit"])
    def test_group(self, group, golden, traces):
        mine = [name for name in traces if name.startswith(group + " ")]
        assert mine
        for name in mine:
            trace = traces[name]
            assert trace_digest(trace) == golden[name], name


if __name__ == "__main__":
    # regenerate the golden file: PYTHONPATH=src python tests/test_engine.py
    rows = ["%s: %s" % (json.dumps(name), json.dumps(trace_digest(trace)))
            for name, trace in engine_traces().items()]
    (DATA / "engine_digests.json").write_text("{\n" + ",\n".join(rows) + "\n}\n")
