"""Domain types, exact parsing/rendering, and trace feasibility audits."""

import json
import pickle
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import srptlab
from srptlab import (
    ExecutionTrace,
    Instance,
    InstanceError,
    Job,
    ParseError,
    Segment,
    SpeedConfig,
    TraceError,
    UNIT_SPEED,
    brute_force_opt,
    dump_json,
    fifo_priority,
    longest_remaining_priority,
    make_instance,
    objectives,
    parse_instance,
    serialize_instance,
    simulate_policy,
    simulate_srpt,
    srpt_priority,
    trace_from_json,
    trace_to_json,
    validate_instance,
    validate_trace,
)
from srptlab.core import build_jobs, flow_power
from srptlab.rationals import (
    Rational,
    RationalParseError,
    decimal_str,
    iroot,
    kth_root_str,
    rat,
)
from srptlab.workload import XorShift64Star

from helpers import CORRUPTION_KINDS, corrupt_trace, job_of, random_integer_instance

DATA = Path(__file__).parent / "data"

rationals = st.fractions(
    min_value=0, max_value=50, max_denominator=12
).map(lambda f: Rational(f.numerator, f.denominator))
FEW_TIMES = [Rational(a, b) for a in range(5) for b in (1, 2, 3, 7)]
positive_rationals = st.fractions(
    min_value="1/12", max_value=50, max_denominator=12
).map(lambda f: Rational(f.numerator, f.denominator))


class TestRational:
    def test_parse_integer(self):
        assert rat("3") == 3
        assert rat("-7") == -7
        assert rat(5) == 5

    def test_parse_fraction_lowest_terms(self):
        assert rat("3/2") == Rational(3, 2)
        assert rat("2/4") == Rational(1, 2)
        assert rat("-1/2") == Rational(-1, 2)

    def test_parse_passthrough(self):
        q = Rational(7, 3)
        assert rat(q) is q or rat(q) == q

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "a", "", "1/2/3", None, 2.5,
                                     "1_0", "1_5/1_0", "\u0663", "3/\u0662", "+3", "3/+2",
                                     "3 / 2", "3/ 2", "- 3", "-", "/2", "3/"])
    def test_parse_rejects(self, bad):
        with pytest.raises(RationalParseError):
            rat(bad)

    @pytest.mark.parametrize("bad", [True, False])
    def test_parse_rejects_booleans(self, bad):
        # bool is an int subclass, and Fraction(True) is 1
        with pytest.raises(RationalParseError, match="expected rational string, got %s" % bad):
            rat(bad)

    def test_exactness(self):
        # the classic float pitfall must not appear
        assert rat("1/10") + rat("2/10") == rat("3/10")

    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=5))
    def test_iroot_floor_property(self, x, k):
        r = iroot(x, k)
        assert r**k <= x < (r + 1) ** k

    def test_decimal_str_examples(self):
        assert decimal_str(Rational(1, 3)) == "0.333333333333"
        assert decimal_str(Rational(5)) == "5"
        assert decimal_str(Rational(1, 2)) == "0.5"
        assert decimal_str(Rational(0)) == "0"
        assert decimal_str(Rational(-10, 3)) == "-3.33333333333"
        assert decimal_str(Rational(10, 3)) == "3.33333333333"

    def test_decimal_str_significant_digits(self):
        # 12 significant digits, not 12 decimals
        assert decimal_str(Rational(10**14, 3)) == "33333333333300"

    def test_kth_root_examples(self):
        assert kth_root_str(rat(11), 2) == "3.31662479036"
        assert kth_root_str(rat(4), 2) == "2"
        assert kth_root_str(rat(0), 3) == "0"

    @given(positive_rationals, st.integers(min_value=1, max_value=4))
    def test_kth_root_inverts_powers(self, q, k):
        assert kth_root_str(q**k, k) == decimal_str(q)


class TestInstanceValidation:
    def test_valid_roundtrip_sorted(self):
        inst = make_instance([(1, 2, 1), (0, 0, 3)], machines=1)
        assert [j.id for j in inst.jobs] == [0, 1]
        assert inst.n == 2
        assert job_of(inst, 1).size == 1

    def test_non_positive_size(self):
        with pytest.raises(InstanceError, match="non-positive size for job 0"):
            make_instance([(0, 0, 0)], machines=1)

    def test_duplicate_id(self):
        with pytest.raises(InstanceError, match="duplicate id 0"):
            make_instance([(0, 0, 1), (0, 1, 1)], machines=1)

    def test_negative_release(self):
        with pytest.raises(InstanceError, match="negative release for job 0"):
            make_instance([(0, -1, 1)], machines=1)

    def test_negative_fractional_release(self):
        with pytest.raises(InstanceError, match="negative release for job 1"):
            make_instance([(0, 0, 1), (1, "-1/3", "1/2")], machines=1)

    def test_negative_fractional_size(self):
        with pytest.raises(InstanceError, match="non-positive size for job 0"):
            make_instance([(0, "1/2", "-2/7")], machines=1)

    def test_sparse_ids(self):
        with pytest.raises(InstanceError, match="dense"):
            make_instance([(0, 0, 1), (2, 0, 1)], machines=1)

    def test_machine_count(self):
        with pytest.raises(InstanceError, match="machines must be >= 1"):
            make_instance([(0, 0, 1)], machines=0)

    def test_bools_are_not_integers(self):
        # a bool machine count or job id would reach a trace document as
        # JSON true, which trace_from_json refuses
        with pytest.raises(InstanceError, match="^machines must be an integer, got True$"):
            make_instance([(0, 0, 1)], machines=True)
        jobs = (Job(False, Rational(0), Rational(1)), Job(True, Rational(0), Rational(1)))
        with pytest.raises(InstanceError, match="^job id must be an integer, got False$"):
            validate_instance(Instance(jobs=jobs, machines=1))

    def test_empty_instance_ok(self):
        inst = make_instance([], machines=2)
        assert inst.n == 0

    def test_validated_instance_is_not_copied(self):
        inst = make_instance([(1, 2, 1), (0, 0, 3), (2, 1, 2)], machines=2)
        assert validate_instance(inst) is inst
        assert simulate_srpt(inst, SpeedConfig.from_speed("3/2")).instance is inst
        assert brute_force_opt(inst, k=2).trace.instance is inst

    def test_raw_instance_is_checked_and_sorted(self):
        raw = Instance(jobs=build_jobs([(1, 2, 1), (0, 0, 3)]), machines=1)
        inst = validate_instance(raw)
        assert inst is not raw and [j.id for j in inst.jobs] == [0, 1]
        assert validate_instance(inst) is inst

    @pytest.mark.parametrize(
        "job, message",
        [(Job(0, Rational(5), Rational(1)), "duplicate id 0"),
         (Job(2, Rational(5), Rational(0)), "non-positive size for job 2"),
         (Job(2, Rational(-1), Rational(1)), "negative release for job 2")],
        ids=["duplicate-id", "zero-size", "negative-release"],
    )
    def test_derived_instances_are_checked_in_full(self, job, message):
        # equality ignores the validation mark; replace and pickle drop it
        inst = make_instance([(1, 2, 1), (0, 0, 3)], machines=1)
        with pytest.raises(InstanceError, match="^%s$" % message):
            validate_instance(replace(inst, jobs=inst.jobs + (job,)))
        copy = pickle.loads(pickle.dumps(inst))
        assert copy == inst and validate_instance(copy) is not copy
        object.__setattr__(copy, "jobs", inst.jobs + (job,))
        with pytest.raises(InstanceError, match="^%s$" % message):
            validate_instance(copy)

    @given(
        st.lists(st.tuples(st.sampled_from(FEW_TIMES), positive_rationals), max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_integer_sorts_match_fraction_sorts(self, pairs, rng):
        # few distinct times, so equal releases with different ids are common
        jobs = [Job(id=i, release=r, size=p) for i, (r, p) in enumerate(pairs)]
        rng.shuffle(jobs)
        inst = validate_instance(Instance(jobs=tuple(jobs), machines=1))
        assert inst.jobs == tuple(sorted(jobs, key=lambda j: (j.release, j.id)))


class TestSpeedConfig:
    def test_speed_is_the_only_field(self):
        assert [f.name for f in fields(SpeedConfig)] == ["speed"]

    def test_from_speed(self):
        cfg = SpeedConfig.from_speed("3/2")
        assert cfg.epsilon == rat("1/2")

    def test_from_epsilon(self):
        cfg = SpeedConfig.from_epsilon("1/4")
        assert cfg.speed == rat("5/4")

    def test_unit(self):
        assert UNIT_SPEED.speed == 1 and UNIT_SPEED.epsilon == 0


class TestValidateTrace:
    def test_engine_output_clean(self, e1_fast_trace):
        ok, violations = validate_trace(e1_fast_trace)
        assert ok and violations == []

    def _clone_with_segments(self, trace, segments):
        return ExecutionTrace(
            instance=trace.instance,
            speed=trace.speed,
            segments=tuple(segments),
            completions=trace.completions,
        )

    def test_parallel_self_processing(self, e1_fast_trace):
        segs = list(e1_fast_trace.segments)
        first = segs[0]
        segs[0] = Segment(first.start, first.end, (0, 0))
        bad = self._clone_with_segments(e1_fast_trace, segs)
        assert validate_trace(bad) == (False, [
            "segment 0: parallel self-processing of job 0",
            "work deficit for job 1: 0 of 1",
            "job 1 never scheduled",
        ])

    def test_work_deficit(self, e1_fast_trace):
        segs = list(e1_fast_trace.segments)
        first = segs[0]
        segs[0] = Segment(first.start, first.end, (None, first.assignment[1]))
        bad = self._clone_with_segments(e1_fast_trace, segs)
        assert validate_trace(bad) == (
            False, ["work deficit for job 1: 0 of 1", "job 1 never scheduled"])

    def test_never_scheduled(self, e1_fast_trace):
        segs = [
            Segment(s.start, s.end, tuple(None if j == 1 else j for j in s.assignment))
            for s in e1_fast_trace.segments
        ]
        bad = self._clone_with_segments(e1_fast_trace, segs)
        assert validate_trace(bad) == (
            False, ["work deficit for job 1: 0 of 1", "job 1 never scheduled"])

    def test_first_segment_starts_late(self):
        trace = hand_trace([(0, 0, 1)], 1, [(1, 2, (0,))], [2])
        assert validate_trace(trace) == (False, ["segment 0: starts at 1, expected 0"])

    def test_gap_between_segments(self, e1_fast_trace):
        segs = list(e1_fast_trace.segments)
        s1 = segs[1]
        segs[1] = Segment(s1.start + rat("1/100"), s1.end, s1.assignment)
        bad = self._clone_with_segments(e1_fast_trace, segs)
        assert validate_trace(bad) == (False, [
            "segment 1: starts at 203/300, expected 2/3",
            "work deficit for job 0: 597/200 of 3",
        ])

    def test_run_before_release(self, e1_fast_trace):
        # shove job 2 (released at 1) into the very first segment
        segs = list(e1_fast_trace.segments)
        first = segs[0]
        segs[0] = Segment(first.start, first.end, (first.assignment[0], 2))
        bad = self._clone_with_segments(e1_fast_trace, segs)
        assert validate_trace(bad) == (False, [
            "work deficit for job 0: 2 of 3",
            "segment 0: job 2 runs before its release",
            "work surplus for job 2: 2 of 1",
        ])

    def test_job_listed_twice_counts_once(self):
        trace = hand_trace([(0, 0, 1)], 2, [(0, 1, (0, 0))], [1])
        assert validate_trace(trace) == (
            False, ["segment 0: parallel self-processing of job 0"])

    def test_runs_after_completion(self):
        trace = hand_trace([(0, 0, 1), (1, 0, 1)], 1, [(0, 1, (0,)), (1, 2, (1,))], ["1/2", 2])
        assert validate_trace(trace) == (False, [
            "segment 0: job 0 runs after its completion",
            "job 0: last service ends 1, completion says 1/2",
        ])

    def test_work_surplus(self):
        trace = hand_trace([(0, 0, 1)], 1, [(0, 2, (0,))], [2])
        assert validate_trace(trace) == (False, ["work surplus for job 0: 2 of 1"])

    def test_last_service_before_completion(self):
        trace = hand_trace([(0, 0, 1)], 1, [(0, 1, (0,)), (1, 2, (None,))], [2])
        assert validate_trace(trace) == (
            False, ["job 0: last service ends 1, completion says 2"])

    def test_completes_before_release(self):
        trace = hand_trace([(0, 2, 1)], 1, [(0, 1, (0,))], [1])
        assert validate_trace(trace) == (False, [
            "segment 0: job 0 runs before its release",
            "job 0 completes before release",
        ])

    def test_unknown_job(self, e1_fast_trace):
        segs = list(e1_fast_trace.segments)
        segs[1] = Segment(segs[1].start, segs[1].end, (0, 7))
        assert validate_trace(self._clone_with_segments(e1_fast_trace, segs)) == (
            False, ["segment 1: unknown job 7"])

    def test_slot_count(self, e1_fast_trace):
        segs = list(e1_fast_trace.segments)
        segs[1] = Segment(segs[1].start, segs[1].end, (0,))
        assert validate_trace(self._clone_with_segments(e1_fast_trace, segs)) == (
            False, ["segment 1: 1 machine slots, expected 2"])

    def test_segments_end_past_max_completion(self, e1_fast_trace):
        segs = list(e1_fast_trace.segments) + [Segment(rat(2), rat(3), (None, None))]
        assert validate_trace(self._clone_with_segments(e1_fast_trace, segs)) == (
            False, ["segments end at 3, max completion is 2"])

    def test_no_segments(self):
        trace = hand_trace([(0, 0, 1)], 1, [], [1])
        assert validate_trace(trace) == (False, [
            "no segments but 1 jobs",
            "work deficit for job 0: 0 of 1",
            "job 0 never scheduled",
        ])

    def test_segments_for_empty_instance(self):
        trace = hand_trace([], 1, [(0, 1, (None,))], [])
        assert validate_trace(trace) == (False, ["segments present for an empty instance"])

    def test_completions_cover(self, e1_fast_trace):
        bad = replace(e1_fast_trace, completions=e1_fast_trace.completions[:2])
        assert validate_trace(bad) == (False, ["completions cover 2 of 3 jobs"])

    def test_empty_instance_trace(self):
        inst = make_instance([], machines=1)
        tr = simulate_srpt(inst, UNIT_SPEED)
        ok, violations = validate_trace(tr)
        assert ok and violations == []

    @pytest.mark.parametrize("seed", range(25))
    def test_random_traces_clean(self, seed):
        inst = random_integer_instance(seed)
        for speed in ("1", "3/2", "2"):
            tr = simulate_srpt(inst, SpeedConfig.from_speed(speed))
            ok, violations = validate_trace(tr)
            assert ok, violations


# releases and sizes over the denominators 2, 3, 7 and 11
_FOREIGN_DENOMINATORS = st.sampled_from((2, 3, 7, 11))
_FOREIGN_RELEASES = st.builds(Rational, st.integers(0, 30), _FOREIGN_DENOMINATORS)
_FOREIGN_SIZES = st.builds(Rational, st.integers(1, 30), _FOREIGN_DENOMINATORS)


class TestFlowPower:
    @given(
        st.lists(st.tuples(_FOREIGN_RELEASES, _FOREIGN_SIZES), max_size=7),
        st.integers(1, 3),
        st.sampled_from([srpt_priority, fifo_priority, longest_remaining_priority]),
        st.sampled_from(["1", "5/4", "3/2", "7/3"]),
        st.integers(1, 4),
    )
    def test_matches_per_job_sum(self, pairs, machines, priority, speed, k):
        inst = make_instance([(i, r, p) for i, (r, p) in enumerate(pairs)], machines=machines)
        trace = simulate_policy(inst, SpeedConfig.from_speed(speed), priority)
        expected = sum(((trace.completions[j.id] - j.release) ** k for j in inst.jobs), Rational(0))
        assert flow_power(trace, k) == expected

    def test_empty_instance(self):
        trace = simulate_srpt(make_instance([], machines=2), UNIT_SPEED)
        assert [flow_power(trace, k) for k in (1, 2, 3)] == [0, 0, 0]


def hand_trace(triples, machines, segments, completions):
    """A trace written out by hand: (start, end, assignment) segments and
    the completion of each job id."""
    return ExecutionTrace(
        instance=make_instance(triples, machines=machines),
        speed=UNIT_SPEED,
        segments=tuple(Segment(rat(a), rat(b), slots) for a, b, slots in segments),
        completions=tuple(rat(c) for c in completions),
    )


POLICIES = {
    "srpt": srpt_priority,
    "fifo": fifo_priority,
    "lrpt": longest_remaining_priority,
}


def violation_cases():
    """Case name -> [ok, violations] of validate_trace on every seeded
    corruption of the SRPT, FIFO and LRPT traces of 20 small instances."""
    cases = {}
    for seed in range(20):
        inst = random_integer_instance(seed)
        speed = SpeedConfig.from_speed(("1", "3/2", "2")[seed % 3])
        for pi, (policy, priority) in enumerate(POLICIES.items()):
            trace = simulate_policy(inst, speed, priority)
            for ki, kind in enumerate(CORRUPTION_KINDS):
                rng = XorShift64Star(1000 * seed + 100 * pi + ki)
                ok, violations = validate_trace(corrupt_trace(trace, kind, rng))
                cases["seed=%d policy=%s kind=%s" % (seed, policy, kind)] = [ok, violations]
    return cases


class TestValidateGolden:
    """Every violation list of the seeded corruptions, in order, against
    tests/data/validate_violations.json."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((DATA / "validate_violations.json").read_text())

    @pytest.fixture(scope="class")
    def cases(self):
        return violation_cases()

    def test_same_cases(self, golden, cases):
        assert list(cases) == list(golden)

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_kind(self, kind, golden, cases):
        mine = [name for name in cases if name.endswith(" kind=" + kind)]
        assert len(mine) == 60
        for name in mine:
            assert cases[name] == golden[name], name
        assert not all(cases[name][0] for name in mine)


# moves by fractions whose denominators no seeded trace holds
_FOREIGN_SHIFTS = (Rational(-1, 7), Rational(1, 7), Rational(-2, 11), Rational(3, 13))
FOREIGN_KINDS = (
    "end",  # one segment's end moved
    "bound",  # one segment's end and the next one's start moved together
    "completion",  # one completion moved
)


def foreign_denominator_cases():
    """Case name -> [ok, violations] of validate_trace on the SRPT, FIFO and
    LRPT traces of 12 small integral instances, each with one time moved by
    a multiple of 1/7, 1/11 or 1/13: a denominator found nowhere else in the
    trace."""
    cases = {}
    for seed in range(12):
        inst = random_integer_instance(seed)
        speed = SpeedConfig.from_speed(("1", "3/2", "2")[seed % 3])
        for pi, (policy, priority) in enumerate(POLICIES.items()):
            trace = simulate_policy(inst, speed, priority)
            for ki, kind in enumerate(FOREIGN_KINDS):
                rng = XorShift64Star(7000 + 100 * seed + 10 * pi + ki)
                shift = _FOREIGN_SHIFTS[rng.below(4)]
                segs = list(trace.segments)
                comps = list(trace.completions)
                idx = rng.below(len(segs))
                if kind in ("end", "bound"):
                    if kind == "bound":
                        idx = rng.below(len(segs) - 1) if len(segs) > 1 else 0
                    seg = segs[idx]
                    segs[idx] = Segment(seg.start, seg.end + shift, seg.assignment)
                    if kind == "bound" and idx + 1 < len(segs):
                        seg = segs[idx + 1]
                        segs[idx + 1] = Segment(seg.start + shift, seg.end, seg.assignment)
                else:
                    comps[rng.below(inst.n)] += shift
                bad = replace(trace, segments=tuple(segs), completions=tuple(comps))
                cases["seed=%d policy=%s kind=%s" % (seed, policy, kind)] = list(validate_trace(bad))
    return cases


class TestForeignDenominators:
    """validate_trace on times whose denominators appear nowhere else in the
    trace, against tests/data/validate_denominators.json and by hand."""

    def test_golden(self):
        golden = json.loads((DATA / "validate_denominators.json").read_text())
        cases = foreign_denominator_cases()
        assert list(cases) == list(golden)
        for name, case in cases.items():
            assert case == golden[name], name
        for kind in FOREIGN_KINDS:
            assert not all(case[0] for name, case in cases.items() if name.endswith(" kind=" + kind))

    def _moved_bound(self, trace, shift):
        segs = list(trace.segments)
        segs[0] = Segment(segs[0].start, segs[0].end + shift, segs[0].assignment)
        segs[1] = Segment(segs[1].start + shift, segs[1].end, segs[1].assignment)
        return replace(trace, segments=tuple(segs))

    def test_bound_moved_back(self, e1_fast_trace):
        # job 1 runs on [0, 2/3 - 1/7] at speed 3/2: 11/14 of its unit size
        assert validate_trace(self._moved_bound(e1_fast_trace, Rational(-1, 7))) == (False, [
            "work deficit for job 1: 11/14 of 1",
            "job 1: last service ends 11/21, completion says 2/3",
        ])

    def test_bound_moved_on(self, e1_fast_trace):
        assert validate_trace(self._moved_bound(e1_fast_trace, Rational(1, 7))) == (False, [
            "segment 0: job 1 runs after its completion",
            "work surplus for job 1: 17/14 of 1",
            "job 1: last service ends 17/21, completion says 2/3",
        ])

    def test_segment_end_moved(self, e1_fast_trace):
        segs = list(e1_fast_trace.segments)
        segs[-1] = Segment(segs[-1].start, segs[-1].end + Rational(1, 7), segs[-1].assignment)
        assert validate_trace(replace(e1_fast_trace, segments=tuple(segs))) == (False, [
            "segments end at 15/7, max completion is 2",
            "segment 3: job 0 runs after its completion",
            "work surplus for job 0: 45/14 of 3",
            "job 0: last service ends 15/7, completion says 2",
        ])

    def test_completion_moved(self, e1_fast_trace):
        comps = (e1_fast_trace.completions[0], e1_fast_trace.completions[1], Rational(38, 21))
        bad = replace(e1_fast_trace, completions=comps)
        assert validate_trace(bad) == (False, ["job 2: last service ends 5/3, completion says 38/21"])


def decimal_cases():
    """Seeded rationals covering the classes where rendering to 12
    significant digits can go wrong: exact ties at the last kept digit,
    carries to the next power of ten, both sides of the switch to scientific
    notation at 10^±21, tiny and huge magnitudes, negative values and
    denominators of up to 40 digits."""
    rng = XorShift64Star(12)

    def digits(n):  # a random integer of exactly n digits
        return int("".join([str(rng.randint(1, 9))] + [str(rng.below(10)) for _ in range(n - 1)]))

    def signed(q):
        return -q if rng.below(3) == 0 else q

    def times_ten(mant, e):
        return Rational(mant) * Rational(10) ** e

    nines = 10**12 - 1
    cases = []
    for e in range(-45, 46):
        head = digits(12)
        cases += [
            times_ten(1, e),
            times_ten(10 * head + 5, e - 12),  # tie, kept digit either parity
            times_ten(10 * (head ^ 1) + 5, e - 12),
            times_ten(10 * nines + 5, e - 12),  # tie that carries
            times_ten(10 * nines + rng.randint(6, 9), e - 12),  # carry
            times_ten(10 * nines + rng.randint(0, 4), e - 12),  # no carry
            times_ten(digits(rng.randint(1, 40)), e) / digits(rng.randint(1, 40)),
        ]
    for den in range(1, 61):
        cases.append(Rational(rng.randint(-1000, 1000), den))
    for _ in range(400):
        cases.append(Rational(digits(rng.randint(1, 40)), digits(rng.randint(1, 40))))
    return [signed(q) for q in cases]


class TestDecimalGolden:
    """decimal_str on every seeded rational of tests/data/decimal_str.json."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((DATA / "decimal_str.json").read_text())

    def test_same_cases(self, golden):
        assert [Rational(num, den) for num, den, _ in golden] == decimal_cases()

    def test_renderings(self, golden):
        for num, den, text in golden:
            assert decimal_str(Rational(num, den)) == text, (num, den)


class TestFlowSummary:
    def test_e1_unit(self, e1_unit_trace):
        summary = objectives(e1_unit_trace)
        assert summary.total_flow == 5
        assert summary.kth_power_flow[1] == 5
        assert summary.kth_power_flow[2] == 11
        assert summary.lk_norm[2] == "3.31662479036"

    def test_single_job_speedup(self):
        inst = make_instance([(0, 0, 3)], machines=1)
        tr = simulate_srpt(inst, SpeedConfig.from_speed("3/2"))
        summary = objectives(tr)
        assert summary.total_flow == 2
        assert summary.flows == (2,)

    @pytest.mark.parametrize("seed", range(10))
    def test_power_one_matches_total(self, seed):
        inst = random_integer_instance(seed)
        tr = simulate_srpt(inst, SpeedConfig.from_speed("3/2"))
        summary = objectives(tr)
        assert summary.kth_power_flow[1] == summary.total_flow
        for jid, flow in enumerate(summary.flows):
            job = job_of(inst, jid)
            assert flow >= job.size / tr.speed.speed


class TestTextFormat:
    E1_TEXT = "m 2\njob 0 0 3\njob 1 0 1\njob 2 1 1\n"

    def test_parse_example(self, e1_instance):
        assert parse_instance(self.E1_TEXT) == e1_instance

    def test_serialize_roundtrip(self, e1_instance):
        assert parse_instance(serialize_instance(e1_instance)) == e1_instance

    def test_comments_and_blanks(self):
        text = "# header\n\nm 1\n# inline note\njob 0 0 3/2\n"
        inst = parse_instance(text)
        assert job_of(inst, 0).size == rat("3/2")

    def test_machine_floor(self):
        # instance-level failures surface as parse errors with the same text
        with pytest.raises(ParseError, match="machines must be >= 1"):
            parse_instance("m 0\njob 0 0 1\n")

    def test_line_numbered_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("m 1\njob 0 zero 1\n")

    @pytest.mark.parametrize("text", ["m 1_0\njob 0 0 1\n", "m +1\njob 0 0 1\n",
                                      "m 1\njob \u0660 0 1\n", "m 1\njob +0 0 1\n",
                                      "m 1\njob 0 1_0 3\n", "m 1\njob 0 0 \u0663\n"])
    def test_numbers_outside_the_grammar(self, text):
        # int() would read these as 10 machines, id 0, release 10 or size 3
        with pytest.raises(ParseError, match="line [12]"):
            parse_instance(text)

    def test_missing_m(self):
        with pytest.raises(ParseError, match="missing m line"):
            parse_instance("job 0 0 1\n")

    def test_duplicate_m(self):
        with pytest.raises(ParseError, match="duplicate m line"):
            parse_instance("m 1\nm 2\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_instance("m 1\ntask 0 0 1\n")

    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(st.tuples(rationals, positive_rationals), max_size=6),
    )
    def test_text_roundtrip_property(self, machines, pairs):
        triples = [(i, r, p) for i, (r, p) in enumerate(pairs)]
        inst = make_instance(triples, machines=machines)
        assert parse_instance(serialize_instance(inst)) == inst


class TestJsonFormat:
    def test_instance_roundtrip(self, e1_instance, e1_fast_trace):
        doc = trace_to_json(e1_fast_trace)
        assert trace_from_json(doc).instance == e1_instance

    @pytest.mark.parametrize("field, value, message", [
        ("machines", 2.7, "machines must be an integer, got 2.7"),
        ("machines", False, "machines must be an integer, got False"),
        ("id", 0.9, "job id must be an integer, got 0.9"),
        ("id", True, "job id must be an integer, got True"),
    ])
    def test_instance_rejects_inexact_integers(self, e1_fast_trace, field, value, message):
        doc = trace_to_json(e1_fast_trace)
        (doc["instance"] if field == "machines" else doc["instance"]["jobs"][0])[field] = value
        with pytest.raises(TraceError) as exc:
            trace_from_json(doc)
        assert str(exc.value) == "malformed trace document: " + message

    @pytest.mark.parametrize("bad, message", [
        (lambda d: {"machines": 2}, "'jobs'"),
        (lambda d: dict(d, jobs=[dict(d["jobs"][0], size="0")]), "non-positive size for job 0"),
        (lambda d: dict(d, jobs=[dict(d["jobs"][0], release="x")]), "bad rational 'x'"),
        (lambda d: dict(d, machines=0), "machines must be >= 1"),
        (lambda d: dict(d, jobs=5), "'int' object is not iterable"),
        (lambda d: dict(d, jobs=[None]), "'NoneType' object is not subscriptable"),
        (lambda d: [d], "list indices must be integers or slices, not str"),
    ])
    def test_malformed_instance_document(self, e1_fast_trace, bad, message):
        doc = trace_to_json(e1_fast_trace)
        doc["instance"] = bad(doc["instance"])
        with pytest.raises(TraceError) as exc:
            trace_from_json(doc)
        assert str(exc.value) == "malformed trace document: " + message

    def test_trace_holds_exactly_its_document(self, e1_instance, e1_fast_trace):
        # no field may be derived from the others: each one is a key of the
        # document, so a trace read back is the trace written
        for trace in (e1_fast_trace, brute_force_opt(e1_instance, k=2).trace):
            assert [f.name for f in fields(trace)] == list(trace_to_json(trace))

    def test_malformed_trace_document_type(self, e1_fast_trace):
        with pytest.raises(TraceError) as exc:
            trace_from_json([trace_to_json(e1_fast_trace)])
        assert str(exc.value) == "malformed trace document: list indices must be integers or slices, not str"

    def test_trace_roundtrip(self, e1_fast_trace):
        doc = trace_to_json(e1_fast_trace)
        assert trace_from_json(doc) == e1_fast_trace

    def test_speed_epsilon_mismatch(self, e1_fast_trace):
        doc = trace_to_json(e1_fast_trace)
        doc["speed"] = {"speed": "2", "epsilon": "1/2"}
        with pytest.raises(
            TraceError,
            match="^malformed trace document: speed must equal 1 \\+ epsilon exactly$",
        ):
            trace_from_json(doc)

    def test_dump_json_stable(self, e1_fast_trace):
        a = dump_json(trace_to_json(e1_fast_trace))
        b = dump_json(trace_to_json(e1_fast_trace))
        assert a == b
        assert a.endswith("\n")
        # keys sorted means the serialized form is canonical
        assert a.index('"completions"') < a.index('"instance"') < a.index('"segments"')

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_roundtrip_random(self, seed):
        inst = random_integer_instance(seed)
        tr = simulate_srpt(inst, SpeedConfig.from_speed("3/2"))
        assert trace_from_json(trace_to_json(tr)) == tr

    @pytest.mark.parametrize("den", (3, 7, 11))
    @pytest.mark.parametrize("policy", (srpt_priority, fifo_priority, longest_remaining_priority))
    def test_fractional_trace_roundtrip(self, den, policy):
        # releases, sizes and speed all over `den`: segment bounds and
        # completions land on many distinct fractions, some repeated
        triples = [(i, Rational(i * 2 // 3, den), Rational(1 + i % 4, den) + i % 2)
                   for i in range(9)]
        inst = make_instance(triples, machines=2)
        tr = simulate_policy(inst, SpeedConfig.from_speed(Rational(den + 1, den)), policy)
        assert any(t.denominator > 1 for t in tr.completions)
        back = trace_from_json(json.loads(dump_json(trace_to_json(tr))))
        assert back == tr

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.pop("segments"), "'segments'"),
        (lambda d: d["completions"].pop("2"), "'2'"),
        (lambda d: d["segments"][0].update(end="1/0"), "denominator must be positive in '1/0'"),
        (lambda d: d["instance"]["jobs"][1].update(release="x"), "bad rational 'x'"),
        (lambda d: d["completions"].update({"0": "x"}), "bad rational 'x'"),
        (lambda d: d["segments"][0].update(start=[0]), "expected rational string, got [0]"),
        (lambda d: d["instance"]["jobs"][1].update(id=0), "duplicate id 0"),
        (lambda d: d["instance"]["jobs"][2].update(id=5), "job ids must be dense 0..n-1"),
        (lambda d: d.update(speed={"speed": "2", "epsilon": "1/2"}),
         "speed must equal 1 + epsilon exactly"),
        # numbers that are not exact integers, and JSON booleans, are refused
        # rather than truncated or read as 1 and 0
        (lambda d: d["instance"].update(machines=2.7), "machines must be an integer, got 2.7"),
        (lambda d: d["instance"].update(machines=True), "machines must be an integer, got True"),
        (lambda d: d["instance"].update(machines="2"), "machines must be an integer, got '2'"),
        (lambda d: d["instance"]["jobs"][0].update(id=0.9), "job id must be an integer, got 0.9"),
        (lambda d: d["instance"]["jobs"][1].update(id=True), "job id must be an integer, got True"),
        (lambda d: d["instance"]["jobs"][1].update(release=True), "expected rational string, got True"),
        (lambda d: d["instance"]["jobs"][2].update(size=False), "expected rational string, got False"),
        (lambda d: d["completions"].update({"0": True}), "expected rational string, got True"),
        (lambda d: d["segments"][0]["assignment"].update({"0": True}),
         "assigned job id must be an integer, got True"),
        (lambda d: d["segments"][0]["assignment"].update({"0": 1.0}),
         "assigned job id must be an integer, got 1.0"),
        # an invalid instance, and containers of the wrong type, are
        # malformed documents too
        (lambda d: d["instance"]["jobs"][1].update(size="0"), "non-positive size for job 1"),
        (lambda d: d["instance"].update(jobs=5), "'int' object is not iterable"),
        (lambda d: d["instance"].update(jobs=[5]), "'int' object is not subscriptable"),
        (lambda d: d.update(segments=None), "'NoneType' object is not iterable"),
        (lambda d: d.update(speed="1"), "string indices must be integers, not 'str'"),
        (lambda d: d["segments"][0].update(assignment=[0, 1]), "'list' object has no attribute 'get'"),
        (lambda d: d.update(completions=["1", "2", "3"]), "list indices must be integers or slices, not str"),
    ])
    def test_malformed_trace_text(self, e1_fast_trace, mutate, message):
        doc = json.loads(dump_json(trace_to_json(e1_fast_trace)))
        mutate(doc)
        with pytest.raises(TraceError) as exc:
            trace_from_json(doc)
        assert str(exc.value) == "malformed trace document: " + message


def _stdlib_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800'),
)
# one key type per dict: sort_keys cannot order str keys among others
_json_docs = st.recursive(_json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(), kids, max_size=4),
    st.dictionaries(st.integers() | st.booleans(), kids, max_size=4),
    st.dictionaries(st.floats(allow_nan=False), kids, max_size=3),
    st.dictionaries(st.none(), kids, max_size=1),
), max_leaves=24)


class _Int(int):
    def __repr__(self):
        return "not json"


class _Float(float):
    def __repr__(self):
        return "not json"


class TestDumpJson:
    """dump_json writes the bytes of the standard library's indented encoder."""

    @given(_json_docs)
    def test_matches_stdlib(self, doc):
        assert dump_json(doc) == _stdlib_json(doc)

    @pytest.mark.parametrize("doc", [
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 0.1],
        {float("nan"): 1, 2.5: [], -0.0: {}},
        [_Int(3), _Float(1.5), {_Int(4): _Float(2.0)}],
        {"k": ("a", ("b",), ()), "": {"": []}, "\u00e9": "\x00\"\\"},
        {True: None, 0: False, 7: 7},
        [[[[[[]]]]], {"a": {"b": {"c": {}}}}],
        "top level string", 5, None, True, 2.0,
    ])
    def test_leaves_and_containers(self, doc):
        assert dump_json(doc) == _stdlib_json(doc)

    @pytest.mark.parametrize("doc", [
        object(),
        [Rational(1, 2)],
        {"a": {"b": object()}},
        {(1, 2): 1},
        {"a": 1, 2: 3},
        {Rational(1, 2): 1},
    ])
    def test_rejects_what_stdlib_rejects(self, doc):
        with pytest.raises(TypeError):
            _stdlib_json(doc)
        with pytest.raises(TypeError):
            dump_json(doc)


class TestExports:
    def test_star_import_and_unique_names(self):
        # a name deleted from the package but left in __all__ fails here
        namespace = {}
        exec("from srptlab import *", namespace)
        assert set(srptlab.__all__) <= namespace.keys()
        assert len(set(srptlab.__all__)) == len(srptlab.__all__)


if __name__ == "__main__":
    # regenerate the golden files: PYTHONPATH=src python tests/test_core.py
    (DATA / "validate_violations.json").write_text(
        json.dumps(violation_cases(), indent=1) + "\n"
    )
    (DATA / "validate_denominators.json").write_text(
        json.dumps(foreign_denominator_cases(), indent=1) + "\n"
    )
    decimals = [[q.numerator, q.denominator, decimal_str(q)] for q in decimal_cases()]
    (DATA / "decimal_str.json").write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in decimals) + "\n]\n"
    )
