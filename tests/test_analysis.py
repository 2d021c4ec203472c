"""Potential-function verification: states and potentials against their
definitions, condition walks, charges.

Hand-derived values for the three-job running example (fast side at speed
3/2, reference = unit-speed shortest-remaining) are frozen here; each was
computed by replaying the schedules by hand before the module existed.
"""

import hashlib
import json
import tracemalloc
import weakref
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from srptlab import (
    AnalysisError,
    CheckRecord,
    ExecutionTrace,
    GenSpec,
    PotentialReport,
    Segment,
    SpeedConfig,
    UNIT_SPEED,
    brute_force_opt,
    check_backlog_bound,
    check_completion_charge,
    check_flow_conditions,
    check_power_flow_conditions,
    fifo_priority,
    generate,
    longest_remaining_priority,
    make_context,
    make_instance,
    objectives,
    report_to_json,
    simulate_policy,
    simulate_srpt,
    srpt_priority,
    verify,
)
from srptlab import analysis
from srptlab.core import flow_power
from srptlab.rationals import rat
from srptlab.workload import XorShift64Star

from helpers import (
    alive_by_definition,
    clamped_ages_by_definition,
    event_times,
    job_of,
    potential_by_definition,
    potentials_by_definition,
    random_integer_instance,
    rebuild_remaining,
    reference_state,
    window_bounds_by_definition,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def e1_ctx(e1_instance, e1_fast_trace, e1_unit_trace):
    return make_context(e1_fast_trace, e1_unit_trace)


@pytest.fixture(scope="module")
def e1_unit_ctx(e1_instance, e1_unit_trace):
    # both sides at unit speed: eps = 0, only the backlog queries make sense
    return make_context(e1_unit_trace, e1_unit_trace)


def single_job_ctx(p="1", eps="1/2", machines=1):
    inst = make_instance([(0, 0, rat(p))], machines=machines)
    fast = simulate_srpt(inst, SpeedConfig.from_epsilon(eps))
    ref = simulate_srpt(inst, UNIT_SPEED)
    return make_context(fast, ref)


def records_by_label(report, prefix):
    return [r for r in report.records if r.label.startswith(prefix)]


def backlogs(ctx, t):
    """(alg, ref) at time t by definition: job id -> the fast volume ahead of
    it, and the reference volume on the no-larger jobs ahead of it."""
    alive = (alive_by_definition(ctx.srpt_trace, t), alive_by_definition(ctx.ref_trace, t))
    st = reference_state(ctx, t, *alive)
    return ({i: v / ctx.V for i, v in st.ahead_alg.items()},
            {i: v / ctx.V for i, v in st.ahead_ref_small.items()})


class TestPointQueries:
    """Hand-computed values on e1 of the definitions in tests/helpers.py,
    which pin the states, the potentials and potential_queries.json."""

    def test_remaining_mid_service(self, e1_unit_trace):
        assert rebuild_remaining(e1_unit_trace, 0, rat("1/2")) == rat("5/2")

    def test_remaining_at_release_is_size(self, e1_fast_trace):
        for j in e1_fast_trace.instance.jobs:
            assert rebuild_remaining(e1_fast_trace, j.id, j.release) == j.size

    def test_remaining_at_completion_is_zero(self, e1_fast_trace):
        for j in e1_fast_trace.instance.jobs:
            assert rebuild_remaining(e1_fast_trace, j.id, e1_fast_trace.completions[j.id]) == 0

    def test_backlog_examples_unit_pair(self, e1_unit_ctx):
        # finishing order on the unit trace: J1 (1) < J2 (2) < J0 (3)
        assert backlogs(e1_unit_ctx, rat("1/2"))[0][1] == rat("1/2")
        alg, ref = backlogs(e1_unit_ctx, 0)
        assert alg[0] == 4
        assert ref[0] == 4
        assert ref[1] == 1

    def test_backlog_zero_at_own_completion(self, e1_ctx):
        for j in e1_ctx.instance.jobs:
            assert backlogs(e1_ctx, e1_ctx.srpt_trace.completions[j.id])[0][j.id] == 0

    def test_ref_backlog_empty_after_reference_drains(self, e1_ctx):
        _, ref = backlogs(e1_ctx, 10)
        assert all(ref[j.id] == 0 for j in e1_ctx.instance.jobs)


class TestBacklogBound:
    def test_e1_record_values(self, e1_unit_ctx):
        report = check_backlog_bound(e1_unit_ctx)
        assert report.verdict
        gap0 = [
            r for r in records_by_label(report, "backlog gap job 0") if r.time == 0
        ]
        assert gap0 and gap0[0].delta == 0 and gap0[0].bound == 6

    def test_release_with_empty_system(self):
        ctx = single_job_ctx(p="3", eps="1/2")
        report = check_backlog_bound(ctx)
        assert report.verdict
        rec = [r for r in records_by_label(report, "backlog gap job 0") if r.time == 0][0]
        assert rec.bound == 3 and rec.slack > 0

    def test_fast_pair_passes(self, e1_ctx):
        report = check_backlog_bound(e1_ctx)
        assert report.verdict
        assert report.worst_slack is not None and report.worst_slack >= 0

    def test_identity_records_all_pass(self, e1_ctx):
        report = check_backlog_bound(e1_ctx)
        idents = records_by_label(report, "small-volume identity")
        assert idents and all(r.passed and r.delta == 0 for r in idents)

    def test_fifo_small_volume_identity_fails(self):
        # m = 1; job 0 (r 0, p 4), job 1 (r 1, p 1). FIFO at 3/2 runs job 0
        # on [0, 8/3] and job 1 on [8/3, 10/3]; unit SRPT runs job 0 on
        # [0, 1], job 1 on [1, 2] and job 0 on [2, 5]. At t = 1 the fast
        # backlog ahead of job 1 is 5/2 + 1, of which only job 1's 1 is at
        # most size(1): the identity is off by -5/2, and the gap against
        # the reference's 1 on job 1 is 5/2 > m * size(1) = 1. At t = 3/2
        # job 0 has 7/4 left; from t = 2 on it has at most 1.
        inst = make_instance([(0, 0, 4), (1, 1, 1)], machines=1)
        fast = simulate_policy(inst, SpeedConfig.from_speed(rat("3/2")), fifo_priority)
        ctx = make_context(fast, simulate_srpt(inst, UNIT_SPEED))
        report = check_backlog_bound(ctx)
        assert not report.verdict
        ident = {r.time: r for r in records_by_label(report, "small-volume identity job 1")}
        assert ident[1].delta == rat("-5/2") and not ident[1].passed
        assert ident[rat("3/2")].delta == rat("-7/4") and not ident[rat("3/2")].passed
        assert all(r.passed for t, r in ident.items() if t >= 2)
        assert {t for t, r in ident.items() if not r.passed} == {1, rat("3/2")}
        gap = [r for r in records_by_label(report, "backlog gap job 1") if r.time == 1][0]
        assert (gap.delta, gap.bound, gap.passed) == (rat("5/2"), 1, False)
        assert all(r.passed for r in records_by_label(report, "small-volume identity job 0"))

    @pytest.mark.parametrize("seed", range(15))
    def test_random_pairs_all_references(self, seed):
        inst = random_integer_instance(seed)
        fast = simulate_srpt(inst, SpeedConfig.from_speed("3/2"))
        refs = [
            simulate_srpt(inst, UNIT_SPEED),
            simulate_policy(inst, UNIT_SPEED, fifo_priority),
            brute_force_opt(inst, k=1).trace,
        ]
        for ref in refs:
            assert check_backlog_bound(make_context(fast, ref)).verdict


class TestFlowPotential:
    def test_zero_before_first_event(self, e1_ctx):
        reports = check_flow_conditions(e1_ctx)
        rec = records_by_label(reports.completion, "potential before first event")[0]
        assert rec.delta == 0

    def test_zero_after_everything(self, e1_ctx):
        assert potential_by_definition(e1_ctx, 3) == 0
        assert potential_by_definition(e1_ctx, 100) == 0

    def test_e1_initial_value(self, e1_ctx):
        # terms at t=0: J0 contributes 4 + 2*3 - 4 = 6, J1 contributes
        # 1 + 2*1 - 1 = 2; scaling 1/(m*eps) = 1 gives 8
        assert potential_by_definition(e1_ctx, 0) == 8


class TestFlowConditions:
    def test_e1_report_values(self, e1_ctx):
        reports = check_flow_conditions(e1_ctx)
        assert reports.all_pass

        arr = {r.label: r for r in reports.arrival.records if r.bound is not None}
        assert arr["arrival job 0"].delta == 6 and arr["arrival job 0"].bound == 12
        assert arr["arrival job 1"].delta == 2 and arr["arrival job 1"].bound == 4
        assert arr["arrival job 2"].delta == 2 and arr["arrival job 2"].bound == 4
        assert reports.arrival.aggregate == 10

        comp = records_by_label(reports.completion, "completion job")
        assert [r.delta for r in comp] == [rat("1/3"), rat("1/3"), 1]
        agg = records_by_label(reports.completion, "aggregate completion charge")[0]
        assert agg.delta == rat("5/3") and agg.bound == 15

        assert reports.running.aggregate == rat("-25/3")
        assert all(r.delta <= 0 for r in records_by_label(reports.running, "drift"))

        bound_rec = reports.objective_bound.records[0]
        assert bound_rec.delta == rat("10/3") and bound_rec.bound == 40

    def test_boundary_potentials_zero(self, e1_ctx):
        reports = check_flow_conditions(e1_ctx)
        for label in ("potential before first event", "potential after final event"):
            rec = records_by_label(reports.completion, label)[0]
            assert rec.passed and rec.delta == 0

    def test_single_job_closed_forms(self):
        p, eps = rat(3), rat("1/4")
        ctx = single_job_ctx(p=p, eps=eps)
        reports = check_flow_conditions(ctx)
        assert reports.all_pass
        arr = records_by_label(reports.arrival, "arrival job 0")[0]
        assert arr.delta == p / eps and arr.bound == 2 * p / eps
        comp = records_by_label(reports.completion, "completion job 0")[0]
        assert comp.delta == p / (1 + eps)
        # exact telescoping forces the interval drift to -p/eps
        assert reports.running.aggregate == -p / eps
        assert reports.objective_bound.records[0].delta == p / (1 + eps)

    def test_requires_positive_eps(self, e1_unit_ctx):
        with pytest.raises(AnalysisError, match="epsilon must be positive"):
            check_flow_conditions(e1_unit_ctx)

    def test_arrival_jump_over_bound_is_a_witness(self):
        # jobs 1 (size 3), 5 (size 1) and 6 arrive at 0 on one machine. LRPT
        # at 5/4 finishes job 1 before job 5, so job 5's gap carries job 1's
        # volume: its arrival jump is (3 + 1)/eps = 16 against 2 * 1/eps = 8
        inst = generate(GenSpec("uniform", 8, 1, (1, 6), (0, 8), 0))
        fast = simulate_policy(inst, SpeedConfig.from_speed(rat("5/4")), longest_remaining_priority)
        reports = check_flow_conditions(make_context(fast, simulate_srpt(inst, UNIT_SPEED)))
        [row] = [row for row in verify(fast, refs=("unit-srpt",)).rows if row.check == "flow-potential"]
        for failures in (reports.arrival.failures, row.reports[0].failures):
            first = failures[0]
            assert (first.label, first.time, first.delta, first.bound) == ("arrival job 5", 0, 16, 8)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("eps", ("1/4", "1/2", "1"))
    def test_random_contexts_pass(self, seed, eps):
        inst = random_integer_instance(seed)
        fast = simulate_srpt(inst, SpeedConfig.from_epsilon(eps))
        ref = simulate_srpt(inst, UNIT_SPEED)
        reports = check_flow_conditions(make_context(fast, ref))
        assert reports.all_pass


class TestPowerPotential:
    def test_empty_queue(self, e1_ctx):
        assert potential_by_definition(e1_ctx, 100, 2) == 0
        reports = check_power_flow_conditions(e1_ctx, k=2)
        rec = records_by_label(reports.completion, "potential before first event")[0]
        assert rec.delta == 0

    def test_single_job_at_release(self):
        # only the arriving job is alive, t - release = 0, so the potential
        # collapses to scale * (inner volume / (m*eps))^k
        p, eps, k = rat(1), rat("1/2"), 2
        ctx = single_job_ctx(p=p, eps=eps)
        expected = (p / (eps * (1 - eps))) ** k
        assert potential_by_definition(ctx, 0, k) == expected == 16

    @pytest.mark.parametrize("k", (1, 2))
    def test_reconstructs_from_point_queries(self, k):
        # rebuild the potential per job from remaining volumes read off the
        # raw segments, and compare with the potential the walk's records
        # imply at each boundary; where no job's max-expression clamps, k=1
        # additionally ties to the flow walk's potential in closed form
        for seed in range(8):
            inst = random_integer_instance(seed)
            fast = simulate_srpt(inst, SpeedConfig.from_epsilon("1/4"))
            ref = simulate_srpt(inst, UNIT_SPEED)
            ctx = make_context(fast, ref)
            eps, m = ctx.epsilon, inst.machines
            rank = ctx.finish_rank
            walked = walk_potentials(ctx, ((True, k), (False, 1)))
            for t, (phi, flow_phi) in walked.items():
                alive_alg = sorted(alive_by_definition(fast, t))
                alive_ref = alive_by_definition(ref, t)
                expected = Fraction(0)
                clamped = False
                ages = Fraction(0)
                for jid in alive_alg:
                    job = job_of(inst, jid)
                    ahead = sum(rebuild_remaining(fast, j, t) for j in alive_alg if rank[j] <= rank[jid])
                    small = sum(rebuild_remaining(ref, j, t) for j in alive_ref
                                if rank[j] <= rank[jid] and job_of(inst, j).size <= job.size)
                    inner = (ahead + m * rebuild_remaining(fast, jid, t) - small) / (m * eps)
                    g = (t - job.release) + inner
                    clamped = clamped or g < 0
                    expected += (1 - eps) ** -k * max(g, 0) ** k - (t - job.release) ** k
                    ages += t - job.release
                assert phi == expected, (seed, t)
                if k == 1 and not clamped:
                    assert expected == (ages + flow_phi) / (1 - eps) - ages, (seed, t)


def walk_potentials(ctx, modes):
    """{t: [the potential of each mode at t]} at every boundary t, as the
    walk's records imply it: the jumps at the first boundary are the
    potential there, and on each interval [a, b] the drift record plus the
    jumps at b equal Phi(b) - Phi(a) plus the objective's growth
    sum((b - r_i)^k - (a - r_i)^k) over the jobs i alive at a."""
    results = analysis._walk_pass(ctx, modes, True)
    bounds = [Fraction(T, ctx.L) for T in analysis._boundaries(ctx)]
    release = {j.id: j.release for j in ctx.instance.jobs}
    phis = {t: [] for t in bounds}
    for pos, (_, k) in enumerate(modes):
        (_, _, arrivals), (_, _, completions), (_, _, drifts), _ = results[4 * pos:4 * pos + 4]
        jumps = dict.fromkeys(bounds, 0)
        for rec in (*arrivals, *completions):
            if rec.label.startswith(("arrival", "completion job")):
                jumps[rec.time] += rec.delta
        phi = jumps[bounds[0]]
        phis[bounds[0]].append(phi)
        for rec, a, b in zip(drifts, bounds, bounds[1:]):
            growth = sum((b - release[i]) ** k - (a - release[i]) ** k
                         for i in alive_by_definition(ctx.srpt_trace, a))
            phi += rec.delta + jumps[b] - growth
            phis[b].append(phi)
    return phis


def check_grid(ctx):
    """The backlog check's grid in units of 1/ctx.L: the boundaries and the
    midpoint between each two consecutive ones."""
    bounds = analysis._boundaries(ctx)
    return sorted(bounds + [(a + b) // 2 for a, b in zip(bounds, bounds[1:])])


def grid_times(ctx):
    """The context's check grid as times."""
    return [Fraction(T, ctx.L) for T in check_grid(ctx)]


def assert_backlog_summary_matches_full(ctx):
    """The backlog report's summary (from the pass that evaluates only
    what can fail) against the records the full pass builds at every grid
    time."""
    report = check_backlog_bound(ctx)
    records = tuple(report.records)
    assert [r.time * ctx.L for r in records[::2]] == [
        T for T in check_grid(ctx) for j in ctx.instance.jobs if j.release * ctx.L <= T]
    assert report.n_events == len(records)
    assert report.worst_slack == min(r.slack for r in records)
    assert report.verdict == all(r.passed for r in records)
    assert report.failures == tuple(r for r in records if not r.passed)


POTENTIAL_POLICIES = {
    "srpt": srpt_priority,
    "fifo": fifo_priority,
    "lrpt": longest_remaining_priority,
}


def potential_cases():
    """Case name -> rows [t, the flow potential, the power potential at
    k = 1, 2, 3] by definition at every merged event time and midpoint, for
    seeded 8-job instances with SRPT, FIFO and LRPT fast traces against unit
    SRPT."""
    cases = {}
    for m in (1, 2, 3):
        for seed in (0, 1):
            inst = generate(GenSpec("uniform", 8, m, (1, 6), (0, 8), seed))
            ref = simulate_srpt(inst, UNIT_SPEED)
            for name, priority in POTENTIAL_POLICIES.items():
                for speed in ("5/4", "3/2"):
                    fast = simulate_policy(inst, SpeedConfig.from_speed(rat(speed)), priority)
                    ctx = make_context(fast, ref)
                    cases["m=%d seed=%d policy=%s speed=%s" % (m, seed, name, speed)] = [
                        [str(t)] + [str(v) for v in potentials_by_definition(ctx, t, (None, 1, 2, 3))]
                        for t in grid_times(ctx)
                    ]
    return cases


def test_potential_point_queries_golden():
    """Every potential of potential_cases() against
    tests/data/potential_queries.json."""
    golden = json.loads((DATA / "potential_queries.json").read_text())
    cases = potential_cases()
    assert list(cases) == list(golden)
    for name, rows in cases.items():
        assert rows == golden[name], name


def backlog_digest(report):
    """SHA-256 over every record of a backlog report: time, label, delta,
    bound and verdict, one line each."""
    h = hashlib.sha256()
    for r in report.records:
        h.update(("%s|%s|%s|%s|%s\n" % (r.time, r.label, r.delta, r.bound, r.passed)).encode())
    return h.hexdigest()


def backlog_cases():
    """Case name -> [record count, failed count, digest] of check_backlog_bound
    for seeded uniform and heavy-tail-discrete instances (n = 10 at 3/2,
    n = 7 at 5/4, m = 1-3) with SRPT, FIFO and LRPT fast traces against
    unit SRPT and unit FIFO."""
    cases = {}
    for family in ("uniform", "heavy-tail-discrete"):
        for m in (1, 2, 3):
            for seed, n, speed in ((0, 10, "3/2"), (1, 7, "5/4")):
                inst = generate(GenSpec(family, n, m, (1, 8), (0, 8), seed))
                refs = {
                    "srpt": simulate_srpt(inst, UNIT_SPEED),
                    "fifo": simulate_policy(inst, UNIT_SPEED, fifo_priority),
                }
                for name, priority in POTENTIAL_POLICIES.items():
                    fast = simulate_policy(inst, SpeedConfig.from_speed(rat(speed)), priority)
                    for ref_name, ref in refs.items():
                        report = check_backlog_bound(make_context(fast, ref))
                        key = "%s m=%d seed=%d policy=%s speed=%s ref=%s" % (
                            family, m, seed, name, speed, ref_name)
                        cases[key] = [
                            len(report.records),
                            len(report.failures),
                            backlog_digest(report),
                        ]
    return cases


def test_backlog_records_golden():
    """Every backlog record of backlog_cases() against
    tests/data/backlog_digests.json."""
    golden = json.loads((DATA / "backlog_digests.json").read_text())
    cases = backlog_cases()
    assert list(cases) == list(golden)
    for name, row in cases.items():
        assert row == golden[name], name
    # the golden set holds failing identity records, not only passing ones
    assert sum(row[1] for row in cases.values()) > 0


def reports_digest(reports):
    """SHA-256 over reports: each report's condition, aggregate, worst slack
    and verdict, then every record's fields, one line each."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(("%s|%s|%s|%s\n" % (rep.condition, rep.aggregate, rep.worst_slack, rep.verdict)).encode())
        for r in rep.records:
            h.update(("%s|%s|%s|%s|%s|%s|%s\n" % (
                r.time, r.label, r.delta, r.bound, r.slack, r.passed, r.in_aggregate)).encode())
    return h.hexdigest()


_FRACTION_SIZES = (Fraction(1, 2), Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(5, 3), Fraction(7, 4), 2)


def fractional_instance(seed):
    """5-8 jobs on 1-3 machines, releases in thirds and halves, sizes in
    halves, thirds and quarters, from the package PRNG."""
    rng = XorShift64Star(seed)
    m = 1 + seed % 3
    n = 5 + rng.below(4)
    triples = [
        (i, Fraction(rng.below(13), 2 + rng.below(2)), _FRACTION_SIZES[rng.below(len(_FRACTION_SIZES))])
        for i in range(n)
    ]
    return make_instance(triples, machines=m)


def _check_rows(ctx, ks, speed):
    """[check, records, failures, digest] of every check that applies at this
    speed: the backlog bound, the flow walk, and the power walk and
    completion charge at each k in ks (0 < eps <= 1/2 only)."""
    rows = [["backlog-bound", check_backlog_bound(ctx)]]
    rows.append(["flow", check_flow_conditions(ctx).reports])
    if speed != "2":
        for k in ks:
            rows.append(["power k=%d" % k, check_power_flow_conditions(ctx, k=k).reports])
            rows.append(["charge k=%d" % k, check_completion_charge(ctx, k=k)])
    out = []
    for name, reports in rows:
        reports = reports if isinstance(reports, tuple) else (reports,)
        out.append([
            name,
            sum(len(rep.records) for rep in reports),
            sum(len(rep.failures) for rep in reports),
            reports_digest(reports),
        ])
    return out


CHECK_SPEEDS = ("5/4", "4/3", "3/2", "2")


def check_cases():
    """Case name -> rows of _check_rows for SRPT, FIFO and LRPT fast traces
    at speeds 5/4, 4/3, 3/2 and 2: fractional instances against unit SRPT
    and unit FIFO, and integer instances against the oracle's schedule for
    each k (the backlog bound and flow walk against the k = 1 schedule)."""
    cases = {}
    # seeds 21 and 36 hold LRPT walks that fail the window bound
    for seed in (0, 1, 2, 3, 4, 5, 21, 36):
        inst = fractional_instance(seed)
        refs = {
            "srpt": simulate_srpt(inst, UNIT_SPEED),
            "fifo": simulate_policy(inst, UNIT_SPEED, fifo_priority),
        }
        for speed in CHECK_SPEEDS:
            for name, priority in POTENTIAL_POLICIES.items():
                fast = simulate_policy(inst, SpeedConfig.from_speed(rat(speed)), priority)
                for ref_name, ref in refs.items():
                    key = "fractional seed=%d policy=%s speed=%s ref=%s" % (seed, name, speed, ref_name)
                    cases[key] = _check_rows(make_context(fast, ref), (1, 2, 3), speed)
    for seed in range(3):
        inst = generate(GenSpec("uniform", 6, 1 + seed, (1, 5), (0, 6), seed))
        oracle = {k: brute_force_opt(inst, k=k).trace for k in (1, 2, 3)}
        for speed in CHECK_SPEEDS:
            for name, priority in POTENTIAL_POLICIES.items():
                fast = simulate_policy(inst, SpeedConfig.from_speed(rat(speed)), priority)
                for k, ref in oracle.items():
                    key = "integer seed=%d policy=%s speed=%s ref=oracle k=%d" % (seed, name, speed, k)
                    rows = _check_rows(make_context(fast, ref, k=k), (k,), speed)
                    cases[key] = rows if k == 1 else rows[2:]
    return cases


def test_check_records_golden():
    """Every record of every check in check_cases() against
    tests/data/check_digests.json."""
    golden = json.loads((DATA / "check_digests.json").read_text())
    cases = check_cases()
    assert list(cases) == list(golden)
    for name, rows in cases.items():
        assert rows == golden[name], name
    # the golden set holds failing records of every check, not only passing ones
    failing = {row[0].split()[0] for rows in cases.values() for row in rows if row[2]}
    assert failing == {"backlog-bound", "flow", "power", "charge"}


# (seed, policy, speed, reference) -> the failing window bounds of
# check_completion_charge at every k in 1-3: label, time, delta and bound
FAILING_WINDOWS = {
    (21, "lrpt", "3/2", "srpt"): [
        ("window bound pair (1, 1)", "64/9", "10/9", "11/12"),
        ("window bound pair (7, 1)", "73/9", "10/9", "11/12"),
    ],
    (36, "lrpt", "5/4", "fifo"): [("window bound pair (1, 1)", "91/15", "16/15", "31/30")],
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", FAILING_WINDOWS, ids=lambda case: "seed=%d" % case[0])
def test_failing_window_bounds(case, k, monkeypatch):
    seed, policy, speed, ref_name = case
    inst = fractional_instance(seed)
    fast = simulate_policy(inst, SpeedConfig.from_speed(rat(speed)), POTENTIAL_POLICIES[policy])
    ref_policy = srpt_priority if ref_name == "srpt" else fifo_priority
    report = check_completion_charge(make_context(fast, simulate_policy(inst, UNIT_SPEED, ref_policy)), k=k)
    # reading the failures must not build the records, which indexes the
    # report's traces anew
    indexed = []
    monkeypatch.setattr(analysis, "_indexes", lambda *args: indexed.append(args))
    witnesses = [(r.label, str(r.time), str(r.delta), str(r.bound)) for r in report.failures]
    assert witnesses == FAILING_WINDOWS[case]
    assert not report.verdict and report.worst_slack < 0 and indexed == []


def every_report(ctx, ks):
    """Every report of every check on ctx: the backlog bound, the flow
    walk's four, and at each k the power walk's four and the charge."""
    reports = [check_backlog_bound(ctx), *check_flow_conditions(ctx).reports]
    for k in ks:
        reports.extend(check_power_flow_conditions(ctx, k=k).reports)
        reports.append(check_completion_charge(ctx, k=k))
    return reports


def fused_walk_reports(ctx, ks):
    """every_report's walk reports, in its order, from one walk of the flow
    potential and the power potential at every k, as verify runs it."""
    walks = analysis._walks(ctx, ((False, 1), *((True, k) for k in ks)))
    return [rep for walk in walks for rep in walk.reports]


def report_key(rep):
    """Everything a report says: its summary and every record."""
    return (rep.condition, rep.n_events, rep.worst_slack, rep.verdict, rep.failures, tuple(rep.records))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("speed", ["5/4", "3/2"])
@pytest.mark.parametrize("policy", POTENTIAL_POLICIES)
def test_summaries_agree_with_records(policy, speed, seed):
    """A report's count, worst slack, verdict and failures come from its
    check's integer pass, and its records from a second pass on first read:
    both must describe the same records. A report keeps no context alive.
    A walk of several potentials reports each as a walk of it alone, and a
    charge pass at several ks each k as a pass at it alone."""
    inst = generate(GenSpec("uniform", 6, 1 + seed % 3, (1, 5), (0, 6), 100 + seed))
    fast = simulate_policy(inst, SpeedConfig.from_speed(rat(speed)), POTENTIAL_POLICIES[policy])
    refs = [simulate_srpt(inst, UNIT_SPEED), simulate_policy(inst, UNIT_SPEED, fifo_priority)]
    refs += [brute_force_opt(inst, k=k).trace for k in (1, 2, 3)]
    reports = []
    for ref in refs:
        ctx = make_context(fast, ref)
        one_mode = every_report(ctx, (1, 2, 3))
        fused = fused_walk_reports(ctx, (1, 2, 3))
        walked = [rep for rep in one_mode if rep.condition not in ("backlog-bound", "completion-charge")]
        assert list(map(report_key, walked)) == list(map(report_key, fused))
        for full in (False, True):
            one_k = [analysis._charge_pass(ctx, (k,), full)[0] for k in (1, 2, 3)]
            assert analysis._charge_pass(ctx, (1, 2, 3), full) == one_k
        reports += one_mode + fused
        alive = weakref.ref(ctx)
        del ctx
        assert alive() is None
    # the verify rows merge each walk's four reports into one
    reports += [rep for row in verify(fast, ks=(1, 2, 3)).rows for rep in row.reports]
    for rep in reports:
        records = tuple(rep.records)
        assert rep.n_events == len(records)
        assert rep.worst_slack == min((r.slack for r in records if r.slack is not None), default=None)
        assert rep.verdict == all(r.passed for r in records)
        assert rep.failures == tuple(r for r in records if not r.passed)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("speed", ["5/4", "3/2"])
@pytest.mark.parametrize("policy", POTENTIAL_POLICIES)
def test_records_do_not_depend_on_time_base(policy, speed, seed):
    """verify indexes a fast trace and all its references on one time base.
    A third trace with denominators 7 and 11 inflates the pair's L, and
    every report of every check must come out as on the pair's own base."""
    inst = fractional_instance(seed)
    fast = simulate_policy(inst, SpeedConfig.from_speed(rat(speed)), POTENTIAL_POLICIES[policy])
    ref = simulate_srpt(inst, UNIT_SPEED)
    foreign = simulate_srpt(make_instance([(0, Fraction(1, 7), Fraction(1, 11))], machines=1), UNIT_SPEED)
    own = make_context(fast, ref)
    inflated = analysis.PairContext(*analysis._indexes(fast, ref, foreign)[:2])
    assert inflated.L % (77 * own.L) == 0 and inflated.V == own.q * inflated.L
    for a, b in zip(every_report(own, (1, 2, 3)), every_report(inflated, (1, 2, 3)), strict=True):
        assert report_key(a) == report_key(b)


_SIZES = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(2)])
_RELEASES = st.integers(0, 6).map(lambda x: Fraction(x, 2))
_SPEEDS = st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)])


@st.composite
def trace_pairs(draw):
    """A context over a small fractional instance (ties in size, release
    and completion time are common) with an SRPT, FIFO or LRPT fast trace
    against unit SRPT or FIFO."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    inst = make_instance([(i, draw(_RELEASES), draw(_SIZES)) for i in range(n)], machines=m)
    priority = draw(st.sampled_from(sorted(POTENTIAL_POLICIES)))
    fast = simulate_policy(inst, SpeedConfig.from_speed(draw(_SPEEDS)), POTENTIAL_POLICIES[priority])
    ref_priority = draw(st.sampled_from(["srpt", "fifo"]))
    ref = simulate_policy(inst, UNIT_SPEED, POTENTIAL_POLICIES[ref_priority])
    return make_context(fast, ref)


def probe_times(trace):
    """Every event and segment boundary of a trace, the midpoints between
    consecutive ones, and a time before the first and after the last."""
    times = set(event_times(trace))
    for seg in trace.segments:
        times.update((seg.start, seg.end))
    times = sorted(times)
    mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
    return sorted(set(times + mids + [times[0] - 1, times[-1] + 1]))


def is_equality_record(rec):
    """Whether a record must have delta 0: the backlog identity, an arrival
    shifting another job's term, and the potential at either end."""
    return rec.label.startswith(("small-volume identity", "potential ")) or "shifts term" in rec.label


@given(ctx=trace_pairs())
def test_records_are_consistent(ctx):
    # every record of every check the context allows, read in full, agrees
    # with itself: a bounded record's slack is bound - delta and it passes
    # when that is >= 0; an equality record has bound 0 and slack -|delta|;
    # an informational record has neither and passes; only window records
    # stay out of the aggregate
    eps = ctx.epsilon
    reports = [check_backlog_bound(ctx), *(check_flow_conditions(ctx).reports if eps > 0 else ())]
    for k in (1, 2, 3) if 0 < eps <= analysis.MAX_POWER_EPS else ():
        reports += [*check_power_flow_conditions(ctx, k=k).reports, check_completion_charge(ctx, k=k)]
    for rep in reports:
        for r in rep.records:
            assert all(type(x) is Fraction for x in (r.delta, r.bound, r.slack) if x is not None)
            if r.bound is None:
                assert r.slack is None and r.passed, r
            elif is_equality_record(r):
                assert r.bound == 0 and r.slack == -abs(r.delta) and r.passed == (r.delta == 0), r
            else:
                assert r.slack == r.bound - r.delta and r.passed == (r.slack >= 0), r
            assert r.in_aggregate == (not r.label.startswith("window bound")), r


class TestStateDefinition:
    @given(ctx=trace_pairs(), data=st.data())
    def test_state_matches_definition(self, ctx, data):
        # state takes an integer time in units of 1/ctx.L and returns volumes
        # in units of 1/ctx.V, as reference_state does; asked for every job
        # id, it must give every job's backlogs, and by default those of
        # alive_alg. The passes ask only at grid times
        jobs = sorted(j.id for j in ctx.instance.jobs)
        grid = grid_times(ctx) + [grid_times(ctx)[-1] + 1]
        probes = [(t, alive_by_definition(ctx.srpt_trace, t), alive_by_definition(ctx.ref_trace, t))
                  for t in grid]
        # the walks pass pre-event and pre-arrival sets; any subset must do
        for _ in range(4):
            t = data.draw(st.sampled_from(grid))
            alive_alg = frozenset(data.draw(st.sets(st.sampled_from(jobs))))
            alive_ref = frozenset(data.draw(st.sets(st.sampled_from(jobs))))
            probes.append((t, alive_alg, alive_ref))
        for t, alive_alg, alive_ref in probes:
            every = ctx.state(t * ctx.L, alive_alg, alive_ref, ids=jobs)
            assert every == reference_state(ctx, t, alive_alg, alive_ref)
            default = ctx.state(t * ctx.L, alive_alg, alive_ref)
            assert default.rem_alg == every.rem_alg
            assert default.ahead_alg == {i: every.ahead_alg[i] for i in alive_alg}
            assert default.ahead_ref_small == {i: every.ahead_ref_small[i] for i in alive_alg}

    @given(ctx=trace_pairs())
    def test_backlog_midpoints_fail_only_with_an_event(self, ctx):
        # check_backlog_bound's event-time records cover every t, so a label
        # that fails at a midpoint fails at an event time next to it too
        bounds = analysis._boundaries(ctx)
        failing = {(r.time * ctx.L, r.label) for r in check_backlog_bound(ctx).failures}
        for T, label in failing:
            pos = bisect_left(bounds, T)
            if bounds[pos] != T:
                assert (bounds[pos - 1], label) in failing or (bounds[pos], label) in failing

    @given(ctx=trace_pairs())
    def test_backlog_summary_matches_full_records(self, ctx):
        # the summary pass looks only at the fast schedule's alive jobs,
        # counts each finished one's two records without building them and
        # decides a linear interval's midpoint from its two ends; the full
        # pass builds every record
        assert_backlog_summary_matches_full(ctx)

    def test_backlog_summary_asks_only_for_alive_jobs(self, monkeypatch):
        # uniform, n = 200, m = 2, sizes 1-8, releases 0-400: every record
        # passes and neither schedule bends between events, so the summary
        # pass asks state at each boundary where the fast schedule holds a
        # job, for those jobs and no other, and at no midpoint; yet it
        # counts two records per released job at every grid time, as many
        # as the full pass builds
        inst = generate(GenSpec("uniform", 200, 2, (1, 8), (0, 400), 1))
        ctx = make_context(simulate_srpt(inst, SpeedConfig.from_speed("3/2")),
                           simulate_srpt(inst, UNIT_SPEED))
        asked = []
        state = ctx.state
        monkeypatch.setattr(ctx, "state", lambda T, *args, ids: asked.append((T, ids)) or state(T, *args, ids=ids))
        report = check_backlog_bound(ctx)
        assert report.verdict
        alive = {T: sorted(alive_by_definition(ctx.srpt_trace, Fraction(T, ctx.L)))
                 for T in analysis._boundaries(ctx)}
        assert asked == [(T, ids) for T, ids in alive.items() if ids]
        released = sum(j.release <= t for t in grid_times(ctx) for j in inst.jobs)
        assert report.n_events == 2 * released
        assert len(tuple(report.records)) == 2 * released

    @given(ctx=trace_pairs())
    def test_boundaries_match_definition(self, ctx):
        # 0 and every release and completion of both traces, in units of
        # 1/ctx.L: the only event times the checks derive
        times = {0, *event_times(ctx.srpt_trace), *event_times(ctx.ref_trace)}
        assert analysis._boundaries(ctx) == sorted(t * ctx.L for t in times)

    @given(ctx=trace_pairs())
    def test_advanced_alive_sets_match_definition(self, ctx):
        # the backlog pass advances both alive sets from the empty set along
        # the check grid; at every grid time they are the sets by definition,
        # and a time with no event leaves the set as it was
        for trace, idx in ((ctx.srpt_trace, ctx.idx_alg), (ctx.ref_trace, ctx.idx_ref)):
            alive = frozenset()
            for T in check_grid(ctx):
                before, alive = alive, idx.advance(alive, T)
                assert alive == alive_by_definition(trace, Fraction(T, ctx.L)), T
                if T not in idx.released_at and T not in idx.finished_at:
                    assert alive is before

    @given(ctx=trace_pairs())
    def test_charge_contributors_match_definition(self, ctx):
        # the charge pass sweeps the event times backward, keeping the jobs
        # the fast schedule has finished and the reference has not, and takes
        # the fast completions in reverse finish order; its window pairs are
        # each job's contributors by definition, in job-id order: the
        # reference jobs alive then that are no larger and that the fast
        # schedule finishes no later
        [(_, _, records)] = analysis._charge_pass(ctx, (1,), True)
        windows = [(r.label, r.time, r.delta, r.bound) for r in records if r.label.startswith("window")]
        rank, size = ctx.finish_rank, {j.id: j.size for j in ctx.instance.jobs}
        pairs = []
        for i in sorted(rank):
            t = ctx.srpt_trace.completions[i]
            pairs += [("window bound pair (%d, %d)" % (i, j), t)
                      for j in sorted(alive_by_definition(ctx.ref_trace, t))
                      if rank[j] <= rank[i] and size[j] <= size[i]]
        assert [w[:2] for w in windows] == pairs
        assert windows == window_bounds_by_definition(ctx)

    @given(ctx=trace_pairs())
    def test_remaining_and_alive_match_definition(self, ctx):
        # every probe time is an integer on the context's time base; the
        # alive set is advanced through every event of the trace
        for trace, idx in ((ctx.srpt_trace, ctx.idx_alg), (ctx.ref_trace, ctx.idx_ref)):
            alive = frozenset()
            for t in probe_times(trace):
                assert (t * ctx.L).denominator == 1
                T = int(t * ctx.L)
                alive = idx.advance(alive, T)
                assert alive == alive_by_definition(trace, t), t
                for j in trace.instance.jobs:
                    assert idx.remaining(j.id, T) == rebuild_remaining(trace, j.id, t) * ctx.V


class TestWalkDifferential:
    """The walk against the potential Phi by definition, a check the walk's
    own telescoping identity cannot make: a mistake in the clamped age that
    the walk makes the same way at every event still telescopes. On each
    interval [a, b] between consecutive boundaries, the drift record plus
    the jump records at b (arrivals, shifts and completions) equal
    Phi(b) - Phi(a) plus sum((b - r_i)^k - (a - r_i)^k) over the jobs i alive
    at a. The jumps at the first boundary equal Phi there, and Phi is 0 at
    the last."""

    @given(ctx=trace_pairs())
    def test_jumps_and_drift_match_potential(self, ctx):
        assume(ctx.epsilon > 0)
        modes = ((False, 1),)
        if ctx.epsilon <= analysis.MAX_POWER_EPS:
            modes += ((True, 1), (True, 2), (True, 3))
        results = analysis._walk_pass(ctx, modes, True)
        bounds = [Fraction(T, ctx.L) for T in analysis._boundaries(ctx)]
        ks = [k if power else None for power, k in modes]
        phis = {t: potentials_by_definition(ctx, t, ks) for t in bounds}
        release = {j.id: j.release for j in ctx.instance.jobs}
        alive = {t: alive_by_definition(ctx.srpt_trace, t) for t in bounds}
        for pos, (power, k) in enumerate(modes):
            (_, _, arrivals), (_, _, completions), (_, _, drifts), _ = results[4 * pos:4 * pos + 4]
            jumps = dict.fromkeys(bounds, 0)
            for rec in (*arrivals, *completions):
                if rec.label.startswith(("arrival", "completion job")):
                    jumps[rec.time] += rec.delta
            phi = {t: values[pos] for t, values in phis.items()}
            assert jumps[bounds[0]] == phi[bounds[0]]
            assert phi[bounds[-1]] == 0
            assert [rec.time for rec in drifts] == bounds[:-1]
            for rec, a, b in zip(drifts, bounds, bounds[1:]):
                growth = sum((b - release[i]) ** k - (a - release[i]) ** k for i in alive[a])
                assert rec.delta + jumps[b] == phi[b] - phi[a] + growth, (power, k, a, b)


@pytest.fixture(scope="module")
def oracle_switch_contexts():
    """(ctx, k, times) for each context whose oracle reference changes its
    running set at `times`, strictly between two consecutive boundaries
    (neither a release nor a completion of either schedule): SRPT at 3/2
    and at 11/10 against the oracle witness at k = 1 and 2, over three
    families, m = 1-3, n = 5-7, sizes 1-4, releases 0-6 and seeds 0-29."""
    out = []
    for family in ("uniform", "bursty", "heavy-tail-discrete"):
        for m in (1, 2, 3):
            for n in (5, 6, 7):
                for seed in range(30):
                    inst = generate(GenSpec(family, n, m, (1, 4), (0, 6), seed))
                    for k in (1, 2):
                        witness = brute_force_opt(inst, k=k).trace
                        switches = {seg.start for seg in witness.segments[1:]} - set(event_times(witness))
                        if not switches:
                            continue
                        for speed in ("3/2", "11/10"):
                            ctx = make_context(simulate_srpt(inst, SpeedConfig.from_speed(speed)), witness)
                            bounds = {Fraction(T, ctx.L) for T in analysis._boundaries(ctx)}
                            if switches - bounds:
                                out.append((ctx, k, sorted(switches - bounds)))
    return out


class TestOracleSwitches:
    """An oracle witness can change its running set between two events,
    where its remaining volumes bend and the check grid has no point. Both
    checks whose coverage argument assumes volumes linear between events
    are evaluated by definition at every such time."""

    def test_sample(self, oracle_switch_contexts):
        # 63 of the 1,620 witnesses switch between their own events, and in
        # 109 of their 126 contexts some such time is no fast event either
        assert len(oracle_switch_contexts) == 109

    def test_backlog_gap_no_worse_than_grid(self, oracle_switch_contexts):
        for ctx, _, switches in oracle_switch_contexts:
            report = check_backlog_bound(ctx)
            worst = min(r.slack for r in report.records if r.label.startswith("backlog gap"))
            for t in switches:
                alg, ref = backlogs(ctx, t)
                for job in ctx.instance.jobs:
                    if job.release <= t:
                        assert ctx.machines * job.size - (alg[job.id] - ref[job.id]) >= worst, (t, job.id)

    def test_backlog_summary_matches_full_records(self, oracle_switch_contexts):
        for ctx, _, _ in oracle_switch_contexts:
            assert_backlog_summary_matches_full(ctx)

    def test_backlog_evaluates_only_undecided_midpoints(self, oracle_switch_contexts, monkeypatch):
        # where the fast schedule holds a job on (a, b) and every record at
        # a and b passes, the summary pass asks state at the midpoint when
        # the witness changes its running set inside (a, b), and not when
        # no segment of either schedule starts or ends there
        counts = {"bent": 0, "linear": 0}
        for ctx, _, _ in oracle_switch_contexts:
            asked = []
            state = ctx.state
            monkeypatch.setattr(ctx, "state", lambda T, *args, ids: asked.append(T) or state(T, *args, ids=ids))
            report = check_backlog_bound(ctx)
            failing = {r.time for r in report.failures}
            segments = (*ctx.srpt_trace.segments, *ctx.ref_trace.segments)
            bounds = [Fraction(T, ctx.L) for T in analysis._boundaries(ctx)]
            for a, b in zip(bounds, bounds[1:]):
                if a in failing or b in failing or not alive_by_definition(ctx.srpt_trace, a):
                    continue
                running = [frozenset(seg.assignment) - {None} for seg in ctx.ref_trace.segments
                           if a <= seg.start < b or seg.start < a < seg.end]
                mid = (a + b) / 2 * ctx.L
                if any(x != y for x, y in zip(running, running[1:])):
                    assert mid in asked, (a, b)
                    counts["bent"] += 1
                elif not any(a < t < b for seg in segments for t in (seg.start, seg.end)):
                    assert mid not in asked, (a, b)
                    counts["linear"] += 1
        # of the 109 contexts' intervals with a fast job on them and no
        # failing record at either end
        assert counts == {"bent": 118, "linear": 793}

    def test_walk_never_rises_inside_passing_interval(self, oracle_switch_contexts):
        checked = 0
        for ctx, k, switches in oracle_switch_contexts:
            bounds = [Fraction(T, ctx.L) for T in analysis._boundaries(ctx)]
            walks = ((lambda g: g, check_flow_conditions(ctx)),
                     (lambda g: max(g, 0) ** k, check_power_flow_conditions(ctx, k=k)))
            for term, reports in walks:
                passed = {r.time: r.passed for r in reports.running.records}
                for a, b in zip(bounds, bounds[1:]):
                    inside = [t for t in switches if a < t < b]
                    if not inside or not passed[a]:
                        continue
                    # objective plus potential over the jobs alive on [a, b),
                    # up to its positive coefficient; at b before b's events
                    alive = (alive_by_definition(ctx.srpt_trace, a), alive_by_definition(ctx.ref_trace, a))
                    values = [sum(map(term, clamped_ages_by_definition(ctx, t, *alive).values()))
                              for t in [a, *inside, b]]
                    assert values == sorted(values, reverse=True), (a, b)
                    checked += 1
        # flow and power walk intervals with a switch inside and a passing
        # running record
        assert checked == 236


class TestPowerConditions:
    def test_e1_squared_flow(self, e1_ctx):
        reports = check_power_flow_conditions(e1_ctx, k=2)
        assert reports.all_pass

        arr = {r.label: r for r in reports.arrival.records if r.bound is not None}
        assert arr["arrival job 0"].delta == 144 and arr["arrival job 0"].bound == 576
        assert arr["arrival job 1"].delta == 16 and arr["arrival job 1"].bound == 64
        assert arr["arrival job 2"].delta == 16 and arr["arrival job 2"].bound == 64
        assert reports.arrival.aggregate == 176

        # jumps + drift telescope exactly to the squared-flow objective
        assert reports.completion.aggregate == 0
        assert reports.running.aggregate == rat("-1540/9")
        total = (
            reports.arrival.aggregate
            + reports.completion.aggregate
            + reports.running.aggregate
        )
        assert total == objectives(e1_ctx.srpt_trace, ks=(2,)).kth_power_flow[2] == rat("44/9")

    def test_e1_global_bound_vs_oracle(self, e1_instance, e1_fast_trace):
        oracle = brute_force_opt(e1_instance, k=2)
        ctx = make_context(e1_fast_trace, oracle.trace, k=2)
        reports = check_power_flow_conditions(ctx)
        rec = reports.objective_bound.records[0]
        assert rec.passed
        # factor at eps=1/2, k=2: (2/(eps(1-eps)))^2 + ((1+eps)/eps^2)^2 = 100
        assert rec.bound == 100 * oracle.objective

    def test_single_job_squared(self):
        ctx = single_job_ctx(p="2", eps="1/2")
        reports = check_power_flow_conditions(ctx, k=2)
        assert reports.all_pass
        # the job's clamped age falls from 4 to exactly 0 at its fast
        # completion 4/3, so the value never rises on a drift interval
        drifts = records_by_label(reports.running, "drift")
        assert drifts and all(r.delta <= 0 for r in drifts)

    def test_k1_bound_looser_than_flow_bound(self, e1_ctx):
        flow = check_flow_conditions(e1_ctx)
        power = check_power_flow_conditions(e1_ctx, k=1)
        assert flow.all_pass and power.all_pass
        eps = e1_ctx.epsilon
        fa = {r.label: r for r in flow.arrival.records if r.bound is not None}
        pa = {r.label: r for r in power.arrival.records if r.bound is not None}
        assert set(fa) == set(pa)
        for label, frec in fa.items():
            assert pa[label].bound == frec.bound / (1 - eps)
            assert pa[label].bound > frec.bound

    def test_power_never_fails_where_flow_passes(self):
        for seed in range(10):
            inst = random_integer_instance(seed)
            fast = simulate_srpt(inst, SpeedConfig.from_epsilon("1/2"))
            ref = simulate_srpt(inst, UNIT_SPEED)
            ctx = make_context(fast, ref)
            if check_flow_conditions(ctx).all_pass:
                assert check_power_flow_conditions(ctx, k=1).all_pass

    def test_completion_cases_by_hand(self):
        # m = 2, two unit jobs released at 0, SRPT at 3/2 against unit SRPT,
        # k = 2, so eps = 1/2 and the term's scale is (1 - eps)^-2 = 4. Both
        # fast jobs finish at 2/3, at age 2/3, while the reference has 1/3
        # of each left. A job's clamped age is its age plus its gap over
        # m * eps = 1, and at 2/3 the fast schedule holds nothing:
        # - job 0 is charged only itself: owed 1/3 = m * eps^2 * age
        #   = 2 * 1/4 * 2/3, the boundary, so the drained case. Its gap is
        #   -1/3, its clamped age 1/3, its term 4 * (1/3)^2 = 4/9, and its
        #   jump age^2 - term = 4/9 - 4/9 = 0, bounded by 0;
        # - job 1 is charged both: owed 2/3 > 1/3, the owed case. Its gap
        #   is -2/3, its clamped age 0 and its term 0, so its jump is
        #   (2/3)^2 = 4/9, bounded by (owed/m)^2 / eps^4 = (1/9) * 16 = 16/9
        inst = make_instance([(0, 0, 1), (1, 0, 1)], machines=2)
        ctx = make_context(simulate_srpt(inst, SpeedConfig.from_speed("3/2")),
                           simulate_srpt(inst, UNIT_SPEED))
        records = records_by_label(check_power_flow_conditions(ctx, k=2).completion, "completion job")
        t = rat("2/3")
        assert records == [
            CheckRecord(t, "completion job 0 (drained case)", 0, 0, 0, True),
            CheckRecord(t, "completion job 1 (owed case)", rat("4/9"), rat("16/9"), rat("4/3"), True),
        ]

    def test_eps_range_enforced(self, e1_instance):
        fast = simulate_srpt(e1_instance, SpeedConfig.from_epsilon(1))
        ref = simulate_srpt(e1_instance, UNIT_SPEED)
        with pytest.raises(AnalysisError, match="out of theorem range"):
            check_power_flow_conditions(make_context(fast, ref), k=2)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", (2, 3))
    def test_random_contexts_pass(self, seed, k):
        inst = random_integer_instance(seed)
        fast = simulate_srpt(inst, SpeedConfig.from_epsilon("1/4"))
        ref = simulate_srpt(inst, UNIT_SPEED)
        assert check_power_flow_conditions(make_context(fast, ref), k=k).all_pass


class TestRunningSlope:
    """Between events the power walk's value is convex, so it can be lower at
    an interval's end and midpoint than at its start and still rise just
    before the end. The running check reads the left derivative at the end;
    on these LRPT walks the value climbs over the last hundredth of one
    interval."""

    @pytest.mark.parametrize(
        "seed, speed, k, t, b, slack",
        [(8, "5/4", 2, "5", "6", "-832/81"), (16, "3/2", 3, "7", "23/3", "-17552/243")],
    )
    def test_lrpt_rise_before_interval_end(self, seed, speed, k, t, b, slack):
        inst = generate(GenSpec("uniform", 10, 3, (1, 6), (0, 8), seed))
        fast = simulate_policy(inst, SpeedConfig.from_speed(rat(speed)), longest_remaining_priority)
        ctx = make_context(fast, simulate_srpt(inst, UNIT_SPEED))
        reports = check_power_flow_conditions(ctx, k=k)
        assert reports.arrival.verdict and reports.completion.verdict
        [witness] = reports.running.failures
        assert witness.label == "drift on [%s, %s]" % (t, b)
        assert witness.time == rat(t) and witness.slack == rat(slack)

        # the rise, rebuilt from the definition inside the interval: objective
        # accumulation of the alive jobs plus the potential
        def value(s):
            alive = [j for j in inst.jobs if j.release <= s < fast.completions[j.id]]
            ages = sum((s - j.release) ** k for j in alive)
            return ages + potential_by_definition(ctx, s, k)

        end = rat(b)
        assert value(end - rat("1/1000")) > value(end - rat("1/100"))

        total = (
            reports.arrival.aggregate
            + reports.completion.aggregate
            + reports.running.aggregate
        )
        assert total == objectives(fast, ks=(k,)).kth_power_flow[k]

    @pytest.mark.parametrize("k, delta, bound", [(1, -8, 0), (2, -64, -64)])
    def test_term_falling_to_zero(self, k, delta, bound):
        # one job of size 2 at eps = 1/2: its clamped age falls from
        # 2/eps = 4 at 0 to exactly 0 at its fast completion 4/3, so the value
        # falls by scale * 4^k. At k = 1 (scale 2) its left derivative at 4/3
        # is -8/(4/3), so bound = -8 + 8 = 0; at k = 2 (scale 4) the
        # derivative there is 0 and bound = delta
        reports = check_power_flow_conditions(single_job_ctx(p="2", eps="1/2"), k=k)
        assert [(r.label, r.delta, r.bound) for r in reports.running.records] == [
            ("drift on [0, 4/3]", delta, bound),
            ("drift on [4/3, 2]", 0, 0),
        ]

    def test_term_rising_to_zero(self):
        # m = 1, LRPT at 3/2 against unit SRPT. On [4, 5] job 0 waits in the
        # fast schedule with 1/2 left while the reference runs job 2: its
        # clamped age rises from 3 + (3/2 + 1/2 - 5)/(1/2) = -3 to exactly 0,
        # so its term stays 0 and adds no slope. Jobs 1 and 2 move by -3 and
        # +3 (times scale 2), so delta and bound are both 0
        inst = make_instance([(0, 1, 5), (1, 2, 2), (2, 4, 1), (3, 5, 5)], machines=1)
        fast = simulate_policy(inst, SpeedConfig.from_speed(rat("3/2")), longest_remaining_priority)
        ctx = make_context(fast, simulate_srpt(inst, UNIT_SPEED))
        reports = check_power_flow_conditions(ctx, k=1)
        [rec] = records_by_label(reports.running, "drift on [4, 5]")
        assert (rec.delta, rec.bound, rec.passed) == (0, 0, True)


class TestArrivalShifts:
    """A non-SRPT fast schedule can finish a later arrival ahead of an older
    job and so shift that job's potential term. Both walks must report the
    shift as a failing witness, not raise on the accounting identity."""

    @pytest.fixture(scope="class")
    def lrpt_ctx(self):
        inst = make_instance([(0, 0, 2), (4, 1, 3), (2, 2, 3), (3, 2, 2), (1, 4, 1)], machines=1)
        fast = simulate_policy(inst, SpeedConfig.from_speed(rat("3/2")), longest_remaining_priority)
        return make_context(fast, simulate_srpt(inst, UNIT_SPEED))

    @pytest.mark.parametrize("power", [False, True])
    def test_lrpt_shift_is_a_witness(self, lrpt_ctx, power):
        if power:
            reports = check_power_flow_conditions(lrpt_ctx, k=2)
        else:
            reports = check_flow_conditions(lrpt_ctx)
        assert not reports.all_pass
        first = reports.arrival.failures[0]
        assert first.label == "arrival job 4 shifts term of job 0"
        assert first.time == 1

    def test_lrpt_power_jumps_and_drift_sum_to_objective(self, lrpt_ctx):
        reports = check_power_flow_conditions(lrpt_ctx, k=2)
        total = (
            reports.arrival.aggregate
            + reports.completion.aggregate
            + reports.running.aggregate
        )
        assert total == objectives(lrpt_ctx.srpt_trace, ks=(2,)).kth_power_flow[2]


class TestCompletionCharge:
    def test_e1_aggregate(self, e1_ctx):
        report = check_completion_charge(e1_ctx, k=1)
        assert report.verdict
        agg = records_by_label(report, "aggregate charge")[0]
        assert agg.delta == rat("5/6")
        assert agg.bound == rat("15/2")
        assert report.aggregate == rat("5/6")

    def test_single_job_closed_forms(self):
        p, eps = rat(4), rat("1/2")
        ctx = single_job_ctx(p=p, eps=eps)
        report = check_completion_charge(ctx, k=1)
        assert report.verdict
        agg = records_by_label(report, "aggregate charge")[0]
        assert agg.delta == p * eps / (1 + eps)
        pair = records_by_label(report, "window bound pair (0, 0)")[0]
        assert pair.delta == p * eps / (1 + eps) ** 2
        assert pair.bound == p
        assert not pair.in_aggregate

    def test_vacuous_contributor_set(self):
        # hand-built reference: run the short job in the middle so that by
        # the time the fast schedule finishes it, the reference already has;
        # the only other alive job is larger, so nothing qualifies
        inst = make_instance([(0, 0, 2), (1, 1, 1)], machines=1)
        fast = simulate_srpt(inst, SpeedConfig.from_epsilon("1/2"))
        assert fast.completions == (rat("4/3"), 2)
        ref = ExecutionTrace(
            instance=inst,
            speed=UNIT_SPEED,
            segments=(
                Segment(rat(0), rat(1), (0,)),
                Segment(rat(1), rat(2), (1,)),
                Segment(rat(2), rat(3), (0,)),
            ),
            completions=(rat(3), rat(2)),
        )
        ctx = make_context(fast, ref)
        report = check_completion_charge(ctx, k=1)
        assert report.verdict
        assert records_by_label(report, "window bound pair (0, 0)")
        assert not records_by_label(report, "window bound pair (1,")
        assert records_by_label(report, "aggregate charge")[0].delta == 1

    def test_window_bound_later_charges(self):
        # m = 1, eps = 1/2. Fast SRPT runs job 1 on [0, 4/3] and job 0 on
        # [4/3, 10/3]; the FIFO reference runs job 0 on [0, 3] and job 1 on
        # [3, 5]. Both fast completions charge job 1. Pair (1, 1) owes 2, so
        # lhs = 2/(3/2) = 4/3; its later charge is job 1's reference volume
        # at job 0's reference completion, 2 at t = 3 (not 5/3 at the fast
        # completion 10/3), so rhs = 5 - 2/(3/2) = 11/3. Pair (0, 1) owes
        # 5/3 and has no later charge: lhs = 10/9, rhs = 5.
        inst = make_instance([(0, 0, 3), (1, 0, 2)], machines=1)
        fast = simulate_srpt(inst, SpeedConfig.from_speed(rat("3/2")))
        ref = simulate_policy(inst, UNIT_SPEED, fifo_priority)
        assert fast.completions == (rat("10/3"), rat("4/3"))
        assert ref.completions == (3, 5)
        report = check_completion_charge(make_context(fast, ref), k=1)
        pairs = {
            r.label: (r.time, r.delta, r.bound)
            for r in records_by_label(report, "window bound pair")
        }
        assert pairs == {
            "window bound pair (1, 1)": (rat("4/3"), rat("4/3"), rat("11/3")),
            "window bound pair (0, 1)": (rat("10/3"), rat("10/9"), 5),
        }
        assert records_by_label(report, "aggregate charge")[0].delta == rat("11/3")

    @pytest.mark.parametrize("seed", range(4))
    def test_window_bounds_match_definition(self, seed):
        # many equal releases, so contributors tie on release; FIFO and LRPT
        # references, and an LRPT fast schedule, charge each job many times
        inst = generate(GenSpec(family="uniform", n=16, machines=1 + seed % 3,
                                size_range=(1, 5), release_range=(0, 6), seed=seed))
        speed = SpeedConfig.from_speed("3/2")
        pairs = [
            (simulate_srpt(inst, speed), simulate_policy(inst, UNIT_SPEED, fifo_priority)),
            (simulate_srpt(inst, speed),
             simulate_policy(inst, UNIT_SPEED, longest_remaining_priority)),
            (simulate_policy(inst, speed, longest_remaining_priority),
             simulate_policy(inst, UNIT_SPEED, fifo_priority)),
        ]
        for fast, ref in pairs:
            ctx = make_context(fast, ref)
            expected = window_bounds_by_definition(ctx)
            assert len(expected) > inst.n
            for k in (1, 2):
                report = check_completion_charge(ctx, k=k)
                got = [(r.label, r.time, r.delta, r.bound)
                       for r in records_by_label(report, "window bound pair")]
                assert got == expected
                assert report.n_events == len(expected) + 1

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_oracle_reference_random(self, k):
        for seed in range(8):
            inst = random_integer_instance(seed)
            fast = simulate_srpt(inst, SpeedConfig.from_epsilon("1/4"))
            oracle = brute_force_opt(inst, k=k)
            ctx = make_context(fast, oracle.trace, k=k)
            assert check_completion_charge(ctx).verdict

    def test_eps_range_enforced(self, e1_instance):
        fast = simulate_srpt(e1_instance, SpeedConfig.from_epsilon(1))
        ref = simulate_srpt(e1_instance, UNIT_SPEED)
        with pytest.raises(AnalysisError, match="out of theorem range"):
            check_completion_charge(make_context(fast, ref), k=1)


class TestAccountingIdentity:
    @pytest.mark.parametrize("power", [False, True])
    def test_mismatch_raises(self, e1_fast_trace, e1_unit_trace, monkeypatch, power):
        # jumps plus drift reproduce the true objective, so a walk measured
        # against an objective one higher must raise; a trace index takes
        # each objective once, so the context is built after the patch
        monkeypatch.setattr(analysis, "flow_power", lambda trace, k: flow_power(trace, k) + 1)
        ctx = make_context(e1_fast_trace, e1_unit_trace)
        with pytest.raises(AnalysisError, match="potential accounting mismatch"):
            if power:
                check_power_flow_conditions(ctx, k=2)
            else:
                check_flow_conditions(ctx)


class TestContextValidation:
    def test_mismatched_instances(self, e1_fast_trace):
        other = make_instance([(0, 0, 1)], machines=2)
        ref = simulate_srpt(other, UNIT_SPEED)
        with pytest.raises(AnalysisError, match="different instances"):
            make_context(e1_fast_trace, ref)

    def test_reference_must_be_unit_speed(self, e1_fast_trace):
        with pytest.raises(AnalysisError, match="unit speed"):
            make_context(e1_fast_trace, e1_fast_trace)

    def test_bad_k(self, e1_fast_trace, e1_unit_trace):
        with pytest.raises(AnalysisError, match="k must be an integer >= 1"):
            make_context(e1_fast_trace, e1_unit_trace, k=0)

    @pytest.mark.parametrize("call", [
        lambda fast, ref: make_context(fast, ref, k=True),
        lambda fast, ref: objectives(fast, ks=(True,)),
        lambda fast, ref: check_power_flow_conditions(make_context(fast, ref), k=True),
        lambda fast, ref: check_completion_charge(make_context(fast, ref), k=True),
    ], ids=["make_context", "objectives", "power-walk", "charge"])
    def test_bool_k(self, e1_fast_trace, e1_unit_trace, call):
        # True == 1, but a bool is not a power k (as workload.is_int has it)
        with pytest.raises(AnalysisError, match="k must be an integer >= 1"):
            call(e1_fast_trace, e1_unit_trace)

    def test_infeasible_trace_rejected(self, e1_fast_trace, e1_unit_trace):
        broken = ExecutionTrace(
            instance=e1_fast_trace.instance,
            speed=e1_fast_trace.speed,
            segments=e1_fast_trace.segments[:-1],
            completions=e1_fast_trace.completions,
        )
        with pytest.raises(AnalysisError, match="fast trace infeasible"):
            make_context(broken, e1_unit_trace)

    def test_empty_instance_all_checks(self):
        inst = make_instance([], machines=2)
        fast = simulate_srpt(inst, SpeedConfig.from_epsilon("1/2"))
        ref = simulate_srpt(inst, UNIT_SPEED)
        ctx = make_context(fast, ref)
        assert check_backlog_bound(ctx).verdict
        assert check_flow_conditions(ctx).all_pass
        assert check_power_flow_conditions(ctx, k=2).all_pass
        assert check_completion_charge(ctx, k=1).verdict


class TestReportExport:
    def test_passing_shape(self, e1_ctx):
        report = check_backlog_bound(e1_ctx)
        doc = report_to_json(report, params={"eps": e1_ctx.epsilon, "k": 1})
        assert doc["check"] == "backlog-bound"
        assert doc["verdict"] == "pass"
        assert doc["witnesses"] == []
        assert doc["params"] == {"eps": "1/2", "k": "1"}
        assert doc["n_events"] == len(report.records)
        assert isinstance(doc["worst_slack"], str)

    def test_failing_report_carries_witnesses(self):
        rec = CheckRecord(rat(1), "too big", rat(2), rat(1), rat(-1), False)
        failing = PotentialReport("demo", 1, rec.slack, False, (rec,), (rec,))
        assert not failing.verdict
        doc = report_to_json(failing)
        assert doc["verdict"] == "fail"
        assert doc["witnesses"] == [
            {"time": "1", "label": "too big", "delta": "2", "bound": "1"}
        ]


LRPT_M1 = make_instance([(0, 0, 3), (1, 0, 1), (2, 1, 1), (3, 2, 2)], machines=1)


class TestVerify:
    """The library pipeline, with every failure reached through its input."""

    def test_lrpt_matches_the_cli_golden(self):
        speed = SpeedConfig.from_speed("3/2")
        fast = simulate_policy(LRPT_M1, speed, priority=longest_remaining_priority)
        report = verify(fast, ks=(1, 2), refs=("unit-srpt", "fifo"))
        assert report.violations == () and report.notice is None and not report.passed
        assert [(row.check, row.reference, row.ks) for row in report.rows] == [
            (check, ref, ks)
            for ref in ("unit-srpt", "fifo")
            for check, ks in (("backlog-bound", (1,)), ("flow-potential", (1,)),
                              ("power-flow-potential", (1, 2)), ("completion-charge", (1, 2)))
        ]
        assert [(row.verdict, str(row.worst_slack)) for row in report.rows] == [
            ("fail", "-3"), ("fail", "-4"), ("fail", "-288"), ("pass", "14/9"),
            ("fail", "-3"), ("fail", "-4"), ("fail", "-192"), ("pass", "7/3"),
        ]
        first = report.rows[0].reports[0].failures[0]
        assert (first.label, first.delta, first.bound, first.time) == ("backlog gap job 1", 3, 1, 0)
        # every report, witnesses included, as the CLI's golden JSON holds it
        params = {"instance": "instance.txt", "speed": "3/2", "eps": "1/2"}
        docs = [
            report_to_json(rep, dict(params, reference=row.reference, k=k))
            for row in report.rows
            for rep, k in zip(row.reports, row.ks)
        ]
        golden = json.loads((DATA / "verify_lrpt_m1.json").read_text())
        assert docs == golden["checks"][1:]

    @pytest.mark.parametrize(
        "speed, ks, message",
        [
            ("1", (1,), "epsilon out of theorem range: verification needs speed > 1"),
            ("9/10", (1,), "epsilon out of theorem range: verification needs speed > 1"),
            ("2", (1, 2), "epsilon out of theorem range (k > 1 needs 0 < epsilon <= 1/2)"),
        ],
    )
    def test_eps_domain(self, e1_instance, speed, ks, message):
        trace = simulate_srpt(e1_instance, SpeedConfig.from_speed(speed))
        with pytest.raises(AnalysisError) as exc:
            verify(trace, ks=ks)
        assert str(exc.value) == message

    def test_large_eps_skips_power_and_charge(self, e1_instance):
        trace = simulate_srpt(e1_instance, SpeedConfig.from_speed("2"))
        report = verify(trace, ks=(1,), refs=("unit-srpt",))
        notice = "epsilon > 1/2: power-flow-potential and completion-charge checks skipped"
        assert report.notice == notice and report.passed
        assert [(row.check, row.ks, row.verdict, row.skipped) for row in report.rows] == [
            ("backlog-bound", (1,), "pass", None),
            ("flow-potential", (1,), "pass", None),
            ("power-flow-potential", (), "skipped", notice),
            ("completion-charge", (), "skipped", notice),
        ]

    def test_oracle_refusal_skips_its_rows(self):
        # total work 41 is over the oracle's limit
        inst = make_instance([(0, 0, 41)], machines=1)
        report = verify(simulate_srpt(inst, SpeedConfig.from_speed("3/2")), ks=(1, 2),
                        refs=("oracle", "unit-srpt"))
        oracle_rows, unit_rows = report.rows[:4], report.rows[4:]
        assert [row.ks for row in oracle_rows] == [(1,), (1,), (1, 2), (1, 2)]
        assert all(row.verdict == "skipped" and row.reports == () for row in oracle_rows)
        assert all(row.skipped.startswith("oracle skipped: ") for row in oracle_rows)
        assert [row.verdict for row in unit_rows] == ["pass"] * 4
        assert report.passed

    def test_memory_is_not_held_per_state(self):
        # the walks hold only the state they are at and a report holds its
        # traces, so verify's peak stays a few times the size of its inputs
        inst = generate(GenSpec("uniform", 200, 2, (1, 8), (0, 400), 1))
        fast = simulate_srpt(inst, SpeedConfig.from_speed("3/2"))
        tracemalloc.start()
        try:
            verify(fast, ks=(1, 2), refs=("unit-srpt", "fifo"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_index_memory_is_linear(self):
        # an index keeps its event maps, not one alive set per event time:
        # quadrupling n (uniform, m = 2, sizes 1-8, releases 0-2n, seed 1)
        # must not grow the three indexes verify builds by more than 5 times
        def traced_peak(n):
            inst = generate(GenSpec("uniform", n, 2, (1, 8), (0, 2 * n), 1))
            traces = (simulate_srpt(inst, SpeedConfig.from_speed("3/2")), simulate_srpt(inst, UNIT_SPEED),
                      simulate_policy(inst, UNIT_SPEED, fifo_priority))
            tracemalloc.start()
            try:
                analysis._indexes(*traces)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(2000) < 5 * traced_peak(500)

    def test_charge_memory_is_linear(self):
        # the charge pass holds one job's contributors at a time: against
        # FIFO, whose queues grow with n, quadrupling n (uniform, m = 2,
        # sizes 1-8, releases 0-2n, seed 1) must not grow its peak by more
        # than 5 times
        def traced_peak(n):
            inst = generate(GenSpec("uniform", n, 2, (1, 8), (0, 2 * n), 1))
            ctx = make_context(simulate_srpt(inst, SpeedConfig.from_speed("3/2")),
                               simulate_policy(inst, UNIT_SPEED, fifo_priority))
            tracemalloc.start()
            try:
                check_completion_charge(ctx, k=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(2000) < 5 * traced_peak(500)

    @pytest.mark.parametrize("refs, passes", [
        (("unit-srpt", "fifo"), [(1, 2), (1, 2)]),
        (("oracle", "unit-srpt", "fifo"), [(1,), (2,), (1, 2), (1, 2)]),
    ], ids=["unit-srpt,fifo", "with-oracle"])
    def test_one_charge_pass_per_context(self, e1_fast_trace, monkeypatch, refs, passes):
        # one charge pass per context at every power k it is checked at;
        # the oracle has one schedule, so one context, per k
        calls = []
        charge_pass = analysis._charge_pass

        def counted(ctx, ks, full):
            calls.append(ks)
            return charge_pass(ctx, ks, full)

        monkeypatch.setattr(analysis, "_charge_pass", counted)
        report = verify(e1_fast_trace, ks=(1, 2), refs=refs)
        charged = [row for row in report.rows if row.check == "completion-charge"]
        assert [(row.reference, len(row.reports)) for row in charged] == [(ref, 2) for ref in refs]
        assert calls == passes

    def test_unknown_reference(self, e1_fast_trace):
        with pytest.raises(AnalysisError, match="unknown reference 'lrpt'"):
            verify(e1_fast_trace, refs=("unit-srpt", "lrpt"))

    # a bad k must not turn into skipped oracle rows or power rows with no report
    @pytest.mark.parametrize("ks", [(), (0,), (1, 0), (1.5,), (True,), (1, True)],
                             ids=["none", "zero", "one-zero", "float", "bool", "one-bool"])
    @pytest.mark.parametrize("speed", ["3/2", "2"])
    def test_bad_ks(self, e1_instance, speed, ks):
        trace = simulate_srpt(e1_instance, SpeedConfig.from_speed(speed))
        with pytest.raises(AnalysisError, match="k values must be integers >= 1"):
            verify(trace, ks=ks)


if __name__ == "__main__":
    # regenerate the golden files: PYTHONPATH=src python tests/test_analysis.py
    rows = ["%s: [\n%s\n]" % (json.dumps(name), ",\n".join(json.dumps(row) for row in case))
            for name, case in potential_cases().items()]
    (DATA / "potential_queries.json").write_text("{\n" + ",\n".join(rows) + "\n}\n")
    rows = ["%s: %s" % (json.dumps(name), json.dumps(row)) for name, row in backlog_cases().items()]
    (DATA / "backlog_digests.json").write_text("{\n" + ",\n".join(rows) + "\n}\n")
    rows = ["%s: %s" % (json.dumps(name), json.dumps(case)) for name, case in check_cases().items()]
    (DATA / "check_digests.json").write_text("{\n" + ",\n".join(rows) + "\n}\n")
