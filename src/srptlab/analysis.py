"""Exact verification harness for flow-time guarantees of speed-augmented SRPT.

Everything here compares a fast trace (machines of speed 1+eps running SRPT)
against a unit-speed reference trace over the same instance, entirely in
rational arithmetic. The checks mirror an amortized analysis:

* a backlog bound relating the fast schedule's unfinished volume to the
  reference's, holding at all times;
* a flow potential whose arrival jumps, completion jumps and between-event
  drift are each bounded, which telescopes to a total-flow guarantee;
* a k-th power variant of the same potential for the stronger objectives;
* a per-completion charging argument bounding the volume the reference still
  owes when the fast schedule finishes a job.

Conventions: at an event time, completions are applied before arrivals, ties
in job-id order; a job is alive at t when release <= t < completion, so
evaluation at event times is post-event.
Between two consecutive event times every queried quantity is linear in t.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .core import ExecutionTrace, FlowSummary, flow_power, validate_trace
from .rationals import Rational, ZERO, kth_root_str


class AnalysisError(ValueError):
    pass


# --------------------------------------------------------------------------
# trace indexing

def _ids_at(times: dict) -> dict:
    """time -> the job ids at that time, from job id -> time."""
    out = {}
    for jid, t in times.items():
        out.setdefault(t, []).append(jid)
    return out


class _TraceIndex:
    """Per-trace query cache. Each job's service is kept as maximal
    intervals (sorted starts and ends); its remaining volume is a line in t
    inside one and a constant after one, so a remaining volume is one
    bisection. The alive set is precomputed once per release or completion
    time."""

    def __init__(self, trace: ExecutionTrace):
        self.speed = trace.speed.speed
        self.release = {j.id: j.release for j in trace.instance.jobs}
        self.size = {j.id: j.size for j in trace.instance.jobs}
        self.completion = {jid: c for jid, c in enumerate(trace.completions)}
        self.starts = {jid: [] for jid in self.release}
        self.ends = {jid: [] for jid in self.release}
        for seg in trace.segments:
            for jid in seg.assignment:
                if jid is None:
                    continue
                ends = self.ends[jid]
                if ends and ends[-1] == seg.start:  # service runs on: one interval
                    ends[-1] = seg.end
                else:
                    self.starts[jid].append(seg.start)
                    ends.append(seg.end)
        # inside interval q a job's remaining volume is line[q] - speed * t,
        # after it left[q]
        self.line = {}
        self.left = {}
        for jid, starts in self.starts.items():
            rem = self.size[jid]
            self.line[jid] = line = []
            self.left[jid] = left = []
            for a, b in zip(starts, self.ends[jid]):
                line.append(rem + self.speed * a)
                rem -= self.speed * (b - a)
                left.append(rem)
        # membership changes only at a release or a completion, so the
        # alive set at breakpoint p holds on [breakpoints[p], next one)
        released = _ids_at(self.release)
        finished = _ids_at(self.completion)
        self.breakpoints = sorted(set(released) | set(finished))
        alive = frozenset()
        self.alive_sets = [alive]  # before the first breakpoint
        for t in self.breakpoints:
            alive = (alive - frozenset(finished.get(t, ()))) | frozenset(
                j for j in released.get(t, ()) if self.completion[j] > t
            )
            self.alive_sets.append(alive)

    def remaining(self, jid: int, t) -> Rational:
        if t <= self.release[jid]:
            return self.size[jid]
        if t >= self.completion[jid]:
            return ZERO
        pos = bisect_left(self.starts[jid], t)  # intervals starting before t
        if pos == 0:
            return self.size[jid]
        if t < self.ends[jid][pos - 1]:
            return self.line[jid][pos - 1] - self.speed * t
        return self.left[jid][pos - 1]

    def alive(self, t) -> frozenset:
        """Jobs with release <= t < completion; the same object for every t
        between two breakpoints."""
        return self.alive_sets[bisect_right(self.breakpoints, t)]


@dataclass(frozen=True)
class _StateEval:
    rem_alg: dict  # jid in alive_alg -> remaining in the fast schedule
    rem_ref: dict  # jid in alive_ref -> remaining in the reference
    ahead_alg: dict  # jid -> remaining fast volume on jobs finishing by jid
    ahead_ref_small: dict  # jid -> remaining reference volume on no-larger such jobs


class PairContext:
    """A fast trace and a unit-speed reference over one instance, plus caches.

    epsilon is taken from the fast trace's speed config; it may be 0 for
    backlog-only comparisons, while the potential checks demand eps > 0 and
    the power checks demand 0 < eps <= 1/2.
    """

    def __init__(self, srpt_trace: ExecutionTrace, ref_trace: ExecutionTrace, k: int = 1):
        self.srpt_trace = srpt_trace
        self.ref_trace = ref_trace
        self.epsilon = srpt_trace.speed.epsilon
        self.k = k
        self.instance = srpt_trace.instance
        self.machines = srpt_trace.instance.machines
        self.idx_alg = _TraceIndex(srpt_trace)
        self.idx_ref = _TraceIndex(ref_trace)
        # total order on the fast schedule's completions: (time, id)
        order = sorted((c, jid) for jid, c in enumerate(srpt_trace.completions))
        self.by_rank = [jid for _, jid in order]
        self.finish_rank = {jid: pos for pos, jid in enumerate(self.by_rank)}
        # sizes as integers in size order, equal sizes sharing one
        size = self.idx_alg.size
        rank_of = {p: r for r, p in enumerate(sorted(set(size.values())))}
        self.size_rank = {jid: rank_of[p] for jid, p in size.items()}
        self._states = {}

    def state(self, t, alive_alg: frozenset, alive_ref: frozenset) -> _StateEval:
        """Remaining volumes at t of the given alive sets (any subsets of the
        jobs, not only the alive sets at t) and, for every job i, the fast
        volume on alive jobs the fast schedule finishes no later than i, and
        the reference volume on alive reference jobs that it finishes no
        later than i and that are no larger than i. One pass in finish
        order: the first is a running sum; for the second, reference jobs go
        into a list sorted by size rank whose prefix sums are updated from
        the insertion point."""
        key = (t, alive_alg, alive_ref)
        hit = self._states.get(key)
        if hit is not None:
            return hit
        rem_alg = {j: self.idx_alg.remaining(j, t) for j in alive_alg}
        rem_ref = {j: self.idx_ref.remaining(j, t) for j in alive_ref}
        size_rank = self.size_rank
        ahead_alg = {}
        ahead_ref_small = {}
        acc = ZERO
        keys = []  # size ranks of the reference jobs passed so far, sorted
        sums = [ZERO]  # sums[q]: their remaining volume over keys[:q]
        for i in self.by_rank:
            if i in rem_alg:
                acc += rem_alg[i]
            ahead_alg[i] = acc
            if i in rem_ref:
                pos = bisect_right(keys, size_rank[i])
                keys.insert(pos, size_rank[i])
                v = rem_ref[i]
                sums[pos + 1:] = [sums[pos] + v] + [x + v for x in sums[pos + 1:]]
            ahead_ref_small[i] = sums[bisect_right(keys, size_rank[i])]
        out = _StateEval(rem_alg, rem_ref, ahead_alg, ahead_ref_small)
        self._states[key] = out
        return out


def make_context(srpt_trace: ExecutionTrace, ref_trace: ExecutionTrace, k: int = 1) -> PairContext:
    if srpt_trace.instance != ref_trace.instance:
        raise AnalysisError("traces cover different instances")
    if ref_trace.speed.speed != 1:
        raise AnalysisError("reference trace must run at unit speed")
    if not isinstance(k, int) or k < 1:
        raise AnalysisError("k must be an integer >= 1")
    for name, trace in (("fast", srpt_trace), ("reference", ref_trace)):
        ok, violations = validate_trace(trace)
        if not ok:
            raise AnalysisError(
                "%s trace infeasible: %s" % (name, "; ".join(violations[:3]))
            )
    return PairContext(srpt_trace, ref_trace, k)


# --------------------------------------------------------------------------
# point queries

def remaining_at(trace: ExecutionTrace, jid: int, t) -> Rational:
    """Remaining volume of one job at time t: full size before release, 0 after
    completion, exactly interpolated through its service intervals between."""
    return _TraceIndex(trace).remaining(jid, t)


def alg_backlog(ctx: PairContext, jid: int, t) -> Rational:
    """Remaining fast-schedule volume, at t, of jobs the fast schedule
    finishes no later than job jid (jid included while alive)."""
    st = ctx.state(t, ctx.idx_alg.alive(t), ctx.idx_ref.alive(t))
    return st.ahead_alg[jid]


def ref_backlog_smaller(ctx: PairContext, jid: int, t) -> Rational:
    """Remaining reference volume, at t, of jobs no larger than jid that the
    fast schedule finishes no later than jid."""
    st = ctx.state(t, ctx.idx_alg.alive(t), ctx.idx_ref.alive(t))
    return st.ahead_ref_small[jid]


def objectives(trace: ExecutionTrace, ks=(1, 2, 3)) -> FlowSummary:
    """Per-job flows and the requested k-th power objectives, all exact; the
    lk norms are 12-significant-digit decimal strings of the k-th roots."""
    flows = tuple(
        trace.completions[j.id] - j.release
        for j in sorted(trace.instance.jobs, key=lambda j: j.id)
    )
    powers = {}
    norms = {}
    for k in ks:
        if not isinstance(k, int) or k < 1:
            raise AnalysisError("k must be an integer >= 1")
        powers[k] = flow_power(trace, k)
        norms[k] = kth_root_str(powers[k], k)
    return FlowSummary(
        flows=flows, total_flow=flow_power(trace, 1), kth_power_flow=powers, lk_norm=norms
    )


# --------------------------------------------------------------------------
# check records and reports

@dataclass(frozen=True)
class CheckRecord:
    time: Rational | None
    label: str
    delta: Rational
    bound: Rational | None  # None = informational record, always passes
    slack: Rational | None
    passed: bool
    in_aggregate: bool = True


def _rec_le(time, label, delta, bound, in_aggregate=True) -> CheckRecord:
    slack = bound - delta
    return CheckRecord(time, label, delta, bound, slack, slack >= 0, in_aggregate)


def _rec_eq(time, label, delta) -> CheckRecord:
    slack = -abs(delta) if delta else ZERO
    return CheckRecord(time, label, delta, ZERO, slack, delta == 0, True)


def _rec_info(time, label, delta) -> CheckRecord:
    return CheckRecord(time, label, delta, None, None, True, True)


@dataclass(frozen=True)
class PotentialReport:
    condition: str
    records: tuple
    aggregate: Rational
    worst_slack: Rational | None
    verdict: bool

    @property
    def failures(self):
        return tuple(r for r in self.records if not r.passed)


def _mk_report(condition: str, records) -> PotentialReport:
    records = tuple(records)
    aggregate = sum((r.delta for r in records if r.in_aggregate and r.delta), ZERO)
    slacks = [r.slack for r in records if r.slack is not None]
    return PotentialReport(
        condition=condition,
        records=records,
        aggregate=aggregate,
        worst_slack=min(slacks) if slacks else None,
        verdict=all(r.passed for r in records),
    )


def merge_reports(condition: str, reports) -> PotentialReport:
    """One report under `condition` holding the records of `reports` in order."""
    return _mk_report(condition, (rec for rep in reports for rec in rep.records))


@dataclass(frozen=True)
class ConditionReports:
    """Arrival, completion and running condition reports for one potential,
    plus the implied end-to-end objective bound."""

    arrival: PotentialReport
    completion: PotentialReport
    running: PotentialReport
    objective_bound: PotentialReport
    k: int

    @property
    def all_pass(self) -> bool:
        return (
            self.arrival.verdict
            and self.completion.verdict
            and self.running.verdict
            and self.objective_bound.verdict
        )

    @property
    def reports(self):
        return (self.arrival, self.completion, self.running, self.objective_bound)


def report_to_json(report: PotentialReport, params: dict | None = None) -> dict:
    return {
        "check": report.condition,
        "params": {key: str(val) for key, val in (params or {}).items()},
        "n_events": len(report.records),
        "worst_slack": None if report.worst_slack is None else str(report.worst_slack),
        "verdict": "pass" if report.verdict else "fail",
        "witnesses": [
            {
                "time": None if r.time is None else str(r.time),
                "label": r.label,
                "delta": str(r.delta),
                "bound": None if r.bound is None else str(r.bound),
            }
            for r in report.failures
        ],
    }


# --------------------------------------------------------------------------
# backlog bound (holds against every feasible unit-speed reference)

def check_backlog_bound(ctx: PairContext) -> PotentialReport:
    """At every merged event time and every midpoint between two of them,
    for each job i with release(i) <= t: the fast backlog ahead of i (on
    alive jobs the fast schedule finishes no later than i) minus the
    reference's backlog on the no-larger of those jobs never exceeds
    machines * size(i); and the fast backlog ahead of i equals its own
    restriction to jobs with remaining volume <= size(i)."""
    size = ctx.idx_alg.size
    release = ctx.idx_alg.release
    rank = ctx.finish_rank
    bound = {i: ctx.machines * p for i, p in size.items()}
    by_release = sorted(size, key=lambda j: (release[j], j))
    released = []  # ids released by t, ascending
    nxt = 0
    records = []
    for t in _check_grid(ctx):
        while nxt < len(by_release) and release[by_release[nxt]] <= t:
            insort(released, by_release[nxt])
            nxt += 1
        alive_alg = ctx.idx_alg.alive(t)
        st = ctx.state(t, alive_alg, ctx.idx_ref.alive(t))
        # largest fast remaining volume ahead of each job: when it is at most
        # size(i), the restriction is the whole backlog and the identity holds
        top = {}
        most = ZERO
        for j in ctx.by_rank:
            if j in st.rem_alg and st.rem_alg[j] > most:
                most = st.rem_alg[j]
            top[j] = most
        for i in released:
            records.append(
                _rec_le(
                    t,
                    "backlog gap job %d" % i,
                    st.ahead_alg[i] - st.ahead_ref_small[i],
                    bound[i],
                )
            )
            if top[i] <= size[i]:
                delta = ZERO
            else:
                small = ZERO
                for j in alive_alg:
                    if rank[j] <= rank[i] and st.rem_alg[j] <= size[i]:
                        small += st.rem_alg[j]
                delta = small - st.ahead_alg[i]
            records.append(_rec_eq(t, "small-volume identity job %d" % i, delta))
    return _mk_report("backlog-bound", records)


def _boundaries(ctx: PairContext):
    times = {ZERO}
    times.update(ctx.srpt_trace.events)
    times.update(ctx.ref_trace.events)
    return sorted(times)


def _check_grid(ctx: PairContext):
    bounds = _boundaries(ctx)
    grid = list(bounds)
    for a, b in zip(bounds, bounds[1:]):
        grid.append((a + b) / 2)
    return sorted(grid)


# --------------------------------------------------------------------------
# potential conditions, average-flow and k-th power modes

def total_flow_factor(eps: Rational) -> Rational:
    """Competitive factor for total flow at speed 1+eps: 4/eps."""
    return 4 / eps


def _power_arrival_coefficient(eps: Rational, k: int) -> Rational:
    """(2/(eps(1-eps)))^k: the power walk's arrival jump is at most this
    times size^k, and it is the first summand of the power factor."""
    return (2 / (eps * (1 - eps))) ** k


def power_flow_factor(eps: Rational, k: int) -> Rational:
    """Competitive factor for the k-th power of flow at speed 1+eps
    (0 < eps <= 1/2): (2/(eps(1-eps)))^k + ((1+eps)/eps^2)^k."""
    return _power_arrival_coefficient(eps, k) + ((1 + eps) / eps ** 2) ** k


def theorem_factor(eps: Rational, k: int) -> Rational:
    """The theorem's competitive factor for the k-th power of flow at speed
    1+eps: the total-flow factor at k = 1, the power factor above."""
    return total_flow_factor(eps) if k == 1 else power_flow_factor(eps, k)


def flow_potential(ctx: PairContext, t) -> Rational:
    """Queue-wide potential for the total-flow analysis, evaluated post-event
    at event times: the sum of the alive jobs' backlog gaps over m*eps."""
    _require_eps_positive(ctx)
    return _potential(ctx, t, ctx.idx_alg.alive(t), ctx.idx_ref.alive(t), False, 1)


def power_flow_potential(ctx: PairContext, t, k: int | None = None) -> Rational:
    """Queue-wide potential for the k-th power flow analysis (0 < eps <= 1/2)."""
    k = ctx.k if k is None else k
    _require_eps_power(ctx, k)
    return _potential(ctx, t, ctx.idx_alg.alive(t), ctx.idx_ref.alive(t), True, k)


def _require_eps_positive(ctx):
    if ctx.epsilon <= 0:
        raise AnalysisError("epsilon must be positive for potential checks")


def _require_eps_power(ctx, k):
    if not isinstance(k, int) or k < 1:
        raise AnalysisError("k must be an integer >= 1")
    if ctx.epsilon <= 0 or ctx.epsilon > Rational(1, 2):
        raise AnalysisError("epsilon out of theorem range (need 0 < eps <= 1/2)")


def _clamped_age(ctx, st, t, i) -> Rational:
    """Age of job i plus its backlog gap over m*eps, the quantity whose clamp
    at zero drives the power potential. The gap is the fast volume ahead of
    i, plus m times i's own remaining volume, minus the reference's
    small-job volume ahead of i. Linear in t between events."""
    m = ctx.machines
    gap = st.ahead_alg[i] + m * st.rem_alg[i] - st.ahead_ref_small[i]
    return (t - ctx.idx_alg.release[i]) + gap / (m * ctx.epsilon)


def _walk_term(eps, power: bool, k: int):
    """(term, rise) of a potential walk. Objective plus potential is the sum,
    over alive jobs, of term(g) with g the job's clamped age: g itself in the
    flow walk, scale * max(g, 0)^k with scale = (1 - eps)^-k in the power
    walk (scale is computed only there, since the flow walk allows eps = 1).
    rise(ga, gb) is (b - t) times the term's left derivative at b while g
    runs linearly from ga at t to gb at b."""
    if not power:
        return (lambda g: g), (lambda ga, gb: gb - ga)
    scale = (1 - eps) ** (-k)

    def term(g):
        return scale * g ** k if g > 0 else ZERO

    def rise(ga, gb):
        # the term is 0 just before b unless g > 0 there
        if gb > 0 or ga > gb == 0:
            return scale * k * gb ** (k - 1) * (gb - ga)
        return ZERO

    return term, rise


def _potential(ctx, t, alive_alg, alive_ref, power: bool, k: int) -> Rational:
    """The walk's potential: the sum over alive jobs of term(g) minus
    (t - release)^k. In the flow walk this is the sum of the backlog gaps
    over m*eps."""
    term, _ = _walk_term(ctx.epsilon, power, k)
    st = ctx.state(t, alive_alg, alive_ref)
    release = ctx.idx_alg.release
    return sum(
        (term(_clamped_age(ctx, st, t, i)) - (t - release[i]) ** k for i in alive_alg), ZERO
    )


def check_flow_conditions(ctx: PairContext) -> ConditionReports:
    """Arrival jumps, completion charges and between-event drift of the
    total-flow potential, plus the implied 4/eps objective bound."""
    _require_eps_positive(ctx)
    return _condition_walk(ctx, power=False, k=1)


def check_power_flow_conditions(ctx: PairContext, k: int | None = None) -> ConditionReports:
    """Same walk for the k-th power potential (0 < eps <= 1/2)."""
    k = ctx.k if k is None else k
    _require_eps_power(ctx, k)
    return _condition_walk(ctx, power=True, k=k)


def _condition_walk(ctx: PairContext, power: bool, k: int) -> ConditionReports:
    m = ctx.machines
    eps = ctx.epsilon
    release = ctx.idx_alg.release
    size = ctx.idx_alg.size
    bounds = _boundaries(ctx)

    # Objective plus potential is a sum over alive jobs of a convex term of
    # the job's clamped age g. Between events each g is linear, so the sum is
    # convex and never rises on [t, b] exactly when its left derivative at b
    # is at most 0.
    term, rise = _walk_term(eps, power, k)
    if power:
        arrival_coefficient = _power_arrival_coefficient(eps, k)

    arrivals_at, comp_alg_at, comp_ref_at = (
        _ids_at(times) for times in (release, ctx.idx_alg.completion, ctx.idx_ref.completion)
    )

    arrival_records = []
    completion_records = []
    running_records = []
    jump_total = ZERO
    drift_total = ZERO
    completion_jump_total = ZERO

    alive_alg = frozenset()
    alive_ref = frozenset()

    for pos, t in enumerate(bounds):
        finished_ref = comp_ref_at.get(t, ())
        if finished_ref:
            alive_ref = alive_ref - frozenset(finished_ref)
        finished_alg = sorted(comp_alg_at.get(t, ()))
        if finished_alg:
            st = ctx.state(t, alive_alg, alive_ref)
            for c in finished_alg:
                owed = st.ahead_ref_small[c]
                age = t - release[c]
                jump = age ** k - term(age - owed / (m * eps))
                if not power:
                    rec = _rec_info(t, "completion job %d" % c, jump)
                elif owed <= m * eps * eps * age:
                    rec = _rec_le(t, "completion job %d (drained case)" % c, jump, ZERO)
                else:
                    bound = (owed / m) ** k / eps ** (2 * k)
                    rec = _rec_le(t, "completion job %d (owed case)" % c, jump, bound)
                completion_records.append(rec)
                jump_total += jump
                completion_jump_total += jump
            alive_alg = alive_alg - frozenset(finished_alg)
        for a in sorted(arrivals_at.get(t, ())):
            before = ctx.state(t, alive_alg, alive_ref) if alive_alg else None
            prev_alive = alive_alg
            alive_alg = alive_alg | {a}
            alive_ref = alive_ref | {a}
            st = ctx.state(t, alive_alg, alive_ref)
            jump = term(_clamped_age(ctx, st, t, a))
            bound = arrival_coefficient * size[a] ** k if power else 2 * size[a] / eps
            # the analysis assumes an arrival leaves every other job's term
            # alone; a shift is a failure, recorded as the change it makes to
            # the potential so that the identity below holds
            for i in sorted(prev_alive):
                shift = term(_clamped_age(ctx, st, t, i)) - term(_clamped_age(ctx, before, t, i))
                if shift != 0:
                    arrival_records.append(
                        _rec_eq(t, "arrival job %d shifts term of job %d" % (a, i), shift)
                    )
                    jump_total += shift
            arrival_records.append(_rec_le(t, "arrival job %d" % a, jump, bound))
            jump_total += jump
        if pos + 1 == len(bounds):
            break
        b = bounds[pos + 1]
        st_a = ctx.state(t, alive_alg, alive_ref)
        st_b = ctx.state(b, alive_alg, alive_ref)
        delta = ZERO
        slope = ZERO
        for i in alive_alg:
            ga = _clamped_age(ctx, st_a, t, i)
            gb = _clamped_age(ctx, st_b, b, i)
            delta += term(gb) - term(ga)
            slope += rise(ga, gb)
        running_records.append(_rec_le(t, "drift on [%s, %s]" % (t, b), delta, delta - slope))
        drift_total += delta

    if alive_alg or alive_ref:  # pragma: no cover - both traces end completed
        raise AnalysisError("internal: jobs alive after the final event")

    alg_objective = flow_power(ctx.srpt_trace, k)
    ref_objective = flow_power(ctx.ref_trace, k)

    # the potential starts and ends at zero, so jumps plus drift must
    # reproduce the final objective exactly; any mismatch is a harness bug
    if jump_total + drift_total != alg_objective:
        raise AnalysisError(
            "internal: potential accounting mismatch (%s + %s != %s)"
            % (jump_total, drift_total, alg_objective)
        )

    end = bounds[-1] if bounds else ZERO
    empty = frozenset()
    for t, label in ((ZERO, "potential before first event"), (end, "potential after final event")):
        completion_records.append(_rec_eq(t, label, _potential(ctx, t, empty, empty, power, k)))

    if not power:
        completion_records.append(
            _rec_le(
                None,
                "aggregate completion charge",
                completion_jump_total,
                (1 + eps) / eps * ref_objective,
            )
        )
        factor = total_flow_factor(eps)
    else:
        factor = power_flow_factor(eps, k)
    bound_report = _mk_report(
        "objective-bound",
        [
            _rec_le(
                None,
                "final objective vs reference (factor %s)" % factor,
                alg_objective,
                factor * ref_objective,
            )
        ],
    )

    prefix = "power-" if power else "flow-"
    return ConditionReports(
        arrival=_mk_report(prefix + "arrival", arrival_records),
        completion=_mk_report(prefix + "completion", completion_records),
        running=_mk_report(prefix + "running", running_records),
        objective_bound=bound_report,
        k=k,
    )


# --------------------------------------------------------------------------
# completion charging against the reference

def check_completion_charge(ctx: PairContext, k: int | None = None) -> PotentialReport:
    """When the fast schedule finishes job i, the reference still owes volume
    on no-larger jobs the fast schedule already finished. The aggregate of
    (owed/m)^k is bounded by (1+eps)^k times the reference objective, and a
    per-pair window inequality localizes the charge to reference flows."""
    k = ctx.k if k is None else k
    _require_eps_power(ctx, k)
    m = ctx.machines
    eps = ctx.epsilon
    release = ctx.idx_alg.release
    size = ctx.idx_alg.size
    rank = ctx.finish_rank
    comp_alg = ctx.idx_alg.completion
    comp_ref = ctx.idx_ref.completion
    jobs = sorted(rank)

    owed = {}
    rem_ref = {}  # i -> reference remaining volumes when the fast schedule finishes i
    contributors = {}
    for i in jobs:
        t = comp_alg[i]
        alive_ref = ctx.idx_ref.alive(t)
        st = ctx.state(t, ctx.idx_alg.alive(t), alive_ref)
        owed[i] = st.ahead_ref_small[i]
        rem_ref[i] = st.rem_ref
        contributors[i] = sorted(
            j for j in alive_ref if rank[j] <= rank[i] and size[j] <= size[i]
        )

    charged_to = {j: [] for j in jobs}
    for i in jobs:
        for j in contributors[i]:
            charged_to[j].append(i)

    records = []
    total = sum(((owed[i] / m) ** k for i in jobs), ZERO)
    records.append(
        _rec_le(None, "aggregate charge", total, (1 + eps) ** k * flow_power(ctx.ref_trace, k))
    )

    denom = (1 + eps) * m
    for i in jobs:
        t = comp_alg[i]
        for j in contributors[i]:
            earlier = sum(
                (rem_ref[i][a] for a in contributors[i] if release[a] < release[j]),
                ZERO,
            )
            lhs = (owed[i] - earlier) / denom
            later_charges = sum(
                (
                    ctx.idx_ref.remaining(j, comp_ref[a])
                    for a in charged_to[j]
                    if rank[a] > rank[i]
                ),
                ZERO,
            )
            rhs = comp_ref[j] - release[j] - later_charges / denom
            records.append(
                _rec_le(t, "window bound pair (%d, %d)" % (i, j), lhs, rhs, in_aggregate=False)
            )
    return _mk_report("completion-charge", records)
