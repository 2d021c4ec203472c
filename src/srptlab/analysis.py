"""Exact verification harness for flow-time guarantees of speed-augmented SRPT.

Everything here compares a fast trace (machines of speed 1+eps running SRPT)
against a unit-speed reference trace over the same instance, exactly. The
checks mirror an amortized analysis:

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
Between two consecutive event times the alive sets are constant, and each
remaining volume is linear in t while its schedule keeps the same running
set. The engine's schedules change that set only at events, but an oracle
witness (brute_force_opt) may also change it at an integer time strictly
between two events, where its remaining volumes bend; the grid below does
not hold those times (see check_backlog_bound and _walk_pass). The backlog
check's grid is the event times and the midpoint between each two. A
midpoint whose interval holds no bend, between two event times whose
records all pass, is decided by them: each gap is linear there and an
arrival at the later end only raises it, so the midpoint's gap is at most
the larger of the two ends', and the identity holds there since volumes
only fall. The summary pass counts that midpoint's records as passing and
evaluates every other one.

Integer time base (shared with the engine and validate_trace through
core._unit and core._scaled). A fast trace and its references are indexed on
one base (_indexes), and a context pairs two such indexes: time in units of
1/L and volume in units of 1/V. L is twice the lcm of the denominators of
every release, size, segment bound and completion in those traces, so
every event time and every midpoint between two of them is an integer
T = t * L. With the fast speed p/q in lowest terms, V = q * L: a job's
remaining volume inside a service interval is line - p * T in the fast
schedule and line - q * T in the reference, with line an integer, so every
remaining volume at a grid time is an integer too. The checks ask only at
grid times, and run on these integers: each one decides, counts and ranks
its records in one integer pass. Each record is built from the integers that
decided it (see _Part), and only when the pass keeps it: a failing record,
or any record of a full pass. A report's full records are built when first
read, by running the pass again on its two traces, indexed anew (see
_reports). Record values are exact Fractions, whatever L is.

Both potentials are sums of terms of one per-job clamped age, so one walk of
a context checks the flow potential and the power potential at every k
(see _walk_pass). No check keeps a state it has passed. An index keeps only
who arrives and who finishes at each time, O(n) in all. The backlog pass and
the walk run forward in time and advance their alive sets through those two
event maps (_TraceIndex.advance); the charge pass runs backward through the
completions (see check_completion_charge).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import NamedTuple

from . import engine, oracle
from .core import (UNIT_SPEED, ExecutionTrace, FlowSummary, _scaled, _trace_values, _unit,
                   flow_power, validate_trace)
from .rationals import Rational, ZERO, kth_root_str
from .workload import is_int

# the power checks and the k >= 2 guarantees need 0 < eps <= MAX_POWER_EPS
MAX_POWER_EPS = Rational(1, 2)
REFERENCES = ("oracle", "unit-srpt", "fifo")
VERIFY_CHECKS = ("backlog-bound", "flow-potential", "power-flow-potential", "completion-charge")


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


def _indexes(fast: ExecutionTrace, *refs: ExecutionTrace) -> list:
    """One _TraceIndex per trace, fast first, all on one time base: L is
    twice core._unit over every release, size, segment bound and completion
    of the traces, so that each of them and each midpoint between two of them
    is a whole multiple of 1/L, and V = q * L for the fast speed p/q."""
    traces = (fast, *refs)
    L = 2 * _unit(x for trace in traces for x in _trace_values(trace))
    V = fast.speed.speed.denominator * L
    return [_TraceIndex(trace, L, V) for trace in traces]


class _TraceIndex:
    """Per-trace query cache in integer units: times in 1/L, volumes in 1/V.
    Each job's service is kept as maximal intervals (sorted starts and ends);
    its remaining volume is a line in T inside one and a constant after one,
    so a remaining volume is one bisection. Membership is kept only as two
    event maps, released_at and finished_at (time -> the ids that arrive or
    finish then), from which every pass reads who is alive, so an index
    holds O(n). Each k-th power flow is taken once."""

    def __init__(self, trace: ExecutionTrace, L: int, V: int):
        self.trace = trace
        self.L, self.V = L, V
        self.power = cache(partial(flow_power, trace))  # k -> flow_power(trace, k), once per k
        # volume served per time unit; an integer because V / L is the fast
        # speed's denominator
        self.rate = rate = int(trace.speed.speed * (V // L))
        self.release = {j.id: _scaled(j.release, L) for j in trace.instance.jobs}
        self.size = {j.id: _scaled(j.size, V) for j in trace.instance.jobs}
        self.completion = {jid: _scaled(c, L) for jid, c in enumerate(trace.completions)}
        self.starts = {jid: [] for jid in self.release}
        self.ends = {jid: [] for jid in self.release}
        for seg in trace.segments:
            start, end = _scaled(seg.start, L), _scaled(seg.end, L)
            for jid in seg.assignment:
                if jid is None:
                    continue
                ends = self.ends[jid]
                if ends and ends[-1] == start:  # service runs on: one interval
                    ends[-1] = end
                else:
                    self.starts[jid].append(start)
                    ends.append(end)
        # inside interval q a job's remaining volume is line[q] - rate * T,
        # after it left[q]
        self.line = {}
        self.left = {}
        for jid, starts in self.starts.items():
            rem = self.size[jid]
            self.line[jid] = line = []
            self.left[jid] = left = []
            for a, b in zip(starts, self.ends[jid]):
                line.append(rem + rate * a)
                rem -= rate * (b - a)
                left.append(rem)
        # membership changes only at a release or a completion
        self.released_at = _ids_at(self.release)
        self.finished_at = _ids_at(self.completion)

    def remaining(self, jid: int, T):
        """Remaining volume at integer scaled time T."""
        if T <= self.release[jid]:
            return self.size[jid]
        if T >= self.completion[jid]:
            return 0
        pos = bisect_left(self.starts[jid], T)  # intervals starting before T
        if pos == 0:
            return self.size[jid]
        if T < self.ends[jid][pos - 1]:
            return self.line[jid][pos - 1] - self.rate * T
        return self.left[jid][pos - 1]

    def advance(self, alive: frozenset, T) -> frozenset:
        """The alive set at T from `alive`, the set just before T: T's
        finished jobs leave and its released jobs join. The same object when
        nothing happens at T. A job of positive size finishes after its
        release, so no job released at T also finishes at T."""
        finished, released = self.finished_at.get(T), self.released_at.get(T)
        if finished is None and released is None:
            return alive
        return alive.difference(finished or ()).union(released or ())


class _StateEval(NamedTuple):
    """Volumes in units of 1/V."""

    rem_alg: dict  # jid in alive_alg -> remaining in the fast schedule
    ahead_alg: dict  # jid -> remaining fast volume on jobs finishing by jid
    ahead_ref_small: dict  # jid -> remaining reference volume on no-larger such jobs


class PairContext:
    """The indexes of a fast trace and a unit-speed reference over one
    instance, on one time base (see _indexes). It caches nothing: each
    check holds only the state it is at.

    epsilon is taken from the fast trace's speed config; it may be 0 for
    backlog-only comparisons, while the potential checks demand eps > 0 and
    the power checks demand 0 < eps <= 1/2. L and V are the indexes' time
    and volume units (see the module docstring), p / q the fast speed.
    """

    def __init__(self, idx_alg: _TraceIndex, idx_ref: _TraceIndex, k: int = 1):
        self.idx_alg, self.idx_ref = idx_alg, idx_ref
        self.srpt_trace = srpt_trace = idx_alg.trace
        self.ref_trace = idx_ref.trace
        self.epsilon = srpt_trace.speed.epsilon
        self.k = k
        self.instance = srpt_trace.instance
        self.machines = srpt_trace.instance.machines
        speed = srpt_trace.speed.speed
        self.p, self.q = speed.numerator, speed.denominator
        self.L, self.V = idx_alg.L, idx_alg.V
        # the fast schedule's finish order: (completion, id)
        order = sorted((c, jid) for jid, c in enumerate(srpt_trace.completions))
        self.finish_rank = {jid: pos for pos, (_, jid) in enumerate(order)}

    def state(self, T, alive_alg: frozenset, alive_ref: frozenset, *, ids=None) -> _StateEval:
        """Fast remaining volumes at integer scaled time T of the given alive
        sets (any subsets of the jobs, not only the alive sets at T) and, for
        every job i of `ids` (by default alive_alg; any job ids will do), the
        fast volume on those alive jobs the fast schedule finishes no later
        than i, and the reference volume on those alive reference jobs that
        it finishes no later than i and that are no larger than i, all in
        units of 1/V. Each i is one scan of both alive sets, so a state costs
        O(|ids| * (|alive_alg| + |alive_ref|)), whatever the number of jobs."""
        rank, size = self.finish_rank, self.idx_alg.size
        rem_alg = {j: self.idx_alg.remaining(j, T) for j in alive_alg}
        alg = [(rank[j], v) for j, v in rem_alg.items()]
        ref = [(rank[j], size[j], self.idx_ref.remaining(j, T)) for j in alive_ref]
        ahead_alg = {}
        ahead_ref_small = {}
        for i in alive_alg if ids is None else ids:
            r, p = rank[i], size[i]
            total = 0
            for rj, v in alg:
                if rj <= r:
                    total += v
            ahead_alg[i] = total
            total = 0
            for rj, pj, v in ref:
                if rj <= r and pj <= p:
                    total += v
            ahead_ref_small[i] = total
        return _StateEval(rem_alg, ahead_alg, ahead_ref_small)


def _require_feasible(name: str, trace: ExecutionTrace):
    ok, violations = validate_trace(trace)
    if not ok:
        raise AnalysisError("%s trace infeasible: %s" % (name, "; ".join(violations[:3])))


def _power_k(k, message="k must be an integer >= 1") -> int:
    """k, if it is an int >= 1 and not a bool (as workload.is_int has it:
    True must not pass as 1); raises AnalysisError(message) otherwise."""
    if not is_int(k) or k < 1:
        raise AnalysisError(message)
    return k


def make_context(srpt_trace: ExecutionTrace, ref_trace: ExecutionTrace, k: int = 1) -> PairContext:
    """Validate both traces and pair them on their own time base."""
    if srpt_trace.instance != ref_trace.instance:
        raise AnalysisError("traces cover different instances")
    if ref_trace.speed.speed != 1:
        raise AnalysisError("reference trace must run at unit speed")
    _power_k(k)
    _require_feasible("fast", srpt_trace)
    _require_feasible("reference", ref_trace)
    return PairContext(*_indexes(srpt_trace, ref_trace), k)


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
        powers[k] = flow_power(trace, _power_k(k))
        norms[k] = kth_root_str(powers[k], k)
    return FlowSummary(
        flows=flows, total_flow=flow_power(trace, 1), kth_power_flow=powers, lk_norm=norms
    )


# --------------------------------------------------------------------------
# check records and reports

class CheckRecord(NamedTuple):
    time: Rational | None
    label: str
    delta: Rational
    bound: Rational | None  # None = informational record, always passes
    slack: Rational | None
    passed: bool
    in_aggregate: bool = True


def _in_units(unit: Rational):
    """x -> x * unit, building each distinct value once."""
    cache = {}

    def real(x):
        out = cache.get(x)
        if out is None:
            out = cache[x] = x * unit
        return out

    return real


class _Part:
    """One report's share of a check's integer pass, and the only builder of
    its records. The pass hands the part each record as the integers that
    decide it, in the part's unit: le(T, delta, bound, ...) for a record
    that passes when delta <= bound, eq(T, delta, ...) for one that passes
    when delta is 0, info(T, delta, ...) for one with no bound. The part
    counts the record and takes its worst int slack, and builds it only when
    it keeps it: in full it keeps every record, otherwise only the failing
    ones. A kept record's values are real(x) = x * unit, its time at(T) and
    its label `label % args` (or, in le, label(*args) for a function, so
    that a label of times converts them only for a kept record). exact()
    takes the few records whose bound carries a reference objective, as
    Fractions."""

    __slots__ = ("full", "unit", "real", "at", "in_aggregate", "n", "worst", "exact_worst", "records")

    def __init__(self, full: bool, unit: Rational, at, in_aggregate: bool = True):
        self.full = full
        self.unit, self.real, self.at = unit, _in_units(unit), at
        self.in_aggregate = in_aggregate
        self.n = 0
        self.worst = None  # int; None while no int record has a slack
        self.exact_worst = None
        self.records = []

    def le(self, T: int, delta: int, bound: int, label, *args):
        self.n += 1
        slack = bound - delta
        if self.worst is None or slack < self.worst:
            self.worst = slack
        if self.full or slack < 0:
            real = self.real
            self.records.append(CheckRecord(
                self.at(T), label % args if isinstance(label, str) else label(*args),
                real(delta), real(bound), real(slack), slack >= 0, self.in_aggregate,
            ))

    def eq(self, T: int, delta: int, label, *args):
        self.n += 1
        slack = -abs(delta)
        if self.worst is None or slack < self.worst:
            self.worst = slack
        if self.full or delta:
            real = self.real
            self.records.append(CheckRecord(
                self.at(T), label % args, real(delta), ZERO, real(slack), not delta, self.in_aggregate,
            ))

    def info(self, T: int, delta: int, label, *args):
        self.n += 1
        if self.full:
            self.records.append(CheckRecord(self.at(T), label % args, self.real(delta), None, None, True,
                                            self.in_aggregate))

    def exact(self, label: str, delta: Rational, bound: Rational):
        """A record with no time, passing when delta <= bound."""
        self.n += 1
        slack = bound - delta
        if self.exact_worst is None or slack < self.exact_worst:
            self.exact_worst = slack
        if self.full or slack < 0:
            self.records.append(CheckRecord(None, label, delta, bound, slack, slack >= 0, self.in_aggregate))

    def tally(self, n: int, slack: int):
        """Count n records, decided by the caller, whose least int slack is
        `slack`: passing ones built in neither mode, or shared ones."""
        if n:
            self.n += n
            if self.worst is None or slack < self.worst:
                self.worst = slack

    def result(self):
        """(record count, worst slack, records): the int worst is converted
        once."""
        slacks = [s for s in (self.exact_worst, None if self.worst is None else self.worst * self.unit)
                  if s is not None]
        return self.n, min(slacks, default=None), self.records


class _Records(Sequence):
    """A report's records, built by `build()` on first read; their number
    is known without building them."""

    __slots__ = ("_n", "_build", "_items")

    def __init__(self, n: int, build):
        self._n = n
        self._build = build
        self._items = None

    def __len__(self):
        return self._n

    def _built(self) -> tuple:
        if self._items is None:
            self._items = tuple(self._build())
            self._build = None
        return self._items

    def __getitem__(self, pos):
        return self._built()[pos]

    def __iter__(self):
        return iter(self._built())


@dataclass(frozen=True)
class PotentialReport:
    """One condition's outcome. The record count, the worst slack, the
    verdict and the failing records come from the check's integer pass;
    `records` holds every record, and the checks build theirs on first
    read."""

    condition: str
    n_events: int
    worst_slack: Rational | None
    verdict: bool
    failures: tuple
    records: Sequence = field(compare=False)

    @cached_property
    def aggregate(self) -> Rational:
        """Sum of the deltas of the records in the aggregate, on first read."""
        return sum((r.delta for r in self.records if r.in_aggregate and r.delta), ZERO)


def _reports(conditions, run, ctx: PairContext, *args) -> list:
    """One report per condition from the integer pass `run(ctx, *args, full)`,
    which returns one (count, worst slack, records) per condition. The first
    read of any report's records runs the pass again, in full, on the two
    traces indexed anew on their own time base (records do not depend on
    it): a report holds the traces, not the context or its indexes."""
    fast, ref = ctx.srpt_trace, ctx.ref_trace
    replay = cache(lambda: run(PairContext(*_indexes(fast, ref)), *args, True))
    return [
        PotentialReport(cond, n, worst, not failing, tuple(failing),
                        _Records(n, lambda pos=pos: replay()[pos][2]))
        for pos, (cond, (n, worst, failing)) in enumerate(zip(conditions, run(ctx, *args, False)))
    ]


def _merged(condition: str, reports) -> PotentialReport:
    """One report of all of `reports`: their summaries combined, their
    records in order on first read."""
    n = sum(rep.n_events for rep in reports)
    slacks = [rep.worst_slack for rep in reports if rep.worst_slack is not None]
    return PotentialReport(
        condition,
        n,
        min(slacks, default=None),
        all(rep.verdict for rep in reports),
        tuple(rec for rep in reports for rec in rep.failures),
        _Records(n, lambda: [rec for rep in reports for rec in rep.records]),
    )


@dataclass(frozen=True)
class ConditionReports:
    """Arrival, completion and running condition reports for one potential,
    plus the implied end-to-end objective bound."""

    arrival: PotentialReport
    completion: PotentialReport
    running: PotentialReport
    objective_bound: PotentialReport

    @property
    def all_pass(self) -> bool:
        return all(rep.verdict for rep in self.reports)

    @property
    def reports(self):
        return (self.arrival, self.completion, self.running, self.objective_bound)


def report_to_json(report: PotentialReport, params: dict | None = None) -> dict:
    return {
        "check": report.condition,
        "params": {key: str(val) for key, val in (params or {}).items()},
        "n_events": report.n_events,
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
    restriction to jobs with remaining volume <= size(i).

    The records at event times cover every t against a reference that
    changes its running set only at events, as the engine's schedules do.
    Take consecutive event times a < b. On [a, b) the alive sets are
    constant and every remaining volume is linear, so each gap is linear
    there. At b a completion is continuous, since its remaining volume
    reaches 0, and an arrival a' adds size(a') to the fast backlog and the
    same or nothing to the reference term, so it only raises gap(b). A
    gap's maximum on [a, b] is therefore at a or b. The identity fails only
    while some job ahead of i has more than size(i) left, and remaining
    volumes only fall on [a, b), so it fails at a whenever it fails inside.
    So the midpoint records add no failure of their own, though n_events
    and the witness lists count them.

    Open (soundness ledger): an oracle witness can change its running set
    at an integer time inside (a, b). The reference term is then only
    piecewise linear, with a bend the grid does not hold, and no argument
    yet shows that a gap's maximum is never there. The identity argument
    still holds, as it uses only that volumes fall. A seeded test
    evaluates the gaps at every such time (TestOracleSwitches in
    tests/test_analysis.py) and has found no worse slack than the grid's.

    Only a job the fast schedule still holds can fail. Once it has finished
    i, it has finished every job it finishes no later than i, so the fast
    backlog ahead of i is 0: i's gap is at most 0, its slack at least
    machines * size(i), and the identity holds with slack 0. The check
    counts those two records at each grid time without building them, so a
    grid time costs one state of the fast alive jobs, not of all n, and a
    grid time where the fast schedule holds no job costs no state.

    A midpoint M of consecutive boundaries a < b is decided by a and b
    alone when every record at a and at b passes and neither trace starts
    or ends a service interval strictly inside (a, b); the check then
    counts M's records as passing, with least slack 0, without a state.
    A job finished by a passes as above. Take i alive in the fast schedule
    on (a, b). With no bend inside, every remaining volume is linear on
    [a, b], so gap_i(M) is the mean of gap_i(a) and the gap over the same
    alive sets at b. At b a completion adds 0 to that gap, and an
    arrival raises it or leaves it, so gap_i(M) <= max(gap_i(a), gap_i(b)).
    If i finishes at b, every job the fast schedule finishes no later than
    i is done by then, so its gap over those sets is <= 0. The identity
    needs only that volumes never rise: if it holds at a, it holds at M,
    with slack 0. Every other midpoint is evaluated, among them those where
    an oracle witness switches jobs, and its records come before b's.
    Read in full, the records of every grid time are built."""
    [report] = _reports(("backlog-bound",), _backlog_pass, ctx)
    return report


def _backlog_pass(ctx: PairContext, full: bool) -> list:
    """check_backlog_bound's integer pass over the boundaries and the
    midpoints between them; slacks in units of 1/V. In full it builds both
    records of every released job at every grid time; otherwise it looks
    only at the jobs alive in the fast schedule, since no other record can
    fail, and evaluates a midpoint only when its two boundaries do not
    decide it (see check_backlog_bound)."""
    size = ctx.idx_alg.size
    rank = ctx.finish_rank
    bound = {i: ctx.machines * p for i, p in size.items()}
    part = _Part(full, Rational(1, ctx.V), _in_units(Rational(1, ctx.L)))

    def grid_time(T, released, alive_alg, alive_ref) -> bool:
        """The records at T of the released jobs (ascending ids) over these
        alive sets; whether all of them pass."""
        kept = len(part.records)
        ids = released
        if not full:  # a finished job's two records pass, the least slack 0
            part.tally(2 * (len(released) - len(alive_alg)), 0)
            if not alive_alg:
                return True
            ids = sorted(alive_alg)
        st = ctx.state(T, alive_alg, alive_ref, ids=ids)
        alg = [(rank[j], v) for j, v in st.rem_alg.items()]
        for i in ids:
            part.le(T, st.ahead_alg[i] - st.ahead_ref_small[i], bound[i], "backlog gap job %d", i)
            r, p = rank[i], size[i]
            small = 0
            for rj, v in alg:
                if rj <= r and v <= p:
                    small += v
            part.eq(T, small - st.ahead_alg[i], "small-volume identity job %d", i)
        return len(part.records) == kept

    bounds = _boundaries(ctx)
    # service-interval starts and ends of both traces that are no boundary:
    # the times inside (a, b) where a remaining volume bends
    bends = set()
    for idx in (ctx.idx_alg, ctx.idx_ref):
        for times in (*idx.starts.values(), *idx.ends.values()):
            bends.update(times)
    bends = sorted(bends.difference(bounds))
    released = []  # ids released by b, ascending
    alive_alg = alive_ref = frozenset()
    a = passed_a = None
    for b in bounds:
        inside = (released, alive_alg, alive_ref)  # who is released and alive on (a, b)
        if b in ctx.idx_alg.released_at:
            released = sorted(released + ctx.idx_alg.released_at[b])
        alive_alg = ctx.idx_alg.advance(alive_alg, b)
        alive_ref = ctx.idx_ref.advance(alive_ref, b)
        start = len(part.records)
        passed_b = grid_time(b, released, alive_alg, alive_ref)
        if a is not None:
            if not full and passed_a and passed_b and bisect_left(bends, a) == bisect_left(bends, b):
                part.tally(2 * len(inside[0]), 0)
            else:  # the midpoint's records go before b's
                mid = len(part.records)
                grid_time((a + b) // 2, *inside)
                part.records[start:] = part.records[mid:] + part.records[start:mid]
        a, passed_a = b, passed_b
    return [part.result()]


def _boundaries(ctx: PairContext):
    """0 and every arrival and completion time of both traces, in time units
    (each even, so the midpoint between two of them is an integer)."""
    times = {0}
    for idx in (ctx.idx_alg, ctx.idx_ref):
        times.update(idx.released_at, idx.finished_at)
    return sorted(times)


# --------------------------------------------------------------------------
# potential conditions, average-flow and k-th power modes

def total_flow_factor(eps: Rational) -> Rational:
    """Competitive factor for total flow at speed 1+eps: 4/eps."""
    return 4 / eps


def power_flow_factor(eps: Rational, k: int) -> Rational:
    """Competitive factor for the k-th power of flow at speed 1+eps
    (0 < eps <= 1/2): (2/(eps(1-eps)))^k + ((1+eps)/eps^2)^k."""
    return (2 / (eps * (1 - eps))) ** k + ((1 + eps) / eps ** 2) ** k


def theorem_factor(eps: Rational, k: int) -> Rational:
    """The theorem's competitive factor for the k-th power of flow at speed
    1+eps: the total-flow factor at k = 1, the power factor above."""
    return total_flow_factor(eps) if k == 1 else power_flow_factor(eps, k)


def _require_eps_positive(ctx):
    if ctx.epsilon <= 0:
        raise AnalysisError("epsilon must be positive for potential checks")


def _require_eps_power(ctx, k):
    _power_k(k)
    if ctx.epsilon <= 0 or ctx.epsilon > MAX_POWER_EPS:
        raise AnalysisError("epsilon out of theorem range (need 0 < eps <= 1/2)")


def _clamped_age(ctx, st, T, i):
    """Age of job i plus its backlog gap over m*eps, the quantity whose clamp
    at zero drives the power potential, in units of 1/(L * m * (p - q)). The
    gap is the fast volume ahead of i, plus m times i's own remaining volume,
    minus the reference's small-job volume ahead of i. Linear in T between
    events while the reference keeps its running set (see _walk_pass)."""
    m = ctx.machines
    gap = st.ahead_alg[i] + m * st.rem_alg[i] - st.ahead_ref_small[i]
    return (T - ctx.idx_alg.release[i]) * m * (ctx.p - ctx.q) + gap


def _walk_term(ctx, power: bool, k: int):
    """(coef, term, rise) of a potential walk. Objective plus potential is
    coef times the sum, over alive jobs, of term(G) with G the job's clamped
    age in the units of _clamped_age: G itself in the flow walk, max(G, 0)^k
    in the power walk, where coef also carries scale = (1 - eps)^-k (computed
    only there, since the flow walk allows eps = 1). coef * rise(Ga, Gb) is
    (b - t) times the left derivative at b of coef * term while G runs
    linearly from Ga at t to Gb at b. term and rise map ints to ints."""
    unit = ctx.L * ctx.machines * (ctx.p - ctx.q)
    if not power:
        return Rational(1, unit), (lambda g: g), (lambda ga, gb: gb - ga)
    coef = (1 - ctx.epsilon) ** (-k) / unit ** k

    def term(g):
        return g ** k if g > 0 else 0

    def rise(ga, gb):
        # the term is 0 just before b unless G > 0 there
        if gb > 0 or ga > gb == 0:
            return k * gb ** (k - 1) * (gb - ga)
        return 0

    return coef, term, rise


def check_flow_conditions(ctx: PairContext) -> ConditionReports:
    """Arrival jumps, completion charges and between-event drift of the
    total-flow potential, plus the implied 4/eps objective bound."""
    _require_eps_positive(ctx)
    return _walks(ctx, ((False, 1),))[0]


def check_power_flow_conditions(ctx: PairContext, k: int | None = None) -> ConditionReports:
    """Same walk for the k-th power potential (0 < eps <= 1/2)."""
    k = ctx.k if k is None else k
    _require_eps_power(ctx, k)
    return _walks(ctx, ((True, k),))[0]


def _walks(ctx: PairContext, modes: tuple) -> list:
    """One ConditionReports per (power, k) of `modes`, all from one walk;
    the caller checks eps for each mode."""
    conditions = []
    for power, _ in modes:
        prefix = "power-" if power else "flow-"
        conditions += (prefix + "arrival", prefix + "completion", prefix + "running", "objective-bound")
    reports = _reports(conditions, _walk_pass, ctx, modes)
    return [ConditionReports(*reports[pos:pos + 4]) for pos in range(0, len(reports), 4)]


class _WalkMode:
    """One (power, k) mode of a potential walk: its term (see _walk_term),
    its four parts and its integer sums, fed each event's clamped ages by
    _walk_pass at integer times T. Arrival, running and flow completion
    records are in units of coef. Power completion records are in units of
    1/(L * s * (p - q))^k with s = (2q - p) * m * (p - q): there coef is
    per_term, 1/L^k is per_age, and the owed case's bound (owed/(m V))^k /
    eps^(2k) is owed^k * per_owed."""

    def __init__(self, ctx: PairContext, power: bool, k: int, full: bool, at):
        m, p, q = ctx.machines, ctx.p, ctx.q
        self.ctx, self.power, self.k = ctx, power, k
        self.coef, self.term, self.rise = _walk_term(ctx, power, k)
        # an arrival's bound is cap = (2 * m * size)^k, size in units of 1/V:
        # coef * cap is 2/eps * size, or (2/(eps(1-eps)))^k * size^k
        self.cap = {i: (2 * m * v) ** k for i, v in ctx.idx_alg.size.items()}
        # a completion's jump is age^k * per_age - term * per_term
        self.per_age, self.per_term, unit = m * (p - q), 1, self.coef
        if power:
            s = (2 * q - p) * m * (p - q)
            self.per_age, self.per_term = (s * (p - q)) ** k, (q * (p - q)) ** k
            self.per_owed = (q * (2 * q - p)) ** k
            unit = Rational(1, (ctx.L * s * (p - q)) ** k)
            # clamped ages move at m * (p - q) per time unit; the drained
            # case owed <= m * eps^2 * age reads owed * q <= drained * age
            self.drained = m * (p - q) ** 2
        self.arrival, self.running, self.objective = (_Part(full, self.coef, at) for _ in range(3))
        self.completion = _Part(full, unit, at)
        self.drift_label = lambda T, B: "drift on [%s, %s]" % (at(T), at(B))
        # each jump and drift is coef times a sum of terms, except that a
        # completion jump is age^k minus coef times a term
        self.ages_total = 0  # sum of age^k at the fast completions, in time units
        self.jump_terms = 0  # terms of the arrival jumps and shifts
        self.completion_terms = 0
        self.drift_terms = 0

    def complete(self, T: int, c: int, age: int, owed: int, g: int):
        """The fast schedule finishes job c at T, at this age, while the
        reference owes `owed` and c's clamped age is g."""
        k = self.k
        g, age_k = self.term(g), age ** k
        self.ages_total += age_k
        self.completion_terms += g
        jump = age_k * self.per_age - g * self.per_term
        if not self.power:
            self.completion.info(T, jump, "completion job %d", c)
        elif owed * self.ctx.q <= self.drained * age:
            self.completion.le(T, jump, 0, "completion job %d (drained case)", c)
        else:
            self.completion.le(T, jump, owed ** k * self.per_owed, "completion job %d (owed case)", c)

    def arrive(self, T: int, a: int, g: int, shifted: list):
        """Job a arrives at T with clamped age g; `shifted` holds (job, age
        before, age after) for each older job whose clamped age it moved."""
        term, part = self.term, self.arrival
        # the analysis assumes an arrival leaves every other job's term
        # alone; a shift is a failure, recorded as the change it makes to
        # the potential so that the accounting identity holds
        for i, before, after in shifted:
            shift = term(after) - term(before)
            if shift != 0:
                part.eq(T, shift, "arrival job %d shifts term of job %d", a, i)
                self.jump_terms += shift
        g = term(g)
        self.jump_terms += g
        part.le(T, g, self.cap[a], "arrival job %d", a)

    def drift(self, T: int, B: int, ga: list, gb: list):
        """The interval from T to B, over which the alive jobs' clamped ages
        run linearly from ga to gb."""
        delta = sum(map(self.term, gb)) - sum(map(self.term, ga))
        slope = sum(map(self.rise, ga, gb))
        self.drift_terms += delta
        self.running.le(T, delta, delta - slope, self.drift_label, T, B)

    def results(self, first: int, last: int) -> list:
        """The four parts' (count, worst slack, records) of a walk from the
        first event at time `first` to the final one at `last`."""
        ctx, k, coef, eps = self.ctx, self.k, self.coef, self.ctx.epsilon
        alg_objective, ref_objective = ctx.idx_alg.power(k), ctx.idx_ref.power(k)
        # the potential starts and ends at zero, so jumps plus drift must
        # reproduce the final objective exactly; any mismatch is a harness bug
        ages = Rational(self.ages_total, ctx.L ** k)
        jump_total = ages + coef * (self.jump_terms - self.completion_terms)
        drift_total = coef * self.drift_terms
        if jump_total + drift_total != alg_objective:
            raise AnalysisError("internal: potential accounting mismatch (%s + %s != %s)"
                                % (jump_total, drift_total, alg_objective))
        self.completion.eq(first, 0, "potential before first event")
        self.completion.eq(last, 0, "potential after final event")
        if not self.power:
            self.completion.exact("aggregate completion charge", ages - coef * self.completion_terms,
                                  (1 + eps) / eps * ref_objective)
        factor = power_flow_factor(eps, k) if self.power else total_flow_factor(eps)
        self.objective.exact("final objective vs reference (factor %s)" % factor, alg_objective,
                             factor * ref_objective)
        return [part.result() for part in (self.arrival, self.completion, self.running, self.objective)]


def _walk_pass(ctx: PairContext, modes: tuple, full: bool) -> list:
    """_walks' integer pass: the four results of each mode, in order. The
    potential is a sum over alive jobs, and none is alive before the first
    event or after the final one (the walk raises otherwise), so its records
    there are 0 by definition and cannot fail.

    Objective plus potential is a sum over alive jobs of a convex term of
    the job's clamped age. Between events each clamped age is linear when
    the reference keeps its running set there, as the engine's schedules
    do, so the sum is convex and never rises on [t, b] exactly when its
    left derivative at b is at most 0. Sums of terms and rises stay
    integers until a record needs them.

    Open (soundness ledger): an oracle witness can change its running set
    at an integer time inside (t, b), where the clamped ages bend, so the
    sum need not be convex there and a passing running record does not by
    itself rule out a rise inside. No argument covers those times yet; a
    seeded test evaluates objective plus potential at each of them
    (TestOracleSwitches in tests/test_analysis.py) and has found no rise
    inside an interval whose running record passed.

    The walk holds only the state it is at, and works out each alive job's
    clamped age once per state for all the modes. The state at the end T of
    an interval also serves the events at T: a job that finishes at T has
    nothing left at T, so that state gives T's completions their owed
    volumes and clamped ages, and T's first arrival the ages before it. The
    state after each arrival is the next arrival's state before, and the
    state after the last event at T starts the next interval."""
    at = _in_units(Rational(1, ctx.L))
    walks = [_WalkMode(ctx, power, k, full, at) for power, k in modes]
    release = ctx.idx_alg.release
    bounds = _boundaries(ctx)
    alive_alg = alive_ref = frozenset()
    ages = {}  # job in alive_alg -> its clamped age in the current state
    for pos, T in enumerate(bounds):
        if pos:  # the interval from the previous event to T ends
            st = ctx.state(T, alive_alg, alive_ref) if alive_alg else None
            now = {i: _clamped_age(ctx, st, T, i) for i in alive_alg}
            ga, gb = [ages[i] for i in alive_alg], [now[i] for i in alive_alg]
            for walk in walks:
                walk.drift(bounds[pos - 1], T, ga, gb)
            ages = now
        alive_ref -= frozenset(ctx.idx_ref.finished_at.get(T, ()))
        finished = sorted(ctx.idx_alg.finished_at.get(T, ()))
        for c in finished:
            for walk in walks:
                walk.complete(T, c, T - release[c], st.ahead_ref_small[c], ages[c])
        alive_alg -= frozenset(finished)
        for a in sorted(ctx.idx_alg.released_at.get(T, ())):
            before = alive_alg
            alive_alg, alive_ref = alive_alg | {a}, alive_ref | {a}
            st = ctx.state(T, alive_alg, alive_ref)
            now = {i: _clamped_age(ctx, st, T, i) for i in alive_alg}
            shifted = [(i, ages[i], now[i]) for i in sorted(before) if now[i] != ages[i]]
            for walk in walks:
                walk.arrive(T, a, now[a], shifted)
            ages = now
    if alive_alg or alive_ref:  # pragma: no cover - both traces end completed
        raise AnalysisError("internal: jobs alive after the final event")
    return [result for walk in walks for result in walk.results(bounds[0], bounds[-1])]


# --------------------------------------------------------------------------
# completion charging against the reference

def check_completion_charge(ctx: PairContext, k: int | None = None) -> PotentialReport:
    """When the fast schedule finishes job i, the reference still owes volume
    on no-larger jobs the fast schedule already finished. The aggregate of
    (owed/m)^k is bounded by (1+eps)^k times the reference objective, and a
    per-pair window inequality localizes the charge to reference flows.

    Only a held job, one the fast schedule has finished and the reference
    has not, can owe: a job finished no later than i is released by then,
    so it is alive in the reference exactly while the reference holds it.
    The pass sweeps the event times backward, keeping the held set, and
    takes the fast completions in reverse finish order. Pair (i, j)'s bound
    subtracts what j owes at the reference completions of the jobs charged
    to j that the fast schedule finishes after i: in that order all of them
    come before i, so the sum is a running total per job."""
    k = ctx.k if k is None else k
    _require_eps_power(ctx, k)
    [report] = _reports(("completion-charge",), _charge_pass, ctx, (k,))
    return report


def _charge_pass(ctx: PairContext, ks: tuple, full: bool) -> list:
    """check_completion_charge's integer pass at every k of `ks`: one result
    per k, its aggregate record followed by the window records, which do
    not depend on k. Window records are decided and built in units of
    1/(p * m * L); the aggregate's bound carries the reference objective, so
    it is built from Fractions. Beyond O(n) it holds one job's contributors
    at a time and the records it keeps."""
    m = ctx.machines
    release, size = ctx.idx_alg.release, ctx.idx_alg.size
    comp_alg, comp_ref = ctx.idx_alg.completion, ctx.idx_ref.completion
    remaining = ctx.idx_ref.remaining
    unit, at = Rational(1, ctx.p * m * ctx.L), _in_units(Rational(1, ctx.L))
    windows = _Part(full, unit, at, in_aggregate=False)
    # i -> i's kept window records: windows keeps them in a new list for each
    # i, since the sweep takes i in reverse finish order and reports id order
    kept = {}
    powers = [0] * len(ks)  # the sum of owed^k at each k
    held = set()  # finished by the job at hand in the fast schedule, not by T in the reference
    # later[j]: what j owes at the reference completions of the jobs charged
    # to j that the fast schedule finishes after the job at hand
    later = dict.fromkeys(release, 0)
    for T in reversed(_boundaries(ctx)):
        for i in sorted(ctx.idx_alg.finished_at.get(T, ()), reverse=True):
            # i's contributors, each with its reference remaining volume at T
            rem = {j: remaining(j, T) for j in sorted(j for j in held if size[j] <= size[i])}
            owed = sum(rem.values())  # PairContext.state's ahead_ref_small[i] at T
            powers = [total + owed ** k for total, k in zip(powers, ks)]
            # both sides of the window bound, times (1 + eps) * m * V = p * m * L;
            # earlier[j]: what i's contributors released before j owe
            earlier = _sums_before(rem, release.__getitem__)
            windows.records = []
            for j in rem:
                rhs = (comp_ref[j] - release[j]) * ctx.p * m - later[j]
                windows.le(T, owed - earlier[j], rhs, "window bound pair (%d, %d)", i, j)
                later[j] += remaining(j, comp_ref[i])
            if windows.records:
                kept[i] = windows.records
            held.discard(i)
        held.update(j for j in ctx.idx_ref.finished_at.get(T, ()) if comp_alg[j] < T)
    records = [rec for i in sorted(kept) for rec in kept[i]]  # each i's pairs in id order
    results = []
    for k, total in zip(ks, powers):
        part = _Part(full, unit, at)
        part.exact("aggregate charge", Rational(total, (m * ctx.V) ** k),
                   (1 + ctx.epsilon) ** k * ctx.idx_ref.power(k))
        part.tally(windows.n, windows.worst)
        part.records += records
        results.append(part.result())
    return results


def _sums_before(values: dict, key) -> dict:
    """{x: the sum of values[y] over the y with key(y) < key(x)} for every x
    in `values`, in one sorted pass: x with equal keys share one sum."""
    sums = {}
    total = pending = 0
    last = None
    for x in sorted(values, key=key):
        if key(x) != last:
            total, pending, last = total + pending, 0, key(x)
        sums[x] = total
        pending += values[x]
    return sums


# --------------------------------------------------------------------------
# the verify pipeline: every check against every reference

class VerifyRow(NamedTuple):
    """One check against one reference: its powers, with one report per
    power or, when the check was skipped, the reason and no reports."""

    check: str
    reference: str
    ks: tuple
    reports: tuple
    skipped: str | None

    @property
    def verdict(self) -> str:
        if self.skipped is not None:
            return "skipped"
        return "pass" if all(rep.verdict for rep in self.reports) else "fail"

    @property
    def worst_slack(self) -> Rational | None:
        slacks = [rep.worst_slack for rep in self.reports if rep.worst_slack is not None]
        return min(slacks) if slacks else None


@dataclass(frozen=True)
class VerifyReport:
    """The fast trace's audit violations and, when there are none, one row
    per (check, reference); `notice` says why eps > 1/2 skipped rows."""

    violations: tuple
    rows: tuple
    notice: str | None

    @property
    def passed(self) -> bool:
        return not self.violations and all(row.verdict != "fail" for row in self.rows)


def _reference_traces(name, trace, oracle_ks):
    """Reference `name`'s schedules of `trace`'s instance, keyed by objective
    power: one schedule serves every power, except that the oracle's depends
    on the power. Returns (traces, None) or ({}, skip reason)."""
    if name == "oracle":
        try:
            return {k: oracle.brute_force_opt(trace.instance, k=k).trace for k in oracle_ks}, None
        except oracle.OracleError as exc:
            return {}, "oracle skipped: %s" % exc
    if name == "unit-srpt":
        ref = engine.simulate_srpt(trace.instance, UNIT_SPEED)
    else:
        ref = engine.simulate_policy(trace.instance, UNIT_SPEED, priority=engine.fifo_priority)
    return dict.fromkeys(oracle_ks, ref), None


def verify_domain(eps, ks, refs=REFERENCES) -> tuple:
    """`verify`'s checks on its arguments, which need no trace. Returns the
    sorted ks the power and charge checks run at (none for eps > 1/2) and
    the notice that says why they do not. Raises AnalysisError on a k below
    1, an unknown reference, eps <= 0, or a k above 1 with eps > 1/2."""
    message = "k values must be integers >= 1"
    ks = sorted({_power_k(k, message) for k in ks})
    if not ks:
        raise AnalysisError(message)
    for name in refs:
        if name not in REFERENCES:
            raise AnalysisError("unknown reference %r" % name)
    if eps <= 0:
        raise AnalysisError("epsilon out of theorem range: verification needs speed > 1")
    if eps <= MAX_POWER_EPS:
        return ks, None
    if any(k > 1 for k in ks):
        raise AnalysisError("epsilon out of theorem range (k > 1 needs 0 < epsilon <= 1/2)")
    return [], "epsilon > 1/2: power-flow-potential and completion-charge checks skipped"


def verify(trace: ExecutionTrace, ks=(1,), refs=REFERENCES) -> VerifyReport:
    """Audit `trace`, a schedule at speed 1+eps, and run every check of
    VERIFY_CHECKS on it against each named unit-speed reference of REFERENCES
    over its instance: backlog and flow at k = 1, power and charge at each k
    of `ks`. For eps > 1/2 the latter are skipped, and every k must be 1.
    Raises AnalysisError as verify_domain does. Each trace is validated and
    indexed once, on one time base, and one reference's contexts are held at
    a time. Each context is walked once, for every potential it is checked
    against (flow on the k = 1 schedule and power at each k on its own), and
    charged once, at every power k it is checked at."""
    power_ks, notice = verify_domain(trace.speed.epsilon, ks, refs)
    ok, violations = validate_trace(trace)
    if not ok:
        return VerifyReport(tuple(violations), (), notice)
    oracle_ks = sorted({1, *power_ks})
    schedules = [(name, *_reference_traces(name, trace, oracle_ks)) for name in refs]
    distinct = {id(ref): ref for _, by_k, _ in schedules for ref in by_k.values()}
    for ref in distinct.values():
        _require_feasible("reference", ref)
    fast, *indexes = _indexes(trace, *distinct.values())
    index_of = dict(zip(distinct, indexes))
    rows = []
    for name, by_k, skipped in schedules:
        pair = cache(partial(PairContext, fast))  # one context per schedule
        ctxs = {k: pair(index_of[id(ref)]) for k, ref in by_k.items()}
        modes = {}  # context -> the (power, k) modes of its one walk
        for power, k in [(False, 1), *((True, k) for k in power_ks)] if ctxs else ():
            modes.setdefault(ctxs[k], []).append((power, k))
        walks, charges = {}, {}
        for ctx, ctx_modes in modes.items():
            walks.update(zip(ctx_modes, _walks(ctx, tuple(ctx_modes))))
            ks = tuple(k for power, k in ctx_modes if power)
            if ks:  # one charge pass at every power k of this context
                charges.update(zip(ks, _reports(("completion-charge",) * len(ks), _charge_pass, ctx, ks)))
        for check in VERIFY_CHECKS:
            check_ks = (1,) if check in ("backlog-bound", "flow-potential") else tuple(power_ks)
            reason = skipped if check_ks else notice
            if reason:
                reports = ()
            elif check == "backlog-bound":
                reports = (check_backlog_bound(ctxs[1]),)
            elif check == "completion-charge":
                reports = tuple(charges[k] for k in check_ks)
            else:
                power = check == "power-flow-potential"
                reports = tuple(_merged(check, walks[power, k].reports) for k in check_ks)
            rows.append(VerifyRow(check, name, check_ks, reports, reason))
    return VerifyReport((), tuple(rows), notice)
