"""Exhaustive reference schedules for desk-scale instances.

brute_force_opt minimizes the k-th power flow time over every schedule that
assigns machines in unit-length integral time slots (requires integral
releases and sizes). For one machine this class contains a true preemptive
optimum, because some optimal schedule only switches jobs at integral
arrival instants; for m >= 2 the value is an upper bound on the fractional
preemptive optimum, which is the sound direction for ratio checks of the
form "algorithm <= c * reference".

The search memoizes on (time step, multiset of (remaining, release) pairs of
arrived unfinished jobs) and only branches over work-conserving slot
assignments: handing an idle machine's slot to an alive job can only move
that job's last unit of work earlier while leaving every other job untouched,
so for any k >= 1 no optimum is lost by the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ExecutionTrace,
    Instance,
    Segment,
    SpeedConfig,
    UNIT_SPEED,
    events_of,
    validate_instance,
)
from .engine import simulate_srpt
from .rationals import Rational, ZERO

CLASS_NOTE = (
    "exhaustive over unit-slot schedules; exact optimum for m=1, "
    "an upper bound on the preemptive optimum for m>=2"
)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleLimits:
    max_jobs: int = 10
    max_total_work: int = 40
    max_machines: int = 3


DEFAULT_LIMITS = OracleLimits()


@dataclass(frozen=True)
class OracleResult:
    objective: Rational
    trace: ExecutionTrace
    exact: bool
    class_note: str


def _integral_jobs(instance: Instance):
    out = []
    for j in instance.jobs:
        if j.release.denominator != 1 or j.size.denominator != 1:
            raise OracleError("non-integral data: job %d" % j.id)
        out.append((int(j.release), int(j.size), j.id))
    return out


def _check_limits(instance: Instance, jobs, limits: OracleLimits):
    if instance.n > limits.max_jobs:
        raise OracleError("limits exceeded: %d jobs > %d" % (instance.n, limits.max_jobs))
    total = sum(p for _, p, _ in jobs)
    if total > limits.max_total_work:
        raise OracleError(
            "limits exceeded: total work %d > %d" % (total, limits.max_total_work)
        )
    if instance.machines > limits.max_machines:
        raise OracleError(
            "limits exceeded: %d machines > %d" % (instance.machines, limits.max_machines)
        )


def _actions(classes, q):
    """Distinct q-element submultisets of `classes` = ((key, count), ...),
    yielded in lexicographic take-vector order."""
    out = []

    def rec(idx, left, takes):
        if left == 0:
            out.append(tuple(takes) + (0,) * (len(classes) - idx))
            return
        if idx == len(classes):
            return
        # leave enough room in the remaining classes
        rest = sum(c for _, c in classes[idx + 1 :])
        lo = max(0, left - rest)
        hi = min(classes[idx][1], left)
        for take in range(lo, hi + 1):
            takes.append(take)
            rec(idx + 1, left - take, takes)
            takes.pop()

    rec(0, q, [])
    return out


def brute_force_opt(instance: Instance, k: int = 1, limits: OracleLimits = DEFAULT_LIMITS) -> OracleResult:
    """Minimum k-th power flow over integral-slot schedules, with a witness trace."""
    if not isinstance(k, int) or k < 1:
        raise OracleError("k must be an integer >= 1")
    inst = validate_instance(instance)
    jobs = _integral_jobs(inst)
    _check_limits(inst, jobs, limits)
    m = inst.machines

    if not jobs:
        trace = ExecutionTrace(
            instance=inst, speed=UNIT_SPEED, segments=(), completions=(), events=()
        )
        return OracleResult(objective=ZERO, trace=trace, exact=True, class_note=CLASS_NOTE)

    releases = sorted({r for r, _, _ in jobs})
    arrivals_at = {}
    for r, p, jid in jobs:
        arrivals_at.setdefault(r, []).append((p, r))
    for r in arrivals_at:
        arrivals_at[r] = tuple(sorted(arrivals_at[r]))

    def next_release(t):
        for r in releases:
            if r > t:
                return r
        return None

    def classes_of(ms):
        out = []
        for key in ms:
            if out and out[-1][0] == key:
                out[-1][1] += 1
            else:
                out.append([key, 1])
        return [(key, cnt) for key, cnt in out]

    memo = {}

    def value(t, ms):
        state = (t, ms)
        hit = memo.get(state)
        if hit is not None:
            return hit
        if not ms:
            nr = next_release(t)
            if nr is None:
                memo[state] = 0
                return 0
            res = value(nr, arrivals_at[nr])
            memo[state] = res
            return res
        classes = classes_of(ms)
        q = min(m, len(ms))
        incoming = arrivals_at.get(t + 1, ())
        best = None
        for takes in _actions(classes, q):
            acc = 0
            nxt = []
            for (key, cnt), take in zip(classes, takes):
                rem, rel = key
                if cnt - take:
                    nxt.extend([key] * (cnt - take))
                if take:
                    if rem == 1:
                        acc += take * (t + 1 - rel) ** k
                    else:
                        nxt.extend([(rem - 1, rel)] * take)
            nxt.extend(incoming)
            nxt.sort()
            cand = acc + value(t + 1, tuple(nxt))
            if best is None or cand < best:
                best = cand
        memo[state] = best
        return best

    t0 = releases[0]
    ms0 = arrivals_at[t0]
    opt = value(t0, ms0)

    # replay the memo to extract one optimal schedule, deterministically:
    # first action (in enumeration order) achieving the memoized value wins.
    concrete = sorted((p, r, jid) for r, p, jid in jobs if r == t0)
    pending = sorted(((r, jid, p) for r, p, jid in jobs if r > t0))
    t = t0
    ms = ms0
    slots = []  # (t, tuple of chosen jids sorted)
    completions = [None] * inst.n
    while ms or pending:
        if not ms:
            t = pending[0][0]
            arrived = [e for e in pending if e[0] == t]
            pending = [e for e in pending if e[0] > t]
            concrete = sorted(concrete + [(p, r, jid) for r, jid, p in arrived])
            ms = arrivals_at[t]
            continue
        classes = classes_of(ms)
        q = min(m, len(ms))
        incoming = arrivals_at.get(t + 1, ())
        target = memo[(t, ms)]
        chosen_takes = None
        for takes in _actions(classes, q):
            acc = 0
            nxt = []
            for (key, cnt), take in zip(classes, takes):
                rem, rel = key
                if cnt - take:
                    nxt.extend([key] * (cnt - take))
                if take:
                    if rem == 1:
                        acc += take * (t + 1 - rel) ** k
                    else:
                        nxt.extend([(rem - 1, rel)] * take)
            nxt.extend(incoming)
            nxt.sort()
            if acc + memo[(t + 1, tuple(nxt))] == target:
                chosen_takes = takes
                new_ms = tuple(nxt)
                break
        if chosen_takes is None:  # pragma: no cover - replay must find the optimum
            raise OracleError("internal: replay lost the optimal action")
        chosen_ids = []
        new_concrete = []
        for (key, cnt), take in zip(classes, chosen_takes):
            rem, rel = key
            members = sorted(e for e in concrete if (e[0], e[1]) == (rem, rel))
            for p, r, jid in members[:take]:
                chosen_ids.append(jid)
                if rem == 1:
                    completions[jid] = Rational(t + 1)
                else:
                    new_concrete.append((rem - 1, r, jid))
            new_concrete.extend(members[take:])
        slots.append((t, tuple(sorted(chosen_ids))))
        arrived = [e for e in pending if e[0] == t + 1]
        pending = [e for e in pending if e[0] > t + 1]
        concrete = sorted(new_concrete + [(p, r, jid) for r, jid, p in arrived])
        t += 1
        ms = new_ms

    # fold unit slots into segments, inserting idle stretches between them
    segments = []
    cursor = ZERO
    for start, ids in slots:
        s = Rational(start)
        if s > cursor:
            segments.append(Segment(start=cursor, end=s, assignment=(None,) * m))
        assignment = tuple(ids) + (None,) * (m - len(ids))
        if segments and segments[-1].assignment == assignment and segments[-1].end == s:
            segments[-1] = Segment(
                start=segments[-1].start, end=s + 1, assignment=assignment
            )
        else:
            segments.append(Segment(start=s, end=s + 1, assignment=assignment))
        cursor = s + 1

    completions = tuple(completions)
    trace = ExecutionTrace(
        instance=inst,
        speed=UNIT_SPEED,
        segments=tuple(segments),
        completions=completions,
        events=events_of(inst, completions),
    )
    objective = Rational(opt)
    recomputed = sum(
        ((completions[j.id] - j.release) ** k for j in inst.jobs), ZERO
    )
    if recomputed != objective:  # pragma: no cover - accounting bug trap
        raise OracleError("internal: trace objective %s != search value %s"
                          % (recomputed, objective))
    return OracleResult(objective=objective, trace=trace, exact=True, class_note=CLASS_NOTE)


def single_machine_relaxation_lb(instance: Instance) -> Rational:
    """Certified lower bound on the m-machine total flow optimum.

    Pools the m unit machines into one machine of speed m (any m-machine
    schedule can be time-sliced onto it, so its optimum can only improve)
    and runs SRPT there, which minimizes total flow on a single machine.
    """
    inst = validate_instance(instance)
    if not inst.jobs:
        return ZERO
    pooled = Instance(jobs=inst.jobs, machines=1)
    trace = simulate_srpt(pooled, SpeedConfig.from_speed(inst.machines))
    return sum(
        (trace.completions[j.id] - j.release for j in inst.jobs), ZERO
    )
