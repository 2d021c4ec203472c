"""Exhaustive reference schedules for desk-scale instances.

brute_force_opt minimizes the k-th power flow time over every schedule that
assigns machines in unit-length integral time slots (requires integral
releases and sizes). For one machine this class contains a true preemptive
optimum, because some optimal schedule only switches jobs at integral
arrival instants; for m >= 2 the value is an upper bound on the fractional
preemptive optimum, which is the sound direction for ratio checks of the
form "algorithm <= c * reference".

The search memoizes the least objective still to pay from each state (time
step, multiset of (remaining, tag) pairs of arrived unfinished jobs) and
only branches over work-conserving slot assignments: handing an idle
machine's slot to an alive job can only move that job's last unit of work
earlier while leaving every other job untouched, so for any k >= 1 no
optimum is lost by the restriction. A job finishing at t + 1 pays
(t + 1 - tag)^k. The tag is the job's release for k >= 2 and 0 for k = 1.

For k = 1 the total flow is sum_j (C_j - r_j) = sum_j C_j - sum_j r_j, and
the second sum is fixed by the instance. From a time t on, the schedules
still open and their completion times depend only on the remaining works
of the alive jobs and on the jobs still to arrive, not on when the alive
jobs were released. So states that differ only in those releases have the
same least sum of completion times, and one search key serves them all:
no optimum is lost, and the objective is the search value minus the sum of
releases. Arrivals still enter at their true release times.

At k = 1 the search does not branch once no job is left to arrive (t at
or after the last release): it closes the state with SPT dealt round
robin (_spt_completions). The remaining works, ascending, go to machines
0, 1, ..., m - 1, 0, ... in turn; each machine runs its jobs back to back
from t, and the value is the sum of their completion times. It is the
search's own value. No schedule does better: McNaughton (1959) shows that
with every job present, preemption does not lower the sum of completion
times on identical machines, so his lower bound for non-preemptive
schedules, which SPT round robin meets, holds for every preemptive
schedule. And SPT round robin is in the searched class: it is list
scheduling in SPT order (each job goes to a machine that is free first),
so no machine idles while a job waits, and from an integer t with integer
works every job starts and finishes at an integer time. These states get
no memo entry, and as the values are unchanged the replay picks the same
actions and the witness traces do not move. For k >= 2 the payment of a
job grows with its age, so an older job can be worth finishing first: on
one machine, a job released at 0 with 2 units left at t = 10 and a 1-unit
job released at 10 pay 12^2 + 3^2 = 153 when the older one runs first and
1^2 + 13^2 = 170 in SPT order.

The witness trace replays the search from the start. In each slot it tries
the actions over the alive jobs' true (remaining, release) classes, in
_actions order, and keeps the first one whose tagged payment plus the
value of the state it leads to is least. For k = 1 every candidate of a
slot differs from its exact remaining flow by the same sum of releases, so
this is the first exactly optimal action, and ties break as they would in
a search keyed by releases. Within a class the lowest ids run first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import groupby

from .core import (
    ExecutionTrace,
    Instance,
    Segment,
    UNIT_SPEED,
    events_of,
    flow_power,
    validate_instance,
)
from .rationals import Rational, ZERO


class OracleError(ValueError):
    pass


# the largest instances the search accepts
MAX_JOBS = 10
MAX_TOTAL_WORK = 40
MAX_MACHINES = 3


@dataclass(frozen=True)
class OracleResult:
    objective: Rational
    trace: ExecutionTrace


def _integral_jobs(instance: Instance):
    out = []
    for j in instance.jobs:
        if j.release.denominator != 1 or j.size.denominator != 1:
            raise OracleError("non-integral data: job %d" % j.id)
        out.append((int(j.release), int(j.size), j.id))
    return out


def _check_limits(instance: Instance, jobs):
    if instance.n > MAX_JOBS:
        raise OracleError("limits exceeded: %d jobs > %d" % (instance.n, MAX_JOBS))
    total = sum(p for _, p, _ in jobs)
    if total > MAX_TOTAL_WORK:
        raise OracleError("limits exceeded: total work %d > %d" % (total, MAX_TOTAL_WORK))
    if instance.machines > MAX_MACHINES:
        raise OracleError(
            "limits exceeded: %d machines > %d" % (instance.machines, MAX_MACHINES)
        )


@cache
def _actions(counts, q):
    """Distinct q-element submultisets of a multiset whose classes hold
    `counts` jobs, as take-vectors in lexicographic order."""
    out = []

    def rec(idx, left, rest, takes):
        if left == 0:
            out.append(takes + (0,) * (len(counts) - idx))
            return
        # leave no more than the classes after idx, holding `rest` jobs, can take
        cnt = counts[idx]
        rest -= cnt
        for take in range(max(0, left - rest), min(cnt, left) + 1):
            rec(idx + 1, left - take, rest, takes + (take,))

    rec(0, q, sum(counts), ())
    return tuple(out)


def _spt_completions(t, works, m):
    """Sum of the completion times of SPT dealt round robin from time t:
    the i-th of the ascending `works` goes to machine i mod m, and each
    machine runs its jobs back to back. A job finishes at t plus the load
    its machine has reached with it."""
    loads = [0] * m
    total = len(works) * t
    for i, w in enumerate(works):
        loads[i % m] += w
        total += loads[i % m]
    return total


def brute_force_opt(instance: Instance, k: int = 1) -> OracleResult:
    """Minimum k-th power flow over integral-slot schedules, with a witness trace."""
    if not isinstance(k, int) or k < 1:
        raise OracleError("k must be an integer >= 1")
    inst = validate_instance(instance)
    jobs = _integral_jobs(inst)
    _check_limits(inst, jobs)
    m = inst.machines

    if not jobs:
        trace = ExecutionTrace(
            instance=inst, speed=UNIT_SPEED, segments=(), completions=(), events=()
        )
        return OracleResult(objective=ZERO, trace=trace)

    def tag(r):
        return r if k >= 2 else 0

    releases = sorted({r for r, _, _ in jobs})
    # release -> (size, release, id) of the jobs arriving then, ascending
    jobs_at = {}
    for r, p, jid in jobs:
        jobs_at.setdefault(r, []).append((p, r, jid))
    arrivals_at = {}
    for r, arrived in jobs_at.items():
        arrived.sort()
        arrivals_at[r] = tuple((p, tag(r)) for p, _, _ in arrived)

    def step(t, classes, takes):
        """Run takes[i] jobs of classes[i] = ((remaining, tag), count) in the
        slot [t, t + 1]. Returns the objective the jobs finishing at t + 1
        pay and the multiset after the slot, with the arrivals at t + 1."""
        paid = 0
        nxt = list(arrivals_at.get(t + 1, ()))
        for (key, cnt), take in zip(classes, takes):
            rem, tg = key
            nxt.extend([key] * (cnt - take))
            if rem > 1:
                nxt.extend([(rem - 1, tg)] * take)
            elif take:
                paid += take * (t + 1 - tg) ** k
        nxt.sort()
        return paid, tuple(nxt)

    def best_action(t, classes):
        """Least objective still to pay over the actions of the slot at t,
        and the first take-vector that reaches it."""
        best = None
        counts = tuple(cnt for _, cnt in classes)
        for takes in _actions(counts, min(m, sum(counts))):
            paid, nxt = step(t, classes, takes)
            cand = paid + value(t + 1, nxt)
            if best is None or cand < best:
                best, chosen = cand, takes
        return best, chosen

    memo = {}  # (t, ms) -> least objective still to pay
    last_release = releases[-1]

    def value(t, ms):
        if k == 1 and t >= last_release:
            return _spt_completions(t, [rem for rem, _ in ms], m)
        state = (t, ms)
        best = memo.get(state)
        if best is not None:
            return best
        if not ms:
            i = bisect_right(releases, t)
            best = 0 if i == len(releases) else value(releases[i], arrivals_at[releases[i]])
        else:
            classes = [(key, len(list(grp))) for key, grp in groupby(ms)]
            best = best_action(t, classes)[0]
        memo[state] = best
        return best

    t = releases[0]
    opt = value(t, arrivals_at[t])
    if k == 1:
        opt -= sum(r for r, _, _ in jobs)

    # replay the search; `alive` holds (remaining, release, id) sorted, so
    # each true class is a run of it and its lowest ids run first
    alive = jobs_at[t]
    slots = []  # (t, tuple of chosen jids sorted)
    completions = [None] * inst.n
    while alive or t < last_release:
        if not alive:
            t = releases[bisect_right(releases, t)]
            alive = jobs_at[t]
            continue
        classes = [
            ((rem, tag(rel)), len(list(grp)))
            for (rem, rel), grp in groupby(alive, key=lambda j: j[:2])
        ]
        _, takes = best_action(t, classes)
        ran = []
        nxt = list(jobs_at.get(t + 1, ()))
        i = 0
        for (_, cnt), take in zip(classes, takes):
            for rem, rel, jid in alive[i : i + take]:
                ran.append(jid)
                if rem == 1:
                    completions[jid] = Rational(t + 1)
                else:
                    nxt.append((rem - 1, rel, jid))
            nxt.extend(alive[i + take : i + cnt])
            i += cnt
        slots.append((t, tuple(sorted(ran))))
        alive = sorted(nxt)
        t += 1
    # the search's closures refer to each other, so the memo would otherwise
    # live on until the cyclic garbage collector reaches them
    memo.clear()

    # fold unit slots into [start, end, assignment] runs on int times,
    # inserting idle stretches between them; each bound becomes a Rational once
    runs = []
    cursor = 0
    for start, ids in slots:
        if start > cursor:
            runs.append([cursor, start, (None,) * m])
        assignment = tuple(ids) + (None,) * (m - len(ids))
        if runs and runs[-1][2] == assignment and runs[-1][1] == start:
            runs[-1][1] = start + 1
        else:
            runs.append([start, start + 1, assignment])
        cursor = start + 1
    segments = [Segment(start=Rational(a), end=Rational(b), assignment=ids) for a, b, ids in runs]

    completions = tuple(completions)
    trace = ExecutionTrace(
        instance=inst,
        speed=UNIT_SPEED,
        segments=tuple(segments),
        completions=completions,
        events=events_of(inst, completions),
    )
    objective = Rational(opt)
    recomputed = flow_power(trace, k)
    if recomputed != objective:  # pragma: no cover - accounting bug trap
        raise OracleError("internal: trace objective %s != search value %s"
                          % (recomputed, objective))
    return OracleResult(objective=objective, trace=trace)
