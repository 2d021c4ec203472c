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
no memo entry. For k >= 2 the payment of a job grows with its age, so an
older job can be worth finishing first: on one machine, a job released at
0 with 2 units left at t = 10 and a 1-unit job released at 10 pay
12^2 + 3^2 = 153 when the older one runs first and 1^2 + 13^2 = 170 in SPT
order.

Elsewhere the search tries only the undominated actions of a slot
(_search_actions); each rule below keeps some optimal schedule among those
it tries, so every value is unchanged.

* m = 1, every k: a class does not run while another alive class has
  remaining work no larger and a tag no later. At k = 1 every tag is 0,
  so only the class of least remaining work runs. Exchange: let a schedule
  run the dominated job a now, and b be the dominating one. Over the union
  of the slots a and b use from now on, give b the first ones and a the
  rest. The same slots stay busy, so the schedule stays work-conserving in
  unit slots. b now finishes no later than the earlier of the two old
  completions and a at the later one. If a finished first before, the two
  completions swap between the jobs, and since b's tag is no later, the
  convexity of x^k makes the sum no larger; otherwise b's completion does
  not move later and a's stays.
* m >= 2, k >= 2: among classes of equal remaining work, a younger class
  (later release) runs only if every older class of that work runs in
  full. Exchange, for an older job o that waits while a younger job y of
  the same work runs now: if y finishes no later than o, swap the two
  jobs' whole futures, which convexity makes no dearer. Otherwise o runs
  in more slots than y before o's completion, so some later slot runs o
  and not y; swapping that slot's o with this slot's y moves no completion
  later. Each exchange lowers the sum of the tags running now, so
  repeating them ends.
* The single-machine rule is wrong at m >= 2, where both jobs can run in
  one slot and the union of their slots is too short to give b the first
  ones. With m = 2 and jobs (id, release, size) = (0, 2, 2), (1, 2, 1),
  (2, 2, 1), starting the 2-unit job at once with a 1-unit job pays
  1^2 + 2^2 + 2^2 = 9 in squared flow, and the two 1-unit jobs first pay
  1^2 + 1^2 + 3^2 = 11.

The witness trace replays the search from the start. In each slot it runs
the first action, over the alive jobs' true (remaining, release) classes
in _actions order, whose tagged payment plus the value of the state it
leads to is least: the action a search without pruning would pick. For
k = 1 every candidate of a slot differs from its exact remaining flow by
the same sum of releases, so this is the first exactly optimal action, and
ties break as they would in a search keyed by releases. Within a class the
lowest ids run first. value keeps, beside each state's value, the first
least of the actions it tried there, and the replay reads that record
instead of scoring the actions again wherever the two agree:

* m = 1, every k: a dominated action is strictly worse than the best,
  never tied. In the exchange above, a runs now, in the first slot of the
  union, and b's old slots leave it out, so the rem_b-th slot of the union
  comes strictly before b's last old one: C'_b < C_b, with C the old
  completions and C' the new. If C_a > C_b, a's completion stays and the
  sum falls. Otherwise a now finishes at C_b, and C'_b <= C_a, since the
  first rem_b slots of the union come no later than a's first rem_b old
  ones; with f(x) = x^k and g the tags, old minus new is at least
  [f(C_b - g_b) - f(C_a - g_b)] - [f(C_b - g_a) - f(C_a - g_a)] >= 0 by
  convexity, as g_b <= g_a. It is strictly positive: if rem_b < rem_a,
  a's old slots run past its rem_b-th, so C'_b < C_a; if rem_b = rem_a,
  then g_b < g_a, k >= 2 (equal works share one class at k = 1), and x^k
  is strictly convex. So the first least undominated action is the first
  least of all, once _search_actions lists them in _actions order: the
  last class first.
* k = 1, every m: the search's classes merge the true classes of equal
  work, whose tags are all 0, and a candidate of the replay depends only
  on the merged take-vector (the successor state is the same). So the
  first least true vector comes from the first least merged one, the
  search's record. Of the true vectors that merge to one, the first in
  _actions order (lexicographic over ascending classes, the oldest release
  first within one work) takes as little as it can from early classes: it
  deals each work's take to its latest releases first. Dealt that way,
  merged vectors keep their order, as a larger take of a work is larger in
  its first class that differs too. At m = 1 the record is the least work,
  the only optimal take there. The replay keeps the alive jobs in
  (remaining, -release, id) order, so it runs the first jobs of each work.
* m >= 2, k >= 2: the record is not used. A dominated (younger-first)
  action can tie the best, which the pruned search never tries: with
  m = 2 and jobs (id, release, size) = (0, 0, 3), (1, 0, 3), (2, 1, 2),
  running jobs 0 and 2 at t = 1, all three with 2 units left, pays
  3^2 + 4^2 + 3^2 = 34 in squared flow, as running jobs 0 and 1 does, and
  comes first in _actions order. So the replay tries every action there,
  and a state the pruned search never reached is searched then.

At k = 1 and t at or after the last release the search keeps no record,
and the replay lays out the rest of the schedule by a rule (_spt_tail).
Let N > m jobs be alive, ascending by remaining work, N = q m + r with
0 <= r < m. With W the works of the alive jobs, the least sum of
completion times from t is N t + F(W), F(W) = sum_i w_i c_i with
c_i = ceil((N - i + 1) / m) the weight SPT round robin gives position i
(from 1): the number of jobs its machine finishes from it on. A job that
has finished counts as work 0 at the front. Running a set S in the slot
and then SPT costs N (t + 1) + F(W - 1_S), and
F(W - 1_S) = F(W) - sum over S of c_i, with the jobs of S placed first
among jobs of equal work (that placement is still in order after the
slot). The m largest weights are the r weights q + 1 of positions 1..r
and the weights q of positions r + 1..r + m, and they sum to N, so S is
optimal exactly when it runs positions 1..r and m - r of positions
r + 1..r + m, ties of equal work free. The first optimal take-vector in
_actions order takes as little as it can from early classes: it runs
positions 1..r and 2r + 1..r + m, and within one work its latest classes
first. If N <= m every job runs. With r = 0 or N < m the jobs that run
are the first ones in (remaining, -release, id) order, and after the slot
they have less work than any other, so the same jobs run until the first
of them finishes; at m = 1 that is one job, run to its end.
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
    flow_power,
    validate_instance,
)
from .rationals import Rational, ZERO
from .workload import is_int


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


def _work_runs(classes):
    """The lengths of the runs of classes ((remaining, tag), count) with
    equal remaining work, in order."""
    runs = []
    i = 0
    while i < len(classes):
        j = i + 1
        while j < len(classes) and classes[j][0][0] == classes[i][0][0]:
            j += 1
        runs.append(j - i)
        i = j
    return runs


def _fill(left, counts):
    """`left` jobs dealt to classes holding `counts` jobs, each class
    filled before the next."""
    takes = []
    for cnt in counts:
        takes.append(min(cnt, left))
        left -= takes[-1]
    return takes


def _spt_tail(t, jobs, m):
    """SPT dealt round robin from t, laid out in runs, when no job is left
    to arrive: `jobs`, a list it takes over, holds (remaining,
    -release, id) ascending. Yields
    (start, end, ids running, ids finishing at end) runs, ids ascending. At
    m = 1 the first job runs until it finishes. Otherwise, of the N jobs,
    positions [0, r) and [2r, r + m) run in each slot, r = N mod m (so all
    run if N <= m), dealt within one work to its first jobs: the latest
    releases, then the lowest ids."""
    if m == 1:
        for rem, _, jid in jobs:
            yield t, t + rem, (jid,), (jid,)
            t += rem
        return
    while jobs:
        n = len(jobs)
        r = n % m
        top = min(n, r + m)
        # with r = 0 or N < m the first `top` jobs run, and they stay first
        # until the first of them finishes
        d = jobs[0][0] if r == 0 or n < m else 1
        ran, done = [], []
        a = 0
        while a < top:
            b = a + 1
            while b < n and jobs[b][0] == jobs[a][0]:
                b += 1
            # how many of positions [a, b), one work, the rule runs
            for i in range(a, a + max(0, min(b, r) - a) + max(0, min(b, top) - max(a, 2 * r))):
                rem, order, jid = jobs[i]
                ran.append(jid)
                if rem == d:
                    done.append(jid)
                jobs[i] = (rem - d, order, jid)
            a = b
        yield t, t + d, sorted(ran), done
        jobs = sorted([job for job in jobs if job[0]])
        t += d


def _search_actions(classes, m, k):
    """The take-vectors the search tries in a slot with alive `classes`,
    ((remaining, tag), count) ascending, on m machines at power k: every
    one of _actions less the dominated ones (see the module docstring)."""
    if m == 1:
        # the classes no other class beats on both remaining and tag: in
        # ascending order, those whose tag is below every earlier one's;
        # listed in _actions order, the last class first
        out = []
        least = None
        for i, ((_, tg), _) in enumerate(classes):
            if least is None or tg < least:
                least = tg
                out.append((0,) * i + (1,) + (0,) * (len(classes) - 1 - i))
        out.reverse()
        return out
    counts = tuple(cnt for _, cnt in classes)
    q = min(m, sum(counts))
    if k == 1:
        return _actions(counts, q)
    runs = _work_runs(classes)
    if len(runs) == len(counts):
        return _actions(counts, q)
    # one take per run of equal work, dealt to its classes oldest first
    starts = [sum(runs[:pos]) for pos in range(len(runs) + 1)]
    merged = tuple(sum(counts[a:b]) for a, b in zip(starts, starts[1:]))
    out = []
    for run_takes in _actions(merged, q):
        takes = []
        for a, b, left in zip(starts, starts[1:], run_takes):
            takes += _fill(left, counts[a:b])
        out.append(tuple(takes))
    return out


def brute_force_opt(instance: Instance, k: int = 1) -> OracleResult:
    """Minimum k-th power flow over integral-slot schedules, with a witness trace."""
    if not is_int(k) or k < 1:
        raise OracleError("k must be an integer >= 1")
    inst = validate_instance(instance)
    jobs = _integral_jobs(inst)
    _check_limits(inst, jobs)
    m = inst.machines

    if not jobs:
        trace = ExecutionTrace(instance=inst, speed=UNIT_SPEED, segments=(), completions=())
        return OracleResult(objective=ZERO, trace=trace)

    def tag(r):
        return r if k >= 2 else 0

    releases = sorted({r for r, _, _ in jobs})
    # release -> ((size, tag), -release, id) of the jobs arriving then,
    # ascending: the search's key of a job, then the replay's order within it
    jobs_at = {}
    for r, p, jid in jobs:
        jobs_at.setdefault(r, []).append(((p, tag(r)), -r, jid))
    arrivals_at = {}
    for r, arrived in jobs_at.items():
        arrived.sort()
        arrivals_at[r] = tuple(key for key, _, _ in arrived)

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

    def best_action(t, classes, actions):
        """Least objective still to pay over the take-vectors `actions` of
        the slot at t, and the first of them that reaches it."""
        best = None
        for takes in actions:
            paid, nxt = step(t, classes, takes)
            cand = paid + value(t + 1, nxt)
            if best is None or cand < best:
                best, chosen = cand, takes
        return best, chosen

    memo = {}  # (t, ms) -> (least objective still to pay, first action reaching it)
    last_release = releases[-1]

    def value(t, ms):
        if k == 1 and t >= last_release:
            return _spt_completions(t, [rem for rem, _ in ms], m)
        state = (t, ms)
        hit = memo.get(state)
        if hit is not None:
            return hit[0]
        if not ms:
            i = bisect_right(releases, t)
            hit = (0 if i == len(releases) else value(releases[i], arrivals_at[releases[i]]), None)
        else:
            classes = [(key, len(list(grp))) for key, grp in groupby(ms)]
            hit = best_action(t, classes, _search_actions(classes, m, k))
        memo[state] = hit
        return hit[0]

    t = releases[0]
    opt = value(t, arrivals_at[t])
    if k == 1:
        opt -= sum(r for r, _, _ in jobs)

    # the replay's slots, folded into [start, end, assignment] runs on int
    # times with idle stretches between them
    runs = []
    idle = (None,) * m

    def emit(start, end, ids):
        assignment = tuple(ids) + idle[len(ids):]
        last = runs[-1] if runs else (0, 0, None)
        if last[1] == start and last[2] == assignment:
            last[1] = end
            return
        if start > last[1]:
            runs.append([last[1], start, idle])
        runs.append([start, end, assignment])

    # replay the search; `alive` holds ((remaining, tag), -release, id)
    # sorted, so each class of the search is a run of it, led by its latest
    # releases and within one release by its lowest ids
    alive = jobs_at[t]
    completions = [None] * inst.n
    while alive or t < last_release:
        if not alive:
            t = releases[bisect_right(releases, t)]
            alive = jobs_at[t]
            continue
        if k == 1 and t >= last_release:
            for start, end, ids, done in _spt_tail(t, [(rem, order, jid) for (rem, _), order, jid in alive], m):
                emit(start, end, ids)
                for jid in done:
                    completions[jid] = end
            break
        ms = tuple(key for key, _, _ in alive)
        classes = [(key, len(list(grp))) for key, grp in groupby(ms)]
        if m >= 2 and k >= 2:
            # a dominated action can tie here: try every one
            counts = tuple(cnt for _, cnt in classes)
            _, takes = best_action(t, classes, _actions(counts, min(m, sum(counts))))
        else:
            takes = memo[t, ms][1]
        ran = []
        nxt = list(jobs_at.get(t + 1, ()))
        i = 0
        for ((rem, tg), cnt), take in zip(classes, takes):
            for _, order, jid in alive[i : i + take]:
                ran.append(jid)
                if rem == 1:
                    completions[jid] = t + 1
                else:
                    nxt.append(((rem - 1, tg), order, jid))
            nxt.extend(alive[i + take : i + cnt])
            i += cnt
        emit(t, t + 1, sorted(ran))
        alive = sorted(nxt)
        t += 1
    # the search's closures refer to each other, so the memo would otherwise
    # live on until the cyclic garbage collector reaches them
    memo.clear()
    # the runs tile [0, end], and a job's completion ends a run: one Rational
    # per bound
    at = {b: Rational(b) for b in [0] + [b for _, b, _ in runs]}
    trace = ExecutionTrace(
        instance=inst,
        speed=UNIT_SPEED,
        segments=tuple(Segment(start=at[a], end=at[b], assignment=ids) for a, b, ids in runs),
        completions=tuple(at[c] for c in completions),
    )
    objective = Rational(opt)
    recomputed = flow_power(trace, k)
    if recomputed != objective:  # pragma: no cover - accounting bug trap
        raise OracleError("internal: trace objective %s != search value %s"
                          % (recomputed, objective))
    return OracleResult(objective=objective, trace=trace)
