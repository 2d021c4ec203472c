"""Shared test utilities.

The centerpiece is an intentionally naive time-slotted shortest-remaining
scheduler.  It re-evaluates priorities every quantum instead of only at
arrival/completion events, so it shares no control flow with the
event-driven engine.  On integer instances run at a rational speed num/den,
a quantum of 1/(num*den) makes every arrival fall on a slot boundary and
every quantum of service remove an exact rational amount of work, so the
slotted schedule and the event-driven schedule describe the same
preemptive-priority policy and must agree on completion times.

Equivalence sketch: between two consecutive events the event-driven engine
freezes the running set.  Re-checking priorities mid-interval cannot change
that set, because every running job's remaining work decreases while the
waiting jobs' stays put, and immediately after an event the running jobs
already had the m smallest keys (ties broken by release then id, both
constant).  Hence per-quantum re-evaluation picks the same jobs.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, groupby

from srptlab import (
    UNIT_SPEED,
    ExecutionTrace,
    Instance,
    Segment,
    SpeedConfig,
    make_instance,
    simulate_srpt,
    validate_instance,
)
from srptlab.analysis import _StateEval
from srptlab.core import flow_power
from srptlab.oracle import _actions
from srptlab.workload import XorShift64Star


def slot_srpt_completions(instance, speed_num, speed_den):
    """Completion times of slotted SRPT at speed num/den on integer data.

    Returns {job_id: Fraction}.  Only valid for instances whose releases
    and sizes are integers (asserted).
    """
    q = Fraction(1, speed_num * speed_den)
    work_per_slot = Fraction(speed_num, speed_den) * q  # exactly 1/den**2
    remaining = {}
    for job in instance.jobs:
        assert job.release == int(job.release) and job.size == int(job.size)
        remaining[job.id] = Fraction(int(job.size))
    releases = {job.id: Fraction(int(job.release)) for job in instance.jobs}
    done = {}
    t = Fraction(0)
    while len(done) < instance.n:
        alive = [
            jid
            for jid in remaining
            if jid not in done and releases[jid] <= t and remaining[jid] > 0
        ]
        if not alive:
            # jump to the next release on the slot grid
            future = min(releases[j] for j in remaining if j not in done)
            steps = (future - t) / q
            assert steps == int(steps)
            t = future
            continue
        alive.sort(key=lambda j: (remaining[j], releases[j], j))
        for jid in alive[: instance.machines]:
            remaining[jid] -= work_per_slot
            assert remaining[jid] >= 0
            if remaining[jid] == 0:
                done[jid] = t + q
        t += q
    return done


def least_total_completion(t, works, m):
    """Least sum of completion times of jobs with integer remaining `works`,
    none still to arrive, over the unit-slot schedules from integer time t
    that run min(m, alive) distinct jobs in each slot. Plain memoized search
    over every choice of jobs for every slot, with no closed form."""
    return _least_total_completion(t, tuple(sorted(works)), m)


@cache
def _least_total_completion(t, works, m):
    if not works:
        return 0
    best = None
    for chosen in combinations(range(len(works)), min(m, len(works))):
        paid = 0
        rest = []
        for i, w in enumerate(works):
            if i not in chosen:
                rest.append(w)
            elif w == 1:
                paid += t + 1
            else:
                rest.append(w - 1)
        cand = paid + _least_total_completion(t + 1, tuple(sorted(rest)), m)
        if best is None or cand < best:
            best = cand
    return best


def slot_value(jobs, m, k):
    """The least k-th power flow still to pay from each state (t, alive) of
    the integer jobs `jobs`, (release, size) pairs, on m machines: `alive`
    holds the (remaining, release) pairs, sorted, of the jobs alive at t,
    arrivals at t included. A plain memoized search over every choice of
    min(m, alive) alive jobs for each unit slot, with no closed form and no
    pruning."""
    releases = sorted({r for r, _ in jobs})

    @cache
    def value(t, alive):
        if not alive:
            later = [r for r in releases if r > t]
            if not later:
                return 0
            t = later[0]
            return value(t, tuple(sorted((p, r) for r, p in jobs if r == t)))
        arriving = [(p, r) for r, p in jobs if r == t + 1]
        best = None
        for chosen in combinations(range(len(alive)), min(m, len(alive))):
            paid = 0
            rest = list(arriving)
            for i, (rem, r) in enumerate(alive):
                if i not in chosen:
                    rest.append((rem, r))
                elif rem == 1:
                    paid += (t + 1 - r) ** k
                else:
                    rest.append((rem - 1, r))
            cand = paid + value(t + 1, tuple(sorted(rest)))
            if best is None or cand < best:
                best = cand
        return best

    return value


def slot_search_opt(instance, k):
    """Least k-th power flow over the work-conserving unit-slot schedules of
    an integer instance (slot_value from before the first release)."""
    jobs = [(int(j.release), int(j.size)) for j in instance.jobs]
    if not jobs:
        return 0
    return slot_value(jobs, instance.machines, k)(-1, ())


def reference_witness(instance, k):
    """brute_force_opt's witness trace, replayed the plain way. From the
    first release, each unit slot tries every take-vector of _actions over
    the alive jobs' (remaining, release) classes, ascending, and keeps the
    first one whose payment plus slot_value after the slot is least; a
    class runs its lowest ids first. At k = 1 each candidate of a slot
    differs from the one brute_force_opt's release-free search key gives
    by the same sum of releases, so ties fall the same way. Unit slots
    fold into segments of equal assignment, with idle stretches between."""
    inst = validate_instance(instance)
    m = inst.machines
    jobs = [(int(j.release), int(j.size), j.id) for j in inst.jobs]
    value = slot_value([(r, p) for r, p, _ in jobs], m, k)
    completions = [None] * inst.n
    slots = []
    alive = []  # (remaining, release, id)
    t = min((r for r, _, _ in jobs), default=0)
    while alive or any(r >= t for r, _, _ in jobs):
        alive = sorted(alive + [(p, r, jid) for r, p, jid in jobs if r == t])
        if not alive:
            t += 1
            continue
        classes = [(key, len(list(grp))) for key, grp in groupby(alive, key=lambda j: j[:2])]
        counts = tuple(cnt for _, cnt in classes)
        best = None
        for takes in _actions(counts, min(m, len(alive))):
            paid, rest = 0, [(p, r) for r, p, _ in jobs if r == t + 1]
            for ((rem, r), cnt), take in zip(classes, takes):
                rest += [(rem, r)] * (cnt - take)
                if rem == 1:
                    paid += take * (t + 1 - r) ** k
                else:
                    rest += [(rem - 1, r)] * take
            cand = paid + value(t + 1, tuple(sorted(rest)))
            if best is None or cand < best:
                best, chosen = cand, takes
        ran, nxt, i = [], [], 0
        for cnt, take in zip(counts, chosen):
            for rem, r, jid in alive[i:i + take]:
                ran.append(jid)
                if rem == 1:
                    completions[jid] = Fraction(t + 1)
                else:
                    nxt.append((rem - 1, r, jid))
            nxt += alive[i + take:i + cnt]
            i += cnt
        slots.append((t, tuple(sorted(ran)) + (None,) * (m - len(ran))))
        alive = nxt
        t += 1
    segments = []
    for start, assignment in slots:
        last = segments[-1] if segments else None
        if last is not None and last.end == start and last.assignment == assignment:
            segments[-1] = Segment(last.start, Fraction(start + 1), assignment)
            continue
        if start > (last.end if last else 0):
            segments.append(Segment(last.end if last else Fraction(0), Fraction(start), (None,) * m))
        segments.append(Segment(Fraction(start), Fraction(start + 1), assignment))
    return ExecutionTrace(instance=inst, speed=UNIT_SPEED, segments=tuple(segments),
                          completions=tuple(completions))


def random_integer_instance(seed, max_jobs=6, max_machines=3, max_size=5, max_release=8):
    """Small integer instance from the package PRNG (deterministic)."""
    rng = XorShift64Star(seed)
    n = 1 + rng.below(max_jobs)
    m = 1 + rng.below(max_machines)
    triples = []
    for i in range(n):
        release = rng.below(max_release + 1)
        size = 1 + rng.below(max_size)
        triples.append((i, release, size))
    return make_instance(triples, machines=m)


def single_machine_relaxation_lb(instance):
    """A lower bound on the m-machine total flow optimum: pool the m unit
    machines into one machine of speed m (any m-machine schedule can be
    time-sliced onto it, so its optimum can only improve) and run SRPT
    there, which minimizes total flow on a single machine."""
    pooled = Instance(jobs=instance.jobs, machines=1)
    return flow_power(simulate_srpt(pooled, SpeedConfig.from_speed(instance.machines)), 1)


def event_times(trace):
    """The trace's distinct release and completion times, in increasing order."""
    return sorted({j.release for j in trace.instance.jobs} | set(trace.completions))


def running_switches(trace):
    """The times strictly inside the trace's span at which its running set
    changes, from its raw segments."""
    running = [frozenset(seg.assignment) - {None} for seg in trace.segments]
    return {seg.start for seg, before, after in zip(trace.segments[1:], running, running[1:])
            if before != after}


def job_of(instance, jid):
    """The job of `instance` whose id is `jid`."""
    for job in instance.jobs:
        if job.id == jid:
            return job
    raise KeyError(jid)


def rebuild_remaining(trace, jid, t):
    """Remaining work of one job at time t, recomputed from raw segments."""
    job = job_of(trace.instance, jid)
    rem = job.size
    for seg in trace.segments:
        if seg.start >= t:
            break
        hi = min(seg.end, t)
        if hi > seg.start and jid in seg.assignment:
            rem -= (hi - seg.start) * trace.speed.speed
    return rem


def alive_by_definition(trace, t):
    """Jobs alive at t: released by t and not yet complete."""
    return frozenset(
        j.id for j in trace.instance.jobs if j.release <= t < trace.completions[j.id]
    )


def reference_state(ctx, t, alive_alg, alive_ref):
    """PairContext.state computed straight from its definition, in
    O(n * (|alive_alg| + |alive_ref|)) comparisons: for each job i, the fast
    remaining volume of the alive jobs the fast schedule finishes no later
    than i, and the reference remaining volume of the alive reference jobs
    that also are no larger than i. Remaining volumes come from the raw
    segments, finish order from sorting (completion, id). Volumes are in
    the context's units of 1/ctx.V, as PairContext.state returns them."""
    rem_alg = {j: rebuild_remaining(ctx.srpt_trace, j, t) * ctx.V for j in alive_alg}
    rem_ref = {j: rebuild_remaining(ctx.ref_trace, j, t) * ctx.V for j in alive_ref}
    order = sorted((c, jid) for jid, c in enumerate(ctx.srpt_trace.completions))
    rank = {jid: pos for pos, (_, jid) in enumerate(order)}
    size = {j.id: j.size for j in ctx.instance.jobs}
    ahead_alg = {}
    ahead_ref_small = {}
    for i in rank:
        ri = rank[i]
        si = size[i]
        acc = Fraction(0)
        for j in alive_alg:
            if rank[j] <= ri:
                acc += rem_alg[j]
        ahead_alg[i] = acc
        acc = Fraction(0)
        for j in alive_ref:
            if rank[j] <= ri and size[j] <= si:
                acc += rem_ref[j]
        ahead_ref_small[i] = acc
    return _StateEval(rem_alg, ahead_alg, ahead_ref_small)


def window_bounds_by_definition(ctx):
    """check_completion_charge's window bound records from their definition,
    each pair's two sums taken term by term: [(label, time, delta, bound)]
    in (i, j) id order. When the fast schedule finishes i at t, its
    contributors are the reference jobs alive at t that it finishes no
    later than i and that are no larger than i, each owing its reference
    remaining volume at t. Pair (i, j) owes what i's contributors owe less
    what those released before j owe; its bound is j's reference flow less
    what j owes at the reference completion of each job charged to it that
    the fast schedule finishes after i. Owed volumes count divided by
    (1 + eps) * m."""
    fast, ref = ctx.srpt_trace, ctx.ref_trace
    rank = ctx.finish_rank
    job = {j.id: j for j in ctx.instance.jobs}
    scale = (1 + ctx.epsilon) * ctx.machines
    contributors = {}
    for i in sorted(rank):
        t = fast.completions[i]
        contributors[i] = {
            j: rebuild_remaining(ref, j, t) for j in sorted(alive_by_definition(ref, t))
            if rank[j] <= rank[i] and job[j].size <= job[i].size
        }
    rows = []
    for i, owed in contributors.items():
        for j in owed:
            earlier = sum(v for a, v in owed.items() if job[a].release < job[j].release)
            later = sum(rebuild_remaining(ref, j, ref.completions[a])
                        for a in contributors if j in contributors[a] and rank[a] > rank[i])
            rows.append((
                "window bound pair (%d, %d)" % (i, j),
                fast.completions[i],
                (sum(owed.values()) - earlier) / scale,
                ref.completions[j] - job[j].release - later / scale,
            ))
    return rows


def potential_by_definition(ctx, t, k=None):
    """The flow potential at t (k None) or the k-th power potential, from
    the definition; see potentials_by_definition."""
    [phi] = potentials_by_definition(ctx, t, (k,))
    return phi


def potentials_by_definition(ctx, t, ks):
    """The potentials at t for each k of `ks`, from one reference_state: over
    the jobs alive at t in the fast schedule, the clamped age
    g = (t - release) + (A + m * rem - S) / (m * eps), with A, rem and S the
    fast volume ahead, the own fast remaining volume and the reference
    small-job volume ahead; the sum of g - (t - release) for the flow
    potential (k None), of (1 - eps)^-k * max(g, 0)^k - (t - release)^k for
    the k-th power potential."""
    alive_alg = alive_by_definition(ctx.srpt_trace, t)
    ages = clamped_ages_by_definition(ctx, t, alive_alg, alive_by_definition(ctx.ref_trace, t))
    eps = ctx.epsilon
    totals = [Fraction(0)] * len(ks)
    for i, g in ages.items():
        age = t - job_of(ctx.instance, i).release
        for pos, k in enumerate(ks):
            if k is None:
                totals[pos] += g - age
            else:
                totals[pos] += (1 - eps) ** -k * max(g, 0) ** k - age ** k
    return totals


def clamped_ages_by_definition(ctx, t, alive_alg, alive_ref):
    """Each job i of alive_alg -> its clamped age at t over these alive sets,
    g = (t - release) + (A + m * rem - S) / (m * eps), with A, rem and S
    from reference_state (see potentials_by_definition)."""
    st = reference_state(ctx, t, alive_alg, alive_ref)
    m, eps = ctx.machines, ctx.epsilon
    return {
        i: t - job_of(ctx.instance, i).release
        + (st.ahead_alg[i] + m * st.rem_alg[i] - st.ahead_ref_small[i]) / (ctx.V * m * eps)
        for i in alive_alg
    }


def corrupted(trace):
    """The trace with its first busy machine slot left idle, so that the job
    in that slot misses some of its work."""
    segments = list(trace.segments)
    for idx, seg in enumerate(segments):
        slots = list(seg.assignment)
        for pos, jid in enumerate(slots):
            if jid is not None:
                slots[pos] = None
                segments[idx] = Segment(seg.start, seg.end, tuple(slots))
                return ExecutionTrace(
                    instance=trace.instance,
                    speed=trace.speed,
                    segments=tuple(segments),
                    completions=trace.completions,
                )
    return trace


# the seeded corruptions of corrupt_trace, in the order the golden file lists them
CORRUPTION_KINDS = (
    "blank",  # a busy slot left idle
    "foreign",  # a slot handed to some known job
    "unknown",  # a slot handed to an id outside the instance
    "duplicate",  # a running job copied into a second slot of its segment
    "shift-end",  # one segment's end moved
    "move-completion",  # one completion time moved
    "drop-segment",  # one segment removed
    "extra-slot",  # one segment given m + 1 slots
    "mixed",  # three of the kinds above, one after another
)

_SHIFTS = (Fraction(-1), Fraction(-1, 3), Fraction(1, 3), Fraction(1))


def corrupt_trace(trace, kind, rng):
    """The trace with one seeded corruption of the given kind; `rng` is an
    XorShift64Star that picks the segment, slot, job and amount."""
    segs = list(trace.segments)
    comps = list(trace.completions)
    n, m = trace.instance.n, trace.instance.machines

    def set_slot(idx, pos, jid):
        slots = list(segs[idx].assignment)
        slots[pos] = jid
        segs[idx] = Segment(segs[idx].start, segs[idx].end, tuple(slots))

    if kind == "mixed":
        for _ in range(3):
            trace = corrupt_trace(trace, CORRUPTION_KINDS[rng.below(8)], rng)
        return trace
    busy = [(i, p) for i, s in enumerate(segs) for p, j in enumerate(s.assignment) if j is not None]
    if not busy:  # an earlier corruption of a "mixed" case left no busy slot
        return trace
    idx = rng.below(len(segs))
    if kind in ("blank", "duplicate"):
        idx, pos = busy[rng.below(len(busy))]
        if kind == "blank":
            set_slot(idx, pos, None)
        elif m == 1:  # no second slot: the segment gets two
            seg = segs[idx]
            segs[idx] = Segment(seg.start, seg.end, seg.assignment * 2)
        else:
            set_slot(idx, (pos + 1 + rng.below(m - 1)) % m, segs[idx].assignment[pos])
    elif kind == "foreign":
        set_slot(idx, rng.below(m), rng.below(n))
    elif kind == "unknown":
        set_slot(idx, rng.below(m), n + rng.below(3))
    elif kind == "shift-end":
        seg = segs[idx]
        segs[idx] = Segment(seg.start, seg.end + _SHIFTS[rng.below(4)], seg.assignment)
    elif kind == "move-completion":
        comps[rng.below(n)] += _SHIFTS[rng.below(4)]
    elif kind == "drop-segment":
        del segs[idx]
    elif kind == "extra-slot":
        extra = rng.below(n + 1)
        seg = segs[idx]
        segs[idx] = Segment(seg.start, seg.end, seg.assignment + (None if extra == n else extra,))
    else:
        raise ValueError(kind)
    return ExecutionTrace(
        instance=trace.instance,
        speed=trace.speed,
        segments=tuple(segs),
        completions=tuple(comps),
    )
