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

from srptlab import ExecutionTrace, Segment, make_instance
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


def rebuild_remaining(trace, jid, t):
    """Remaining work of one job at time t, recomputed from raw segments."""
    job = trace.instance.job(jid)
    rem = job.size
    for seg in trace.segments:
        if seg.start >= t:
            break
        hi = min(seg.end, t)
        if hi > seg.start and jid in seg.assignment:
            rem -= (hi - seg.start) * trace.speed.speed
    return rem


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
                    events=trace.events,
                )
    return trace
