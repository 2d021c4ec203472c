"""Event-driven simulation of preemptive priority policies on m identical
speed-s machines, with migration allowed.

The policy is re-evaluated only at events (arrivals and completions). Between
events the machine assignment is frozen, which is lossless for SRPT: running
jobs all shrink at the same rate while waiting jobs stand still, so the m
smallest-remaining jobs stay the m smallest until the next event.

The loop runs on integer ticks. With speed p/q and L the lcm of the
denominators of every release and size, time is counted in units of
1/(p * L) and volume in units of 1/(q * L), so one time tick on a machine
does exactly one volume tick of work: a step is the least of the running
jobs' remaining volumes and the time to the next release, with no division,
and a job completes when its remaining volume hits zero exactly. Each
segment end becomes an exact Rational once, when its segment is recorded (an
end at a release reuses the job's release).

Coincident events are processed completions first, then arrivals, ties in
job-id order throughout.
"""

from __future__ import annotations

from .core import (
    ExecutionTrace,
    Instance,
    Segment,
    SpeedConfig,
    _scaled,
    _unit,
    validate_instance,
)
from .rationals import ZERO, Rational


class EngineError(ValueError):
    pass


def srpt_priority(remaining, size, release, jid):
    """Shortest remaining first; (release, id) breaks ties deterministically."""
    return (remaining, release, jid)


def fifo_priority(remaining, size, release, jid):
    return (release, jid)


def longest_remaining_priority(remaining, size, release, jid):
    return (-remaining, release, jid)


def simulate_policy(instance: Instance, speed: SpeedConfig, priority=srpt_priority) -> ExecutionTrace:
    """Run a work-conserving priority policy to completion and return the trace.

    `priority` maps (remaining, size, release, id) to a sort key; the
    min(m, alive) smallest keys hold machines 0.. in key order until the next
    event. Its arguments are ints in the loop's ticks: remaining and size in
    volume units of 1/(q * L), release in time units of 1/(p * L), for speed
    p/q and L the lcm of the releases' and sizes' denominators. These are
    the exact values times positive constants, so a key that orders by them
    orders the same as on the exact values. Starvation is impossible by
    construction: a machine never idles while an unfinished job is available.
    """
    inst = validate_instance(instance)
    if speed.speed <= 0:
        raise EngineError("speed must be positive")
    m = inst.machines
    jobs = inst.jobs  # in (release, id) order
    L = _unit(x for j in jobs for x in (j.release, j.size))
    tick = speed.speed.numerator * L  # time ticks per time unit
    volume = speed.speed.denominator * L  # volume ticks per volume unit
    release = [0] * inst.n  # by job id
    size = [0] * inst.n
    for j in jobs:
        release[j.id], size[j.id] = _scaled(j.release, tick), _scaled(j.size, volume)

    qi = 0
    alive = {}  # jid -> remaining volume ticks
    now, now_at = 0, ZERO  # the current tick and its Rational
    segments = []
    completions = [None] * inst.n

    while True:
        while qi < len(jobs) and release[jobs[qi].id] <= now:
            alive[jobs[qi].id] = size[jobs[qi].id]
            qi += 1
        if alive:
            running = sorted(alive, key=lambda jid: priority(alive[jid], size[jid], release[jid], jid))[:m]
            end = now + min(alive[jid] for jid in running)
        elif qi < len(jobs):
            running = []
        else:
            break
        if qi < len(jobs) and (not running or release[jobs[qi].id] <= end):
            # the step stops at the next release: reuse its Rational
            end, end_at = release[jobs[qi].id], jobs[qi].release
        else:
            end_at = Rational(end, tick)
        segments.append(Segment(now_at, end_at, tuple(running) + (None,) * (m - len(running))))
        for jid in running:
            alive[jid] -= end - now
            if not alive[jid]:
                completions[jid] = end_at
                del alive[jid]
        now, now_at = end, end_at

    return ExecutionTrace(
        instance=inst,
        speed=speed,
        segments=tuple(segments),
        completions=tuple(completions),
    )


def simulate_srpt(instance: Instance, speed: SpeedConfig) -> ExecutionTrace:
    """SRPT with the (remaining, release, id) tie order."""
    return simulate_policy(instance, speed, srpt_priority)
