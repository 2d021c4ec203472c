"""Event-driven simulation of preemptive priority policies on m identical
speed-s machines, with migration allowed.

The policy is re-evaluated only at events (arrivals and completions). Between
events the machine assignment is frozen, which is lossless for SRPT: running
jobs all shrink at the same rate while waiting jobs stand still, so the m
smallest-remaining jobs stay the m smallest until the next event. Every time
and every remaining volume is an exact Rational; completions happen when a
remaining volume hits zero exactly, never within a tolerance.

Coincident events are processed completions first, then arrivals, ties in
job-id order throughout.
"""

from __future__ import annotations

from .core import (
    ExecutionTrace,
    Instance,
    Segment,
    SpeedConfig,
    events_of,
    validate_instance,
)
from .rationals import ZERO


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
    event. Starvation is impossible by construction: a machine never idles
    while an unfinished job is available.
    """
    inst = validate_instance(instance)
    if speed.speed <= 0:
        raise EngineError("speed must be positive")
    m = inst.machines
    s = speed.speed
    jobs = {j.id: j for j in inst.jobs}

    queue = sorted(inst.jobs, key=lambda j: (j.release, j.id))
    qi = 0
    alive = {}  # jid -> remaining
    now = ZERO
    segments = []
    completions = [None] * inst.n

    while True:
        while qi < len(queue) and queue[qi].release <= now:
            alive[queue[qi].id] = queue[qi].size
            qi += 1
        if not alive:
            if qi == len(queue):
                break
            nxt = queue[qi].release
            segments.append(Segment(start=now, end=nxt, assignment=(None,) * m))
            now = nxt
            continue
        order = sorted(
            alive.items(),
            key=lambda kv: priority(kv[1], jobs[kv[0]].size, jobs[kv[0]].release, kv[0]),
        )
        running = [jid for jid, _ in order[:m]]
        t_next = min(now + alive[jid] / s for jid in running)
        if qi < len(queue):
            t_next = min(t_next, queue[qi].release)
        assignment = tuple(running) + (None,) * (m - len(running))
        segments.append(Segment(start=now, end=t_next, assignment=assignment))
        delta = (t_next - now) * s
        for jid in running:
            alive[jid] -= delta
        now = t_next
        for jid in sorted(running):
            if alive[jid] == 0:
                completions[jid] = now
                del alive[jid]

    completions = tuple(completions)
    return ExecutionTrace(
        instance=inst,
        speed=speed,
        segments=tuple(segments),
        completions=completions,
        events=events_of(inst, completions),
    )


def simulate_srpt(instance: Instance, speed: SpeedConfig) -> ExecutionTrace:
    """SRPT with the (remaining, release, id) tie order."""
    return simulate_policy(instance, speed, srpt_priority)
