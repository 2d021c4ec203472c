"""Text and JSON external formats.

Instance files:

    # comment
    m 2
    job 0 0 3
    job 1 0 1
    job 2 1 1/2

One `m` line, then one `job <id> <release> <size>` line per job. Numbers are
`<int>` or `<int>/<posint>`. Serialize-then-parse reproduces any instance or
trace exactly; all rationals travel as lowest-term strings.
"""

from __future__ import annotations

import json

from .core import (
    ExecutionTrace,
    Instance,
    InstanceError,
    Job,
    Segment,
    SpeedConfig,
    TraceError,
    events_of,
    validate_instance,
)
from .rationals import RationalParseError, rat


class ParseError(ValueError):
    pass


def serialize_instance(instance: Instance) -> str:
    lines = ["m %d" % instance.machines]
    for j in instance.jobs:
        lines.append("job %d %s %s" % (j.id, j.release, j.size))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse the instance text format; errors carry 1-based line numbers."""
    machines = None
    jobs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "m":
            if machines is not None:
                raise ParseError("line %d: duplicate m line" % lineno)
            if len(parts) != 2:
                raise ParseError("line %d: expected 'm <machines>'" % lineno)
            try:
                machines = int(parts[1])
            except ValueError:
                raise ParseError("line %d: bad machine count %r" % (lineno, parts[1]))
        elif parts[0] == "job":
            if len(parts) != 4:
                raise ParseError("line %d: expected 'job <id> <release> <size>'" % lineno)
            try:
                jid = int(parts[1])
                release = rat(parts[2])
                size = rat(parts[3])
            except (ValueError, RationalParseError) as exc:
                raise ParseError("line %d: %s" % (lineno, exc)) from None
            jobs.append(Job(id=jid, release=release, size=size))
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, parts[0]))
    if machines is None:
        raise ParseError("missing m line")
    try:
        return validate_instance(Instance(jobs=tuple(jobs), machines=machines))
    except InstanceError as exc:
        raise ParseError(str(exc)) from None


def instance_to_json(instance: Instance) -> dict:
    return {
        "machines": instance.machines,
        "jobs": [
            {"id": j.id, "release": str(j.release), "size": str(j.size)}
            for j in instance.jobs
        ],
    }


def instance_from_json(data: dict) -> Instance:
    jobs = tuple(
        Job(id=int(j["id"]), release=rat(j["release"]), size=rat(j["size"]))
        for j in data["jobs"]
    )
    return validate_instance(Instance(jobs=jobs, machines=int(data["machines"])))


def trace_to_json(trace: ExecutionTrace) -> dict:
    return {
        "instance": instance_to_json(trace.instance),
        "speed": {
            "speed": str(trace.speed.speed),
            "epsilon": str(trace.speed.epsilon),
        },
        "segments": [
            {
                "start": str(seg.start),
                "end": str(seg.end),
                "assignment": {
                    str(machine): jid
                    for machine, jid in enumerate(seg.assignment)
                },
            }
            for seg in trace.segments
        ],
        "completions": {
            str(jid): str(c) for jid, c in enumerate(trace.completions)
        },
    }


def trace_from_json(data: dict) -> ExecutionTrace:
    try:
        instance = instance_from_json(data["instance"])
        speed = SpeedConfig(speed=rat(data["speed"]["speed"]))
        if speed.epsilon != rat(data["speed"]["epsilon"]):
            raise ValueError("speed must equal 1 + epsilon exactly")
        m = instance.machines
        segments = []
        for seg in data["segments"]:
            assignment = tuple(
                seg["assignment"].get(str(machine)) for machine in range(m)
            )
            assignment = tuple(
                None if jid is None else int(jid) for jid in assignment
            )
            segments.append(
                Segment(start=rat(seg["start"]), end=rat(seg["end"]), assignment=assignment)
            )
        completions = tuple(
            rat(data["completions"][str(jid)]) for jid in range(instance.n)
        )
    except (KeyError, ValueError, RationalParseError, InstanceError) as exc:
        raise TraceError("malformed trace document: %s" % exc) from None
    return ExecutionTrace(
        instance=instance,
        speed=speed,
        segments=tuple(segments),
        completions=completions,
        events=events_of(instance, completions),
    )


def dump_json(doc) -> str:
    """Canonical JSON rendering used for every artifact this package writes."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
