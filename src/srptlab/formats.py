"""Text and JSON external formats.

Instance files:

    # comment
    m 2
    job 0 0 3
    job 1 0 1
    job 2 1 1/2

One `m` line, then one `job <id> <release> <size>` line per job. Numbers are
`<int>` or `<int>/<posint>`, in ASCII digits with an optional leading `-`
(see rationals.rat). Serialize-then-parse reproduces any instance or
trace exactly; all rationals travel as lowest-term strings.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .core import (
    ExecutionTrace,
    Instance,
    InstanceError,
    Job,
    Segment,
    SpeedConfig,
    TraceError,
    validate_instance,
)
from .rationals import RationalParseError, is_int_text, rat
from .workload import is_int


class ParseError(ValueError):
    pass


def _integer(text: str) -> int:
    if not is_int_text(text):
        raise ValueError("bad integer %r" % text)
    return int(text)


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
                machines = _integer(parts[1])
            except ValueError:
                raise ParseError("line %d: bad machine count %r" % (lineno, parts[1]))
        elif parts[0] == "job":
            if len(parts) != 4:
                raise ParseError("line %d: expected 'job <id> <release> <size>'" % lineno)
            try:
                jid = _integer(parts[1])
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


_SLOT_TYPES = frozenset((int, type(None)))
# what reading a document raises when a key is missing, a value is bad or a
# container has the wrong type; ValueError covers RationalParseError,
# InstanceError and TraceError
_MALFORMED = (KeyError, TypeError, AttributeError, ValueError)


def _exact_int(x, what: str) -> int:
    """x itself when it is an int and not a bool; JSON's 2.7, "2" and true
    are not machine counts or job ids."""
    if not is_int(x):
        raise TraceError("%s must be an integer, got %r" % (what, x))
    return x


def _instance_from_json(data: dict, parse) -> Instance:
    jobs = tuple(
        Job(id=_exact_int(j["id"], "job id"), release=parse(j["release"]), size=parse(j["size"]))
        for j in data["jobs"]
    )
    return validate_instance(Instance(jobs=jobs, machines=_exact_int(data["machines"], "machines")))


def _parser():
    """rat() for one document: each distinct string is parsed once, since
    releases and sizes repeat and each segment's end is the next's start."""
    parsed = {}

    def parse(text):
        if text.__class__ is not str:  # lists are unhashable, and 1.0 == 1
            return rat(text)
        q = parsed.get(text)
        if q is None:
            q = parsed[text] = rat(text)
        return q

    return parse


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
    parse = _parser()
    try:
        instance = _instance_from_json(data["instance"], parse)
        speed = SpeedConfig(speed=parse(data["speed"]["speed"]))
        if speed.epsilon != parse(data["speed"]["epsilon"]):
            raise ValueError("speed must equal 1 + epsilon exactly")
        machines = [str(machine) for machine in range(instance.machines)]
        segments = []
        for seg in data["segments"]:
            assignment = tuple(map(seg["assignment"].get, machines))
            if not _SLOT_TYPES.issuperset(map(type, assignment)):  # one C pass when all are plain
                assignment = tuple([None if jid is None else _exact_int(jid, "assigned job id")
                                    for jid in assignment])
            segments.append(
                Segment(start=parse(seg["start"]), end=parse(seg["end"]), assignment=assignment)
            )
        table = data["completions"]
        completions = tuple(parse(table[str(jid)]) for jid in range(instance.n))
    except _MALFORMED as exc:
        raise TraceError("malformed trace document: %s" % exc) from None
    return ExecutionTrace(
        instance=instance,
        speed=speed,
        segments=tuple(segments),
        completions=completions,
    )


def dump_json(doc) -> str:
    """Canonical JSON rendering used for every artifact this package writes.

    The text is exactly json.dumps(doc, sort_keys=True, indent=2) plus a
    final newline. An indent sends the standard library to its pure-Python
    encoder, so _emit writes the same bytes itself: one str.join per
    container, strings through the C string encoder.
    """
    return _emit(doc, "\n") + "\n"


_CONSTANT = {None: "null", True: "true", False: "false"}.__getitem__
# renderers of the plain leaves, by exact type
_LEAF = {str: _quote, int: int.__repr__, bool: _CONSTANT, type(None): _CONSTANT}


def _emit(obj, newline: str) -> str:
    """The JSON text of obj; `newline` is a newline plus its depth's indent.

    Lists and tuples render as arrays, dicts with sorted keys. Any other
    value that is not a plain leaf (a float, a subclass of a leaf type, or a
    value json cannot serialize) goes to json.dumps, which renders or
    rejects it exactly as the indented encoder would.
    """
    leaf = _LEAF.get(obj.__class__)
    if leaf is not None:
        return leaf(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            value = obj[key]
            leaf = _LEAF.get(value.__class__)
            parts.append((_quote(key) if key.__class__ is str else _key(key)) + ": "
                         + (leaf(value) if leaf is not None else _emit(value, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("," + inner).join([_emit(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    return json.dumps(obj)


def _key(key) -> str:
    """A quoted object key; json renders bool, None and number keys as text."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(json.dumps(key))
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % key.__class__.__name__)
