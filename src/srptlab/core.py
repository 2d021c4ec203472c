"""Domain types for preemptive scheduling on identical machines.

All fields are exact Rationals and every type is immutable after construction,
so instances, traces and summaries can be shared freely between threads and
serialized byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .rationals import Rational, ZERO, rat


class InstanceError(ValueError):
    """Raised when a job set or machine count is malformed."""


class TraceError(ValueError):
    """Raised when a trace is structurally unusable (validation errors are
    reported as violation lists instead)."""


@dataclass(frozen=True)
class Job:
    id: int
    release: Rational
    size: Rational


@dataclass(frozen=True)
class Instance:
    jobs: tuple
    machines: int

    @property
    def n(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class SpeedConfig:
    """Machine speed s; the augmentation eps is s - 1.

    eps may be 0 (or even negative) for exploratory runs; the potential
    checks reject such configs themselves.
    """

    speed: Rational

    @property
    def epsilon(self) -> Rational:
        return self.speed - 1

    @classmethod
    def from_speed(cls, speed) -> "SpeedConfig":
        return cls(speed=rat(speed))

    @classmethod
    def from_epsilon(cls, epsilon) -> "SpeedConfig":
        return cls(speed=1 + rat(epsilon))


UNIT_SPEED = SpeedConfig.from_speed(1)


@dataclass(frozen=True)
class Segment:
    """A maximal interval with a fixed machine assignment.

    assignment[i] is the job id running on machine i, or None for idle.
    """

    start: Rational
    end: Rational
    assignment: tuple


@dataclass(frozen=True)
class ExecutionTrace:
    instance: Instance
    speed: SpeedConfig
    segments: tuple
    completions: tuple  # indexed by job id


@dataclass(frozen=True)
class FlowSummary:
    """Flow-time objectives of one trace, exact except the rendered norms."""

    flows: tuple  # per-job completion - release, indexed by job id
    total_flow: Rational
    kth_power_flow: dict  # k -> sum of flow^k (Rational)
    lk_norm: dict  # k -> 12-significant-digit decimal string


def flow_power(trace: ExecutionTrace, k: int) -> Rational:
    """The trace's k-th power flow objective: the sum over jobs of
    (completion - release)^k, exact. Each flow is summed as an integer
    count of 1/L, with L the lcm of the denominators of the releases and
    completions, so one Rational is built for the total."""
    jobs = trace.instance.jobs
    completions = trace.completions
    L = _unit([j.release for j in jobs] + [completions[j.id] for j in jobs])
    total = sum((_scaled(completions[j.id], L) - _scaled(j.release, L)) ** k for j in jobs)
    return Rational(total, L ** k)


def build_jobs(triples) -> tuple:
    """Make a Job tuple from (id, release, size) triples; values go through rat()."""
    return tuple(Job(id=int(i), release=rat(r), size=rat(p)) for i, r, p in triples)


def validate_instance(instance: Instance) -> Instance:
    """Check instance invariants and return the canonically sorted copy.

    Jobs are ordered by (release, id); ids must be exactly 0..n-1.
    """
    if not isinstance(instance.machines, int) or instance.machines < 1:
        raise InstanceError("machines must be >= 1")
    L = _unit(j.release for j in instance.jobs)
    jobs = sorted(instance.jobs, key=lambda j: (_scaled(j.release, L), j.id))
    seen = set()
    for j in jobs:
        if j.id in seen:
            raise InstanceError("duplicate id %d" % j.id)
        seen.add(j.id)
        # a rational's sign is its numerator's
        if j.size.numerator <= 0:
            raise InstanceError("non-positive size for job %d" % j.id)
        if j.release.numerator < 0:
            raise InstanceError("negative release for job %d" % j.id)
    if seen and (min(seen) != 0 or max(seen) != len(seen) - 1):
        raise InstanceError("job ids must be dense 0..n-1")
    return Instance(jobs=tuple(jobs), machines=instance.machines)


def make_instance(triples, machines: int) -> Instance:
    return validate_instance(Instance(jobs=build_jobs(triples), machines=machines))


def _unit(values) -> int:
    """The lcm of the denominators of the rationals in `values`: the least L
    with x * L an integer for each of them. The engine, validate_trace and
    the analysis contexts count time in such units, converting with _scaled."""
    return lcm(*{x.denominator for x in values})


def _scaled(x, unit: int) -> int:
    """x * unit for a rational x whose denominator divides unit."""
    return x.numerator * (unit // x.denominator)


def _trace_values(trace: ExecutionTrace):
    """Every release, size, segment bound and completion of a trace."""
    for j in trace.instance.jobs:
        yield j.release
        yield j.size
    for seg in trace.segments:
        yield seg.start
        yield seg.end
    yield from trace.completions


def validate_trace(trace: ExecutionTrace):
    """Exact feasibility audit of a trace against its instance.

    Returns (ok, violations); each violation string pinpoints the segment
    and job involved. No tolerances: every time is converted once to an
    integer count of 1/L, with L the lcm of the denominators of every
    release, size, segment bound and completion, and every check is
    an integer equality or ordering; with speed p/q, a job's work is exact
    when its service time * p equals its size * q. Fractions are built only
    for the violation messages. One pass over the segments accumulates every
    job's service, so the audit is linear in the trace's size.
    """
    violations = []
    inst = trace.instance
    m = inst.machines
    n = inst.n
    jobs = {j.id: j for j in inst.jobs}

    if len(trace.completions) != n:
        violations.append("completions cover %d of %d jobs" % (len(trace.completions), n))
        return False, violations

    L = _unit(_trace_values(trace))
    release = {jid: _scaled(j.release, L) for jid, j in jobs.items()}
    completion = [_scaled(c, L) for c in trace.completions]

    # segment structure: partition of [0, max completion], positive lengths;
    # per job: service in units of 1/L, end of its last segment, and its
    # segment violations
    service = dict.fromkeys(jobs, 0)
    last_end = dict.fromkeys(jobs)
    job_violations = {}
    prev, prev_end = 0, ZERO
    for idx, seg in enumerate(trace.segments):
        start, end = _scaled(seg.start, L), _scaled(seg.end, L)
        if start != prev:
            violations.append(
                "segment %d: starts at %s, expected %s" % (idx, seg.start, prev_end)
            )
        if start >= end:
            violations.append("segment %d: empty or reversed interval" % idx)
        if len(seg.assignment) != m:
            violations.append("segment %d: %d machine slots, expected %d"
                              % (idx, len(seg.assignment), m))
        busy = [jid for jid in seg.assignment if jid is not None]
        for jid in busy:
            if jid not in jobs:
                violations.append("segment %d: unknown job %s" % (idx, jid))
        running = set(busy)
        if len(running) != len(busy):
            dup = sorted({j for j in busy if busy.count(j) > 1})
            violations.append(
                "segment %d: parallel self-processing of job %d" % (idx, dup[0])
            )
        length = end - start
        for jid in running & jobs.keys():
            if start < release[jid]:
                job_violations.setdefault(jid, []).append(
                    "segment %d: job %d runs before its release" % (idx, jid)
                )
            if end > completion[jid]:
                job_violations.setdefault(jid, []).append(
                    "segment %d: job %d runs after its completion" % (idx, jid)
                )
            service[jid] += length
            last_end[jid] = seg.end
        prev, prev_end = end, seg.end

    if n:
        if not trace.segments:
            violations.append("no segments but %d jobs" % n)
        elif prev != max(completion):
            violations.append(
                "segments end at %s, max completion is %s" % (prev_end, max(trace.completions))
            )
    elif trace.segments:
        violations.append("segments present for an empty instance")

    # per-job: service only inside [release, completion], exact conservation,
    # completion time consistent with the last assigned segment
    speed = trace.speed.speed
    p, q = speed.numerator, speed.denominator
    for jid, job in sorted(jobs.items()):
        violations.extend(job_violations.get(jid, ()))
        work, size = service[jid] * p, _scaled(job.size, L) * q
        if work != size:
            violations.append("work %s for job %d: %s of %s" % (
                "deficit" if work < size else "surplus", jid, Rational(work, L * q), job.size))
        if completion[jid] < release[jid]:
            violations.append("job %d completes before release" % jid)
        if last_end[jid] is None:
            violations.append("job %d never scheduled" % jid)
        elif _scaled(last_end[jid], L) != completion[jid]:
            violations.append(
                "job %d: last service ends %s, completion says %s"
                % (jid, last_end[jid], trace.completions[jid])
            )

    return not violations, violations
