"""Deterministic instance generators for simulator experiments.

All randomness flows through a self-contained xorshift64* generator so that
instances are reproducible bit-for-bit across platforms and Python versions,
independent of the stdlib random module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, make_instance
from .rationals import is_int

MASK64 = (1 << 64) - 1
# below() draws from one 64-bit output, so a range holds at most this many values
MAX_SPAN = 1 << 64
_STAR_MULT = 0x2545F4914F6CDD1D

FAMILIES = ("uniform", "bursty", "starvation-stream", "heavy-tail-discrete")


class WorkloadError(ValueError):
    pass


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class XorShift64Star:
    """xorshift64* pseudo-random generator.

    State update per draw, with x the 64-bit state:

        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        output = (x * 0x2545F4914F6CDD1D) & MASK64

    The state is seeded by one splitmix64 scramble of the user seed so that
    small consecutive seeds give unrelated streams; the all-zero state (a
    fixed point of the update) is replaced by a nonzero constant.
    """

    def __init__(self, seed: int):
        state = _splitmix64(int(seed) & MASK64)
        if state == 0:
            state = 0x9E3779B97F4A7C15
        self._x = state

    def next_u64(self) -> int:
        x = self._x
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self._x = x
        return (x * _STAR_MULT) & MASK64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection of the biased tail."""
        if n <= 0:
            raise WorkloadError("below() needs a positive bound")
        if n > MAX_SPAN:
            raise WorkloadError("below() needs a bound of at most 2^64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        if lo > hi:
            raise WorkloadError("empty range [%d, %d]" % (lo, hi))
        return lo + self.below(hi - lo + 1)


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    machines: int
    size_range: tuple  # (lo, hi) integer sizes, lo >= 1
    release_range: tuple  # (lo, hi) integer releases, lo >= 0
    seed: int


def _int_span(span, lo: int) -> bool:
    return (
        isinstance(span, (tuple, list))
        and len(span) == 2
        and all(is_int(x) for x in span)
        and lo <= span[0] <= span[1]
    )


def validate_spec(spec: GenSpec) -> None:
    """Raise WorkloadError unless `generate` can build the spec."""
    if spec.family not in FAMILIES:
        raise WorkloadError("unknown family %r" % (spec.family,))
    if not is_int(spec.n) or spec.n < 0:
        raise WorkloadError("n must be a non-negative integer")
    if not is_int(spec.machines) or spec.machines < 1:
        raise WorkloadError("machines must be >= 1")
    if not _int_span(spec.size_range, 1):
        raise WorkloadError("size_range must be integers with 1 <= lo <= hi")
    if not _int_span(spec.release_range, 0):
        raise WorkloadError("release_range must be integers with 0 <= lo <= hi")
    for name, (lo, hi) in (("size_range", spec.size_range), ("release_range", spec.release_range)):
        if hi - lo >= MAX_SPAN:
            raise WorkloadError("%s holds more than 2^64 values" % name)


def generate(spec: GenSpec) -> Instance:
    """Build the instance a spec describes; same spec, same instance."""
    validate_spec(spec)
    rng = XorShift64Star(spec.seed)
    slo, shi = spec.size_range
    rlo, rhi = spec.release_range

    if spec.family == "uniform":
        triples = [
            (i, rng.randint(rlo, rhi), rng.randint(slo, shi)) for i in range(spec.n)
        ]
        return make_instance(triples, spec.machines)

    if spec.family == "bursty":
        # a few release instants shared by many jobs, so queues pile up
        n_bursts = 1 + rng.below(max(1, spec.n // 3)) if spec.n else 1
        bursts = sorted(rng.randint(rlo, rhi) for _ in range(n_bursts))
        triples = [
            (i, bursts[rng.below(n_bursts)], rng.randint(slo, shi))
            for i in range(spec.n)
        ]
        return make_instance(triples, spec.machines)

    if spec.family == "starvation-stream":
        # two unit jobs at time 0 then one per unit step; on one machine a
        # tie-unaware policy can starve the original queue resident
        triples = [(i, 0 if i < 2 else i - 1, 1) for i in range(spec.n)]
        return make_instance(triples, machines=1)

    # heavy-tail-discrete: power-of-two sizes, halving frequency per doubling
    exp = 0
    while (1 << exp) < slo:
        exp += 1
    triples = []
    for i in range(spec.n):
        e = exp
        while (1 << (e + 1)) <= shi and rng.below(2) == 1:
            e += 1
        triples.append((i, rng.randint(rlo, rhi), 1 << e))
    return make_instance(triples, spec.machines)
