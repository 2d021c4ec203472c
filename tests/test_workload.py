"""Deterministic generators and the seeded PRNG they ride on."""

import pytest
from hypothesis import given, strategies as st

from srptlab import FAMILIES, GenSpec, WorkloadError, generate, validate_instance
from srptlab.workload import MASK64, XorShift64Star


class TestPrng:
    def test_frozen_stream_seed_42(self):
        rng = XorShift64Star(42)
        assert [rng.next_u64() for _ in range(4)] == [
            3580622183945639842,
            10378725325292465923,
            8967075514996744559,
            5001014893397904463,
        ]

    def test_frozen_below_seed_7(self):
        rng = XorShift64Star(7)
        assert [rng.below(10) for _ in range(8)] == [8, 2, 7, 6, 9, 6, 2, 4]

    def test_determinism(self):
        a = XorShift64Star(123)
        b = XorShift64Star(123)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_distinct_seeds_diverge(self):
        a = XorShift64Star(0)
        b = XorShift64Star(1)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_zero_seed_works(self):
        rng = XorShift64Star(0)
        out = rng.next_u64()
        assert 0 <= out <= MASK64

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=97))
    def test_below_in_range(self, seed, n):
        rng = XorShift64Star(seed)
        for _ in range(5):
            assert 0 <= rng.below(n) < n

    def test_below_rejects_nonpositive(self):
        with pytest.raises(WorkloadError, match="positive bound"):
            XorShift64Star(1).below(0)

    def test_below_bound_limit(self):
        # a bound of 2^64 takes one output as it is; a larger one is refused
        # rather than rejecting every draw
        assert XorShift64Star(5).below(2**64) == XorShift64Star(5).next_u64()
        with pytest.raises(WorkloadError, match="at most 2\\^64"):
            XorShift64Star(5).below(2**64 + 1)

    def test_randint_inclusive(self):
        rng = XorShift64Star(9)
        draws = {rng.randint(3, 5) for _ in range(100)}
        assert draws == {3, 4, 5}

    def test_randint_empty_range(self):
        with pytest.raises(WorkloadError, match="empty range"):
            XorShift64Star(1).randint(5, 3)

    def test_rough_uniformity(self):
        rng = XorShift64Star(2024)
        counts = [0, 0, 0]
        for _ in range(30000):
            counts[rng.below(3)] += 1
        assert all(8000 < c < 12000 for c in counts)


def spec_for(family, n=6, seed=0, machines=2, sizes=(1, 4), releases=(0, 8)):
    return GenSpec(
        family=family,
        n=n,
        machines=machines,
        size_range=sizes,
        release_range=releases,
        seed=seed,
    )


class TestFamilies:
    def test_family_list(self):
        assert FAMILIES == (
            "uniform",
            "bursty",
            "starvation-stream",
            "heavy-tail-discrete",
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic(self, family):
        spec = spec_for(family, seed=77)
        assert generate(spec) == generate(spec)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seed_changes_output(self, family):
        a = generate(spec_for(family, n=10, seed=1))
        b = generate(spec_for(family, n=10, seed=2))
        if family == "starvation-stream":
            assert a == b  # the fixed adversarial layout ignores the seed
        else:
            assert a != b

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", range(5))
    def test_validates(self, family, seed):
        inst = generate(spec_for(family, seed=seed))
        assert validate_instance(inst) == inst

    def test_uniform_ranges(self):
        inst = generate(spec_for("uniform", n=40, seed=3, sizes=(2, 5), releases=(1, 6)))
        for j in inst.jobs:
            assert 2 <= j.size <= 5
            assert 1 <= j.release <= 6

    def test_bursty_few_release_instants(self):
        inst = generate(spec_for("bursty", n=12, seed=5))
        distinct = {j.release for j in inst.jobs}
        # burst count is capped by n // 3
        assert 1 <= len(distinct) <= 4

    def test_starvation_stream_layout(self):
        inst = generate(spec_for("starvation-stream", n=5))
        assert inst.machines == 1
        assert [(j.id, j.release, j.size) for j in inst.jobs] == [
            (0, 0, 1),
            (1, 0, 1),
            (2, 1, 1),
            (3, 2, 1),
            (4, 3, 1),
        ]

    def test_heavy_tail_sizes_are_powers_of_two(self):
        inst = generate(spec_for("heavy-tail-discrete", n=60, seed=11, sizes=(2, 16)))
        sizes = {int(j.size) for j in inst.jobs}
        assert sizes <= {2, 4, 8, 16}
        assert len(sizes) > 1

    def test_heavy_tail_respects_cap(self):
        inst = generate(spec_for("heavy-tail-discrete", n=80, seed=1, sizes=(3, 10)))
        for j in inst.jobs:
            assert j.size in (4, 8)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty(self, family):
        inst = generate(spec_for(family, n=0))
        assert inst.n == 0


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(WorkloadError, match="unknown family"):
            generate(spec_for("zipf"))

    def test_bad_n(self):
        with pytest.raises(WorkloadError, match="non-negative"):
            generate(spec_for("uniform", n=-1))

    def test_bad_machines(self):
        with pytest.raises(WorkloadError, match="machines must be >= 1"):
            generate(spec_for("uniform", machines=0))

    def test_bad_size_range(self):
        with pytest.raises(WorkloadError, match="size_range"):
            generate(spec_for("uniform", sizes=(0, 3)))
        with pytest.raises(WorkloadError, match="size_range"):
            generate(spec_for("uniform", sizes=(4, 3)))

    def test_bad_release_range(self):
        with pytest.raises(WorkloadError, match="release_range"):
            generate(spec_for("uniform", releases=(-1, 3)))

    def test_range_over_64_bits(self):
        assert generate(spec_for("uniform", sizes=(1, 2**64), releases=(0, 2**64 - 1))).n
        with pytest.raises(WorkloadError, match="size_range holds more than 2\\^64 values"):
            generate(spec_for("uniform", sizes=(1, 2**64 + 1)))
        with pytest.raises(WorkloadError, match="release_range holds more than 2\\^64 values"):
            generate(spec_for("bursty", releases=(0, 2**64)))
