"""Histogram space: canonical form, dominance order, max, clip, norms."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relubound import (
    Histogram,
    add,
    clip,
    l1_norm,
    leq,
    max_of,
    scale,
    tail_sum,
    unit,
    zero,
)
from conftest import dominated_pairs, histograms


class TestCanonicalForm:
    def test_trailing_zeros_dropped(self):
        assert Histogram((1, 2, 0, 0)) == Histogram((1, 2))

    def test_long_zero_tail_trims_in_linear_time(self):
        start = time.perf_counter()
        assert Histogram((1,) + (0,) * 10 ** 5).counts == (1,)
        assert time.perf_counter() - start < 1.0

    def test_zero_is_empty(self):
        assert zero() == Histogram(())
        assert not zero()

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            Histogram((1, -1))

    @pytest.mark.parametrize("bad", [2.7, 3.0, "3", True, False, None])
    def test_non_integer_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="counts must be integers"):
            Histogram((bad, 1))

    def test_unit_vector(self):
        assert unit(3).to_list() == [0, 0, 0, 1]
        assert unit(0).to_list() == [1]
        with pytest.raises(ValueError):
            unit(-1)

    def test_entry_out_of_support_is_zero(self):
        v = Histogram((1, 2))
        assert v.entry(5) == 0
        assert v.entry(1) == 2


class TestArithmetic:
    def test_add(self):
        assert add(Histogram((1, 2)), Histogram((0, 0, 5))) == Histogram((1, 2, 5))

    def test_scale(self):
        assert scale(3, Histogram((1, 2))) == Histogram((3, 6))
        assert scale(0, Histogram((1, 2))) == zero()

    def test_scale_negative_rejected(self):
        with pytest.raises(ValueError):
            scale(-1, unit(0))

    def test_l1_norm(self):
        assert l1_norm(Histogram((1, 2, 3))) == 6
        assert l1_norm(zero()) == 0

    def test_tail_sum(self):
        v = Histogram((1, 2, 3))
        assert tail_sum(v, 0) == 6
        assert tail_sum(v, 2) == 3
        assert tail_sum(v, 3) == 0
        with pytest.raises(ValueError, match="negative index"):
            tail_sum(v, -1)

    @pytest.mark.parametrize("index, message", [
        (True, "must be an int, not bool"),
        (1.0, "must be an int, not float"),
        (-1, "negative index"),
    ])
    @pytest.mark.parametrize("f", [tail_sum, clip, lambda v, i: unit(i)], ids=["tail_sum", "clip", "unit"])
    def test_index_is_a_nonnegative_int(self, f, index, message):
        """tail_sum(v, True) would read as tail_sum(v, 1), and 1.0 would
        raise a bare TypeError from the slice."""
        with pytest.raises(ValueError, match=message):
            f(Histogram((1, 2, 3)), index)


class TestDominanceOrder:
    def test_shifted_mass_dominates(self):
        # moving mass upward raises tail sums
        assert leq(Histogram((1, 2)), Histogram((0, 3)))
        assert not leq(Histogram((0, 3)), Histogram((1, 2)))

    def test_equal_mass_incomparable(self):
        v = Histogram((0, 2, 0, 1))
        w = Histogram((1, 0, 2))
        assert not leq(v, w)
        assert not leq(w, v)

    def test_zero_below_everything(self):
        assert leq(zero(), Histogram((5,)))

    @given(dominated_pairs())
    def test_generator_produces_comparable_pairs(self, pair):
        v, w = pair
        assert leq(v, w)

    @given(histograms())
    def test_reflexive(self, v):
        assert leq(v, v)

    @given(dominated_pairs())
    def test_antisymmetric(self, pair):
        v, w = pair
        if leq(w, v):
            assert v == w

    @given(dominated_pairs())
    def test_transitive_through_clip(self, pair):
        v, w = pair
        assert leq(clip(v, 1), w)

    @given(dominated_pairs(), histograms())
    def test_add_compatible(self, pair, u):
        v, w = pair
        assert leq(add(v, u), add(w, u))

    @given(dominated_pairs(), st.integers(0, 6))
    def test_scale_compatible(self, pair, k):
        v, w = pair
        assert leq(scale(k, v), scale(k, w))

    @given(dominated_pairs())
    def test_norm_monotone(self, pair):
        v, w = pair
        assert l1_norm(v) <= l1_norm(w)


class TestMaxOf:
    def test_pairwise_example(self):
        m = max_of([Histogram((2, 0, 1)), Histogram((0, 3))])
        assert m == Histogram((0, 2, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty max"):
            max_of([])

    def test_single(self):
        v = Histogram((1, 2))
        assert max_of([v]) == v

    @given(histograms(), histograms())
    def test_upper_bound(self, v, w):
        m = max_of([v, w])
        assert leq(v, m)
        assert leq(w, m)

    def test_least_upper_bound_exhaustive(self):
        # brute force over tiny histograms: max_of is below every upper bound
        import itertools

        small = [
            Histogram(c)
            for c in itertools.product(range(3), repeat=3)
        ]
        for v in small[:20]:
            for w in small[:20]:
                m = max_of([v, w])
                for u in small:
                    if leq(v, u) and leq(w, u):
                        assert leq(m, u)


def reference_leq(v, w):
    n = max(len(v.counts), len(w.counts))
    return all(sum(v.counts[J:]) <= sum(w.counts[J:]) for J in range(n))


def reference_max(vs):
    n = max(len(v.counts) for v in vs)
    tails = [max(sum(v.counts[J:]) for v in vs) for J in range(n + 1)]
    return Histogram(tuple(tails[J] - tails[J + 1] for J in range(n)))


def seeded_histogram(rng):
    """Up to 60 entries, small or up to 10^30, with zeros in between."""
    top = rng.choice((3, 10 ** 30))
    length = rng.randint(0, 60)
    return Histogram(tuple(rng.choice((0, rng.randint(0, top))) for _ in range(length)))


class TestTailSumDefinition:
    """leq and max_of against the per-index tail sums, written out here."""

    def test_leq(self):
        rng = random.Random(10)
        outcomes = set()
        for _ in range(400):
            v, w = seeded_histogram(rng), seeded_histogram(rng)
            if rng.random() < 0.3:
                w = add(w, v)  # dominates v
            outcomes.add(leq(v, w))
            assert leq(v, w) == reference_leq(v, w)
            assert leq(w, v) == reference_leq(w, v)
        assert outcomes == {True, False}

    def test_max_of(self):
        rng = random.Random(11)
        for _ in range(200):
            vs = [seeded_histogram(rng) for _ in range(rng.randint(1, 4))]
            assert max_of(vs) == reference_max(vs)


class TestClip:
    def test_example(self):
        assert clip(Histogram((1, 2, 3)), 1) == Histogram((1, 5))

    def test_to_zero_index(self):
        assert clip(Histogram((1, 2, 3)), 0) == Histogram((6,))

    def test_above_support_is_identity(self):
        v = Histogram((1, 2, 3))
        assert clip(v, 7) == v

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            clip(unit(1), -1)

    @given(histograms(), st.integers(0, 10))
    def test_mass_preserved(self, v, i):
        assert l1_norm(clip(v, i)) == l1_norm(v)

    @given(histograms(), st.integers(0, 10))
    def test_below_identity(self, v, i):
        assert leq(clip(v, i), v)

    @given(dominated_pairs(), st.integers(0, 10))
    def test_monotone_in_argument(self, pair, i):
        v, w = pair
        assert leq(clip(v, i), clip(w, i))

    @given(histograms(), st.integers(0, 10), st.integers(0, 10))
    def test_monotone_in_index(self, v, i, j):
        lo, hi = min(i, j), max(i, j)
        assert leq(clip(v, lo), clip(v, hi))

    @given(histograms(), st.integers(0, 10))
    def test_idempotent(self, v, i):
        assert clip(clip(v, i), i) == clip(v, i)
