"""Transition map: pushing histograms through layers, composition, dims."""

import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relubound import (
    BINOMIAL,
    NAIVE,
    ZASLAVSKY,
    Architecture,
    Histogram,
    add,
    build_bound_matrix,
    clip,
    compose_bound_histogram,
    dimension_histogram,
    gamma_value,
    l1_norm,
    leq,
    phi,
    scale,
    unit,
    zero,
)
from relubound.transition import layer_step
from conftest import EMPTY_AT_ODD, dominated_pairs, histograms


class TestArchitecture:
    def test_dims_prepends_input(self):
        arch = Architecture(2, (3, 4))
        assert arch.dims() == (2, 3, 4)
        assert arch.depth == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Architecture(0, (3,))
        with pytest.raises(ValueError):
            Architecture(2, ())
        with pytest.raises(ValueError):
            Architecture(2, (3, 0))
        for n0, widths in ((2, (3.7, 2)), (2, ("3",)), (True, (3,)), (2.5, (3,)), (2, (3, False))):
            with pytest.raises(ValueError, match="integers"):
                Architecture(n0, widths)

    def test_dimension_past_index_range(self):
        for n0, widths in ((sys.maxsize + 1, (3,)), (2, (3, sys.maxsize + 1))):
            with pytest.raises(ValueError, match=rf"dimension {sys.maxsize + 1} exceeds sys.maxsize"):
                Architecture(n0, widths)
        assert Architecture(sys.maxsize, (sys.maxsize,)).n0 == sys.maxsize

    def test_frozen(self):
        arch = Architecture(1, (1,))
        with pytest.raises(AttributeError):
            arch.n0 = 2


class TestPhi:
    def test_unit_input_clips_gamma(self):
        # width 5 on a 3-dimensional count: 10 regions stay at dim 2,
        # the rest of the mass caps at dim 3
        assert phi(BINOMIAL, 5, unit(3)) == Histogram((0, 0, 10, 16))

    def test_high_dims_saturate(self):
        assert phi(BINOMIAL, 5, unit(9)) == phi(BINOMIAL, 5, unit(5))
        assert phi(ZASLAVSKY, 3, unit(7)) == phi(ZASLAVSKY, 3, unit(3))

    def test_zero_maps_to_zero(self):
        assert phi(BINOMIAL, 4, zero()) == zero()

    def test_zero_dim_counts_pass_through(self):
        # a 0-dimensional region cannot split: gamma_{0,n'} has mass 1
        assert phi(BINOMIAL, 4, unit(0)) == unit(0)
        assert phi(ZASLAVSKY, 4, unit(0)) == unit(0)

    def test_bad_width(self):
        with pytest.raises(ValueError, match="dimension out of range"):
            phi(BINOMIAL, 0, unit(1))

    def test_width_past_index_range(self):
        for g in (NAIVE, ZASLAVSKY, BINOMIAL):
            with pytest.raises(ValueError, match=rf"dimension {10**20} exceeds sys.maxsize"):
                phi(g, 10**20, unit(1))

    def test_wide_column_costs_its_input_dimension(self):
        """Column 2 of width 10^12 folds C(n', 0..2) onto index 2, with no O(n') padding."""
        w = 10**12
        tracemalloc.start()
        try:
            h = phi(BINOMIAL, w, unit(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.counts == (0, 0, 1 + w + math.comb(w, 2))
        assert peak < 2**20

    def test_width_past_index_range_reads_no_column(self):
        """The width is checked once per call, so an empty histogram raises too."""
        for g in (NAIVE, ZASLAVSKY, BINOMIAL):
            with pytest.raises(ValueError, match=rf"dimension {10**20} exceeds sys.maxsize"):
                phi(g, 10**20, zero())
        for bad in (True, 1.5, "3", 0):
            with pytest.raises(ValueError, match="dimension out of range"):
                phi(BINOMIAL, bad, zero())

    @given(histograms(), histograms(), st.integers(1, 6))
    def test_linear(self, v, w, n_prime):
        for g in (NAIVE, ZASLAVSKY, BINOMIAL):
            assert phi(g, n_prime, add(v, w)) == add(
                phi(g, n_prime, v), phi(g, n_prime, w)
            )

    @given(dominated_pairs(), st.integers(1, 6))
    def test_monotone(self, pair, n_prime):
        v, w = pair
        for g in (NAIVE, ZASLAVSKY, BINOMIAL):
            assert leq(phi(g, n_prime, v), phi(g, n_prime, w))

    @given(histograms(), st.integers(1, 7))
    def test_zaslavsky_binomial_norms_agree(self, v, n_prime):
        assert l1_norm(phi(ZASLAVSKY, n_prime, v)) == l1_norm(
            phi(BINOMIAL, n_prime, v)
        )


def reference_phi(g, n_prime, v):
    """Sum of count x gamma(k, n') clipped at k, k = min(n, n'), one add at a time."""
    out = zero()
    for n, count in enumerate(v.counts):
        k = min(n, n_prime)
        out = add(out, scale(count, clip(gamma_value(g, k, n_prime), k)))
    return out


class TestPhiReference:
    """phi at real widths against the definition, on seeded histograms."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_definition(self, seed):
        rng = random.Random(seed)
        for n_prime in (1, rng.randint(2, 63), 64):
            # up to 80 entries, so indices above n' are clamped
            length = rng.randint(0, 80)
            v = Histogram(tuple(rng.choice((0, rng.randint(1, 10 ** 30))) for _ in range(length)))
            for g in (NAIVE, ZASLAVSKY, BINOMIAL):
                assert phi(g, n_prime, v) == reference_phi(g, n_prime, v)


class TestLayerStep:
    """layer_step on mostly-unit counts against the sum written out entry by entry."""

    @staticmethod
    def written_out(cols, n_prime, vec):
        out = [0] * min(len(vec), n_prime + 1)
        for j, count in enumerate(vec):
            for i, x in enumerate(cols[min(j, n_prime)]):
                if x:
                    out[i] += count * x
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_written_out_sum(self, seed):
        rng = random.Random(seed)
        for n_prime in (1, rng.randint(2, 40), 64):
            units = [[0] * j + [1] + [0] * rng.randint(0, 3) for j in (0, n_prime // 2, n_prime, n_prime + 5)]
            # mostly 1, some 0, now and then a large count; lengths up to n'+12
            mixed = [
                [rng.choice((0, 1, 1, 1, rng.randint(2, 10 ** 30))) for _ in range(rng.randint(1, n_prime + 12))]
                for _ in range(4)
            ]
            for g in (NAIVE, ZASLAVSKY, BINOMIAL):
                # phi's trimmed tuples, and build_bound_matrix's padded columns as lists
                trimmed = [clip(gamma_value(g, k, n_prime), k).counts for k in range(n_prime + 1)]
                padded = [list(col) for col in zip(*build_bound_matrix(g, n_prime).rows)]
                for cols in (trimmed, padded):
                    before = [list(c) for c in cols]
                    for vec in [[], *units, *mixed]:
                        out = layer_step(cols.__getitem__, n_prime, vec)
                        assert type(out) is list and len(out) == min(len(vec), n_prime + 1)
                        assert out == self.written_out(cols, n_prime, vec)
                        out[:] = [-1] * len(out)
                        assert [list(c) for c in cols] == before

    @pytest.mark.parametrize("seed", range(4))
    def test_one_steps_dict_per_width(self, seed):
        """By parts, with one ``steps`` dict shared by every vector of a width, twice over."""
        rng = random.Random(seed)
        for n_prime in (1, rng.randint(2, 40), 64):
            # dense, gapped and single-entry vectors, some longer than n'+1
            vecs = [
                [rng.choice((0, 1, 1, rng.randint(2, 10 ** 30))) if rng.random() < density else 0
                 for _ in range(rng.randint(1, n_prime + 12))]
                for density in (1.0, 0.8, 0.4, 0.1) * 3
            ] + [[0] * n_prime + [5], [3] + [0] * n_prime + [1]]
            for g in (NAIVE, ZASLAVSKY, BINOMIAL, EMPTY_AT_ODD):
                trimmed = [clip(gamma_value(g, k, n_prime), k).counts for k in range(n_prime + 1)]
                padded = [list(col) for col in zip(*build_bound_matrix(g, n_prime).rows)]
                for cols in (trimmed, padded):
                    before = [list(c) for c in cols]
                    steps = {}
                    for vec in vecs * 2:  # the second pass reads only kept steps
                        out = layer_step(cols.__getitem__, n_prime, vec, steps)
                        assert type(out) is list
                        assert out == self.written_out(cols, n_prime, vec)
                        out[:] = [-1] * len(out)
                    assert [list(c) for c in cols] == before
                    assert steps


def assert_canonical(h):
    assert h == Histogram(h.counts)
    assert all(type(x) is int and x >= 0 for x in h.counts)
    assert not h.counts or h.counts[-1] != 0


class TestInternalHistogramsAreCanonical:
    """What the package builds without the public checks equals a checked histogram."""

    @given(st.integers(0, 70))
    def test_unit(self, i):
        assert_canonical(unit(i))

    @given(histograms(), st.integers(0, 10))
    def test_clip(self, v, i):
        assert_canonical(clip(v, i))

    @given(histograms(), st.integers(1, 9))
    def test_phi(self, v, n_prime):
        for g in (NAIVE, ZASLAVSKY, BINOMIAL, EMPTY_AT_ODD):
            assert_canonical(phi(g, n_prime, v))

    @given(st.integers(1, 70), st.data())
    def test_gamma_value(self, n_prime, data):
        n = data.draw(st.integers(0, n_prime))
        for g in (NAIVE, ZASLAVSKY, BINOMIAL):
            assert_canonical(gamma_value(g, n, n_prime))


class TestCompose:
    def test_single_layer(self):
        hist = compose_bound_histogram(BINOMIAL, Architecture(2, (3,)))
        assert hist == Histogram((0, 3, 4))
        assert l1_norm(hist) == 7

    def test_zaslavsky_stays_at_cap(self):
        hist = compose_bound_histogram(ZASLAVSKY, Architecture(2, (3,)))
        assert hist == Histogram((0, 0, 7))

    def test_two_layers_match_manual_push(self):
        arch = Architecture(2, (3, 2))
        v = phi(BINOMIAL, 2, phi(BINOMIAL, 3, unit(2)))
        assert compose_bound_histogram(BINOMIAL, arch) == v


class TestDimensionHistogram:
    def test_single_layer_multisigs(self):
        multisigs = [((0, 0, 0),), ((1, 0, 0),), ((1, 1, 0),), ((1, 1, 1),)]
        # dims are min(n0, active count)
        assert dimension_histogram(multisigs, 2) == Histogram((1, 1, 2))

    def test_depth_uses_running_minimum(self):
        # a layer with one active unit caps everything after it at dim 1
        multisigs = [((1, 1), (1, 1)), ((0, 1), (1, 1))]
        assert dimension_histogram(multisigs, 2) == Histogram((0, 1, 1))

    def test_empty(self):
        assert dimension_histogram([], 3) == zero()

    def test_input_dimension_below_one(self):
        with pytest.raises(ValueError, match="input dimension must be at least 1"):
            dimension_histogram([], 0)
