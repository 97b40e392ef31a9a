"""Bound matrices, connectors, and the closed-form reference bounds."""

import hashlib
import itertools
import math
import random
import sys
import tracemalloc
from functools import partial

import pytest

from relubound import (
    BINOMIAL,
    NAIVE,
    ZASLAVSKY,
    Architecture,
    GammaCollection,
    Histogram,
    asymptotic_report,
    build_bound_matrix,
    build_connector,
    closed_form_norm,
    compose_bound_histogram,
    evaluate_bound,
    gamma_value,
    l1_norm,
    montufar_bound,
    montufar_lower_bound,
    naive_bound,
    narrow_layer_somewhere,
    phi,
    serra_sum,
    stirling_weakened,
    unit,
    width_increases_somewhere,
)
from relubound import bound_matrices
from relubound.bound_matrices import binomial_sums, bound_column, bound_vectors
from conftest import EMPTY_AT_ODD

# Widths 16..128 in shuffled order with repeats: against n0 = 40 the clamp
# both merges indices (a layer narrower than the vector's support) and pads
# them (a wider layer), and the repeated widths reuse kept columns.
WIDE_MIXED = Architecture(40, (48, 16, 128, 64, 16, 96, 128, 24, 64, 112, 40, 24))

B2 = ((1, 0, 1), (0, 3, 2), (0, 0, 1))
B3 = ((1, 0, 0, 1), (0, 4, 3, 3), (0, 0, 4, 3), (0, 0, 0, 1))


class TestBoundMatrix:
    def test_binomial_columns_are_clipped_gammas(self):
        assert build_bound_matrix(BINOMIAL, 2).rows == B2
        assert build_bound_matrix(BINOMIAL, 3).rows == B3

    def test_zaslavsky_is_diagonal(self):
        rows = build_bound_matrix(ZASLAVSKY, 3).rows
        assert rows == ((1, 0, 0, 0), (0, 4, 0, 0), (0, 0, 7, 0), (0, 0, 0, 8))

    def test_naive_column_mass(self):
        rows = build_bound_matrix(NAIVE, 2).rows
        # the naive collection ignores the input dimension, so every
        # column carries the full 2^2 at its clipped index
        assert rows == ((4, 0, 0), (0, 4, 0), (0, 0, 4))

    def test_upper_triangular(self):
        for n in range(1, 7):
            rows = build_bound_matrix(BINOMIAL, n).rows
            for i in range(n + 1):
                for j in range(i):
                    assert rows[i][j] == 0

    def test_columns_are_phi_of_units_and_rows_their_dense_view(self):
        for g in (NAIVE, ZASLAVSKY, BINOMIAL, ZERO_AT_ONE, EMPTY_AT_ODD):
            for n in range(1, 13):
                m = build_bound_matrix(g, n)
                assert len(m.columns) == n + 1
                for j, col in enumerate(m.columns):
                    assert col == phi(g, n, unit(j)).counts
                    assert len(col) <= j + 1
                padded = [col + (0,) * (n + 1 - len(col)) for col in m.columns]
                dense = tuple(tuple(padded[j][i] for j in range(n + 1)) for i in range(n + 1))
                assert m.rows == dense, (g.name, n)

    def test_bad_width(self):
        with pytest.raises(ValueError, match="dimension out of range"):
            build_bound_matrix(BINOMIAL, 0)

    def test_width_past_index_range(self):
        with pytest.raises(ValueError, match=rf"dimension {sys.maxsize + 1} exceeds sys.maxsize"):
            build_bound_matrix(BINOMIAL, sys.maxsize + 1)


class TestConnector:
    def test_shrinking_merges_tail(self):
        m = build_connector(4, 2)
        assert m.rows == (
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 1, 1),
        )

    def test_growing_pads_zeros(self):
        m = build_connector(2, 4)
        assert m.rows == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (0, 0, 0),
            (0, 0, 0),
        )

    def test_identity_when_equal(self):
        m = build_connector(3, 3)
        assert m.rows == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_negative_dimension(self):
        with pytest.raises(ValueError, match="dimension out of range"):
            build_connector(-1, 2)

    @pytest.mark.parametrize("n, n_prime", [(sys.maxsize + 1, 3), (3, sys.maxsize + 1), (3, 2 ** 70)])
    def test_dimension_past_index_range(self, n, n_prime):
        """Checked before any row is built: width 2^70 would build rows for ever."""
        big = max(n, n_prime)
        with pytest.raises(ValueError, match=rf"dimension {big} exceeds sys.maxsize"):
            build_connector(n, n_prime)


class TestEvaluateBound:
    def test_worked_examples(self):
        assert evaluate_bound(BINOMIAL, Architecture(2, (3,))) == 7
        assert evaluate_bound(BINOMIAL, Architecture(4, (4, 4))) == 163
        assert evaluate_bound(ZASLAVSKY, Architecture(4, (4, 4))) == 256
        assert evaluate_bound(NAIVE, Architecture(4, (4, 4))) == 256

    def test_width_near_10_12(self):
        """A column costs O(min(n0, n')): width 10^12 at n0 = 2 reads three terms."""
        w = 10**12
        for g in (BINOMIAL, ZASLAVSKY):
            assert evaluate_bound(g, Architecture(2, (w,))) == 1 + w + math.comb(w, 2)

    def test_matches_histogram_path(self):
        rng = random.Random(11)
        archs = []
        for _ in range(40):
            n0 = rng.randint(1, 5)
            widths = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
            archs.append(Architecture(n0, widths))
        archs.append(WIDE_MIXED)
        for arch in archs:
            for g in (NAIVE, ZASLAVSKY, BINOMIAL):
                assert evaluate_bound(g, arch) == l1_norm(
                    compose_bound_histogram(g, arch)
                )

    @pytest.mark.parametrize("n0,L", [(4, 10), (32, 6), (40, 10), (100, 5)])
    def test_equal_width_matches_closed_form(self, n0, L):
        arch = Architecture(n0, (64,) * L)
        assert evaluate_bound(BINOMIAL, arch) == closed_form_norm(64, min(n0, 64), L)

    def test_builds_only_the_columns_it_reads(self, monkeypatch):
        """No bound matrix is built, and no column outlives the call that built it."""
        calls = {"bound_column": 0, "build_bound_matrix": 0}
        for name in calls:
            def counted(*args, real=getattr(bound_matrices, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(bound_matrices, name, counted)
        for _ in range(2):
            # layer 1 reads column 2 of B_3, layer 2 columns 1 and 2 of B_3 (2 is
            # kept), layer 3 columns 1 and 2 of B_4
            assert evaluate_bound(BINOMIAL, Architecture(2, (3, 3, 4))) == 296
            assert calls == {"bound_column": 4, "build_bound_matrix": 0}
            calls.update(bound_column=0)
        # one column, 2, of a width too large to build a matrix of: 1 + n' + C(n', 2)
        assert evaluate_bound(BINOMIAL, Architecture(2, (100_000,))) == 5000050001

    def test_deep_narrow_collapse(self):
        # a width-1 layer caps everything after it
        arch = Architecture(3, (5, 1, 5))
        assert evaluate_bound(BINOMIAL, arch) <= evaluate_bound(
            BINOMIAL, Architecture(3, (5, 5, 5))
        )


# binomial, except that every dimension-1 region has no image at all: its
# column is empty, shorter than the k+1 entries a column may cover
ZERO_AT_ONE = GammaCollection(
    "zero-at-one", lambda n, n_prime: Histogram(()) if n == 1 else BINOMIAL.rule(n, n_prime)
)


def dense_step(bound, connector, vec):
    """B M vec as the literal product of the dense rows, one sum per entry."""
    folded = [sum(m * v for m, v in zip(row, vec, strict=True)) for row in connector.rows]
    return [sum(b * x for b, x in zip(row, folded, strict=True)) for row in bound.rows]


class TestSupportPrefix:
    def test_vectors_are_the_dense_product(self):
        """bound_vectors and phi, layer by layer, against B M v with dense rows."""
        rng = random.Random(23)
        shorter = 0
        for _ in range(80):
            n0 = rng.randint(1, 8)
            widths = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 6)))
            arch = Architecture(n0, widths)
            for g in (NAIVE, ZASLAVSKY, BINOMIAL, ZERO_AT_ONE, EMPTY_AT_ODD):
                dense = [0] * n0 + [1]
                hist = unit(n0)
                vectors = list(bound_vectors(g, arch))
                assert len(vectors) == len(widths)
                for width, vec in zip(widths, vectors):
                    assert len(vec) <= min(n0, widths[0]) + 1
                    shorter += len(vec) < width + 1
                    bound = build_bound_matrix(g, width)
                    dense = dense_step(bound, build_connector(len(dense) - 1, width), dense)
                    assert vec + [0] * (len(dense) - len(vec)) == dense
                    hist = phi(g, width, hist)
                    assert hist == Histogram(tuple(dense))
        assert shorter  # the sample holds vectors that stop short of their width


class TestColumnSteps:
    @pytest.mark.parametrize("g, most", [(BINOMIAL, 3), (NAIVE, 2), (ZASLAVSKY, 2)],
                             ids=["binomial", "naive", "zaslavsky"])
    def test_neighbouring_columns_differ_in_few_entries(self, g, most):
        """What makes bound_vectors' sum by parts cheap: columns k-1 and k of B_{n'}
        differ in at most ``most`` entries, so a kept step is that short."""
        widest = 0
        for n_prime in range(1, 65):
            cols = [bound_column(g, n_prime, k) for k in range(n_prime + 1)]
            for a, b in zip(cols, cols[1:]):
                differ = sum(x != y for x, y in itertools.zip_longest(a, b, fillvalue=0))
                assert differ <= most, (n_prime, a, b)
                widest = max(widest, differ)
        assert widest == most


class TestReferenceBounds:
    def test_naive(self):
        assert naive_bound(Architecture(4, (4, 4))) == 256
        assert naive_bound(Architecture(1, (1,))) == 2

    def test_naive_past_the_power_of_two_cap(self):
        """Refused before 2^(10^12) is built, by the check ``NAIVE``'s rule shares.

        Without that check this test would allocate memory without bound.
        """
        arch = Architecture(2, (10**12,))
        for call in (naive_bound, partial(evaluate_bound, NAIVE)):
            with pytest.raises(ValueError, match=f"exponent {10**12} exceeds"):
                call(arch)

    def test_montufar_equals_zaslavsky_path(self):
        rng = random.Random(5)
        for _ in range(40):
            n0 = rng.randint(1, 6)
            widths = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 4)))
            arch = Architecture(n0, widths)
            assert montufar_bound(arch) == evaluate_bound(ZASLAVSKY, arch)

    def test_serra_worked_values(self):
        cases = [
            ((4, (4, 4)), 163),
            ((2, (3,)), 7),
            ((1, (2, 3)), 12),
            ((3, (4, 2, 5)), 391),
            ((2, (5, 1, 3)), 80),
        ]
        for (n0, widths), expected in cases:
            assert serra_sum(Architecture(n0, widths)) == expected

    def test_serra_equals_binomial_path(self):
        rng = random.Random(7)
        for _ in range(40):
            n0 = rng.randint(1, 6)
            widths = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 4)))
            arch = Architecture(n0, widths)
            assert serra_sum(arch) == evaluate_bound(BINOMIAL, arch)

    def test_serra_deep_narrow(self):
        # one layer per recursion level would overflow the interpreter stack
        arch = Architecture(1, (1,) * 2000)
        assert serra_sum(arch) == evaluate_bound(BINOMIAL, arch)

    def test_stirling_weakened_value(self):
        assert stirling_weakened(4, 2) == pytest.approx(
            232.08394787513956, rel=1e-12
        )
        with pytest.raises(ValueError):
            stirling_weakened(0, 1)

    def test_stirling_weakened_is_the_report_exponent(self):
        for n in (1, 4, 33, 140):
            for L in (1, 2, 7):
                factor = 0.5 + 1.0 / (2.0 * math.sqrt(math.pi * n))
                closed = 2.0 ** (L * n) * factor ** (L / 2) * math.sqrt(2.0)
                e = asymptotic_report(n, 1).stirling_exponent
                assert stirling_weakened(n, L) == pytest.approx(closed, rel=1e-12)
                assert stirling_weakened(n, L) == pytest.approx(2 ** (L * e + 0.5), rel=1e-12)

    def test_stirling_weakened_past_float_range(self):
        assert math.isfinite(stirling_weakened(1000, 1))
        for n, L in ((1100, 1), (4, 400), (10 ** 400, 1)):
            with pytest.raises(ValueError, match="largest float"):
                stirling_weakened(n, L)

    def test_stirling_dominates_binomial_base(self):
        # the weakened form must stay above the exact bound it weakens
        for n in (2, 4, 6):
            for L in (1, 2, 3):
                arch = Architecture(n, (n,) * L)
                assert stirling_weakened(n, L) >= evaluate_bound(BINOMIAL, arch) * (
                    1 - 1e-12
                )

    def test_lower_bound(self):
        assert montufar_lower_bound(Architecture(1, (2, 3))) == 8
        assert montufar_lower_bound(Architecture(4, (4, 4))) == 16
        # Deep networks drawing from a few widths, some below n0: the
        # product taken one layer at a time.
        rng = random.Random(19)
        for _ in range(30):
            n0 = rng.randint(1, 5)
            pool = [rng.randint(max(1, n0 - 1), 4 * n0) for _ in range(3)]
            widths = tuple(rng.choice(pool) for _ in range(rng.randint(2, 300)))
            expected = 1
            for w in widths[:-1]:
                expected *= (w // n0) ** n0
            expected *= sum(math.comb(widths[-1], j) for j in range(n0 + 1))
            assert montufar_lower_bound(Architecture(n0, widths)) == expected

    def test_lower_bound_below_binomial(self):
        rng = random.Random(3)
        for _ in range(40):
            n0 = rng.randint(1, 4)
            widths = tuple(rng.randint(n0, 6) for _ in range(rng.randint(1, 3)))
            arch = Architecture(n0, widths)
            assert montufar_lower_bound(arch) <= evaluate_bound(BINOMIAL, arch)


class TestBinomialSums:
    def test_matches_zaslavsky_recurrence(self):
        # math.comb partial row sums against gamma's recurrence, which sums
        # the same binomials a different way.
        for n in range(1, 65):
            zaslavsky = [l1_norm(gamma_value(ZASLAVSKY, k, n)) for k in range(n + 1)]
            for m in range(n + 1):
                assert binomial_sums(n, m) == zaslavsky[: m + 1]


class TestStrictnessConditions:
    def test_width_increase(self):
        assert width_increases_somewhere(Architecture(2, (3,)))
        assert not width_increases_somewhere(Architecture(4, (4, 4)))
        assert width_increases_somewhere(Architecture(4, (4, 5)))

    def test_narrow_layer(self):
        # middle width 2 < min(3,3,2) + min(3,3,2,3) = 2 + 2
        assert narrow_layer_somewhere(Architecture(3, (3, 2, 3)))
        # single layers have no middle
        assert not narrow_layer_somewhere(Architecture(2, (3,)))
        # width 2 is not below min(1,2) + min(1,2,2) = 2
        assert not narrow_layer_somewhere(Architecture(1, (2, 2)))

    def test_conditions_match_inequalities_exhaustively(self):
        from itertools import product

        for n0 in (1, 2, 3):
            for depth in (1, 2, 3):
                for widths in product((1, 2, 3), repeat=depth):
                    arch = Architecture(n0, widths)
                    naive = naive_bound(arch)
                    mont = montufar_bound(arch)
                    binom = evaluate_bound(BINOMIAL, arch)
                    assert binom <= mont <= naive
                    assert (mont < naive) == width_increases_somewhere(arch)
                    assert (binom < mont) == narrow_layer_somewhere(arch)

        # Deeper seeded architectures, where an off-by-one in the running
        # minimum's index would pick the wrong layer; both outcomes occur.
        rng = random.Random(18)
        seen = set()
        for _ in range(200):
            widths = tuple(rng.randint(1, 5) for _ in range(rng.randint(4, 12)))
            arch = Architecture(rng.randint(1, 4), widths)
            narrow = narrow_layer_somewhere(arch)
            assert (evaluate_bound(BINOMIAL, arch) < montufar_bound(arch)) == narrow
            seen.add(narrow)
        assert seen == {False, True}


class TestHugeInputDimension:
    @pytest.mark.parametrize("widths", [(5,), (3, 5, 2), (6, 2, 7, 4)])
    def test_acts_like_the_first_width_in_little_memory(self, widths):
        # The first layer clamps n0 to n1, so n0 = 10^7 must give the values
        # of n0 = n1 without anything as long as n0 being allocated.
        def bounds(n0):
            arch = Architecture(n0, widths)
            gammas = (NAIVE, ZASLAVSKY, BINOMIAL)
            return [
                naive_bound(arch),
                montufar_bound(arch),
                serra_sum(arch),
                width_increases_somewhere(arch),
                narrow_layer_somewhere(arch),
                *(evaluate_bound(g, arch) for g in gammas),
                *(compose_bound_histogram(g, arch) for g in gammas),
            ]

        tracemalloc.start()
        try:
            huge = bounds(10**7)
            lower = montufar_lower_bound(Architecture(10**7, widths))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert huge == bounds(widths[0])
        # floor(n_l / n0) = 0 below the last layer; the last sum stops at n_L
        assert lower == (2 ** widths[0] if len(widths) == 1 else 0)
        assert peak < 2**20



def digest(values) -> str:
    """sha256 over repr(), so it pins the ints and that they are ints."""
    return hashlib.sha256(repr(values).encode("ascii")).hexdigest()


def matrices_digest(g) -> str:
    return digest([build_bound_matrix(g, n).rows for n in range(1, 65)])


def phi_digest(seed: int) -> str:
    """phi of seeded histograms with entries past n', for each built-in collection."""
    rng = random.Random(seed)
    out = []
    for n_prime in (1, rng.randint(2, 63), 64):
        length = rng.randint(n_prime + 2, 90)
        v = Histogram(tuple(rng.choice((0, rng.randint(1, 10 ** 30))) for _ in range(length)))
        out.extend(phi(g, n_prime, v).counts for g in (NAIVE, ZASLAVSKY, BINOMIAL))
    return digest(out)


class TestColumnPin:
    """Bound-matrix rows and phi values, not only the identities they satisfy.

    When the columns change on purpose, regenerate the tables with
    ``python tests/test_bound_matrices.py`` and review which digests moved.
    """

    @pytest.mark.parametrize("g", [NAIVE, ZASLAVSKY, BINOMIAL], ids=lambda g: g.name)
    def test_matrices_up_to_width_64(self, g):
        assert matrices_digest(g) == MATRICES_GOLDEN[g.name]

    @pytest.mark.parametrize("seed", range(8))
    def test_phi_past_the_width(self, seed):
        assert phi_digest(seed) == PHI_GOLDEN[seed]


MATRICES_GOLDEN = {
    "naive": "02840d9f12a34f05104161082e212a7ef291da0bae6eee7575c879ef26424db9",
    "zaslavsky": "478a7421b0e8ec4830fe418bb4f302e9287f9d75b08c22f77465afb77942ab58",
    "binomial": "d94bd23cf0afbfdf4db86917b20823be03d88ac780143a59a24990c705bdc0c7",
}

PHI_GOLDEN = {
    0: "1e3479dc3bf7bbf8685d9cd2ac0c0d02350131ed34027548140aab1965107159",
    1: "45b7504bb03d4986d841be48b04a04e179baa66cca0597e5a4f82096e0c095e9",
    2: "47765d36f9014ddc726b91372eafd09aadb6f2fa4711bd646608dedaa5e321f6",
    3: "8b276095942a47d863468628c349422683baa6caddb28121be32e0976aff52c0",
    4: "c562959198c5f3d2730ba509a4e2e2d8af1d53466287f989923241fe41ccd312",
    5: "c25ea99f3c4d094ac6783ac09f1d4c3b9e105f419755bee4d6af49f7e45f24ce",
    6: "d462bc477414bb4d4844d1f3dd0eb3306c732e3481a96f88a4e37dcf7672bb99",
    7: "6071b5e84697b27a31b92b461ffce48eb8a9117444d21833256e8a953f3651a8",
}


if __name__ == "__main__":
    print("MATRICES_GOLDEN = {")
    for g in (NAIVE, ZASLAVSKY, BINOMIAL):
        print(f'    "{g.name}": "{matrices_digest(g)}",')
    print("}\n\nPHI_GOLDEN = {")
    for seed in range(8):
        print(f'    {seed}: "{phi_digest(seed)}",')
    print("}")
