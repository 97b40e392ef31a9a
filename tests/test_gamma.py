"""Gamma collections: values, validation, monotonicity."""

import math
import tracemalloc
from itertools import pairwise

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relubound import (
    BINOMIAL,
    BUILTIN,
    NAIVE,
    ZASLAVSKY,
    GammaCollection,
    Histogram,
    ReluLayer,
    ReluNetwork,
    activation_histogram,
    asymptotic_report,
    build_bound_matrix,
    build_connector,
    build_decomposition,
    check_against_network,
    check_monotonicity,
    closed_form_norm,
    dimension_histogram,
    gamma_value,
    l1_norm,
    leq,
    phi,
    power_B,
    power_J,
    stirling_weakened,
    triangle_network,
    unit,
)
from relubound.fixtures import TRIANGLE_SIGNATURES_DOWN
from relubound.gamma import MAX_EXPONENT, two_to


class TestBuiltinValues:
    def test_naive_is_all_mass_at_top(self):
        assert gamma_value(NAIVE, 2, 3) == Histogram((0, 0, 0, 8))
        assert gamma_value(NAIVE, 0, 4) == Histogram((0, 0, 0, 0, 16))

    def test_zaslavsky_sums_binomials_at_top(self):
        assert gamma_value(ZASLAVSKY, 2, 3) == Histogram((0, 0, 0, 7))
        assert gamma_value(ZASLAVSKY, 3, 3) == Histogram((0, 0, 0, 8))

    def test_binomial_spreads_by_coactive_count(self):
        # entry n'-j holds C(n', j) for j = 0..n
        assert gamma_value(BINOMIAL, 2, 3) == Histogram((0, 3, 3, 1))
        assert gamma_value(BINOMIAL, 3, 5) == Histogram((0, 0, 10, 10, 5, 1))

    def test_equal_norms_of_zaslavsky_and_binomial(self):
        for n_prime in range(1, 8):
            for n in range(n_prime + 1):
                assert l1_norm(gamma_value(ZASLAVSKY, n, n_prime)) == l1_norm(
                    gamma_value(BINOMIAL, n, n_prime)
                )

    def test_chain_of_dominance(self):
        for n_prime in range(1, 8):
            for n in range(n_prime + 1):
                b = gamma_value(BINOMIAL, n, n_prime)
                z = gamma_value(ZASLAVSKY, n, n_prime)
                nv = gamma_value(NAIVE, n, n_prime)
                assert leq(b, z)
                assert leq(z, nv)

    def test_builtin_registry(self):
        assert set(BUILTIN) == {"naive", "zaslavsky", "binomial"}
        assert BUILTIN["binomial"] is BINOMIAL

    def test_repr_names_the_collection(self):
        assert repr(BINOMIAL) == "GammaCollection('binomial')"
        # the rule is left out, so a lambda's address never shows
        lam = GammaCollection("lam", lambda n, n_prime: Histogram((1,)))
        assert repr(lam) == "GammaCollection('lam')"
        assert "0x" not in repr(lam)


# every (n, n') with 1 <= n' <= 64, plus the full columns of three wide layers
COMB_PAIRS = [
    (n, n_prime)
    for n_prime in [*range(1, 65), 127, 128, 200]
    for n in range(n_prime + 1)
]


class TestAgainstCombDefinition:
    """Each built-in value against its definition, one math.comb per entry."""

    def test_binomial(self):
        for n, n_prime in COMB_PAIRS:
            counts = [0] * (n_prime + 1)
            for j in range(n + 1):
                counts[n_prime - j] = math.comb(n_prime, j)
            assert gamma_value(BINOMIAL, n, n_prime) == Histogram(tuple(counts))

    def test_zaslavsky(self):
        for n, n_prime in COMB_PAIRS:
            total = sum(math.comb(n_prime, j) for j in range(n + 1))
            expected = Histogram((0,) * n_prime + (total,))
            assert gamma_value(ZASLAVSKY, n, n_prime) == expected


def comb_value(g: GammaCollection, n: int, n_prime: int) -> Histogram:
    """The binomial or Zaslavsky value at (n, n'), one math.comb per entry."""
    row = [math.comb(n_prime, j) for j in range(n + 1)]
    if g is ZASLAVSKY:
        return Histogram((0,) * n_prime + (sum(row),))
    return Histogram((0,) * (n_prime - n) + tuple(reversed(row)))


@st.composite
def call_sequences(draw):
    """(collection, n, n') calls that switch width, and shrink and grow n at each width."""
    widths = draw(st.lists(st.integers(1, 40), min_size=2, max_size=6).filter(
        lambda ws: all(a != b for a, b in pairwise(ws))))
    calls = []
    for w in widths:
        ns = draw(st.lists(st.integers(0, w), min_size=2, max_size=5, unique=True))
        for n in ns + ns[::-1]:
            calls.append((draw(st.sampled_from([BINOMIAL, ZASLAVSKY])), n, w))
    return calls


class TestKeptRow:
    """Each value is computed afresh: no call order may leak an earlier width's row."""

    @given(call_sequences())
    def test_any_call_order_matches_comb_definition(self, calls):
        for g, n, n_prime in calls:
            assert gamma_value(g, n, n_prime) == comb_value(g, n, n_prime)

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_rejected_size_leaves_an_int_row(self, bad):
        gamma_value(BINOMIAL, 0, 7)  # a different width from the calls below
        with pytest.raises(ValueError, match="dimension out of range"):
            gamma_value(BINOMIAL, 1, bad)
        with pytest.raises(ValueError, match="dimension out of range"):
            gamma_value(BINOMIAL, bad, 2)
        for g in (BINOMIAL, ZASLAVSKY):
            h = gamma_value(g, 2, 2)
            assert h == comb_value(g, 2, 2)
            assert all(type(c) is int for c in h.counts)

    def test_row_grows_only_as_far_as_asked(self):
        gamma_value(BINOMIAL, 1, 3)
        tracemalloc.start()
        try:
            h = gamma_value(BINOMIAL, 2, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.counts[-3:] == (19999 * 10000, 20000, 1)
        # a row filled to n' = 20000 would hold tens of MiB of big ints
        assert peak < 2 * 2**20


class TestValidation:
    @pytest.mark.parametrize("n,n_prime", [(-1, 3), (4, 3), (0, 0), (1, -2)])
    def test_out_of_range(self, n, n_prime):
        with pytest.raises(ValueError, match="dimension out of range"):
            gamma_value(BINOMIAL, n, n_prime)

    def test_width_past_index_range(self):
        for g in (NAIVE, ZASLAVSKY, BINOMIAL):
            for n in (0, 1):
                with pytest.raises(ValueError, match=rf"dimension {10**20} exceeds sys.maxsize"):
                    gamma_value(g, n, 10**20)

    @pytest.mark.parametrize("f,args,k", [
        pytest.param(f, args, k, id=f"{f.__name__}-{k}")
        for f, args, sizes in [
            (check_monotonicity, (NAIVE, 3), (1,)),
            (build_bound_matrix, (NAIVE, 3), (1,)),
            (build_connector, (3, 2), (0, 1)),
            (stirling_weakened, (3, 2), (0, 1)),
            (build_decomposition, (3,), (0,)),
            (power_J, (3, 2), (0, 1)),
            (power_B, (3, 2), (0, 1)),
            (closed_form_norm, (4, 2, 1), (0, 2)),
            (asymptotic_report, (4, 2), (0, 1)),
        ]
        for k in sizes
    ])
    def test_size_that_is_not_an_int(self, f, args, k):
        f(*args)  # valid as given, so each raise below is the bad size's
        # the float and True pass a ">= 1" check; only the type check rejects them
        for bad in (float(args[k]), True, str(args[k])):
            with pytest.raises(ValueError, match="dimension out of range"):
                f(*args[:k], bad, *args[k + 1:])

    @pytest.mark.parametrize("f,args,k", [
        (gamma_value, (BINOMIAL, 1, 2), 1),
        (gamma_value, (BINOMIAL, 1, 2), 2),
        (phi, (BINOMIAL, 2, unit(1)), 1),
        (unit, (1,), 0),
        (dimension_histogram, ([], 2), 1),
        (closed_form_norm, (4, 2, 1), 1),
    ], ids=["gamma_value-n", "gamma_value-n_prime", "phi", "unit",
            "dimension_histogram", "closed_form_norm-i"])
    def test_float_or_bool_size_is_a_value_error(self, f, args, k):
        f(*args)  # valid as given, so each raise below is the bad size's
        for bad in (float(args[k]), True):
            with pytest.raises(ValueError):
                f(*args[:k], bad, *args[k + 1:])

    def test_monotone_in_n(self):
        for g in (NAIVE, ZASLAVSKY, BINOMIAL):
            assert check_monotonicity(g, 8)

    def test_non_monotone_collection(self):
        # the top entry falls as n grows: gamma_{0,n'} is not below gamma_{1,n'}
        shrinking = GammaCollection(
            "shrinking", lambda n, n_prime: Histogram((n_prime + 1 - n,)))
        assert not check_monotonicity(shrinking, 3)

    def test_rule_with_more_counts_than_the_width_allows(self):
        # n' + 3 counts at width n': entries past n' + 1 have no image dimension
        long = GammaCollection("long", lambda n, n_prime: Histogram((1,) * (n_prime + 3)))
        message = r"GammaCollection\('long'\) gives 6 counts at width 3, more than 4"
        with pytest.raises(ValueError, match=message):
            gamma_value(long, 1, 3)
        with pytest.raises(ValueError, match=message):
            phi(long, 3, unit(2))

    @pytest.mark.parametrize("e", [MAX_EXPONENT + 1, 10**12])
    def test_power_of_two_past_the_cap(self, e):
        """Refused before 2^e is built: 2^(10^12) would need 125 GB."""
        message = rf"exponent {e} exceeds {MAX_EXPONENT}: 2\^{e} is too large"
        tracemalloc.start()
        try:
            for call in (lambda: two_to(e), lambda: gamma_value(NAIVE, 1, e),
                         lambda: phi(NAIVE, e, unit(1))):
                with pytest.raises(ValueError, match=message):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_monotonicity_bad_range(self):
        with pytest.raises(ValueError):
            check_monotonicity(NAIVE, 0)


class TestActivationHistogram:
    def test_counts_by_active_units(self):
        sigs = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert activation_histogram(sigs, 2) == Histogram((1, 2, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="signature length mismatch"):
            activation_histogram([(1, 0, 0)], 2)

    @pytest.mark.parametrize("call, args", [
        (activation_histogram, ([(1, 2, 1)], 3)),  # |s| = 4 past the last index
        (activation_histogram, ([(2, 0, 0)], 3)),  # |s| = 2 from one unit
        (activation_histogram, ([(1.0, 0)], 2)),  # |s| = 1.0 is no index
        (dimension_histogram, ([((-1,),)], 1)),  # |s| = -1 wraps to the last index
    ], ids=["activation-past-end", "activation-two", "activation-float", "dimension-negative"])
    def test_bits_other_than_zero_or_one_raise(self, call, args):
        with pytest.raises(ValueError, match="signature bits must be 0 or 1"):
            call(*args)

    def test_triangle_attained_histogram(self):
        # one signature with 0 active units, three with 1, three with 2
        assert activation_histogram(TRIANGLE_SIGNATURES_DOWN, 3) == Histogram((1, 3, 3))


class TestCheckAgainstNetwork:
    def test_triangle_satisfies_all_collections(self):
        net = triangle_network()
        sigs = [s for s in TRIANGLE_SIGNATURES_DOWN]
        for g in (NAIVE, ZASLAVSKY, BINOMIAL):
            assert check_against_network(g, net, sigs)

    def test_deeper_network_rejected(self):
        layer1 = ReluLayer(((1,),), (0,))
        layer2 = ReluLayer(((1,),), (0,))
        net = ReluNetwork(1, (layer1, layer2))
        with pytest.raises(ValueError, match="single layer required"):
            check_against_network(BINOMIAL, net, [(1,), (0,)])

