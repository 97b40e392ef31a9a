"""Factoring bound matrices: templates, powers, closed-form norms, rates."""

import math
from fractions import Fraction

import pytest

from relubound import (
    BINOMIAL,
    asymptotic_report,
    build_bound_matrix,
    build_decomposition,
    closed_form_norm,
    power_B,
    power_J,
    verify_B_equals_C,
)
from relubound.decomposition import _matmul

F = Fraction

# size-5 templates, i.e. the factorization of the width-4 bound matrix
P5 = (
    (F(1), F(0), F(0), F(0), F(0)),
    (F(0), F(4), F(0), F(0), F(0)),
    (F(0), F(0), F(1), F(-1), F(0)),
    (F(0), F(0), F(0), F(1), F(-1)),
    (F(0), F(0), F(0), F(0), F(1)),
)
P5_INV = (
    (F(1), F(0), F(0), F(0), F(0)),
    (F(0), F(1, 4), F(0), F(0), F(0)),
    (F(0), F(0), F(1), F(1), F(1)),
    (F(0), F(0), F(0), F(1), F(1)),
    (F(0), F(0), F(0), F(0), F(1)),
)


def j5_power(l: int):
    return (
        (F(1), F(0), F(0), F(0), F(l)),
        (F(0), F(5 ** l), F(0), F(l * 5 ** (l - 1)), F(0)),
        (F(0), F(0), F(11 ** l), F(0), F(0)),
        (F(0), F(0), F(0), F(5 ** l), F(0)),
        (F(0), F(0), F(0), F(0), F(1)),
    )


class TestTemplates:
    def test_xi_values(self):
        assert build_decomposition(5).xi == (1, 5, 11)
        assert build_decomposition(4).xi == (1, 4)
        assert build_decomposition(1).xi == (1,)

    def test_width4_factors(self):
        dec = build_decomposition(5)
        assert dec.P == P5
        assert dec.P_inv == P5_INV
        assert dec.J == j5_power(1)

    def test_parity_label(self):
        assert build_decomposition(5).parity == "odd"
        assert build_decomposition(6).parity == "even"

    def test_bad_size(self):
        with pytest.raises(ValueError, match="dimension out of range"):
            build_decomposition(0)


class TestIdentities:
    @pytest.mark.parametrize("size", range(1, 11))
    def test_p_times_p_inv(self, size):
        dec = build_decomposition(size)
        prod = _matmul(dec.P, dec.P_inv)
        for i in range(size):
            for j in range(size):
                assert prod[i][j] == (1 if i == j else 0)

    @pytest.mark.parametrize("size", range(1, 11))
    def test_pjp_inv_is_c(self, size):
        dec = build_decomposition(size)
        assert _matmul(_matmul(dec.P, dec.J), dec.P_inv) == dec.C

    @pytest.mark.parametrize("n", range(1, 11))
    def test_c_matches_bound_matrix(self, n):
        assert verify_B_equals_C(n)
        dec = build_decomposition(n + 1)
        rows = build_bound_matrix(BINOMIAL, n).rows
        for i in range(n + 1):
            for j in range(n + 1):
                assert dec.C[i][j] == rows[i][j]

    @pytest.mark.parametrize("n", [0, -1])
    def test_c_check_rejects_bad_width(self, n):
        with pytest.raises(ValueError, match="dimension out of range"):
            verify_B_equals_C(n)


class TestPowers:
    def test_j_power_template(self):
        for l in (1, 2, 3, 7):
            assert power_J(5, l) == j5_power(l)

    def test_power_b_matches_repeated_multiplication(self):
        for n in range(1, 7):
            base = tuple(
                tuple(F(x) for x in row) for row in build_bound_matrix(BINOMIAL, n).rows
            )
            acc = base
            for l in range(1, 9):
                direct = power_B(n, l)
                assert all(
                    F(direct[i][j]) == acc[i][j]
                    for i in range(n + 1)
                    for j in range(n + 1)
                )
                acc = _matmul(acc, base)

    def test_power_entries_are_ints(self):
        out = power_B(4, 3)
        assert all(isinstance(x, int) for row in out for x in row)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            power_B(0, 1)
        with pytest.raises(ValueError):
            power_J(3, 0)


class TestClosedFormNorm:
    def test_matches_power_column_sums(self):
        for n in range(1, 7):
            for l in (1, 2, 3, 5):
                mat = power_B(n, l)
                for i in range(n + 1):
                    col_sum = sum(mat[r][i] for r in range(n + 1))
                    assert closed_form_norm(n, i, l) == col_sum

    def test_width4_table(self):
        # per-depth values for input dims 1..4 at width 4
        for L in range(1, 7):
            assert closed_form_norm(4, 1, L) == 5 ** L
            assert closed_form_norm(4, 2, L) == 11 ** L
            assert closed_form_norm(4, 3, L) == 11 ** L + 4 * L * 5 ** (L - 1)
            assert closed_form_norm(4, 4, L) == 11 ** L + 4 * L * 5 ** (L - 1) + L

    def test_bad_index(self):
        with pytest.raises(ValueError, match="index out of range"):
            closed_form_norm(4, 5, 1)


class TestAsymptoticReport:
    def test_bases(self):
        rep = asymptotic_report(5, 5)
        assert rep.montufar_base == 32
        assert rep.binomial_base == 16
        rep = asymptotic_report(4, 2)
        assert rep.montufar_base == rep.binomial_base == 11

    def test_odd_width_full_input_halves(self):
        for n in (1, 3, 5, 7, 9):
            assert asymptotic_report(n, n).binomial_base == 2 ** (n - 1)

    def test_log_rates(self):
        rep = asymptotic_report(4, 4)
        assert rep.log2_montufar == pytest.approx(math.log2(16))
        assert rep.log2_binomial == pytest.approx(math.log2(11))
        assert rep.stirling_exponent == pytest.approx(
            4 - 0.5 + math.log2(1 + 1 / math.sqrt(4 * math.pi)) / 2
        )

    def test_bad_args(self):
        with pytest.raises(ValueError):
            asymptotic_report(0, 1)
