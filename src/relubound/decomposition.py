"""Explicit triangular decomposition C = P J P^-1 and closed-form powers.

The binomial bound matrix of width n equals the size-(n+1) template matrix
C, which factors through an explicitly known upper-triangular P and a
near-diagonal J. Powers of J have a closed form (diagonal powers plus one
antidiagonal of derivative-style terms), which gives closed-form matrix
powers and a closed-form l1 norm of any column of B^l. That norm is what
makes the asymptotic comparison of growth bases exact.

Size convention: build_decomposition(N) produces size-N matrices whose
xi values are partial binomial-row sums of N-1, so the width-n bound
matrix corresponds to size N = n+1. power_B and closed_form_norm take the
width n directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bound_matrices import build_bound_matrix, stirling_exponent
from .gamma import BINOMIAL

IntMatrix = tuple[tuple[int, ...], ...]
FracMatrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class JordanLikeDecomposition:
    """Size-n exact factorization C = P J P^-1.

    xi[j-1] holds xi_j = sum_{i<j} C(n-1, i) for j = 1..ceil(n/2); P and
    P_inv are upper triangular; J is diagonal plus one antidiagonal of
    units. C, P and J are integer by construction; P_inv, the only matrix
    with non-integer entries, holds exact rationals.
    """

    n: int
    parity: str  # "even" or "odd"
    xi: tuple[int, ...]
    P: IntMatrix
    J: IntMatrix
    P_inv: FracMatrix
    C: IntMatrix


def _xi_values(size: int) -> tuple[int, ...]:
    # Partial sums of the binomial row of size-1, one per distinct eigenvalue.
    top = (size + 1) // 2
    return tuple(
        sum(math.comb(size - 1, i) for i in range(j)) for j in range(1, top + 1)
    )


def _build_C(size: int, xi: Sequence[int]) -> IntMatrix:
    x = (0,) + tuple(xi)  # 1-indexed with x[0] = 0 so first differences work
    m = size // 2
    rows = []
    for i in range(1, size + 1):
        row = [0] * size
        if i <= m:
            row[i - 1] = x[i]
            for j in range(size + 1 - i, size + 1):
                row[j - 1] = x[i] - x[i - 1]
        else:
            row[i - 1] = x[size + 1 - i]
            for j in range(i + 1, size + 1):
                row[j - 1] = x[size + 1 - i] - x[size - i]
        rows.append(tuple(row))
    return tuple(rows)


def _build_P(size: int, xi: Sequence[int]) -> IntMatrix:
    x = (0,) + tuple(xi)
    m = size // 2
    rows = []
    for i in range(1, size + 1):
        row = [0] * size
        if i <= m:
            row[i - 1] = x[i] - x[i - 1]
        else:
            row[i - 1] = 1
            if i < size:
                row[i] = -1
        rows.append(tuple(row))
    return tuple(rows)


def _build_P_inv(size: int, xi: Sequence[int]) -> FracMatrix:
    x = (0,) + tuple(xi)
    m = size // 2
    rows = []
    for i in range(1, size + 1):
        row = [Fraction(0)] * size
        if i <= m:
            row[i - 1] = Fraction(1, x[i] - x[i - 1])
        else:
            for j in range(i, size + 1):
                row[j - 1] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


def _build_J_power(size: int, xi: Sequence[int], l: int) -> IntMatrix:
    x = (0,) + tuple(xi)
    rows = []
    for i in range(1, size + 1):
        row = [0] * size
        row[i - 1] = x[min(i, size + 1 - i)] ** l
        if i <= size // 2:
            # The antidiagonal unit couples two equal diagonal entries, so
            # the l-th power carries the usual l * lambda^(l-1) term.
            row[size - i] = l * x[i] ** (l - 1)
        rows.append(tuple(row))
    return tuple(rows)


def _matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    """Exact product a b; each row is a sum over the nonzero entries of a's row."""
    out = []
    for a_row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(a_row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(tuple(acc))
    return tuple(out)


def build_decomposition(n: int) -> JordanLikeDecomposition:
    """Size-n template matrices; n >= 1."""
    if n < 1:
        raise ValueError("dimension out of range")
    xi = _xi_values(n)
    return JordanLikeDecomposition(
        n=n,
        parity="even" if n % 2 == 0 else "odd",
        xi=xi,
        P=_build_P(n, xi),
        J=_build_J_power(n, xi, 1),
        P_inv=_build_P_inv(n, xi),
        C=_build_C(n, xi),
    )


def verify_B_equals_C(n: int) -> bool:
    """True iff the width-n binomial bound matrix equals the size-(n+1) C."""
    return build_bound_matrix(BINOMIAL, n).rows == build_decomposition(n + 1).C


def power_J(n: int, l: int) -> IntMatrix:
    """Closed-form l-th power of the size-n J template."""
    if n < 1 or l < 1:
        raise ValueError("dimension out of range")
    return _build_J_power(n, _xi_values(n), l)


def power_B(n: int, l: int) -> IntMatrix:
    """Closed-form l-th power of the width-n binomial bound matrix.

    Computed as P J^l P^-1 at size n+1 in exact rationals; every entry must
    come out integral, anything else means a template transcription error.
    """
    if n < 1 or l < 1:
        raise ValueError("dimension out of range")
    dec = build_decomposition(n + 1)
    prod = _matmul(_matmul(dec.P, _build_J_power(dec.n, dec.xi, l)), dec.P_inv)
    if any(entry.denominator != 1 for row in prod for entry in row):
        raise RuntimeError("decomposition inconsistency")
    return tuple(tuple(int(entry) for entry in row) for row in prod)


def closed_form_norm(n: int, i: int, l: int) -> int:
    """l1 norm of column i+1 of the width-n binomial bound matrix to the l-th power.

    Equals (sum_{j<=i} C(n,j))^l for i at most floor(n/2); above the
    midpoint the dominant term freezes at the midpoint base and each extra
    index contributes an l * base^(l-1)-style correction.
    """
    if n < 1 or l < 1:
        raise ValueError("dimension out of range")
    if i < 0 or i > n:
        raise ValueError("index out of range")
    half = n // 2
    if i <= half:
        return sum(math.comb(n, j) for j in range(i + 1)) ** l
    out = sum(math.comb(n, j) for j in range(half + 1)) ** l
    for s in range(half + 1, i + 1):
        base = sum(math.comb(n, j) for j in range(n - s + 1))
        out += l * base ** (l - 1) * math.comb(n, n - s)
    return out


@dataclass(frozen=True)
class AsymptoticReport:
    """Exact growth bases (per extra layer of width n) plus their log2 rates."""

    n: int
    n0: int
    montufar_base: int
    binomial_base: int
    log2_montufar: float
    log2_binomial: float
    stirling_exponent: float


def asymptotic_report(n: int, n0: int) -> AsymptoticReport:
    """Dominant per-layer growth bases at equal width n and input dimension n0.

    The product bound grows like (sum_{j<=min(n0,n)} C(n,j))^L; the
    binomial-matrix bound grows like (sum_{j<=min(n0,floor(n/2))} C(n,j))^L
    because mass above the midpoint contributes only linear-in-L terms. The
    Stirling exponent is the log2 of the weakened closed form's per-layer
    factor and is approximate by construction.
    """
    if n < 1 or n0 < 1:
        raise ValueError("dimension out of range")
    montufar_base = sum(math.comb(n, j) for j in range(min(n0, n) + 1))
    binomial_base = sum(math.comb(n, j) for j in range(min(n0, n // 2) + 1))
    return AsymptoticReport(
        n=n,
        n0=n0,
        montufar_base=montufar_base,
        binomial_base=binomial_base,
        log2_montufar=math.log2(montufar_base),
        log2_binomial=math.log2(binomial_base),
        stirling_exponent=stirling_exponent(n),
    )
