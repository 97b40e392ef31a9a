"""Explicit triangular decomposition C = P J P^-1 and closed-form powers.

The binomial bound matrix of width n equals the size-(n+1) template matrix
C, which factors through an explicitly known upper-triangular P and a
near-diagonal J. All four templates, P, J^l, P^-1 and C, come from one walk
over the rows, and the rule that assigns each row its eigenvalue is stated
on JordanLikeDecomposition. Powers of J have a closed form (diagonal powers
plus one antidiagonal of derivative-style terms), which gives closed-form
matrix powers and a closed-form l1 norm of any column of B^l. That norm is
what makes the asymptotic comparison of growth bases exact.

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

from .bound_matrices import binomial_sums, build_bound_matrix, stirling_exponent
from .gamma import BINOMIAL, check_dims, check_index_range

IntMatrix = tuple[tuple[int, ...], ...]
FracMatrix = tuple[tuple[int | Fraction, ...], ...]


@dataclass(frozen=True)
class JordanLikeDecomposition:
    """Size-n exact factorization C = P J P^-1.

    xi[k-1] holds x_k = sum_{i<k} C(n-1, i) for k = 1..ceil(n/2); x_0 = 0.
    Row i (0-indexed) belongs to the eigenvalue x_k with k = min(i+1, n-i),
    which C and J hold on the diagonal; its step is x_k - x_{k-1}. A row
    with i < n // 2 is one half of a pair coupled by J's antidiagonal unit:
    P scales it by the step, P_inv by 1/step, and C holds the step from
    column n-1-i on. Every later row has 1 on P's diagonal and -1 to its
    right, ones in P_inv from the diagonal on, and the step right of C's
    diagonal. C, P and J are integer; P_inv's 1/step entries are Fractions.
    """

    n: int
    parity: str  # "even" or "odd"
    xi: tuple[int, ...]
    P: IntMatrix
    J: IntMatrix
    P_inv: FracMatrix
    C: IntMatrix


def _templates(size: int, l: int) -> tuple[IntMatrix, IntMatrix, FracMatrix, IntMatrix]:
    """P, J^l, P^-1 and C of the given size, built in one walk over the rows."""
    check_index_range(size)
    x = [0, *binomial_sums(size - 1, (size - 1) // 2)]  # x[0] = 0 gives x_1 its step too
    rows = []
    for i in range(size):
        k = min(i + 1, size - i)
        step = x[k] - x[k - 1]
        p, j, q, c = ([0] * size for _ in range(4))
        j[i], c[i] = x[k] ** l, x[k]
        if i < size // 2:
            # Rows i and size-1-i share x_k, so the l-th power of their
            # antidiagonal unit carries the usual l * x_k^(l-1) term.
            j[size - 1 - i] = l * x[k] ** (l - 1)
            p[i], q[i] = step, Fraction(1, step)
            c[size - 1 - i:] = [step] * (i + 1)
        else:
            p[i] = 1
            if i + 1 < size:
                p[i + 1] = -1
            q[i:] = [1] * (size - i)
            c[i + 1:] = [step] * (size - 1 - i)
        rows.append((p, j, q, c))
    return tuple(tuple(tuple(row) for row in m) for m in zip(*rows))


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
    check_dims(n)
    P, J, P_inv, C = _templates(n, 1)
    return JordanLikeDecomposition(
        n=n,
        parity="even" if n % 2 == 0 else "odd",
        xi=tuple(C[i][i] for i in range((n + 1) // 2)),  # x_{i+1} on row i < ceil(n/2)
        P=P,
        J=J,
        P_inv=P_inv,
        C=C,
    )


def verify_B_equals_C(n: int) -> bool:
    """True iff the width-n binomial bound matrix equals the size-(n+1) C."""
    return build_bound_matrix(BINOMIAL, n).rows == build_decomposition(n + 1).C


def power_J(n: int, l: int) -> IntMatrix:
    """Closed-form l-th power of the size-n J template."""
    check_dims(n, l)
    return _templates(n, l)[1]


def power_B(n: int, l: int) -> IntMatrix:
    """Closed-form l-th power of the width-n binomial bound matrix.

    Computed as P J^l P^-1 at size n+1 in exact rationals; every entry must
    come out integral, anything else means a template transcription error.
    """
    check_dims(n, l)
    P, J, P_inv, _ = _templates(n + 1, l)
    prod = _matmul(_matmul(P, J), P_inv)
    if any(entry.denominator != 1 for row in prod for entry in row):
        raise RuntimeError("decomposition inconsistency")
    return tuple(tuple(int(entry) for entry in row) for row in prod)


def closed_form_norm(n: int, i: int, l: int) -> int:
    """l1 norm of column i+1 of the width-n binomial bound matrix to the l-th power.

    With S_m = sum_{j<=m} C(n, j) and h = floor(n/2), this is S_i^l for
    i <= h and S_h^l + sum_{s=h+1..i} l S_{n-s}^(l-1) C(n, n-s) above the
    midpoint: the dominant term freezes at the midpoint base and each extra
    index adds a correction linear in l.
    """
    check_dims(n, l)
    check_dims(i, low=0)
    if i > n:
        raise ValueError("index out of range")
    half = n // 2
    sums = binomial_sums(n, min(i, half))
    out = sums[-1] ** l
    for s in range(half + 1, i + 1):
        out += l * sums[n - s] ** (l - 1) * math.comb(n, n - s)
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
    check_dims(n, n0)
    sums = binomial_sums(n, min(n0, n))
    montufar_base, binomial_base = sums[-1], sums[min(n0, n // 2)]
    return AsymptoticReport(
        n=n,
        n0=n0,
        montufar_base=montufar_base,
        binomial_base=binomial_base,
        log2_montufar=math.log2(montufar_base),
        log2_binomial=math.log2(binomial_base),
        stirling_exponent=stirling_exponent(n),
    )
