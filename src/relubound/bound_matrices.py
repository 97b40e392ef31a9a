"""Bound matrices, connector matrices, and the closed-form reference bounds.

The matrix path evaluates the same layer-by-layer bound as the histogram
path: columns of a bound matrix are clipped collection values, connector
matrices M fold indices above a width onto it, and the bound is the l1
norm of one column of the product B_{nL} M ... B_{n1} M. The closed-form
bounds from the literature (naive product, per-layer binomial-sum
product, the recursive double sum, a Stirling weakening, and a
constructive lower bound) are implemented next to it for comparison.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, pairwise, zip_longest
from typing import Iterator

from .gamma import GammaCollection
from .histogram import unit
from .transition import Architecture, layer_step, phi

Row = tuple[int, ...]


@dataclass(frozen=True)
class BoundMatrix:
    """(n'+1) x (n'+1) upper-triangular matrix of exact nonnegative ints.

    Column j (0-indexed) holds the clipped collection value for input
    dimension j; the diagonal entries are the eigenvalues.
    """

    n_prime: int
    rows: tuple[Row, ...]


@dataclass(frozen=True)
class ConnectorMatrix:
    """(n'+1) x (n+1) 0/1 matrix folding indices above n' down onto n'."""

    n: int
    n_prime: int
    rows: tuple[Row, ...]


def build_bound_matrix(g: GammaCollection, n_prime: int) -> BoundMatrix:
    if n_prime < 1:
        raise ValueError("dimension out of range")
    cols = [phi(g, n_prime, unit(j)).counts for j in range(n_prime + 1)]
    # column j has at most j+1 entries, so zip_longest pads the rest to the last
    cols[-1] += (0,) * (n_prime + 1 - len(cols[-1]))
    return BoundMatrix(n_prime, tuple(zip_longest(*cols, fillvalue=0)))


def build_connector(n: int, n_prime: int) -> ConnectorMatrix:
    if n < 0 or n_prime < 0:
        raise ValueError("dimension out of range")
    rows = tuple(
        tuple(1 if i == min(j, n_prime) else 0 for j in range(n + 1))
        for i in range(n_prime + 1)
    )
    return ConnectorMatrix(n, n_prime, rows)


def bound_vectors(g: GammaCollection, arch: Architecture) -> Iterator[list[int]]:
    """B_{nl} M ... B_{n1} M e_{n0+1} for l = 1..L: the depth-l bound is its l1 norm.

    B_{n'} M e_j is column min(j, n') of B_{n'}, so each layer is one
    ``layer_step`` over B_{n'}'s columns; no connector or product is formed.
    The first layer clamps n0 to n1, so the start is e_{min(n0, n1)+1}, and
    column k is zero above k, so each vector is yielded as that support prefix.
    """
    vec = [0] * min(arch.n0, arch.widths[0]) + [1]
    cache: dict[int, list[Row]] = {}
    for width in arch.widths:
        if width not in cache:
            cache[width] = list(zip(*build_bound_matrix(g, width).rows))
        vec = layer_step(cache[width].__getitem__, width, vec)
        yield vec


def evaluate_bound(g: GammaCollection, arch: Architecture) -> int:
    """l1 norm of B_{nL} M ... B_{n1} M applied to the basis vector e_{n0+1}."""
    for vec in bound_vectors(g, arch):
        pass
    return sum(vec)


def naive_bound(arch: Architecture) -> int:
    """2 to the total number of units: every unit on or off independently."""
    return 2 ** sum(arch.widths)


def binomial_sums(n: int, m: int) -> list[int]:
    """[sum_{j<=i} C(n, j) for i = 0..m], the partial row sums every closed form reads.

    By ``math.comb``, apart from gamma's recurrence, so the closed forms stay its oracles.
    """
    return list(accumulate(math.comb(n, j) for j in range(m + 1)))


def montufar_bound(arch: Architecture) -> int:
    """Product over layers of sum_{j<=min(n0..n_{l-1})} C(n_l, j).

    Terms with j > n_l are zero, so each sum stops at min(n0..n_l); each
    distinct (n_l, min(n0..n_l)) factor is summed once, then powered.
    """
    layers = Counter(zip(arch.widths, list(accumulate(arch.dims(), min))[1:]))
    return math.prod(binomial_sums(w, m)[-1] ** k for (w, m), k in layers.items())


def serra_sum(arch: Architecture) -> int:
    """Recursive double-sum bound over per-layer activation counts.

    Sums the product of C(n_l, j_l) over tuples (j_1..j_L) with j_l <=
    min(n0, n_1 - j_1, ..., n_{l-1} - j_{l-1}, n_l). Folds layer by layer
    over a map from running minimum to the summed products of the prefixes
    reaching it, so the work is linear in the depth.
    """
    sums = {arch.n0: 1}
    for w in arch.widths:
        folded: dict[int, int] = {}
        for run_min, total in sums.items():
            for j in range(min(run_min, w) + 1):
                key = min(run_min, w - j)
                folded[key] = folded.get(key, 0) + total * math.comb(w, j)
        sums = folded
    return sum(sums.values())


def _past_float_range(what: str) -> ValueError:
    return ValueError(f"{what} exceeds the largest float, {sys.float_info.max}")


def stirling_exponent(n: int) -> float:
    """log2 of the Stirling-weakened form's per-layer factor at width n."""
    try:
        return n - 0.5 + math.log2(1.0 + 1.0 / math.sqrt(math.pi * n)) / 2.0
    except OverflowError:
        raise _past_float_range("width") from None


def stirling_weakened(n: int, L: int) -> float:
    """Stirling-weakened closed form 2^(Ln) (1/2 + 1/(2 sqrt(pi n)))^(L/2) sqrt(2).

    That is 2^(L e + 1/2) with e = stirling_exponent(n): the only float in
    the package, approximate by construction and flagged wherever printed.
    """
    if n < 1 or L < 1:
        raise ValueError("dimension out of range")
    try:
        return 2.0 ** (L * stirling_exponent(n) + 0.5)
    except OverflowError:
        raise _past_float_range("Stirling form") from None


def montufar_lower_bound(arch: Architecture) -> int:
    """Constructive lower bound: prod_{l<L} floor(n_l/n0)^n0 times sum_{j<=n0} C(n_L, j)."""
    widths = arch.widths
    factors = Counter(w // arch.n0 for w in widths[:-1])  # each distinct factor powered once
    prod = math.prod(f ** (arch.n0 * k) for f, k in factors.items())
    return prod * binomial_sums(widths[-1], min(arch.n0, widths[-1]))[-1]


def width_increases_somewhere(arch: Architecture) -> bool:
    """True iff some layer is wider than its input (n_{l-1} < n_l).

    Exactly when this holds, the per-layer product bound beats the naive
    bound strictly.
    """
    return any(a < b for a, b in pairwise(arch.dims()))


def narrow_layer_somewhere(arch: Architecture) -> bool:
    """True iff n_l < min(n0..n_l) + min(n0..n_{l+1}) for some 0 < l < L.

    Exactly when this holds, the matrix-path bound with the binomial
    collection beats the per-layer product bound strictly.
    """
    dims = arch.dims()
    mins = list(accumulate(dims, min))
    return any(d < a + b for d, a, b in zip(dims[1:-1], mins[1:], mins[2:]))

