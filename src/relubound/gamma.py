"""Per-layer worst-case activation histograms, indexed by (input dim, output dim).

A gamma collection maps a pair (n, n') with 0 <= n <= n' to a histogram
that dominates, under the tail-sum order, the activation histogram any
width-n' layer on an n-dimensional input can attain. It must also be
monotone in n. Three built-in collections are provided, ordered from
crudest to sharpest: NAIVE, ZASLAVSKY, BINOMIAL. Any other collection
is a GammaCollection(name, rule). ``check_dims`` and ``check_index_range``
are the size checks that the whole bound half shares.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterable

from .histogram import Histogram, leq

Signature = tuple[int, ...]
MultiSignature = tuple[Signature, ...]


@dataclass(frozen=True)
class GammaCollection:
    """A named rule (n, n') -> Histogram.

    ``rule`` may assume 0 <= n <= n' and n' >= 1: ``phi`` checks n' once
    per call and reads the rule directly; use :func:`gamma_value` for
    validated access. Instances are immutable.
    """

    name: str
    rule: Callable[[int, int], Histogram]

    def __repr__(self) -> str:
        return f"GammaCollection({self.name!r})"


def _naive_rule(n: int, n_prime: int) -> Histogram:
    return Histogram._trimmed((0,) * n_prime + (2 ** n_prime,))


# The last binomial row computed, as one immutable pair (n', C(n', 0..m)).
_row: tuple[int, tuple[int, ...]] = (0, (1,))


def _binomials(n: int, n_prime: int) -> tuple[int, ...]:
    """C(n', 0..n), sliced from the kept row of the last width asked for.

    The module keeps one row, ``_row = (n', C(n', 0..m))``. A call at the
    same width slices it, or extends it from its last entry by the exact
    recurrence C(n', j+1) = C(n', j) (n'-j) / (j+1) when m < n; a call at
    another width starts again from C(n', 0) = 1. The row grows only as far
    as a caller asks, never to n' up front, and the pair is rebound in one
    assignment, so no caller sees one width's row paired with another n'.
    """
    global _row
    width, row = _row
    if width != n_prime:
        row = (1,)
    if len(row) <= n:
        c, ext = row[-1], []
        for j in range(len(row) - 1, n):
            ext.append(c := c * (n_prime - j) // (j + 1))
        row += tuple(ext)
    _row = (n_prime, row)
    return row[:n + 1]


def _zaslavsky_rule(n: int, n_prime: int) -> Histogram:
    return Histogram._trimmed((0,) * n_prime + (sum(_binomials(n, n_prime)),))


def _binomial_rule(n: int, n_prime: int) -> Histogram:
    # C(n', j) sits at index n' - j, so the top n+1 entries are the row reversed.
    return Histogram._trimmed((0,) * (n_prime - n) + _binomials(n, n_prime)[::-1])


NAIVE = GammaCollection("naive", _naive_rule)
ZASLAVSKY = GammaCollection("zaslavsky", _zaslavsky_rule)
BINOMIAL = GammaCollection("binomial", _binomial_rule)

BUILTIN: dict[str, GammaCollection] = {
    g.name: g for g in (NAIVE, ZASLAVSKY, BINOMIAL)
}


def gamma_value(g: GammaCollection, n: int, n_prime: int) -> Histogram:
    """Evaluate the collection at (n, n') with range validation.

    Callers that have n > n' must clamp to min(n, n') themselves; the
    clamping is part of the transition function, not of the collection.
    """
    check_dims(n, n_prime, low=0)
    check_index_range(n_prime)
    if n > n_prime or n_prime == 0:
        raise ValueError("dimension out of range")
    return g.rule(n, n_prime)


def check_index_range(*dims: int) -> None:
    """ValueError naming the first dimension past sys.maxsize, the longest list."""
    if big := [d for d in dims if d > sys.maxsize]:
        raise ValueError(f"dimension {big[0]} exceeds sys.maxsize ({sys.maxsize})")


def check_dims(*dims: int, low: int = 1) -> None:
    """ValueError unless every dimension is an int (a bool is not) of at least ``low``."""
    if any(type(d) is not int or d < low for d in dims):
        raise ValueError("dimension out of range")


def check_monotonicity(g: GammaCollection, n_prime_max: int) -> bool:
    """True iff gamma_{n,n'} <= gamma_{n+1,n'} for all n < n' <= n_prime_max."""
    check_dims(n_prime_max)
    for n_prime in range(1, n_prime_max + 1):
        for n in range(n_prime):
            if not leq(gamma_value(g, n, n_prime), gamma_value(g, n + 1, n_prime)):
                return False
    return True


def activation_histogram(signatures: Iterable[Signature], n_prime: int) -> Histogram:
    """Histogram of active-unit counts |s| over a set of signatures."""
    check_dims(n_prime)
    out = [0] * (n_prime + 1)
    for s in signatures:
        if len(s) != n_prime:
            raise ValueError("signature length mismatch")
        out[active_units(s)] += 1
    return Histogram(tuple(out))


def active_units(s: Signature) -> int:
    """|s|, the number of 1 bits; ValueError unless every bit is an int 0 or 1."""
    if not set(s) <= {0, 1} or type(n := sum(s)) is not int:  # 1.0 == 1, but not a bit
        raise ValueError(f"signature bits must be 0 or 1: {s!r}")
    return n
