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
    """A named rule (n, n') -> Histogram by number of inactive units.

    Entry j counts the regions with j units off, of image dimension n' - j, up
    to j = n' (``rule_counts`` checks); a built-in's stop at j = n. ``rule`` may
    assume 0 <= n <= n' and n' >= 1; ``gamma_value`` indexes by image dimension.
    """

    name: str
    rule: Callable[[int, int], Histogram]

    def __repr__(self) -> str:
        return f"GammaCollection({self.name!r})"


MAX_EXPONENT = 2 ** 32  # 2^e has e + 1 bits; past this, two_to refuses to build it


def two_to(e: int) -> int:
    """2 ** e; ValueError naming e, before anything is allocated, past MAX_EXPONENT."""
    if e > MAX_EXPONENT:
        raise ValueError(f"exponent {e} exceeds {MAX_EXPONENT}: 2^{e} is too large to compute")
    return 2 ** e


def _binomials(n: int, n_prime: int) -> tuple[int, ...]:
    """C(n', 0..n) by the exact recurrence C(n', j+1) = C(n', j) (n'-j) / (j+1)."""
    c, row = 1, [1]
    for j in range(n):
        row.append(c := c * (n_prime - j) // (j + 1))
    return tuple(row)


def _naive_rule(n: int, n_prime: int) -> Histogram:
    return Histogram._trimmed((two_to(n_prime),))


def _zaslavsky_rule(n: int, n_prime: int) -> Histogram:
    return Histogram._trimmed((sum(_binomials(n, n_prime)),))


def _binomial_rule(n: int, n_prime: int) -> Histogram:
    return Histogram._trimmed(_binomials(n, n_prime))  # C(n', j) regions with j units off


NAIVE = GammaCollection("naive", _naive_rule)
ZASLAVSKY = GammaCollection("zaslavsky", _zaslavsky_rule)
BINOMIAL = GammaCollection("binomial", _binomial_rule)

BUILTIN: dict[str, GammaCollection] = {
    g.name: g for g in (NAIVE, ZASLAVSKY, BINOMIAL)
}


def rule_counts(g: GammaCollection, n: int, n_prime: int) -> tuple[int, ...]:
    """g's counts at (n, n') by inactive units; ValueError if there are more than n' + 1."""
    counts = g.rule(n, n_prime).counts
    if len(counts) > n_prime + 1:
        raise ValueError(f"{g!r} gives {len(counts)} counts at width {n_prime}, more than {n_prime + 1}")
    return counts


def gamma_value(g: GammaCollection, n: int, n_prime: int) -> Histogram:
    """The validated value at (n, n') by image dimension: the rule's counts reversed
    and padded to n' + 1 entries, the one O(n') place. Callers that have n > n'
    clamp to min(n, n') themselves, as part of the transition, not the collection.
    """
    check_dims(n, n_prime, low=0)
    check_index_range(n_prime)
    if n > n_prime or n_prime == 0:
        raise ValueError("dimension out of range")
    counts = rule_counts(g, n, n_prime)
    return Histogram._trimmed((0,) * (n_prime + 1 - len(counts)) + counts[::-1])


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
