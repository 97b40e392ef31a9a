"""Per-layer worst-case activation histograms, indexed by (input dim, output dim).

A gamma collection maps a pair (n, n') with 0 <= n <= n' to a histogram
that dominates, under the tail-sum order, the activation histogram any
width-n' layer on an n-dimensional input can attain. It must also be
monotone in n. Three built-in collections are provided, ordered from
crudest to sharpest: NAIVE, ZASLAVSKY, BINOMIAL. Any other collection
is a GammaCollection(name, rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Callable, Iterable

from .histogram import Histogram, leq

if TYPE_CHECKING:
    from .empirical import ReluNetwork

Signature = tuple[int, ...]
MultiSignature = tuple[Signature, ...]


@dataclass(frozen=True)
class GammaCollection:
    """A named rule (n, n') -> Histogram.

    ``rule`` may assume 0 <= n <= n' and n' >= 1; use :func:`gamma_value`
    for validated access. Instances are immutable and thread-safe.
    """

    name: str
    rule: Callable[[int, int], Histogram]

    def __repr__(self) -> str:
        return f"GammaCollection({self.name!r})"


def _naive_rule(n: int, n_prime: int) -> Histogram:
    return Histogram((0,) * n_prime + (2 ** n_prime,))


def _zaslavsky_rule(n: int, n_prime: int) -> Histogram:
    total = sum(comb(n_prime, j) for j in range(n + 1))
    return Histogram((0,) * n_prime + (total,))


def _binomial_rule(n: int, n_prime: int) -> Histogram:
    out = [0] * (n_prime + 1)
    for j in range(n + 1):
        out[n_prime - j] = comb(n_prime, j)
    return Histogram(tuple(out))


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
    if n_prime < 1 or n < 0 or n > n_prime:
        raise ValueError("dimension out of range")
    return g.rule(n, n_prime)


def check_monotonicity(g: GammaCollection, n_prime_max: int) -> bool:
    """True iff gamma_{n,n'} <= gamma_{n+1,n'} for all n < n' <= n_prime_max."""
    if n_prime_max < 1:
        raise ValueError("dimension out of range")
    for n_prime in range(1, n_prime_max + 1):
        for n in range(n_prime):
            if not leq(gamma_value(g, n, n_prime), gamma_value(g, n + 1, n_prime)):
                return False
    return True


def activation_histogram(signatures: Iterable[Signature], n_prime: int) -> Histogram:
    """Histogram of active-unit counts |s| over a set of signatures."""
    out = [0] * (n_prime + 1)
    for s in signatures:
        if len(s) != n_prime:
            raise ValueError("signature length mismatch")
        out[sum(s)] += 1
    return Histogram(tuple(out))


def check_against_network(
    g: GammaCollection, net: "ReluNetwork", signatures: Iterable[Signature]
) -> bool:
    """Check the bound condition against one concrete single-layer network.

    ``signatures`` is the attained signature set of ``net`` (a single
    layer). True iff the activation histogram is dominated by the
    collection's value at (min(n, n'), n'). This tests necessity only; no
    finite set of networks can establish the condition for all of them.
    """
    if len(net.layers) != 1:
        raise ValueError("single layer required")
    n, n_prime = net.n0, net.layers[0].out_dim
    observed = activation_histogram(signatures, n_prime)
    return leq(observed, gamma_value(g, min(n, n_prime), n_prime))

