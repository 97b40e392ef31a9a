"""Transition functions: push a dimension histogram through one ReLU layer.

phi(g, n', v) sends each count v_n to v_n copies of the clipped collection
value at (min(n, n'), n'). Composing phi over all layers starting from a
single count at the input dimension yields a histogram whose total mass
bounds the number of attainable multi-signatures. Column k is zero above k,
so no vector pushed through a network extends past index min(n0, n1).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat, zip_longest
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .gamma import GammaCollection, MultiSignature, active_units, check_dims, check_index_range, rule_counts
from .histogram import Histogram, _trim, unit


@dataclass(frozen=True)
class Architecture:
    """Input dimension n0 plus the widths (n1, ..., nL) of the layers."""

    n0: int
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(self.widths))
        if any(isinstance(d, bool) or not isinstance(d, int) for d in self.dims()):
            raise ValueError("input dimension and layer widths must be integers")
        if self.n0 < 1:
            raise ValueError("input dimension must be at least 1")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be at least 1")
        check_index_range(*self.dims())

    @property
    def depth(self) -> int:
        return len(self.widths)

    def dims(self) -> tuple[int, ...]:
        """All dimensions (n0, n1, ..., nL) in order."""
        return (self.n0,) + self.widths


def layer_step(column: Callable, n_prime: int, vec: Sequence[int], steps: dict | None = None) -> list[int]:
    """Sum of count x column(min(j, n')) over the nonzero entries j of vec.

    Column k is zero above k, so entry j adds only to the slice 0..min(j, n')
    (or less, for a trimmed column) and the output has length
    min(len(vec), n'+1). With no ``steps``, each column is scaled and added
    whole; the first is copied, not added, and a count of 1 is not multiplied.
    ``phi`` and ``evaluate_bound`` share this step. Given ``steps``, a dict the
    caller keeps for one column function and n', the nonzero entries
    j_1 < ... < j_m are summed by parts, as S_t = count_t + ... + count_m times
    the rows where c_{j_t} differs from c_{j_{t-1}}; c_j is column min(j, n')
    cut at j, c_{j_0} = 0, and each such row list is kept under (j_{t-1}, j_t).
    Neighbouring columns differ in a few rows, so an entry costs a few products.
    """
    out = [0] * min(len(vec), n_prime + 1)
    support = compress(enumerate(vec), vec)
    if steps is None:
        for i, (j, count) in enumerate(support):
            c = column(min(j, n_prime))[:j + 1]
            scaled = c if count == 1 else map(mul, c, repeat(count))
            out[:len(c)] = map(add, out, scaled) if i else scaled
        return out
    total, prev = sum(vec), -1
    for j, count in support:
        if (step := steps.get(key := (prev, j))) is None:
            a = column(min(prev, n_prime))[:prev + 1] if prev >= 0 else ()
            rows = enumerate(zip_longest(a, column(min(j, n_prime))[:j + 1], fillvalue=0))
            step = steps[key] = [(r, y - x) for r, (x, y) in rows if x != y]
        for r, d in step:
            out[r] += total * d
        total -= count
        prev = j
    return out


def bound_column(g: GammaCollection, n_prime: int, k: int) -> tuple[int, ...]:
    """Column k <= n' of B_{n'}: the value at (k, n') clipped at k, sliced from the
    rule's counts in O(k) (i > n' - k inactive units land at index n' - i, the rest
    fold onto k) and trimmed, so zero past index k."""
    counts = rule_counts(g, k, n_prime)
    above = counts[n_prime - k + 1:][::-1]
    return _trim((0,) * (k - len(above)) + above + (sum(counts[:n_prime - k + 1]),))


def phi(g: GammaCollection, n_prime: int, v: Histogram) -> Histogram:
    """Apply the width-n' transition for collection g to histogram v: n' is checked
    once, then ``layer_step`` reads the columns k <= n' from ``bound_column``."""
    if type(n_prime) is not int or not 1 <= n_prime <= sys.maxsize:
        check_dims(n_prime)
        check_index_range(n_prime)
    return Histogram._trimmed(tuple(layer_step(partial(bound_column, g, n_prime), n_prime, v.counts)))


def compose_bound_histogram(g: GammaCollection, arch: Architecture) -> Histogram:
    """Fold phi over all layers starting from a unit count at index n0.

    The l1 norm of the result is the histogram-path bound on the number of
    attainable multi-signatures. The first layer clamps n0 to n1, so the
    unit count starts at index min(n0, n1).
    """
    v = unit(min(arch.n0, arch.widths[0]))
    for width in arch.widths:
        v = phi(g, width, v)
    return v


def dimension_histogram(multisigs: Iterable[MultiSignature], n0: int) -> Histogram:
    """Histogram of min(n0, |s_1|, ..., |s_l|) over a set of multi-signatures.

    The minimum is the dimension cap on the affine image of the region the
    multi-signature labels.
    """
    if type(n0) is not int:
        raise ValueError("input dimension must be an integer")
    if n0 < 1:
        raise ValueError("input dimension must be at least 1")
    out = [0] * (n0 + 1)
    for ms in multisigs:
        d = min([n0] + [active_units(s) for s in ms])
        out[d] += 1
    return Histogram(tuple(out))
