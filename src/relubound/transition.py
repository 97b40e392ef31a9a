"""Transition functions: push a dimension histogram through one ReLU layer.

phi(g, n', v) sends each count v_n to v_n copies of the clipped collection
value at (min(n, n'), n'). Composing phi over all layers starting from a
single count at the input dimension yields a histogram whose total mass
bounds the number of attainable multi-signatures. Column k is zero above k,
so no vector pushed through a network extends past index min(n0, n1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .gamma import GammaCollection, MultiSignature, check_index_range, gamma_value
from .histogram import Histogram, unit


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


def layer_step(column: Callable, n_prime: int, vec: Sequence[int]) -> list[int]:
    """Sum of count x column(min(j, n')) over the nonzero entries j of vec.

    Column k is zero above k, so entry j adds only to the slice 0..min(j, n')
    (or less, for a trimmed column) and the output has length
    min(len(vec), n'+1). The first column is copied, not added, and a count
    of 1 is not multiplied. ``phi`` and ``evaluate_bound`` share this step.
    """
    out = [0] * min(len(vec), n_prime + 1)
    for i, (j, count) in enumerate(compress(enumerate(vec), vec)):
        c = column(min(j, n_prime))[:j + 1]
        scaled = c if count == 1 else map(mul, c, repeat(count))
        out[:len(c)] = map(add, out, scaled) if i else scaled
    return out


def phi(g: GammaCollection, n_prime: int, v: Histogram) -> Histogram:
    """Apply the width-n' transition for collection g to histogram v.

    Column k is the collection value at (k, n') clipped at k, so zero above k.
    """
    if n_prime < 1:
        raise ValueError("dimension out of range")

    def column(k: int) -> tuple[int, ...]:
        counts = gamma_value(g, k, n_prime).counts
        return counts[:k] + (sum(counts[k:]),)

    return Histogram._trimmed(tuple(layer_step(column, n_prime, v.counts)))


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
    if n0 < 1:
        raise ValueError("input dimension must be at least 1")
    out = [0] * (n0 + 1)
    for ms in multisigs:
        d = min([n0] + [sum(s) for s in ms])
        out[d] += 1
    return Histogram(tuple(out))
