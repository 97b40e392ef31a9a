"""Histograms of counts by dimension, with the tail-sum dominance order.

A histogram is a finite-support sequence of nonnegative integers indexed
from 0. Entry j counts regions whose affine image has dimension j. The
order ``leq`` compares suffix sums, so "v is no worse than w" survives
being pushed through further layers. All arithmetic is exact: entries are
plain Python ints and may grow arbitrarily large.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, zip_longest
from typing import Iterable


@dataclass(frozen=True)
class Histogram:
    """Dense counts with trailing zeros trimmed, so equality is structural.

    Instances are immutable.
    """

    counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = tuple(self.counts)
        if not {*map(type, c)} <= {int}:  # bool is not a count
            raise ValueError("counts must be integers")
        if c and min(c) < 0:
            raise ValueError("negative count")
        object.__setattr__(self, "counts", _trim(c))

    @classmethod
    def _trimmed(cls, counts: tuple[int, ...]) -> Histogram:
        """Skip the checks: only for sums, products or slices of checked counts."""
        h = object.__new__(cls)
        object.__setattr__(h, "counts", _trim(counts))
        return h

    def entry(self, j: int) -> int:
        return self.counts[j] if 0 <= j < len(self.counts) else 0

    def __bool__(self) -> bool:
        return bool(self.counts)

    def to_list(self) -> list[int]:
        """JSON-friendly dense form [c0, c1, ...]."""
        return list(self.counts)


def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    end = len(c)
    while end and c[end - 1] == 0:
        end -= 1
    return c[:end]


def zero() -> Histogram:
    return Histogram(())


def _check_index(i: int) -> None:
    """An index is an int >= 0; a bool or a float is not one. ``gamma.check_dims``
    is not used here because ``gamma`` imports this module."""
    if type(i) is not int:
        raise ValueError(f"index must be an int, not {type(i).__name__}")
    if i < 0:
        raise ValueError("negative index")


def unit(i: int) -> Histogram:
    """e_i: a single count at index i."""
    _check_index(i)
    return Histogram._trimmed((0,) * i + (1,))


def add(a: Histogram, b: Histogram) -> Histogram:
    pairs = zip_longest(a.counts, b.counts, fillvalue=0)
    return Histogram(tuple(x + y for x, y in pairs))


def scale(k: int, a: Histogram) -> Histogram:
    if type(k) is not int or k < 0:  # bool is not a count
        raise ValueError("negative count")
    return Histogram(tuple(k * x for x in a.counts))


def l1_norm(v: Histogram) -> int:
    return sum(v.counts)


def tail_sum(v: Histogram, J: int) -> int:
    """Sum of entries at indices >= J."""
    _check_index(J)
    return sum(v.counts[J:])


def _tails(v: Histogram) -> list[int]:
    """tail_sum(v, J) for J up to v's last nonzero entry; later ones are 0."""
    return list(accumulate(reversed(v.counts)))[::-1]


def leq(v: Histogram, w: Histogram) -> bool:
    """Dominance order: every tail sum of v is at most the same tail sum of w."""
    return all(a <= b for a, b in zip_longest(_tails(v), _tails(w), fillvalue=0))


def max_of(vs: Iterable[Histogram]) -> Histogram:
    """Smallest histogram dominating every input under ``leq``.

    Its tail sums are the largest input tail sums, index by index; entry J
    is tail J minus tail J+1, nonnegative because tails grow as J shrinks.
    """
    items = list(vs)
    if not items:
        raise ValueError("empty max")
    tails = [max(t) for t in zip_longest(*map(_tails, items), fillvalue=0)] + [0]
    return Histogram(tuple(a - b for a, b in zip(tails, tails[1:])))


def clip(v: Histogram, i_star: int) -> Histogram:
    """Move all mass above index i_star onto i_star.

    Entries below i_star are unchanged, the entry at i_star becomes the tail
    sum from i_star, and everything above is zero. The result is always
    dominated by v and has the same total mass.
    """
    _check_index(i_star)
    return Histogram._trimmed(v.counts[:i_star] + (sum(v.counts[i_star:]),))
