"""Histograms of counts by dimension, with the tail-sum dominance order.

A histogram is a finite-support sequence of nonnegative integers indexed
from 0. Entry j counts regions whose affine image has dimension j. The
order ``leq`` compares suffix sums, so "v is no worse than w" survives
being pushed through further layers. All arithmetic is exact: entries are
plain Python ints and may grow arbitrarily large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Histogram:
    """Dense counts with trailing zeros trimmed, so equality is structural.

    Instances are immutable and safe to share between threads.
    """

    counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = tuple(self.counts)
        if not all(type(x) is int for x in c):  # bool is not a count
            raise ValueError("counts must be integers")
        if c and min(c) < 0:
            raise ValueError("negative count")
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "counts", c[:end])

    def entry(self, j: int) -> int:
        return self.counts[j] if 0 <= j < len(self.counts) else 0

    def __add__(self, other: "Histogram") -> "Histogram":
        return add(self, other)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def to_list(self) -> list[int]:
        """JSON-friendly dense form [c0, c1, ...]."""
        return list(self.counts)

    def render(self) -> str:
        """Text form like ``3·e1 + 4·e2``; the zero histogram renders as ``0``."""
        terms = [f"{c}·e{j}" for j, c in enumerate(self.counts) if c]
        return " + ".join(terms) if terms else "0"

    def __str__(self) -> str:
        return self.render()


def zero() -> Histogram:
    return Histogram(())


def unit(i: int) -> Histogram:
    """e_i: a single count at index i."""
    if i < 0:
        raise ValueError("negative index")
    return Histogram((0,) * i + (1,))


def add(a: Histogram, b: Histogram) -> Histogram:
    n = max(len(a.counts), len(b.counts))
    return Histogram(tuple(a.entry(j) + b.entry(j) for j in range(n)))


def scale(k: int, a: Histogram) -> Histogram:
    if k < 0:
        raise ValueError("negative count")
    return Histogram(tuple(k * x for x in a.counts))


def l1_norm(v: Histogram) -> int:
    return sum(v.counts)


def tail_sum(v: Histogram, J: int) -> int:
    """Sum of entries at indices >= J."""
    if J < 0:
        raise ValueError("negative index")
    return sum(v.counts[J:])


def leq(v: Histogram, w: Histogram) -> bool:
    """Dominance order: every tail sum of v is at most the same tail sum of w."""
    n = max(len(v.counts), len(w.counts))
    tv = tw = 0
    # Walk tails from the top; beyond n both tails are zero.
    for J in range(n - 1, -1, -1):
        tv += v.entry(J)
        tw += w.entry(J)
        if tv > tw:
            return False
    return True


def max_of(vs: Iterable[Histogram]) -> Histogram:
    """Smallest histogram dominating every input under ``leq``.

    Entry J of the result is max_i tail(v_i, J) minus max_i tail(v_i, J+1),
    which is nonnegative because tails grow as J shrinks.
    """
    items = list(vs)
    if not items:
        raise ValueError("empty max")
    n = max((len(v.counts) for v in items), default=0)
    tails = [0] * len(items)
    out = [0] * n
    prev_max = 0
    for J in range(n - 1, -1, -1):
        for i, v in enumerate(items):
            tails[i] += v.entry(J)
        cur_max = max(tails)
        out[J] = cur_max - prev_max
        prev_max = cur_max
    return Histogram(tuple(out))


def clip(v: Histogram, i_star: int) -> Histogram:
    """Move all mass above index i_star onto i_star.

    Entries below i_star are unchanged, the entry at i_star becomes the tail
    sum from i_star, and everything above is zero. The result is always
    dominated by v and has the same total mass.
    """
    if i_star < 0:
        raise ValueError("negative index")
    return Histogram(v.counts[:i_star] + (tail_sum(v, i_star),))
