"""Warm-started simplex on a fraction-free condensed tableau.

Maximizes c.z subject to A z <= b, z >= 0. The tableau holds Python ints
over one common denominator ``d > 0``, the basis determinant's absolute
value (Edmonds 1967; Bareiss 1968), so a pivot divides exactly and no
entry needs a gcd. Every sign test compares an int with zero, so the
answer is exact and Bland's rule guarantees termination. Only the answer,
the value and the point, is made of ``Fraction``s, once per vertex: a
tableau keeps it, its copies share it, and a pivot clears it.

Variables carry labels: 0..n-1 structural, then one slack per row in the
order the rows arrive. The condensed ("dictionary") tableau keeps one row
per basic variable and one column per nonbasic variable; row i reads
d * basis[i] + sum_j row[j] * nonbasic[j] = row[-1], and the objective
row reads d * value * m / g + sum_j obj[j] * nonbasic[j] = obj[-1], with
``scale`` = (g, m). Each row and the objective enter scaled to coprime ints
by a positive factor, which only rescales that row's slack (or the value,
by g / m), so the sign tests, dual ratios, Bland's path and solution are
those of the rational rows.

``capped`` solves the start, max c.z under caps z <= u, without phase 1;
``solve_max`` appends rows to an optimal, hence dual feasible, tableau
(every obj[j] >= 0), and dual simplex pivots restore every rhs to >= 0 or
prove the rows infeasible. A row that holds at the optimum costs no pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class Tableau:
    """An optimal condensed tableau over ``n`` structural variables; ``answer``
    is its vertex's (value, point), or None until ``solve_max`` makes it."""

    __slots__ = ("n", "table", "obj", "basis", "nonbasic", "d", "scale", "answer")

    def __init__(self, n, table, obj, basis, nonbasic, d, scale, answer=None):
        self.n, self.table, self.obj = n, table, obj
        self.basis, self.nonbasic = basis, nonbasic
        self.d, self.scale, self.answer = d, scale, answer

    def copy(self) -> Tableau:
        # _pivot builds new rows and never edits one, so copies share rows
        # until a pivot replaces them (every row, unless |p| = d and f = 0).
        # An appended row moves no vertex, so copies share the answer too.
        return Tableau(self.n, self.table[:], self.obj, self.basis[:],
                       self.nonbasic[:], self.d, self.scale, self.answer)

    def point(self, shift: int | Fraction = 0) -> list[Fraction]:
        """The structural variables' values at the current basic solution,
        each less ``shift``: one ``Fraction`` per value, made from ints."""
        p, q = shift.as_integer_ratio()
        z = [Fraction(-p, q)] * self.n
        for v, row in zip(self.basis, self.table):
            if v < self.n:
                z[v] = Fraction(row[-1] * q - p * self.d, self.d * q)
        return z

    def positive(self, a: Sequence[int], c: int) -> bool:
        """Whether a.z + c > 0 at the current basic solution, for ints a over the
        first len(a) structural variables and c: the sign of d (a.z + c), one int
        sum over the basic structural rows, where d z_v = row[-1]."""
        return sum(a[v] * r[-1] for v, r in zip(self.basis, self.table) if v < len(a)) + c * self.d > 0


def _coprime(values: Sequence) -> tuple[list[int], int, int]:
    """Coprime ints k and ints g, m > 0 with values = k * g / m, for rationals
    given as ints or Fractions (all zero: k = values, g = 1), else ValueError."""
    types = set(map(type, values))
    if types == {int}:  # every row the enumerator makes
        g = gcd(*values) or 1
        return [x // g for x in values], g, 1
    if not types <= {int, Fraction}:
        raise ValueError(f"an entry is a {(types - {int, Fraction}).pop().__name__}, "
                         "not an int or a Fraction")
    m = lcm(*(x.denominator for x in values))
    k, g, _ = _coprime([x.numerator * (m // x.denominator) for x in values])
    return k, g, m


def capped(objective: Sequence, caps: Sequence) -> Tableau:
    """Optimal tableau of max c.z s.t. z <= caps, z >= 0 (every cap >= 0):
    each z_j with c_j > 0 enters at its own cap row j in one primal pivot.
    Raises ValueError, before anything is built, unless there is one cap per
    objective entry and each is an int or a Fraction (a bool is not one)."""
    n = len(objective)
    if len(caps) != n or not all(type(u) in (int, Fraction) and u >= 0 for u in caps):
        raise ValueError(f"need n = {n} caps, each an int or a Fraction >= 0")
    # Cap row i, z_i <= p/q, enters as q z_i <= p.
    table = [[cap.denominator * (i == j) for j in range(n)] + [cap.numerator]
             for i, cap in enumerate(caps)]
    obj, g, m = _coprime([-c for c in objective] + [0])
    tab = Tableau(n, table, obj, list(range(n, 2 * n)), list(range(n)), 1, (g, m))
    for j, c in enumerate(objective):
        if c > 0:
            _pivot(tab, j, j)
    return tab


def solve_max(tab: Tableau, rows: Sequence[Sequence]):
    """Append rows (a_0, ..., a_{n-1}, b), each a.z <= b, to the optimal
    tableau ``tab`` and re-optimize it in place. Returns (status, value,
    solution), with value and solution None unless status is "optimal".
    Raises ValueError, before any row enters, unless every row is n + 1
    ints or Fractions.
    """
    n, table, basis, nonbasic = tab.n, tab.table, tab.basis, tab.nonbasic
    if any(len(a) != n + 1 for a in rows):
        raise ValueError(f"a row needs n + 1 = {n + 1} entries")
    for a in [_coprime(a)[0] for a in rows]:
        d = tab.d
        new = [a[v] * d if v < n else 0 for v in nonbasic]
        new.append(a[-1] * d)
        # Substitute each basic structural variable by its row.
        for v, row in zip(basis, table):
            if v < n and a[v]:
                new = [x - a[v] * y for x, y in zip(new, row)]
        basis.append(len(basis) + len(nonbasic))
        table.append(new)
    while True:
        low = [i for i, row in enumerate(table) if row[-1] < 0]
        if not low:
            if tab.answer is None:
                g, m = tab.scale
                tab.answer = Fraction(tab.obj[-1] * g, tab.d * m), tuple(tab.point())
            return OPTIMAL, tab.answer[0], list(tab.answer[1])
        r = min(low, key=basis.__getitem__)
        row, obj = table[r], tab.obj
        # Dual ratio test: least obj[j] / -row[j] over row[j] < 0 (d cancels),
        # cross-multiplied; ties enter by the smallest nonbasic label.
        e = None
        for j, a in enumerate(row[:-1]):
            if a < 0 and (e is None or
                          (obj[j] * row[e], nonbasic[e]) > (obj[e] * a, nonbasic[j])):
                e = j
        if e is None:
            return INFEASIBLE, None, None
        _pivot(tab, r, e)


def _pivot(tab: Tableau, r: int, e: int) -> None:
    """Exchange basis[r] and nonbasic[e]; eliminate column e from the other rows.

    With s the sign of table[r][e], y = s * table[r] and p = y[e] = |pivot|:
    row r becomes y with entry e = s * d; every other row x with entry f in
    column e becomes (x * p - f * y) // d, exactly, with entry e = -s * f;
    then d = p, so d stays positive.
    """
    d, row = tab.d, tab.table[r]
    sign = 1 if row[e] > 0 else -1
    row = [sign * x for x in row]
    p = row[e]

    def eliminate(other):
        f = other[e]
        if not f:
            return other if p == d else [x * p // d for x in other]
        new = [(x * p - f * y) // d for x, y in zip(other, row)]
        new[e] = -sign * f
        return new

    tab.table[:] = [row if i == r else eliminate(other) for i, other in enumerate(tab.table)]
    tab.obj = eliminate(tab.obj)
    row[e] = sign * d
    tab.d = p
    tab.basis[r], tab.nonbasic[e] = tab.nonbasic[e], tab.basis[r]
    tab.answer = None
