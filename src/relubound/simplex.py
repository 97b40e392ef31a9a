"""Warm-started simplex on a condensed tableau, in exact rational arithmetic.

Maximizes c.z subject to A z <= b, z >= 0. All arithmetic is in
fractions.Fraction and every comparison is against literal zero, so the
answer is exact and Bland's rule guarantees termination.

Variables carry labels: 0..n-1 structural, then one slack per row in the
order the rows arrive. The condensed ("dictionary") tableau keeps one row
per basic variable and one column per nonbasic variable; row i reads
basis[i] + sum_j row[j] * nonbasic[j] = row[-1], and the objective row
reads value + sum_j obj[j] * nonbasic[j] = obj[-1]. A pivot swaps one
basic and one nonbasic label, so unit columns are never stored.

``capped`` solves the start, max c.z under caps z <= u, without phase 1;
``solve_max`` appends rows to an optimal, hence dual feasible, tableau
(every obj[j] >= 0), and dual simplex pivots restore every rhs to >= 0 or
prove the rows infeasible. A row that holds at the optimum costs no pivot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class Tableau:
    """An optimal condensed tableau over ``n`` structural variables."""

    __slots__ = ("n", "table", "obj", "basis", "nonbasic")

    def __init__(self, n, table, obj, basis, nonbasic):
        self.n, self.table, self.obj = n, table, obj
        self.basis, self.nonbasic = basis, nonbasic

    def copy(self) -> Tableau:
        # _pivot replaces rows and never edits one, so copies share them.
        return Tableau(self.n, self.table[:], self.obj, self.basis[:], self.nonbasic[:])

    def point(self) -> list[Fraction]:
        """The structural variables' values at the current basic solution."""
        z = [Fraction(0)] * self.n
        for v, row in zip(self.basis, self.table):
            if v < self.n:
                z[v] = row[-1]
        return z


def capped(objective: Sequence, caps: Sequence) -> Tableau:
    """Optimal tableau of max c.z s.t. z <= caps, z >= 0 (every cap >= 0):
    each z_j with c_j > 0 enters at its own cap row j in one primal pivot."""
    n = len(objective)
    table = [[Fraction(int(i == j)) for j in range(n)] + [Fraction(cap)]
             for i, cap in enumerate(caps)]
    obj = [-Fraction(c) for c in objective] + [Fraction(0)]
    tab = Tableau(n, table, obj, list(range(n, 2 * n)), list(range(n)))
    for j, c in enumerate(objective):
        if c > 0:
            _pivot(tab, j, j)
    return tab


def solve_max(tab: Tableau, rows: Sequence[Sequence]):
    """Append rows (a_0, ..., a_{n-1}, b), each a.z <= b, to the optimal
    tableau ``tab`` and re-optimize it in place. Returns (status, value,
    solution), with value and solution None unless status is "optimal".
    """
    n, table, basis = tab.n, tab.table, tab.basis
    for a in rows:
        new = [Fraction(a[v]) if v < n else Fraction(0) for v in tab.nonbasic]
        new.append(Fraction(a[-1]))
        # Substitute each basic structural variable by its row.
        for v, row in zip(basis, table):
            if v < n and a[v]:
                new = [x - a[v] * y for x, y in zip(new, row)]
        basis.append(len(basis) + len(tab.nonbasic))
        table.append(new)
    while True:
        low = [i for i, row in enumerate(table) if row[-1] < 0]
        if not low:
            return OPTIMAL, tab.obj[-1], tab.point()
        r = min(low, key=basis.__getitem__)
        row = table[r]
        cols = [j for j, a in enumerate(row[:-1]) if a < 0]
        if not cols:
            return INFEASIBLE, None, None
        # Dual ratio test; ties enter by the smallest nonbasic label.
        e = min(cols, key=lambda j: (tab.obj[j] / -row[j], tab.nonbasic[j]))
        _pivot(tab, r, e)


def _pivot(tab: Tableau, r: int, e: int) -> None:
    """Exchange basis[r] and nonbasic[e]; eliminate column e from the other rows.

    Rows are replaced, never edited, so tableau copies may share them.
    """
    piv = tab.table[r][e]
    row = [x / piv for x in tab.table[r]]
    row[e] = 1 / piv

    def eliminate(other):
        f = other[e]
        if not f:
            return other
        new = [x - f * y for x, y in zip(other, row)]
        new[e] = -f * row[e]
        return new

    tab.table[:] = [row if i == r else eliminate(other) for i, other in enumerate(tab.table)]
    tab.obj = eliminate(tab.obj)
    tab.basis[r], tab.nonbasic[e] = tab.nonbasic[e], tab.basis[r]
