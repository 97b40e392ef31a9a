"""Dense two-phase simplex with Bland's rule in exact rational arithmetic.

Solves: maximize c.z subject to A z <= b, z >= 0. All arithmetic is in
fractions.Fraction and every comparison is against literal zero, so the
answer is exact and Bland's rule guarantees termination.

Problems here are tiny (tens of rows), so no effort is spent on sparsity
or revised-simplex machinery.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def solve_max(objective: Sequence, rows: Sequence[Sequence], rhs: Sequence):
    """Return (status, value, solution) for max c.z s.t. rows.z <= rhs, z >= 0.

    solution is a list of variable values (length of ``objective``) when
    status is "optimal", else None.
    """
    n = len(objective)
    m = len(rows)
    zero = Fraction(0)
    one = Fraction(1)
    cost = [Fraction(c) for c in objective]
    if m == 0:
        if any(c > 0 for c in cost):
            return UNBOUNDED, None, None
        return OPTIMAL, zero, [zero] * n

    # Columns: n structural, m slacks, artificials as needed, then rhs.
    table: list[list] = []
    basis: list[int] = []
    art_cols: list[int] = []
    for i in range(m):
        row = [Fraction(x) for x in rows[i]] + [zero] * m + [Fraction(rhs[i])]
        row[n + i] = one
        if row[-1] < 0:
            row = [-x for x in row]
        table.append(row)
    ncols = n + m
    for i in range(m):
        if table[i][n + i] == one:
            basis.append(n + i)
        else:
            # The slack got negated away; park an artificial in the basis.
            for r in range(m):
                table[r].insert(ncols, one if r == i else zero)
            basis.append(ncols)
            art_cols.append(ncols)
            ncols += 1

    if art_cols:
        phase1 = [zero] * ncols
        for j in art_cols:
            phase1[j] = -one
        status, value = _run(table, basis, phase1, ncols)
        if status != OPTIMAL or value < 0:
            return INFEASIBLE, None, None
        _evict_artificials(table, basis, set(art_cols), n + m)
        # Every row now has a real basic variable; drop the artificial
        # columns wholesale.
        keep = n + m
        for r in range(len(table)):
            table[r] = table[r][:keep] + [table[r][-1]]
        ncols = keep

    phase2 = cost + [zero] * (ncols - n)
    status, value = _run(table, basis, phase2, ncols)
    if status != OPTIMAL:
        return status, None, None
    solution = [zero] * n
    for r, bj in enumerate(basis):
        if bj < n:
            solution[bj] = table[r][-1]
    return OPTIMAL, value, solution


def _run(table, basis, cost, ncols):
    """Bland-rule simplex iterations on a basic feasible tableau."""
    m = len(table)
    # Objective row in (z_j - c_j | z) form: start from -c and clear the
    # basic columns by adding cost-weighted constraint rows.
    obj = [-c for c in cost] + [Fraction(0)]
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            row = table[r]
            for j in range(ncols + 1):
                obj[j] += cb * row[j]
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, obj[-1]
        leave = -1
        best = None
        for i in range(m):
            a = table[i][enter]
            if a > 0:
                ratio = table[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED, None
        _pivot(table, obj, basis, leave, enter)


def _pivot(table, obj, basis, i, j):
    piv = table[i][j]
    row = [x / piv for x in table[i]]
    table[i] = row
    for r in range(len(table)):
        if r != i:
            f = table[r][j]
            if f != 0:
                table[r] = [x - f * y for x, y in zip(table[r], row)]
    f = obj[j]
    if f != 0:
        for k in range(len(obj)):
            obj[k] -= f * row[k]
    basis[i] = j


def _evict_artificials(table, basis, art, real_cols):
    """Pivot basic artificials (necessarily at value 0) onto real columns.

    A basic artificial's row always has a nonzero entry in a slack column:
    the slack block of the tableau is B^-1 times a diagonal of +-1, and no
    row of an invertible matrix is zero. So no row is ever redundant.
    """
    for i in range(len(table)):
        if basis[i] in art:
            target = next(j for j in range(real_cols) if table[i][j] != 0)
            _pivot(table, [Fraction(0)] * len(table[i]), basis, i, target)
