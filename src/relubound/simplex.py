"""Two-phase simplex on a condensed tableau, in exact rational arithmetic.

Solves: maximize c.z subject to A z <= b, z >= 0. All arithmetic is in
fractions.Fraction and every comparison is against literal zero, so the
answer is exact and Bland's rule guarantees termination.

Variables carry labels: 0..n-1 structural, n..n+m-1 slacks and n+m the
auxiliary x0 of phase 1. The condensed ("dictionary") tableau keeps one
row per basic variable and one column per nonbasic variable; row i reads
basis[i] + sum_j row[j] * nonbasic[j] = row[-1], and the objective row
reads value + sum_j obj[j] * nonbasic[j] = obj[-1]. A pivot swaps one
basic and one nonbasic label, so unit columns are never stored.

Phase 1 relaxes every row by one x0 >= 0 (A z - x0 <= b) and minimizes
x0: one pivot of x0 into the most negative row makes the start feasible.
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
    n, m = len(objective), len(rows)
    zero = Fraction(0)
    x0 = n + m
    # Slack n+i is basic in row i; the x0 column (index n) has -1 everywhere.
    table = [[Fraction(a) for a in row] + [Fraction(-1), Fraction(b)]
             for row, b in zip(rows, rhs)]
    basis = list(range(n, n + m))
    nonbasic = list(range(n)) + [x0]

    low = min(range(m), key=lambda i: table[i][-1], default=None)
    if low is not None and table[low][-1] < 0:
        # max -x0; after x0 enters at the most negative rhs, every rhs is >= 0.
        obj = [zero] * n + [Fraction(1), zero]
        _pivot(table, obj, basis, nonbasic, low, n)
        _run(table, obj, basis, nonbasic)
        if obj[-1] < 0:
            return INFEASIBLE, None, None
        if x0 in basis:
            # x0 is basic at 0. Its row has a nonzero entry: in the original
            # equations the slacks leave x0 free, so no row can fix it.
            r = basis.index(x0)
            e = next(j for j, a in enumerate(table[r][:-1]) if a != 0)
            _pivot(table, obj, basis, nonbasic, r, e)
    e = nonbasic.index(x0)
    for row in table:
        del row[e]
    del nonbasic[e]

    # value - c.z = 0, with each basic structural variable substituted.
    obj = [-Fraction(objective[v]) if v < n else zero for v in nonbasic] + [zero]
    for row, v in zip(table, basis):
        if v < n and objective[v] != 0:
            c = Fraction(objective[v])
            obj = [x + c * a for x, a in zip(obj, row)]
    if _run(table, obj, basis, nonbasic) == UNBOUNDED:
        return UNBOUNDED, None, None
    solution = [zero] * n
    for row, v in zip(table, basis):
        if v < n:
            solution[v] = row[-1]
    return OPTIMAL, obj[-1], solution


def _run(table, obj, basis, nonbasic):
    """Bland-rule simplex iterations on a feasible tableau (every rhs >= 0)."""
    while True:
        enter = [j for j, c in enumerate(obj[:-1]) if c < 0]
        if not enter:
            return OPTIMAL
        e = min(enter, key=nonbasic.__getitem__)
        rows = [i for i, row in enumerate(table) if row[e] > 0]
        if not rows:
            return UNBOUNDED
        # Min ratio; ties leave by the smallest basic label.
        r = min(rows, key=lambda i: (table[i][-1] / table[i][e], basis[i]))
        _pivot(table, obj, basis, nonbasic, r, e)


def _pivot(table, obj, basis, nonbasic, r, e):
    """Exchange basis[r] and nonbasic[e]; eliminate column e from the other rows."""
    row = table[r]
    piv = row[e]
    row[e] = Fraction(1)
    row[:] = [x / piv for x in row]
    for other in (*table, obj):
        f = other[e]
        if other is not row and f != 0:
            other[e] = Fraction(0)
            other[:] = [x - f * y for x, y in zip(other, row)]
    basis[r], nonbasic[e] = nonbasic[e], basis[r]
