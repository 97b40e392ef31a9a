"""The exact LP solver used for region feasibility.

Every LP here starts from ``capped`` (the variables' upper bounds) and
gets its rows through ``solve_max``, the warm-started dual simplex.
"""

import itertools
import random
from fractions import Fraction

import pytest

from relubound import simplex
from relubound.simplex import INFEASIBLE, OPTIMAL, capped, solve_max

F = Fraction
CAP = F(100)


def frows(data):
    return [[F(x) for x in row] for row in data]


def solve(objective, rows, rhs, cap=CAP):
    """max c.z s.t. rows.z <= rhs, 0 <= z <= cap, rows appended to the capped start."""
    tab = capped(objective, [cap] * len(objective))
    return solve_max(tab, [list(row) + [b] for row, b in zip(rows, rhs)])


@pytest.fixture
def pivots(monkeypatch):
    """A list that gains one entry per simplex pivot."""
    calls = []
    pivot = simplex._pivot

    def counting(*args):
        calls.append(args[1:])
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counting)
    return calls


class TestBasicSolves:
    def test_simple_optimum(self):
        # max x+y st x<=3, y<=1
        status, value, sol = solve([F(1), F(1)], frows([[1, 0], [0, 1]]), [F(3), F(1)])
        assert status == OPTIMAL
        assert value == 4
        assert sol == [F(3), F(1)]

    def test_shared_resource(self):
        # max 3x+2y st x+y<=4, x<=2
        status, value, sol = solve([F(3), F(2)], frows([[1, 1], [1, 0]]), [F(4), F(2)])
        assert status == OPTIMAL
        assert value == 10
        assert sol == [F(2), F(2)]

    def test_unbounded(self):
        # max x st -x <= 0 is unbounded on its own; the start's cap bounds it.
        status, value, sol = solve([F(1)], frows([[-1]]), [F(0)])
        assert (status, value, sol) == (OPTIMAL, CAP, [CAP])

    def test_infeasible(self):
        # x <= -1 with x >= 0 implicit
        status, value, sol = solve([F(1)], frows([[1]]), [F(-1)])
        assert (status, value, sol) == (INFEASIBLE, None, None)

    def test_fractional_data(self):
        # max x/3 st (2/7)x <= 3/5
        status, value, sol = solve([F(1, 3)], frows([[F(2, 7)]]), [F(3, 5)])
        assert status == OPTIMAL
        assert value == F(7, 10)
        assert sol == [F(21, 10)]


class TestPhaseOne:
    """LPs whose origin is infeasible: a cold solver needs phase 1 for
    them, the warm start reaches them by dual simplex pivots."""

    def test_lower_bound_via_negative_rhs(self):
        # max -x st x >= 2, encoded as -x <= -2
        status, value, sol = solve([F(-1)], frows([[-1]]), [F(-2)])
        assert status == OPTIMAL
        assert value == -2
        assert sol == [F(2)]

    def test_equality_pair(self):
        # x >= 3 and x <= 3 pin x
        status, value, sol = solve([F(1)], frows([[-1], [1]]), [F(-3), F(3)])
        assert status == OPTIMAL
        assert value == 3
        assert sol == [F(3)]

    def test_redundant_duplicate_rows(self):
        status, value, sol = solve([F(-1)], frows([[-1], [-1]]), [F(-1), F(-1)])
        assert status == OPTIMAL
        assert value == -1

    def test_two_variable_target(self):
        # max -(x+y) st x+y >= 2
        status, value, sol = solve([F(-1), F(-1)], frows([[-1, -1]]), [F(-2)])
        assert status == OPTIMAL
        assert value == -2

    def test_contradictory_pair(self):
        # x >= 2 and x <= 1
        status, value, sol = solve([F(0)], frows([[-1], [1]]), [F(-2), F(1)])
        assert status == INFEASIBLE


def vertex_oracle(objective, rows, rhs):
    """Brute-force reference for max c.z s.t. rows.z <= rhs, z >= 0.

    Solves every n-subset of the constraints (the z >= 0 bounds included)
    as equalities, keeps the feasible vertices and returns the best
    objective as (status, value). Only valid for bounded problems.
    """
    n = len(objective)
    cons = [(list(row), b) for row, b in zip(rows, rhs)]
    for i in range(n):
        bound = [F(0)] * n
        bound[i] = F(-1)
        cons.append((bound, F(0)))
    best = None
    for subset in itertools.combinations(cons, n):
        z = solve_square([row for row, _ in subset], [b for _, b in subset])
        if z is None:
            continue
        if all(sum(a * x for a, x in zip(row, z)) <= b for row, b in cons):
            value = sum(c * x for c, x in zip(objective, z))
            if best is None or value > best:
                best = value
    return (INFEASIBLE, None) if best is None else (OPTIMAL, best)


def solve_square(a, b):
    """Unique solution of a z = b by Gauss-Jordan elimination, None if singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


class AppendChecker:
    """One capped LP that gains rows one call at a time, each result checked
    against the vertex oracle over the caps and every row so far."""

    def __init__(self, objective, cap):
        self.objective = objective
        n = len(objective)
        self.rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        self.rhs = [cap] * n
        self.tab = capped(objective, self.rhs)
        assert self.tab.d > 0

    def append(self, row, b):
        self.rows.append(list(row))
        self.rhs.append(b)
        status, value, sol = solve_max(self.tab, [list(row) + [b]])
        assert self.tab.d > 0
        assert (status, value) == vertex_oracle(self.objective, self.rows, self.rhs)
        if status == OPTIMAL:
            assert all(x >= 0 for x in sol)
            for a, bound in zip(self.rows, self.rhs):
                assert sum(c * x for c, x in zip(a, sol)) <= bound
            assert sum(c * x for c, x in zip(self.objective, sol)) == value
        return status, value, sol


class TestVertexOracle:
    def test_oracle_on_known_optimum(self):
        assert vertex_oracle([F(3), F(2)], frows([[1, 1], [1, 0]]), [F(4), F(2)]) == (
            OPTIMAL,
            10,
        )
        assert vertex_oracle([F(1)], frows([[1]]), [F(-1)]) == (INFEASIBLE, None)

    def test_random_capped_lps(self, pivots):
        rng = random.Random(0)
        statuses = set()
        costs = set()
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 5)
            lp = AppendChecker([F(rng.randint(-3, 3)) for _ in range(n)], F(5))
            for _ in range(m):
                row = [F(rng.randint(-3, 3)) for _ in range(n)]
                before = len(pivots)
                status, _, _ = lp.append(row, F(rng.randint(-2, 4)))
                statuses.add(status)
                costs.add(min(len(pivots) - before, 2))
                if status == INFEASIBLE:
                    break
        assert statuses == {OPTIMAL, INFEASIBLE}
        # Appends that kept the optimum, took one dual pivot and took more.
        assert costs == {0, 1, 2}

    def test_random_rational_lps(self):
        """Objectives, caps and rows with denominators 1-7, so every row the
        tableau takes in is scaled to integers first."""
        rng = random.Random(1)

        def rational(lo, hi):
            den = rng.randint(1, 7)
            return F(rng.randint(lo * den, hi * den), den)

        statuses = set()
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 5)
            lp = AppendChecker([rational(-3, 3) for _ in range(n)], rational(0, 5))
            for _ in range(m):
                status, _, _ = lp.append([rational(-3, 3) for _ in range(n)], rational(-2, 4))
                statuses.add(status)
                if status == INFEASIBLE:
                    break
        assert statuses == {OPTIMAL, INFEASIBLE}


class TestAppendedRows:
    def test_duplicate_row_costs_no_pivot(self, pivots):
        lp = AppendChecker([F(1), F(1)], F(5))
        assert lp.append([F(1), F(1)], F(3))[:2] == (OPTIMAL, 3)
        before = len(pivots)
        assert lp.append([F(1), F(1)], F(3))[:2] == (OPTIMAL, 3)
        assert len(pivots) == before

    def test_parallel_rows(self, pivots):
        lp = AppendChecker([F(1), F(2)], F(5))
        assert lp.append([F(1), F(1)], F(4))[:2] == (OPTIMAL, 8)
        # Tighter parallel row: the optimum moves.
        assert lp.append([F(2), F(2)], F(6))[:2] == (OPTIMAL, 6)
        before = len(pivots)
        # Looser parallel row: it holds at the optimum.
        assert lp.append([F(3), F(3)], F(12))[:2] == (OPTIMAL, 6)
        assert len(pivots) == before

    def test_opposite_rows_pin_a_face(self):
        lp = AppendChecker([F(1), F(-1)], F(5))
        assert lp.append([F(1), F(-1)], F(2))[:2] == (OPTIMAL, 2)
        assert lp.append([F(-1), F(1)], F(-2))[:2] == (OPTIMAL, 2)
        assert lp.append([F(0), F(-1)], F(-1))[:2] == (OPTIMAL, 2)
        assert lp.append([F(-1), F(1)], F(-3))[0] == INFEASIBLE

    def test_all_zero_rows(self, pivots):
        lp = AppendChecker([F(1), F(1)], F(5))
        assert lp.append([F(0), F(0)], F(0))[:2] == (OPTIMAL, 10)
        assert lp.append([F(0), F(0)], F(1))[:2] == (OPTIMAL, 10)
        assert pivots == [(0, 0), (1, 1)]  # only the start's own pivots
        assert lp.append([F(0), F(0)], F(-1))[0] == INFEASIBLE

    def test_rows_at_once_equal_rows_one_by_one(self):
        rows = frows([[1, 2], [-1, 1], [2, -1]])
        rhs = [F(6), F(-1), F(3)]
        one_by_one = capped([F(1), F(1)], [F(5), F(5)])
        for row, b in zip(rows, rhs):
            result = solve_max(one_by_one, [row + [b]])
        assert solve([F(1), F(1)], rows, rhs, cap=F(5)) == result


class TestDegenerate:
    def test_zero_objective(self):
        status, value, sol = solve([F(0)], frows([[1]]), [F(1)])
        assert status == OPTIMAL
        assert value == 0

    def test_no_constraints_bounded_objective(self):
        # max 0 with no rows: trivially optimal at the origin
        status, value, sol = solve([F(0), F(0)], [], [])
        assert (status, value, sol) == (OPTIMAL, 0, [0, 0])

    def test_no_constraints_unbounded_objective(self, pivots):
        # max x - y with no rows: the start puts x at its cap in one pivot.
        tab = capped([F(1), F(-1)], [F(5), F(7)])
        assert len(pivots) == 1
        assert solve_max(tab, []) == (OPTIMAL, 5, [5, 0])
        assert len(pivots) == 1


class TestRowChecks:
    @pytest.mark.parametrize("row", [[1, 2], [1, 2, 3, 4], [True, 1, 1], [1.5, 1, 1],
                                     [F(1, 2), 1, 1.0], ["1", 1, 1]],
                             ids=["short", "long", "bool", "float", "fraction-and-float", "str"])
    def test_bad_row_raises_before_any_row_enters(self, row):
        tab = capped([F(1), F(1)], [F(5), F(5)])
        before = (tab.table[:], tab.basis[:], tab.obj, tab.d)
        with pytest.raises(ValueError):
            solve_max(tab, [[1, 1, 6], row])
        assert (tab.table, tab.basis, tab.obj, tab.d) == before
        assert solve_max(tab, [[1, 1, 6]])[:2] == (OPTIMAL, 6)

    def test_rows_enter_coprime(self):
        assert simplex._coprime([4, -6, 0, 8]) == ([2, -3, 0, 4], 2, 1)
        assert simplex._coprime([F(2, 3), F(-4, 9), 0]) == ([3, -2, 0], 2, 9)
        assert simplex._coprime([0, 0]) == ([0, 0], 1, 1)
        # A row and a positive multiple of it leave the same tableau.
        tabs = [capped([F(1), F(2)], [F(5), F(5)]) for _ in range(3)]
        for tab, row in zip(tabs, ([1, 1, 4], [3, 3, 12], [F(1, 2), F(1, 2), 2])):
            solve_max(tab, [row])
        assert tabs[0].table == tabs[1].table == tabs[2].table


class TestCapChecks:
    @pytest.mark.parametrize("caps", [[1.5, F(2)], [F(2)], [F(2), F(2), F(2)], [True, F(2)],
                                      [F(-1), F(2)], [-1, F(2)], ["2", F(2)]],
                             ids=["float", "short", "long", "bool", "negative", "negative-int",
                                  "str"])
    def test_bad_caps_raise(self, caps):
        with pytest.raises(ValueError, match="need n = 2 caps"):
            capped([F(1), F(1)], caps)

    def test_int_and_zero_caps(self):
        tab = capped([F(1), F(1)], [3, F(0)])
        assert solve_max(tab, [])[:2] == (OPTIMAL, 3)


class TestAnswerReuse:
    """A tableau keeps its vertex's (value, point): its copies share it and
    a pivot clears it, so each answer is the one the tableau reads now."""

    @staticmethod
    def fresh(tab):
        g, m = tab.scale
        return F(tab.obj[-1] * g, tab.d * m), tab.point()

    def test_random_copy_append_pivot_sequences(self, pivots):
        rng = random.Random(3)
        kept = moved = 0
        for _ in range(150):
            n = rng.randint(1, 3)
            pool = [capped([F(rng.randint(-3, 3)) for _ in range(n)],
                           [F(rng.randint(0, 6)) for _ in range(n)])]
            for _ in range(rng.randint(1, 15)):
                tab = rng.choice(pool)
                op = rng.choice(("copy", "append", "cut", "read"))
                if op == "copy":
                    pool.append(tab.copy())
                    assert pool[-1].answer is tab.answer
                    continue
                a = [rng.randint(-3, 3) for _ in range(n)]
                if op == "append":
                    rows = [a + [rng.randint(-2, 6)]]
                elif op == "cut":  # a row the current vertex violates: a pivot or INFEASIBLE
                    z = tab.point()
                    rows = [a + [sum(x * v for x, v in zip(a, z)) - F(1, rng.randint(1, 3))]]
                else:
                    rows = []
                answered, before = tab.answer is not None, len(pivots)
                status, value, sol = solve_max(tab, rows)
                if status == INFEASIBLE:
                    pool.remove(tab)
                    if not pool:
                        break
                    continue
                assert (value, sol) == self.fresh(tab)
                kept += answered and len(pivots) == before
                moved += answered and len(pivots) > before
                sol[0] += 1
                sol.append(F(-1))
                assert solve_max(tab, []) == (OPTIMAL, *self.fresh(tab))
        # Answers reused with no pivot, and answers a pivot replaced.
        assert kept > 50 and moved > 50


class TestVertexSide:
    def test_positive_agrees_with_the_point(self):
        """``Tableau.positive(a, c)``, one int sum, reads a.z + c > 0 as the
        ``Fraction`` point does, on seeded optimal tableaux of seeded rows and
        for rows through the vertex, where a.z + c = 0 and the answer is False."""
        rng = random.Random(5)
        verdicts = []
        for _ in range(200):
            n = rng.randint(1, 4)
            tab = capped([F(rng.randint(-3, 3)) for _ in range(n)],
                         [F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)])
            rows = [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(rng.randint(0, 4))]
            if solve_max(tab, rows)[0] != OPTIMAL:
                continue
            z = tab.point()
            for _ in range(5):
                a = [rng.randint(-5, 5) for _ in range(rng.randint(1, n))]
                at = sum(x * v for x, v in zip(a, z))
                a = [x * at.denominator for x in a]
                c = -at.numerator + rng.choice((-1, 0, 0, 1, rng.randint(-50, 50)))
                expected = sum(x * v for x, v in zip(a, z)) + c > 0
                assert tab.positive(a, c) is expected
                verdicts.append((expected, sum(x * v for x, v in zip(a, z)) + c == 0))
        assert {(True, False), (False, False), (False, True)} <= set(verdicts)
