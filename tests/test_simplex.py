"""The exact LP solver used for region feasibility."""

import itertools
import random
from fractions import Fraction

from relubound.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_max

F = Fraction


def frows(data):
    return [[F(x) for x in row] for row in data]


class TestBasicSolves:
    def test_simple_optimum(self):
        # max x+y st x<=3, y<=1
        status, value, sol = solve_max(
            [F(1), F(1)], frows([[1, 0], [0, 1]]), [F(3), F(1)]
        )
        assert status == OPTIMAL
        assert value == 4
        assert sol == [F(3), F(1)]

    def test_shared_resource(self):
        # max 3x+2y st x+y<=4, x<=2
        status, value, sol = solve_max(
            [F(3), F(2)], frows([[1, 1], [1, 0]]), [F(4), F(2)]
        )
        assert status == OPTIMAL
        assert value == 10
        assert sol == [F(2), F(2)]

    def test_unbounded(self):
        status, value, sol = solve_max([F(1)], frows([[-1]]), [F(0)])
        assert status == UNBOUNDED

    def test_infeasible(self):
        # x <= -1 with x >= 0 implicit
        status, value, sol = solve_max([F(1)], frows([[1]]), [F(-1)])
        assert status == INFEASIBLE

    def test_fractional_data(self):
        # max x/3 st (2/7)x <= 3/5
        status, value, sol = solve_max(
            [F(1, 3)], frows([[F(2, 7)]]), [F(3, 5)]
        )
        assert status == OPTIMAL
        assert value == F(7, 10)
        assert sol == [F(21, 10)]


class TestPhaseOne:
    def test_lower_bound_via_negative_rhs(self):
        # max -x st x >= 2, encoded as -x <= -2
        status, value, sol = solve_max([F(-1)], frows([[-1]]), [F(-2)])
        assert status == OPTIMAL
        assert value == -2
        assert sol == [F(2)]

    def test_equality_pair(self):
        # x >= 3 and x <= 3 pin x
        status, value, sol = solve_max(
            [F(1)], frows([[-1], [1]]), [F(-3), F(3)]
        )
        assert status == OPTIMAL
        assert value == 3
        # x0 ends phase 1 basic at zero here, so this pins its pivot-out.
        assert sol == [F(3)]

    def test_redundant_duplicate_rows(self):
        status, value, sol = solve_max(
            [F(-1)], frows([[-1], [-1]]), [F(-1), F(-1)]
        )
        assert status == OPTIMAL
        assert value == -1

    def test_two_variable_target(self):
        # max -(x+y) st x+y >= 2
        status, value, sol = solve_max(
            [F(-1), F(-1)], frows([[-1, -1]]), [F(-2)]
        )
        assert status == OPTIMAL
        assert value == -2

    def test_contradictory_pair(self):
        # x >= 2 and x <= 1
        status, value, sol = solve_max(
            [F(0)], frows([[-1], [1]]), [F(-2), F(1)]
        )
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


class TestVertexOracle:
    def test_oracle_on_known_optimum(self):
        assert vertex_oracle([F(3), F(2)], frows([[1, 1], [1, 0]]), [F(4), F(2)]) == (
            OPTIMAL,
            10,
        )
        assert vertex_oracle([F(1)], frows([[1]]), [F(-1)]) == (INFEASIBLE, None)

    def test_random_capped_lps(self):
        rng = random.Random(0)
        statuses = set()
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 4)
            obj = [F(rng.randint(-3, 3)) for _ in range(n)]
            rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            rhs = [F(rng.randint(-2, 4)) for _ in range(m)]
            # cap all variables so nothing is unbounded
            for i in range(n):
                cap = [F(0)] * n
                cap[i] = F(1)
                rows.append(cap)
                rhs.append(F(5))
            status, value, sol = solve_max(obj, rows, rhs)
            assert (status, value) == vertex_oracle(obj, rows, rhs)
            if status == OPTIMAL:
                assert all(x >= 0 for x in sol)
                assert all(sum(a * x for a, x in zip(row, sol)) <= b for row, b in zip(rows, rhs))
                assert sum(c * x for c, x in zip(obj, sol)) == value
            statuses.add(status)
        assert statuses == {OPTIMAL, INFEASIBLE}


class TestDegenerate:
    def test_zero_objective(self):
        status, value, sol = solve_max([F(0)], frows([[1]]), [F(1)])
        assert status == OPTIMAL
        assert value == 0

    def test_no_constraints_bounded_objective(self):
        # max 0 with no rows: trivially optimal at the origin
        status, value, sol = solve_max([F(0), F(0)], [], [])
        assert status == OPTIMAL
        assert value == 0

    def test_no_constraints_unbounded_objective(self):
        status, value, sol = solve_max([F(1)], [], [])
        assert status == UNBOUNDED
        assert value is None and sol is None
