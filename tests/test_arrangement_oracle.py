"""One layer in general position against Zaslavsky's count.

n1 >= n0 affine hyperplanes in R^n0 in general position (every n0 normals
independent, no n0 + 1 hyperplanes through one point) cut it into
sum_{j<=n0} C(n1, j) regions (Zaslavsky 1975). Each region then has a
vertex, so a box holding every vertex in its interior meets all of them.
General position and the vertices come from the test's own exact
determinants; it shares no code with relubound's enumerator, whose count
it checks.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from relubound import ReluLayer, ReluNetwork, enumerate_regions

F = Fraction


def det(m):
    """Laplace expansion along the first row; exact for Fractions and ints."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def vertices(weights, biases):
    """The vertices of the arrangement w.x + b = 0, by Cramer's rule, or None
    unless it is in general position."""
    n0 = len(weights[0])
    rows = [list(w) + [b] for w, b in zip(weights, biases)]
    if any(det([rows[i] for i in s]) == 0 for s in combinations(range(len(rows)), n0 + 1)):
        return None  # n0 + 1 hyperplanes share a point
    out = []
    for s in combinations(range(len(rows)), n0):
        a = [list(weights[i]) for i in s]
        d = det(a)
        if d == 0:
            return None
        out.append([det([r[:j] + [-biases[i]] + r[j + 1:] for r, i in zip(a, s)]) / d
                    for j in range(n0)])
    return out


def test_general_position_layer_meets_zaslavsky():
    rng = random.Random(1975)
    checked = 0
    for draw in range(80):
        n0 = rng.randint(1, 3)
        n1 = rng.randint(n0, 5)
        # Every fourth draw has small integer weights, which often are not
        # in general position; those draws are skipped.
        if draw % 4 == 3:
            value = lambda: F(rng.randint(-1, 1))
        else:
            value = lambda: F(rng.randint(-1000, 1000), 1000)
        weights = [[value() for _ in range(n0)] for _ in range(n1)]
        biases = [value() for _ in range(n1)]
        points = vertices(weights, biases)
        if points is None:
            continue
        radius = 1 + max(abs(x) for p in points for x in p)
        net = ReluNetwork(n0, (ReluLayer(weights, biases),))
        expected = sum(math.comb(n1, j) for j in range(n0 + 1))
        assert enumerate_regions(net, radius).count == expected, (weights, biases)
        checked += 1
    assert checked >= 50
