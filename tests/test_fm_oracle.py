"""Every region of a network over all of R^n0, by Fourier-Motzkin elimination.

The oracle composes each unit's pre-activation on the signature so far as an
affine row over (x, 1), keeps f > 0 for an active unit and -f >= 0 for an
inactive one, and prunes a prefix once elimination finds it infeasible. It
uses no box and no LP, so it shares no code with the enumerator it checks.
"""

import random
from fractions import Fraction
from math import gcd, lcm

from relubound import ReluLayer, ReluNetwork, enumerate_regions


def primitive(row):
    """The coprime integer row on the ray of a rational one."""
    ints = [int(a * lcm(*(b.denominator for b in row))) for a in row]
    return tuple(a // (gcd(*ints) or 1) for a in ints)


def feasible(rows):
    """Some x has r.(x, 1) > 0 for each (r, True) and >= 0 for each (r, False).

    Eliminating x_k sums each row with x_k > 0 and each with x_k < 0; the sum
    is strict if either part is (Schrijver 1986, section 12.2).
    """
    while True:
        if any(not any(r[:-1]) and (r[-1] < 0 or strict and r[-1] == 0) for r, strict in rows):
            return False
        if not (rows := [(r, strict) for r, strict in rows if any(r[:-1])]):
            return True
        k = next(i for i, a in enumerate(rows[0][0]) if a)
        combined = {}
        for r, strict in [(r, s) for r, s in rows if r[k] == 0] + [
            (primitive([-n[k] * a + p[k] * b for a, b in zip(p, n)]), sp or sn)
            for p, sp in rows if p[k] > 0 for n, sn in rows if n[k] < 0
        ]:
            combined[r] = combined.get(r, False) or strict
        rows = list(combined.items())


def oracle_regions(net):
    """Every multisignature whose region in R^n0 is nonempty."""
    n0, found = net.n0, set()

    def walk(prefix, inputs, rows):
        if len(prefix) == len(net.layers):
            return found.add(prefix)
        layer = net.layers[len(prefix)]
        pre = [tuple(sum(w * h[k] for w, h in zip(ws, inputs)) + b * (k == n0) for k in range(n0 + 1))
               for ws, b in zip(layer.weights, layer.biases)]
        partial = [((), rows)]
        for f in pre:
            sides = ((1, (primitive(f), True)), (0, (primitive([-a for a in f]), False)))
            partial = [(bits + (bit,), rows + [side]) for bits, rows in partial
                       for bit, side in sides if feasible(rows + [side])]
        for bits, rows in partial:
            walk(prefix + (bits,), [f if bit else (0,) * (n0 + 1) for f, bit in zip(pre, bits)], rows)

    walk((), [tuple(Fraction(i == k) for k in range(n0 + 1)) for i in range(n0)], [])
    return found


def degenerate_network(rng):
    """Weights in [-3, 3], at most 8 units; about 30% repeat or negate a unit."""
    n0 = rng.randint(1, 3)
    while sum(widths := [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]) > 8:
        pass
    layers = [[[rng.randint(-3, 3) for _ in range(n_in + 1)] for _ in range(width)]
              for n_in, width in zip([n0, *widths], widths)]
    if (wide := [rows for rows in layers if len(rows) > 1]) and rng.random() < 0.3:
        rows, sign = rng.choice(wide), rng.choice((1, -1))
        rows[-1] = [sign * a for a in rows[0]]
    return ReluNetwork(n0, [ReluLayer([r[:-1] for r in rows], [r[-1] for r in rows]) for rows in layers])


def test_oracle_equals_the_enumerator_without_a_box():
    rng = random.Random(1986)
    missed_by_box_10 = 0
    for _ in range(120):
        net = degenerate_network(rng)
        regions = oracle_regions(net)
        assert regions == enumerate_regions(net, 10**9).multisignatures, net
        boxed = enumerate_regions(net, 10).multisignatures
        assert boxed <= regions, net
        missed_by_box_10 += boxed != regions
    assert missed_by_box_10  # the oracle sees past a small box
