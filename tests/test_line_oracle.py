"""Enumeration on one-input networks against an independent breakpoint oracle.

On a line a ReLU network is piecewise linear, so its multi-signatures on
[-R, R] are the signatures at the breakpoints, between consecutive
breakpoints and at both ends of the box. The oracle finds the breakpoints
layer by layer with its own Fraction forward pass; it shares no code with
relubound's enumerator, whose answer it checks.
"""

import random
from fractions import Fraction

import pytest

from relubound import ReluLayer, ReluNetwork, enumerate_regions

F = Fraction


def pre_activations(layers, x):
    """Pre-activation vectors of every layer at the input point x."""
    out = []
    vec = [x]
    for weights, biases in layers:
        pre = [
            sum(w * v for w, v in zip(row, vec)) + b
            for row, b in zip(weights, biases)
        ]
        out.append(pre)
        vec = [p if p > 0 else F(0) for p in pre]
    return out


def signature(layers, x):
    return tuple(tuple(int(p > 0) for p in pre) for pre in pre_activations(layers, x))


def line_multisignatures(layers, radius):
    """Every multi-signature the network attains on [-radius, radius]."""
    knots = [-radius, radius]
    for depth in range(len(layers)):
        found = set(knots)
        for lo, hi in zip(knots, knots[1:]):
            # No earlier unit changes sign inside (lo, hi), so every
            # pre-activation of this layer is affine there: two samples fix it.
            p, q = (2 * lo + hi) / 3, (lo + 2 * hi) / 3
            at_p = pre_activations(layers, p)[depth]
            at_q = pre_activations(layers, q)[depth]
            for fp, fq in zip(at_p, at_q):
                if fp != fq:
                    root = p - fp * (q - p) / (fq - fp)
                    if lo < root < hi:
                        found.add(root)
        knots = sorted(found)
    points = knots + [(a + b) / 2 for a, b in zip(knots, knots[1:])]
    return {signature(layers, x) for x in points}


def degenerate_layers(seed):
    """Depth 1-3, widths 1-3, integer weights in -2..2.

    Biases are integers in -2..2, all times 1 or all times 1000, so that
    some networks have breakpoints between the two box radii tested.
    """
    rng = random.Random(seed)
    bias_scale = rng.choice((1, 1000))
    layers = []
    fan_in = 1
    for _ in range(rng.randint(1, 3)):
        width = rng.randint(1, 3)
        weights = [[F(rng.randint(-2, 2)) for _ in range(fan_in)] for _ in range(width)]
        biases = [F(bias_scale * rng.randint(-2, 2)) for _ in range(width)]
        layers.append((weights, biases))
        fan_in = width
    return layers


SEEDS = range(60)


def test_sample_is_degenerate():
    zero_rows = coincident = opposite = box_matters = 0
    for seed in SEEDS:
        layers = degenerate_layers(seed)
        for weights, biases in layers:
            units = [tuple(row) + (b,) for row, b in zip(weights, biases)]
            zero_rows += sum(not any(u) for u in units)
            coincident += len(units) - len(set(units))
            negated = {tuple(-c for c in u) for u in units if any(u)}
            opposite += len(negated & set(units))
        small, large = (line_multisignatures(layers, r) for r in (F(10), F(10 ** 6)))
        box_matters += small != large
    assert zero_rows and coincident and opposite and box_matters


def assert_matches_oracle(layers, radius, seed):
    net = ReluNetwork(1, tuple(ReluLayer(w, b) for w, b in layers))
    assert enumerate_regions(net, radius).multisignatures == line_multisignatures(
        layers, radius
    ), seed


@pytest.mark.parametrize("radius", [F(10), F(10 ** 6), F(7, 3)])
def test_enumeration_matches_oracle(radius):
    for seed in SEEDS:
        assert_matches_oracle(degenerate_layers(seed), radius, seed)


@pytest.mark.parametrize("radius", [F(10), F(10 ** 6)])
@pytest.mark.parametrize("scale", [F(10) ** 40, F(10) ** -40], ids=["1e40", "1e-40"])
def test_scaled_weights_match_oracle(scale, radius):
    """Every weight and bias times 10^40 or 10^-40: very large and very
    small rationals in every LP row."""
    for seed in SEEDS:
        layers = [([[scale * w for w in row] for row in weights], [scale * b for b in biases])
                  for weights, biases in degenerate_layers(seed)]
        assert_matches_oracle(layers, radius, seed)
