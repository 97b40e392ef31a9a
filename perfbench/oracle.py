"""Exact forward pass and an independent region oracle for one-input networks.

Nothing here imports relubound: a network is the plain pair
``(n0, layers)`` with each layer a ``(weights, biases)`` pair of
``Fraction`` tuples, exactly as the workloads generate it.
"""

from __future__ import annotations

from fractions import Fraction


def _pre_activations(layers, depth, x):
    """Pre-activations of layer ``depth`` (0-based) at input vector ``x``."""
    vec = list(x)
    for weights, biases in layers[:depth]:
        vec = [max(Fraction(0), b + sum(w * v for w, v in zip(row, vec)))
               for row, b in zip(weights, biases)]
    weights, biases = layers[depth]
    return [b + sum(w * v for w, v in zip(row, vec)) for row, b in zip(weights, biases)]


def forward_signature(layers, x) -> tuple[tuple[int, ...], ...]:
    """Multisignature at ``x``: bit 1 iff the unit's pre-activation is strictly positive."""
    sig = []
    vec = list(x)
    for weights, biases in layers:
        pre = [b + sum(w * v for w, v in zip(row, vec)) for row, b in zip(weights, biases)]
        bits = tuple(int(p > 0) for p in pre)
        sig.append(bits)
        vec = [p if bit else Fraction(0) for p, bit in zip(pre, bits)]
    return tuple(sig)


def line_signatures(layers, radius) -> frozenset:
    """Every multisignature a one-input network attains on [-radius, radius].

    Works layer by layer. Between consecutive breakpoints found so far,
    every earlier unit keeps its sign, so each pre-activation of the next
    layer is affine there; a sign change between the two ends gives one
    exact zero crossing, which becomes a new breakpoint. Once all layers
    are done the signature is constant on each open interval, so the
    breakpoints, the interval midpoints and the box ends +-radius give
    every attained signature, including those attained at a single point.
    """
    radius = Fraction(radius)
    points = [-radius, radius]
    for depth in range(len(layers)):
        found = set(points)
        for a, b in zip(points, points[1:]):
            for p, q in zip(_pre_activations(layers, depth, (a,)),
                            _pre_activations(layers, depth, (b,))):
                if (p < 0 < q) or (q < 0 < p):
                    found.add(a + (b - a) * p / (p - q))
        points = sorted(found)
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return frozenset(forward_signature(layers, (x,)) for x in points + mids)
