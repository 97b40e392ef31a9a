"""Exact region enumeration for small ReLU networks with rational weights.

This is the ground-truth side of the package: networks are evaluated in
exact rational arithmetic, a region is nonempty iff an exact LP says so,
and the enumerator walks layers breadth-first keeping one record per
attained signature prefix. Regions where some inactive unit sits exactly
on its hyperplane are lower-dimensional but nonempty, and they count.

Everything is restricted to a box [-R, R]^n0 (default R = 10^6) so every
LP is bounded; regions lying entirely outside the box are missed, which is
an accepted and documented limitation of the counter, not of the bounds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import bound_matrices
from .gamma import (
    BINOMIAL, NAIVE, ZASLAVSKY, GammaCollection, MultiSignature, Signature,
    activation_histogram, gamma_value,
)
from .histogram import leq, unit
from .simplex import OPTIMAL, Tableau, capped, solve_max
from .transition import Architecture, dimension_histogram, phi

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# Each active unit k of a layer with its pre-activation (a_1, ..., a_n0, c)
# in the region LP's coordinates z = x + R.
Live = tuple[tuple[int, Vector], ...]

DEFAULT_BOX_RADIUS = Fraction(10 ** 6)

# Everything beyond these sizes needs an explicit override; the enumerator
# is exponential in the widths by design.
GUARD_N0 = 3
GUARD_WIDTH = 5
GUARD_DEPTH = 3


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {x!r}") from None
    raise ValueError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class ReluLayer:
    """One layer: unit i computes max(0, <weights[i], x> + biases[i])."""

    weights: Matrix
    biases: Vector

    def __post_init__(self) -> None:
        w = tuple(tuple(_frac(x) for x in row) for row in self.weights)
        b = tuple(_frac(x) for x in self.biases)
        if not w or len(w) != len(b):
            raise ValueError("weight and bias dimensions disagree")
        if any(len(row) != len(w[0]) for row in w) or not w[0]:
            raise ValueError("ragged weight matrix")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def in_dim(self) -> int:
        return len(self.weights[0])

    @property
    def out_dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ReluNetwork:
    n0: int
    layers: tuple[ReluLayer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("network needs at least one layer")
        expect = self.architecture.n0  # building the Architecture validates n0
        for layer in self.layers:
            if layer.in_dim != expect:
                raise ValueError("layer input dimension mismatch")
            expect = layer.out_dim

    @cached_property
    def architecture(self) -> Architecture:
        """Built once, when the network is validated."""
        return Architecture(self.n0, tuple(l.out_dim for l in self.layers))


@dataclass(frozen=True)
class RegionRecord:
    """One attained signature prefix and a point of its region.

    ``witness`` lies in the region and inside the box (it is the optimum
    of the region's LP). The region's halfspace conditions live only in
    its LP tableau, and the affine map the truncated network computes on
    it only in its ``live`` rows (see ``_expand_region``); both travel
    beside the record during enumeration and are not returned.
    """

    prefix: MultiSignature
    witness: Vector


def signature_at(net: ReluNetwork, x: Sequence) -> MultiSignature:
    """Exact forward pass; bit = 1 iff the pre-activation is strictly positive."""
    vec = [_frac(v) for v in x]
    if len(vec) != net.n0:
        raise ValueError("dimension mismatch")
    sigs = []
    for layer in net.layers:
        pre = [
            sum(w * v for w, v in zip(row, vec)) + b
            for row, b in zip(layer.weights, layer.biases)
        ]
        bits = tuple(int(p > 0) for p in pre)
        sigs.append(bits)
        vec = [p if s else Fraction(0) for p, s in zip(pre, bits)]
    return tuple(sigs)


def _box_radius(box_radius) -> Fraction:
    """The box radius R as an exact rational; the box [-R, R]^n0 must be nonempty."""
    radius = _frac(box_radius)
    if radius <= 0:
        raise ValueError("box radius must be positive")
    return radius


def _root_tableau(radius: Fraction, n_vars: int) -> Tableau:
    """The box's optimal region LP: max t over z = x + R in [0, 2R]^n_vars,
    t in [0, 1]. Each constraint is then appended by one ``_cut``."""
    return capped([0] * n_vars + [1], [2 * radius] * n_vars + [1])


def _cut(tab: Tableau, f: Vector, bit: int) -> Tableau | None:
    """The child LP: ``tab`` plus the row of f = (a, c), a.z + c >= t if
    bit is 1 and a.z + c <= 0 if it is 0; None if the child is empty,
    that is unless the LP is optimal with t* > 0."""
    *a, c = f
    row = [*(-x for x in a), 1, c] if bit else [*a, 0, -c]
    child = tab.copy()
    status, value, _ = solve_max(child, [row])
    return child if status == OPTIMAL and value > 0 else None


@dataclass(frozen=True)
class EnumerationResult:
    """Exact enumeration output: per-layer prefix sets plus final records."""

    prefixes_per_layer: tuple[frozenset[MultiSignature], ...]
    records: tuple[RegionRecord, ...]

    @property
    def multisignatures(self) -> frozenset[MultiSignature]:
        return self.prefixes_per_layer[-1]

    @property
    def count(self) -> int:
        return len(self.prefixes_per_layer[-1])


def _check_guard(net: ReluNetwork, allow_large: bool) -> None:
    arch = net.architecture
    over = (arch.n0 > GUARD_N0, arch.depth > GUARD_DEPTH, max(arch.widths) > GUARD_WIDTH)
    if any(over) and not allow_large:
        raise ValueError("instance too large")


def _expand_region(
    region: RegionRecord,
    tableau: Tableau,
    live: Live,
    layer: ReluLayer,
    radius: Fraction,
) -> list[tuple[RegionRecord, Tableau, Live]]:
    """All feasible extensions of one region by one layer, each with its LP
    and the ``live`` rows of its active units.

    ``live`` pairs each active unit k of the previous layer with its
    pre-activation (a_1, ..., a_n0, c) on the region, already in the LP's
    coordinates z = x + R (the shift is made once, in the root's rows), so
    the layer's pre-activations composed from them are LP rows as they
    stand; inactive units output 0 and cost nothing. Walks the units
    depth-first, and every child goes through one ``_cut`` of its parent's
    optimal ``tableau``, so empty bit prefixes are pruned early and no LP is
    rebuilt.
    """
    columns = range(len(region.witness) + 1)
    funcs = []
    for w_row, b in zip(layer.weights, layer.biases):
        f = [sum(w_row[k] * g[j] for k, g in live) for j in columns]
        f[-1] += b
        funcs.append(tuple(f))
    out: list[tuple[RegionRecord, Tableau, Live]] = []

    def descend(i: int, bits: tuple[int, ...], tab: Tableau) -> None:
        if i == len(funcs):
            witness = tuple(v - radius for v in tab.point()[:-1])
            active = tuple((k, funcs[k]) for k, bit in enumerate(bits) if bit)
            out.append((RegionRecord(region.prefix + (bits,), witness), tab, active))
            return
        for bit in (0, 1):
            if (child := _cut(tab, funcs[i], bit)) is not None:
                descend(i + 1, bits + (bit,), child)

    # No solve at the root: the previous layer's leaf LP (or, for the input
    # region, the box itself) already proved the region's constraints feasible.
    descend(0, (), tableau)
    return out


def enumerate_regions(
    net: ReluNetwork,
    box_radius=DEFAULT_BOX_RADIUS,
    *,
    allow_large: bool = False,
) -> EnumerationResult:
    """Breadth-first exact enumeration of attained multi-signatures in the box."""
    _check_guard(net, allow_large)
    radius = _box_radius(box_radius)
    n0 = net.n0
    root = RegionRecord(prefix=(), witness=(Fraction(0),) * n0)
    # The input coordinates are the root's active units: x_j = e_j.z - R.
    identity = tuple((j, tuple(int(i == j) for i in range(n0)) + (-radius,))
                     for j in range(n0))
    # Each region travels with its optimal LP and its live rows; the
    # records returned keep neither.
    regions = [(root, _root_tableau(radius, n0), identity)]
    layer_sets: list[frozenset[MultiSignature]] = []
    for layer in net.layers:
        regions = [child for r, tab, live in regions
                   for child in _expand_region(r, tab, live, layer, radius)]
        layer_sets.append(frozenset(r.prefix for r, _, _ in regions))
    return EnumerationResult(tuple(layer_sets), tuple(r for r, _, _ in regions))


def sample_count(
    net: ReluNetwork,
    samples: int,
    box_radius=DEFAULT_BOX_RADIUS,
    seed: int = 0,
) -> int:
    """Distinct multi-signatures among uniform rational samples from the box.

    Deterministic for a given seed; always a lower bound on the exact count.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    radius = _box_radius(box_radius)
    rng = random.Random(seed)
    grid = 10 ** 9
    seen: set[MultiSignature] = set()
    for _ in range(samples):
        x = tuple(
            radius * Fraction(rng.randint(-grid, grid), grid) for _ in range(net.n0)
        )
        seen.add(signature_at(net, x))
    return len(seen)


def random_network(arch: Architecture, seed: int, scale: int = 1000) -> ReluNetwork:
    """Network with weights and biases p/scale, p uniform in [-scale, scale]."""
    if scale < 1:
        raise ValueError("scale must be at least 1")
    rng = random.Random(seed)
    layers = []
    fan_in = arch.n0
    for width in arch.widths:
        weights = tuple(
            tuple(Fraction(rng.randint(-scale, scale), scale) for _ in range(fan_in))
            for _ in range(width)
        )
        biases = tuple(
            Fraction(rng.randint(-scale, scale), scale) for _ in range(width)
        )
        layers.append(ReluLayer(weights, biases))
        fan_in = width
    return ReluNetwork(arch.n0, tuple(layers))


@dataclass(frozen=True)
class VerificationReport:
    """Exact count against the bound chain, with per-layer recursion checks."""

    architecture: Architecture
    count: int
    binomial: int
    zaslavsky: int
    naive: int
    chain_ok: bool
    recursion_ok: bool
    recursion_detail: tuple[tuple[str, int, bool], ...]  # (gamma, layer, ok)

    def values(self) -> tuple[int, int, int, int]:
        return (self.count, self.binomial, self.zaslavsky, self.naive)


def check_against_network(
    g: GammaCollection, net: ReluNetwork, signatures: Iterable[Signature]
) -> bool:
    """Check the bound condition against one concrete single-layer network.

    ``signatures`` is the attained signature set of ``net`` (a single
    layer). True iff the activation histogram is dominated by the
    collection's value at (min(n, n'), n'). This tests necessity only; no
    finite set of networks can establish the condition for all of them.
    """
    if len(net.layers) != 1:
        raise ValueError("single layer required")
    n, n_prime = net.n0, net.layers[0].out_dim
    observed = activation_histogram(signatures, n_prime)
    return leq(observed, gamma_value(g, min(n, n_prime), n_prime))


def recursion_checks(
    net: ReluNetwork, enumeration: EnumerationResult
) -> tuple[tuple[str, int, bool], ...]:
    """Layer-by-layer dominance of enumerated dimension histograms.

    For each collection g of NAIVE, ZASLAVSKY and BINOMIAL: the layer-1
    dimension histogram must be dominated by phi(g, n1, e_{n0}), and each
    later layer's by phi applied to the previous layer's.
    """
    arch = net.architecture
    observed = [dimension_histogram(p, arch.n0) for p in enumeration.prefixes_per_layer]
    detail = []
    for g in (NAIVE, ZASLAVSKY, BINOMIAL):
        prev = unit(arch.n0)
        for l, (width, hist) in enumerate(zip(arch.widths, observed), start=1):
            detail.append((g.name, l, leq(hist, phi(g, width, prev))))
            prev = hist
    return tuple(detail)


def verify_network(
    net: ReluNetwork,
    box_radius=DEFAULT_BOX_RADIUS,
    *,
    allow_large: bool = False,
) -> VerificationReport:
    """Enumerate, bound, and check the whole chain for one network."""
    enumeration = enumerate_regions(net, box_radius, allow_large=allow_large)
    arch = net.architecture
    count = enumeration.count
    binom = bound_matrices.evaluate_bound(BINOMIAL, arch)
    zasl = bound_matrices.evaluate_bound(ZASLAVSKY, arch)
    naive = bound_matrices.naive_bound(arch)
    detail = recursion_checks(net, enumeration)
    return VerificationReport(
        architecture=arch,
        count=count,
        binomial=binom,
        zaslavsky=zasl,
        naive=naive,
        chain_ok=count <= binom <= zasl <= naive,
        recursion_ok=all(ok for (_, _, ok) in detail),
        recursion_detail=detail,
    )


def network_to_dict(net: ReluNetwork) -> dict:
    return {
        "n0": net.n0,
        "layers": [
            {
                "W": [[str(w) for w in row] for row in layer.weights],
                "b": [str(b) for b in layer.biases],
            }
            for layer in net.layers
        ],
    }


def network_from_dict(data: Mapping) -> ReluNetwork:
    """Inverse of network_to_dict; ValueError names the first malformed part."""
    if not isinstance(data, Mapping):
        raise ValueError("network JSON must be an object with 'n0' and 'layers'")
    for key in ("n0", "layers"):
        if key not in data:
            raise ValueError(f"network JSON lacks {key!r}")
    if not isinstance(data["layers"], list):
        raise ValueError("network 'layers' must be a list")
    layers = []
    for index, entry in enumerate(data["layers"], start=1):
        if not isinstance(entry, Mapping) or "W" not in entry or "b" not in entry:
            raise ValueError(f"layer {index} needs 'W' and 'b'")
        weights, biases = entry["W"], entry["b"]
        rows_ok = isinstance(weights, list) and all(isinstance(r, list) for r in weights)
        if not rows_ok or not isinstance(biases, list):
            raise ValueError(f"layer {index}: 'W' must be a list of lists, 'b' a list")
        layers.append(ReluLayer(weights, biases))  # ReluLayer converts the entries
    return ReluNetwork(data["n0"], tuple(layers))


def save_network(net: ReluNetwork, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(network_to_dict(net), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_network(path: str | Path) -> ReluNetwork:
    return network_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
