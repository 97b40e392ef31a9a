"""Exact region enumeration for small ReLU networks with rational weights.

This is the ground-truth side of the package: a region is nonempty iff an
exact LP says so, and the enumerator walks regions depth-first through the
layers in ints: each layer is scaled to ints once per call and a region's
affine rows are int numerators over one denominator; only witnesses and LP
values are ``Fraction``s. Regions where some inactive unit sits exactly on
its hyperplane are lower-dimensional but nonempty, and they count.

Everything is restricted to a box [-R, R]^n0 (default R = 10^6) so every
LP is bounded; regions lying entirely outside the box are missed, which is
an accepted and documented limitation of the counter, not of the bounds.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import bound_matrices
from .gamma import (
    BINOMIAL, BUILTIN, ZASLAVSKY, GammaCollection, MultiSignature, Signature,
    activation_histogram, gamma_value,
)
from .histogram import l1_norm, leq, unit
from .simplex import OPTIMAL, Tableau, capped, solve_max
from .transition import Architecture, compose_bound_histogram, dimension_histogram, phi

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# (D, rows): each active unit k of a layer with its pre-activation's int numerators
# (A_1, ..., A_n0, C) over D > 0, in the region LP's coordinates z = x + R.
Live = tuple[int, tuple[tuple[int, Sequence[int]], ...]]
# A halfspace on a unit row's key k (see ``_expand_region``): (side, num, den, strict)
# for (-1)^side k.z > num / den, >= unless strict, den > 0; _FREE bounds no side (-1/0).
Half = tuple[int, int, int, int]
_FREE = ((0, -1, 0, 0), (1, -1, 0, 0))

DEFAULT_BOX_RADIUS = Fraction(10 ** 6)
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # ints and "p/q": no point or exponent

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
    if isinstance(x, str) and (m := _RATIONAL.fullmatch(x)):
        try:
            return Fraction(int(m[1]), int(m[2] or 1))
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
    """One attained multi-signature and a point of its region inside the box."""

    prefix: MultiSignature
    witness: Vector


class Region(NamedTuple):
    """A region under expansion: its signature prefix, its optimal LP
    tableau, the ``live`` rows of its active units and, per key, the tightest
    halfspace on each side among its path's unit rows, in a dict of its own
    (see ``_expand_region``)."""

    prefix: MultiSignature
    tableau: Tableau
    live: Live
    bounds: Mapping[tuple[int, ...], tuple[Half, Half]]


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


def _root(radius: Fraction, n0: int) -> Region:
    """The box as a region, in the LP's coordinates z = x + R: its optimal LP
    is max t over z in [0, 2R]^n0, t in [0, 1], and its active units are the
    inputs, x_j = (den z_j - num) / den for R = num / den. Each constraint
    is then appended by one ``_cut``. Inputs are not constraints: no bounds."""
    num, den = radius.as_integer_ratio()
    inputs = tuple((j, tuple(den * (i == j) for i in range(n0)) + (-num,)) for j in range(n0))
    return Region((), capped([0] * n0 + [1], [2 * radius] * n0 + [1]), (den, inputs), {})


def _cut(tab: Tableau, f: list[int], d: int, bit: int) -> Tableau | None:
    """The child LP: ``tab`` plus the row of f = (a, c) over d > 0, a != 0,
    a.z + c >= d t if bit is 1 and a.z + c <= 0 if it is 0, both in ints;
    None if the child is empty, that is unless the LP is optimal with t* > 0,
    whose sign is that of the int obj[-1]: t* = obj[-1] g / (d m), g, m, d > 0."""
    *a, c = f
    row = [*(-x for x in a), d, c] if bit else [*a, 0, -c]
    child = tab.copy()
    status, _, _ = solve_max(child, [row])
    return child if status == OPTIMAL and child.obj[-1] > 0 else None


@dataclass(frozen=True)
class EnumerationResult:
    """One record per attained multi-signature. The per-layer prefix sets are
    derived, and exact: a nonempty region (t* > 0) has a nonempty child in every
    later layer, because any point of the region has some signature there."""

    records: tuple[RegionRecord, ...]

    @cached_property
    def multisignatures(self) -> frozenset[MultiSignature]:
        return frozenset(r.prefix for r in self.records)

    @cached_property
    def prefixes_per_layer(self) -> tuple[frozenset[MultiSignature], ...]:
        depth = len(self.records[0].prefix) if self.records else 0
        return tuple(frozenset(p[:l] for p in self.multisignatures) for l in range(1, depth + 1))

    @property
    def count(self) -> int:
        return len(self.records)


def _check_guard(net: ReluNetwork, allow_large: bool) -> None:
    arch = net.architecture
    over = (arch.n0 > GUARD_N0, arch.depth > GUARD_DEPTH, max(arch.widths) > GUARD_WIDTH)
    if any(over) and not allow_large:
        raise ValueError("instance too large")


def _disjoint(h: Half, k: Half) -> bool:
    """Whether halfspaces h and k of one key face each other and cross, or meet
    where one is strict; equal non-strict bounds meet in a hyperplane, which counts."""
    return h[0] != k[0] and h[1] * k[2] + k[1] * h[2] + (h[3] | k[3]) > 0


def _tighten(bounds: dict, key: tuple[int, ...], h: Half) -> dict:
    """``bounds``, updated in place to keep h if it is the tightest halfspace of
    ``key`` on its side: the greater num / den, then the strict one."""
    pair = bounds.get(key, _FREE)
    if (h[1] * pair[h[0]][2] - pair[h[0]][1] * h[2], h[3]) > (0, pair[h[0]][3]):
        bounds[key] = (h, pair[1]) if h[0] == 0 else (pair[0], h)
    return bounds


def _expand_region(region: Region, layer: tuple[int, list[list[int]], list[int]]) -> list[Region]:
    """All feasible extensions of one region by one layer.

    The region's ``live`` pairs each active unit k of the previous layer
    with its pre-activation (a_1, ..., a_n0, c) on the region as int
    numerators over one denominator, already in the LP's coordinates
    z = x + R (the shift is made once, in the root's rows). With ``layer``
    = (q, W q, b q) in ints, the pre-activations composed from them, over
    q times that denominator, are LP rows as they stand; inactive units
    output 0 and cost nothing. One sweep per unit replaces each partial
    signature by its children, bit 0 before bit 1, so the regions come out
    in lexicographic order; each child is decided from its parent's optimal
    tableau, with at most one LP, so empty bit prefixes are pruned early
    and no LP is rebuilt.

    A unit's hyperplane that misses a partial region leaves it whole: the
    one child is the partial itself, which keeps its tableau with no copy,
    no row and no LP. A unit with a = 0 is constant on the region (in the
    paper's terms, column 0 of every bound matrix is e_0) and takes bit 1
    iff c > 0. Every other unit is decided at the vertex z* of each
    partial's tableau, where t* > 0: the child whose bit holds at z* is
    never empty, so only the other one is tested, and if it is empty the
    hyperplane misses the region. Its left-out row prunes nothing here or below: for
    bit 0, a.z + c <= 0 holds on the whole region; for bit 1, a.z + c > 0
    does, t is only in bit-1 rows a'.z + c' >= d' t, d' > 0, and t <= 1, so
    a feasible (z, t) with t > 0 stays feasible as (z, min(t, (a.z + c) / d)).
    Counts and prefix sets are as with the row; t* and with it a witness
    can move to another point of the same region.

    The other child is tested without an LP first. Each unit with a != 0
    has the key k = a / g, g = +-gcd(a) signed so that k's first nonzero
    entry is positive: bit 1 holds where g (k.z + c / g) > 0, bit 0 on the
    rest. Each partial keeps its own ``bounds``, per key the tightest
    halfspace on each side among its path's unit rows, in this sweep and
    before it, started from a copy of the region's and updated in place; a
    child whose halfspace is ``_disjoint`` from the one on the opposite side
    is empty. A unit whose row equals an earlier unit's is one such miss:
    its vertex bit is the earlier unit's, and its other halfspace is the
    complement of a bound already in the dict. Only a child that passes
    gets ``_cut``. If that LP finds it
    nonempty, the vertex child gets its own ``_cut`` too, and the bit-0
    child takes a copy of the bounds.
    """
    d, rows = region.live
    q, weights, biases = layer
    width = region.tableau.n  # n0 + 1 LP variables (z, t), as many as (A, C) has
    funcs = []
    for w_row, b in zip(weights, biases):
        f = [0] * width
        for k, g in rows:
            f = list(map(add, f, map(w_row[k].__mul__, g)))
        f[-1] += b * d
        funcs.append(f)
    d *= q
    # No solve at the root: the previous layer's leaf LP (or, for the input
    # region, the box itself) already proved the region's constraints feasible.
    partial = [((), region.tableau, dict(region.bounds))]
    zero = [0] * (width - 1)
    for f in funcs:
        *a, c = f
        if a == zero:
            partial = [(bits + (int(c > 0),), *rest) for bits, *rest in partial]
            continue
        g = gcd(*a) if a > zero else -gcd(*a)
        key, h = tuple(x // g for x in a), ((int(g > 0), c, abs(g), 0), (int(g < 0), -c, abs(g), 1))
        grown = []
        for bits, tab, bounds in partial:
            bit = int(tab.positive(a, c))  # the child that holds the vertex is never empty
            # the other child's halfspace faces the bound on the vertex child's side
            if _disjoint(h[1 - bit], bounds.get(key, _FREE)[h[bit][0]]) or (
                    child := _cut(tab, f, d, 1 - bit)) is None:
                grown.append((bits + (bit,), tab, _tighten(bounds, key, h[bit])))
                continue
            tabs = (child, _cut(tab, f, d, 1)) if bit else (_cut(tab, f, d, 0), child)
            grown += ((bits + (0,), tabs[0], _tighten(dict(bounds), key, h[0])),
                      (bits + (1,), tabs[1], _tighten(bounds, key, h[1])))
        partial = grown
    return [Region(region.prefix + (bits,), tab,
                   (d, tuple((k, funcs[k]) for k, bit in enumerate(bits) if bit)), bounds)
            for bits, tab, bounds in partial]


def enumerate_regions(
    net: ReluNetwork,
    box_radius=DEFAULT_BOX_RADIUS,
    *,
    allow_large: bool = False,
) -> EnumerationResult:
    """Exact enumeration of attained multi-signatures in the box, depth-first over
    an explicit stack; records come in that order, which sorts their prefixes.

    A unit whose hyperplane misses a region leaves it whole, on its own
    tableau with no row added: column 0 of every bound matrix is e_0. A
    constant unit (a = 0) costs no LP, any other at most one per child
    (see ``_expand_region``)."""
    _check_guard(net, allow_large)
    radius = _box_radius(box_radius)
    # Each layer in ints, made per call: W q and b q, q the lcm of its denominators.
    layers = []
    for layer in net.layers:
        rows = (*layer.weights, layer.biases)
        q = lcm(*(x.denominator for row in rows for x in row))
        *w, b = ([x.numerator * (q // x.denominator) for x in row] for row in rows)
        layers.append((q, w, b))
    stack = [_root(radius, net.n0)]
    records = []
    while stack:
        region = stack.pop()
        if (depth := len(region.prefix)) == len(layers):
            records.append(RegionRecord(region.prefix, tuple(region.tableau.point(radius)[:-1])))
        else:
            stack.extend(reversed(_expand_region(region, layers[depth])))
    return EnumerationResult(tuple(records))


def sample_count(
    net: ReluNetwork,
    samples: int,
    box_radius=DEFAULT_BOX_RADIUS,
    seed: int = 0,
) -> int:
    """Distinct multi-signatures among uniform rational samples from the box.

    Deterministic for a given seed; always a lower bound on the exact count.
    """
    if type(samples) is not int or samples < 1:
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
    if type(scale) is not int or scale < 1:
        raise ValueError("scale must be at least 1")
    rng = random.Random(seed)

    def draw(k: int) -> Vector:
        return tuple(Fraction(rng.randint(-scale, scale), scale) for _ in range(k))

    # Each layer draws its weights row by row, then its biases.
    layers = (ReluLayer(tuple(draw(m) for _ in range(n)), draw(n))
              for m, n in zip(arch.dims(), arch.widths))
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

    For each built-in collection g, in BUILTIN's order: the layer-1
    dimension histogram must be dominated by phi(g, n1, e_{n0}), and each
    later layer's by phi applied to the previous layer's.
    """
    arch = net.architecture
    observed = [dimension_histogram(p, arch.n0) for p in enumeration.prefixes_per_layer]
    detail = []
    for g in BUILTIN.values():
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
    """Enumerate, bound, and check the whole chain for one network.

    The binomial and Zaslavsky bounds are pushed through ``phi`` layer by
    layer from e_min(n0, n1), as ``compose_bound_histogram`` does: the same
    values as ``bound_matrices.evaluate_bound``, from L ``phi`` calls and
    no bound matrix.
    """
    enumeration = enumerate_regions(net, box_radius, allow_large=allow_large)
    arch = net.architecture
    count = enumeration.count
    binom = l1_norm(compose_bound_histogram(BINOMIAL, arch))
    zasl = l1_norm(compose_bound_histogram(ZASLAVSKY, arch))
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
    try:
        return network_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path} is not UTF-8 JSON: {exc}") from None
