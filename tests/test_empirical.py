"""Exact region enumeration: signatures, LPs, counts, verification."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from relubound import (
    Architecture,
    Histogram,
    ReluLayer,
    ReluNetwork,
    activation_histogram,
    dimension_histogram,
    enumerate_regions,
    load_network,
    random_network,
    sample_count,
    save_network,
    scale,
    signature_at,
    triangle_network,
    verify_network,
)
from relubound import empirical, simplex
from relubound.empirical import network_from_dict, network_to_dict
from relubound.fixtures import (
    TRIANGLE_REGION_COUNT,
    TRIANGLE_SIGNATURES_DOWN,
    TRIANGLE_SIGNATURES_UP,
)
from test_enumeration_golden import degenerate_network
from test_fm_oracle import oracle_regions
from test_line_oracle import line_multisignatures

F = Fraction
BOX10 = F(10)


def step_net():
    """One unit on one input: active iff x > 1."""
    return ReluNetwork(1, (ReluLayer(((F(1),),), (F(-1),)),))


class TestNetworkTypes:
    def test_layer_shape_validation(self):
        with pytest.raises(ValueError):
            ReluLayer((), ())
        with pytest.raises(ValueError):
            ReluLayer(((F(1),), (F(1), F(2))), (F(0), F(0)))
        with pytest.raises(ValueError):
            ReluLayer(((F(1),),), (F(0), F(0)))

    def test_network_dimension_chaining(self):
        layer = ReluLayer(((F(1), F(0)),), (F(0),))
        with pytest.raises(ValueError, match="input dimension mismatch"):
            ReluNetwork(1, (layer,))
        with pytest.raises(ValueError):
            ReluNetwork(0, (layer,))
        one_in = ReluLayer(((F(1),),), (F(0),))
        for bad_n0 in (True, 1.0, "1", None):
            with pytest.raises(ValueError, match="must be integers"):
                ReluNetwork(bad_n0, (one_in,))
        with pytest.raises(ValueError, match="at least one layer"):
            ReluNetwork(1, ())

    def test_architecture_property(self):
        net = triangle_network()
        assert net.architecture == Architecture(2, (3,))

    def test_rational_coercion(self):
        layer = ReluLayer((("1/2",),), (1,))
        assert layer.weights[0][0] == F(1, 2)
        assert layer.biases[0] == F(1)
        with pytest.raises(ValueError):
            ReluLayer(((0.5,),), (0,))


class TestSignatureAt:
    def test_strictly_positive_activates(self):
        net = step_net()
        assert signature_at(net, [F(2)]) == ((1,),)
        assert signature_at(net, [F(1)]) == ((0,),)
        assert signature_at(net, [F(0)]) == ((0,),)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            signature_at(step_net(), [F(1), F(2)])

    def test_propagates_through_layers(self):
        # second layer sees relu output of the first
        l1 = ReluLayer(((F(1),),), (F(0),))
        l2 = ReluLayer(((F(1),),), (F(-1),))
        net = ReluNetwork(1, (l1, l2))
        assert signature_at(net, [F(2)]) == ((1,), (1,))
        assert signature_at(net, [F(1, 2)]) == ((1,), (0,))
        assert signature_at(net, [F(-1)]) == ((0,), (0,))


def one_layer_signatures(weights, biases, box=BOX10):
    """The first-layer signatures a one-layer network attains in the box."""
    net = ReluNetwork(len(weights[0]), (ReluLayer(weights, biases),))
    return {s for (s,) in enumerate_regions(net, box).multisignatures}


class TestFeasible:
    """Which sign patterns the region LP admits, on edge-case rows."""

    def test_empty_system_is_the_box(self):
        # zero rows with positive offsets cut nothing: one region, all active
        assert one_layer_signatures([[0, 0], [0, 0]], [1, 2]) == {(1, 1)}

    def test_binding_nonstrict_is_feasible(self):
        # x <= 0 and -x <= 0 leave exactly x = 0
        assert (0, 0) in one_layer_signatures([[1], [-1]], [0, 0])

    def test_opposite_strict_pair_is_empty(self):
        # x > 0 and -x > 0 leave nothing
        assert (1, 1) not in one_layer_signatures([[1], [-1]], [0, 0])

    def test_strict_rows_meeting_at_a_point_are_empty(self):
        # x > 0, y > 0 and x + y < 0: no two are parallel, and their closures
        # share only the origin, where the LP's optimum is t* = 0
        signatures = one_layer_signatures([[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        assert (0, 0, 0) in signatures and (1, 1, 1) not in signatures

    def test_strict_zero_row_is_empty(self):
        # 0 > 0 is feasible for the LP but its optimum is t* = 0
        assert (1,) not in one_layer_signatures([[0]], [0])

    def test_nonstrict_zero_row_is_full(self):
        # 0 <= 0 holds on both sides of the other unit's hyperplane
        assert one_layer_signatures([[0], [1]], [0, 0]) == {(0, 0), (0, 1)}

    def test_strict_zero_row_with_positive_offset_is_full(self):
        assert one_layer_signatures([[0]], [1]) == {(1,)}


class TestRegionLP:
    """The region LP's emptiness test, seen through one-layer enumerations."""

    @pytest.mark.parametrize("weights, biases, box, expected", [
        # a strict and a non-strict row on one hyperplane conflict
        pytest.param([[1, 0], [1, 0]], [0, 0], BOX10, {(0, 0), (1, 1)}, id="coincident"),
        pytest.param([[1, 0], [0, 1]], [0, 0], BOX10, {(0, 0), (0, 1), (1, 0), (1, 1)},
                     id="mixed"),
        # x > 3 is empty inside box radius 2
        pytest.param([[1]], [-3], BOX10, {(0,), (1,)}, id="threshold_inside_box"),
        pytest.param([[1]], [-3], F(2), {(0,)}, id="threshold_outside_box"),
        pytest.param([[1]], [0], F(0), ValueError, id="zero_radius"),
    ])
    def test_one_layer(self, weights, biases, box, expected):
        if expected is ValueError:
            with pytest.raises(ValueError, match="box radius must be positive"):
                one_layer_signatures(weights, biases, box)
        else:
            assert one_layer_signatures(weights, biases, box) == expected


class TestTriangleFixture:
    def test_down_variant(self):
        res = enumerate_regions(triangle_network(), BOX10)
        assert res.count == TRIANGLE_REGION_COUNT
        assert {s[0] for s in res.multisignatures} == set(TRIANGLE_SIGNATURES_DOWN)

    def test_up_variant(self):
        res = enumerate_regions(triangle_network(third_unit_up=True), BOX10)
        assert res.count == TRIANGLE_REGION_COUNT
        assert {s[0] for s in res.multisignatures} == set(TRIANGLE_SIGNATURES_UP)

    def test_variants_share_dimension_histogram(self):
        for up in (False, True):
            res = enumerate_regions(triangle_network(third_unit_up=up), BOX10)
            assert dimension_histogram(res.multisignatures, 2) == Histogram((1, 3, 3))

    def test_witnesses_realize_their_signatures(self):
        net = triangle_network()
        res = enumerate_regions(net, BOX10)
        assert len(res.records) == TRIANGLE_REGION_COUNT
        seen = set()
        for rec in res.records:
            assert signature_at(net, rec.witness) == rec.prefix
            assert rec.witness not in seen
            seen.add(rec.witness)

    def test_verify_chain_values(self):
        report = verify_network(triangle_network(), BOX10)
        assert report.values() == (7, 7, 7, 8)
        assert report.chain_ok
        assert report.recursion_ok


class TestEnumeration:
    def test_three_thresholds_on_a_line(self):
        layer = ReluLayer(
            ((F(1),), (F(1),), (F(1),)), (F(-1), F(-2), F(-3))
        )
        net = ReluNetwork(1, (layer,))
        assert enumerate_regions(net, BOX10).count == 4

    def test_zero_network_single_region(self):
        layer = ReluLayer(((F(0), F(0)), (F(0), F(0))), (F(0), F(0)))
        net = ReluNetwork(2, (layer,))
        res = enumerate_regions(net, BOX10)
        assert res.count == 1
        assert res.multisignatures == frozenset({((0, 0),)})

    def test_guard_rejects_large(self):
        arch = Architecture(4, (2,))
        net = random_network(arch, 0)
        with pytest.raises(ValueError, match="instance too large"):
            enumerate_regions(net, BOX10)

    def test_guard_override(self):
        arch = Architecture(4, (1,))
        net = random_network(arch, 0)
        assert enumerate_regions(net, BOX10, allow_large=True).count == 2

    def test_per_layer_prefix_sets_nest(self):
        net = random_network(Architecture(2, (3, 2)), 4)
        res = enumerate_regions(net, BOX10)
        assert len(res.prefixes_per_layer) == 2
        first = {p[0] for p in res.prefixes_per_layer[1]}
        assert first <= {p[0] for p in res.prefixes_per_layer[0]}

    def test_layers_are_walked_depth_first(self, monkeypatch):
        """A region of layer 2 is expanded by layer 3 before the last region
        of layer 1 is expanded by layer 2, which breadth-first never does."""
        depths = []
        expand = empirical._expand_region

        def recording(region, *args):
            depths.append(len(region.prefix))
            return expand(region, *args)

        monkeypatch.setattr(empirical, "_expand_region", recording)
        res = enumerate_regions(random_network(Architecture(2, (2, 2, 2)), 3), BOX10)
        last_layer2 = max(i for i, d in enumerate(depths) if d == 1)
        assert depths.index(2) < last_layer2
        assert [r.prefix for r in res.records] == sorted(res.multisignatures)

    def test_deeper_than_the_recursion_limit(self):
        layer = ReluLayer([[1]], [0])
        net = ReluNetwork(1, (layer,) * (sys.getrecursionlimit() + 100))
        assert enumerate_regions(net, BOX10, allow_large=True).count == 2

    def test_wider_than_the_recursion_limit(self):
        width = sys.getrecursionlimit() + 100
        net = ReluNetwork(1, (ReluLayer([[1]] * width, [0] * width),))
        assert enumerate_regions(net, BOX10, allow_large=True).count == 2

    def test_stack_holds_no_layer_of_regions(self):
        """The tracemalloc peak of a seeded depth-3 enumeration stays small:
        neither the stack nor one unit sweep holds a whole layer of regions."""
        net = random_network(Architecture(3, (5, 5, 5)), 7)
        tracemalloc.start()
        try:
            enumerate_regions(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    def test_no_constraint_system_solved_twice(self, monkeypatch):
        """At most one warm-started LP per child, each called from _expand_region,
        and a child whose row holds at its parent's optimum costs no pivot."""
        solved = []
        pivots = []
        cost = []
        solve_max, pivot = empirical.solve_max, simplex._pivot

        def counting_pivot(*args):
            pivots.append(args)
            return pivot(*args)

        def recording(tab, rows):
            callers = []
            frame = sys._getframe(1)
            while frame is not None:
                callers.append(frame.f_code)
                frame = frame.f_back
            assert empirical._expand_region.__code__ in callers
            # The LP as it comes in: the parent's tableau plus the appended rows.
            solved.append((tuple(tab.basis), tuple(map(tuple, tab.table)),
                           tuple(map(tuple, rows))))
            z = tab.point()
            holds = all(sum(a * v for a, v in zip(row, z)) <= row[-1] for row in rows)
            before = len(pivots)
            result = solve_max(tab, rows)
            cost.append((holds, len(pivots) - before))
            return result

        monkeypatch.setattr(simplex, "_pivot", counting_pivot)
        monkeypatch.setattr(empirical, "solve_max", recording)
        enumerate_regions(random_network(Architecture(2, (3, 2)), 4), F(10))
        assert len(solved) == len(set(solved))
        assert len(solved) == 31
        assert all(n == 0 for holds, n in cost if holds)
        assert {holds for holds, _ in cost} == {True, False}

    def test_witnesses_only_for_records(self, monkeypatch):
        """Outside the solver, a tableau's point is read once per record and
        never for a region of an earlier layer."""
        points = []
        point, solver = simplex.Tableau.point, simplex.solve_max.__code__

        def counting(tab, *shift):
            if sys._getframe(1).f_code is not solver:
                points.append(None)
            return point(tab, *shift)

        monkeypatch.setattr(simplex.Tableau, "point", counting)
        result = enumerate_regions(random_network(Architecture(2, (3, 3, 2)), 5), BOX10)
        assert result.count == 17
        assert len(points) == result.count

    def test_child_kept_on_the_sign_of_its_int_optimum(self, monkeypatch):
        """_cut reads t* > 0 from the int obj[-1]: over seeded enumerations,
        every optimal LP's value is positive iff its tableau's obj[-1] is."""
        signs = set()
        solve_max = empirical.solve_max

        def recording(tab, rows):
            result = solve_max(tab, rows)
            if result[0] == simplex.OPTIMAL:
                assert (result[1] > 0) == (tab.obj[-1] > 0)
                signs.add(result[1] > 0)
            return result

        monkeypatch.setattr(empirical, "solve_max", recording)
        for seed in range(40):
            enumerate_regions(degenerate_network(seed), BOX10)
        for arch, seed in [(Architecture(2, (3, 2)), 4), (Architecture(2, (3, 3, 2)), 5)]:
            enumerate_regions(random_network(arch, seed), F(7, 3))
        assert signs == {True, False}

    def test_bland_path_is_pinned(self, monkeypatch):
        """Regions, LPs and simplex pivots of one seeded depth-3 enumeration:
        a change to the tableau's arithmetic must not change Bland's path."""
        lps = []
        pivots = []
        solve_max, pivot = empirical.solve_max, simplex._pivot

        def counting_pivot(*args):
            pivots.append(args[1:])
            return pivot(*args)

        def counting_solve(*args):
            lps.append(None)
            return solve_max(*args)

        monkeypatch.setattr(simplex, "_pivot", counting_pivot)
        monkeypatch.setattr(empirical, "solve_max", counting_solve)
        result = enumerate_regions(random_network(Architecture(3, (5, 5, 5)), 7))
        assert (result.count, len(lps), len(pivots)) == (302, 1200, 1670)


def scaled_network(net, s):
    return ReluNetwork(net.n0, tuple(
        ReluLayer([[s * w for w in row] for row in layer.weights], [s * b for b in layer.biases])
        for layer in net.layers))


# Integer weights and biases, so each layer's common denominator q is 1.
INTEGER_NET = ReluNetwork(2, (ReluLayer([[1, -2], [3, 1]], [0, 1]), ReluLayer([[1, 1]], [-1])))
# One unit that is off for x <= 0, so that region's next layer has no live rows.
DEAD_FIRST_LAYER = ReluNetwork(1, (ReluLayer([[1]], [0]), ReluLayer([[1], [-1]], [1, F(-1, 2)])))


class TestIntegerRows:
    @pytest.mark.parametrize("net, radius", [
        (triangle_network(), BOX10),
        (INTEGER_NET, BOX10),
        (random_network(Architecture(2, (3, 2)), 4), F(7, 3)),
        (DEAD_FIRST_LAYER, BOX10),
        (scaled_network(random_network(Architecture(2, (3, 2)), 4), F(10) ** 40), BOX10),
        (scaled_network(random_network(Architecture(2, (3, 2)), 4), F(10) ** -40), BOX10),
    ], ids=["triangle", "integer-weights", "radius-7/3", "dead-first-layer", "1e40", "1e-40"])
    def test_rows_are_ints(self, net, radius, monkeypatch):
        """Every row handed to the simplex, and every live row and layer it
        is composed from, is made of Python ints."""
        rows, expansions = [], []
        solve_max, expand = empirical.solve_max, empirical._expand_region

        def recording_solve(tab, new_rows):
            rows.extend(new_rows)
            return solve_max(tab, new_rows)

        def recording_expand(*args):
            expansions.append(args)
            return expand(*args)

        monkeypatch.setattr(empirical, "solve_max", recording_solve)
        monkeypatch.setattr(empirical, "_expand_region", recording_expand)
        result = enumerate_regions(net, radius)
        assert {signature_at(net, r.witness) for r in result.records} == result.multisignatures
        assert rows and all(type(x) is int for row in rows for x in row)
        lives = [args[0].live for args in expansions]
        assert all(type(d) is int and d > 0 for d, _ in lives)
        assert all(type(x) is int for _, live in lives for _, g in live for x in g)
        layers = [args[1] for args in expansions]
        assert all(type(x) is int for q, w, b in layers for x in (q, *b, *sum(w, [])))
        if net is INTEGER_NET:
            assert {q for q, _, _ in layers} == {1}
        if net is DEAD_FIRST_LAYER:
            assert any(not live for _, live in lives)


# Zero-weight units after one that splits: constant off (bias < 0 and = 0), then on.
CONSTANT_UNITS = ReluNetwork(1, (ReluLayer([[1]], [0]), ReluLayer([[1], [0], [0], [0]], [-1, -1, 0, 1])))


class TestConstantUnits:
    @pytest.mark.parametrize("net", [DEAD_FIRST_LAYER, CONSTANT_UNITS],
                             ids=["dead-first-layer", "zero-weights"])
    def test_no_lp_decides_a_constant_unit(self, net, monkeypatch):
        """No row with a = 0 reaches the simplex, whatever the sign of c: both
        networks have constant-off and constant-on units (DEAD_FIRST_LAYER on
        its region x <= 0, CONSTANT_UNITS on both sides of x = 0)."""
        constant = []
        solve_max = empirical.solve_max

        def recording(tab, rows):
            constant.extend(row for row in rows if not any(row[:net.n0]))
            return solve_max(tab, rows)

        monkeypatch.setattr(empirical, "solve_max", recording)
        result = enumerate_regions(net, BOX10)
        assert constant == []
        layers = [(layer.weights, layer.biases) for layer in net.layers]
        assert result.multisignatures == line_multisignatures(layers, BOX10)

    @pytest.mark.parametrize("c, bit, kept, calls", [
        (-3, 0, "tab", 0), (0, 0, "tab", 0),  # constant off: bit 0 is the region itself
        (3, 0, None, 0), (-3, 1, None, 0), (0, 1, None, 0),  # the bit that holds nowhere
        (3, 1, "tab", 0),  # constant on: bit 1 is the region itself
    ])
    def test_cut_decides_a_constant_unit(self, c, bit, kept, calls, monkeypatch):
        """The cut by a unit with a = 0 is decided in ``_expand_region``, not
        by ``_cut``: the region's one child is the bit that holds (1 iff
        c > 0), on the parent's own tableau, the other bit has no child, and
        no LP is solved."""
        solves = counting_solves(monkeypatch)
        root = empirical._root(F(10), 2)
        tab = root.tableau
        before = (tab.table[:], tab.basis[:], tab.obj, tab.d)
        children = empirical._expand_region(root, (1, [[0, 0]], [c]))
        assert [child.prefix for child in children] == [((int(c > 0),),)]
        child = next((ch.tableau for ch in children if ch.prefix == ((bit,),)), None)
        assert child is (tab if kept == "tab" else None)
        assert len(solves) == calls
        assert (tab.table, tab.basis, tab.obj, tab.d) == before

    def test_cut_gets_no_constant_row(self, monkeypatch):
        """Every row the enumerator hands to ``_cut`` has a != 0: constant
        units, on and off, are decided in ``_expand_region``."""
        rows = []
        cut = empirical._cut

        def recording(tab, f, d, bit):
            rows.append(f)
            return cut(tab, f, d, bit)

        monkeypatch.setattr(empirical, "_cut", recording)
        for net in (CONSTANT_UNITS, DEAD_FIRST_LAYER, *map(degenerate_network, range(8))):
            enumerate_regions(net, BOX10)
        assert rows and all(any(f[:-1]) for f in rows)

    def test_cap_row_never_decides_a_child(self):
        """The row d t <= c (c > 0) that a constant-on unit leaves out changes
        no later verdict: over seeded roots and random rows, ``_cut`` keeps a
        child with the cap row solved in iff it keeps it without."""
        rng = random.Random(0)
        verdicts = set()
        for _ in range(60):
            n0 = rng.randint(1, 3)
            plain = empirical._root(F(rng.randint(1, 20), rng.randint(1, 3)), n0).tableau
            with_cap = plain.copy()
            cap = [0] * n0 + [rng.randint(1, 1000), rng.randint(1, 5)]
            assert simplex.solve_max(with_cap, [cap])[0] == simplex.OPTIMAL
            for _ in range(8):
                f = [rng.randint(-3, 3) for _ in range(n0)] + [rng.randint(-30, 30)]
                d, bit = rng.randint(1, 5), rng.randint(0, 1)
                a, b = empirical._cut(plain, f, d, bit), empirical._cut(with_cap, f, d, bit)
                assert (a is None) == (b is None)
                verdicts.add(a is None)
                if a is not None:
                    plain, with_cap = a, b
        assert verdicts == {True, False}


# On x1 + 2 x2 > 1 the second layer reads h = x1 + 2 x2 - 1 > 0 alone, so its
# rows h - 1, -h - 1 and -2 h + 2 are all parallel to that live row.
ON_ONE_ROW = ReluNetwork(2, (ReluLayer([[1, 2]], [-1]), ReluLayer([[1], [-1], [-2]], [-1, -1, 2])))


def counting_solves(monkeypatch):
    """The list that every later ``solve_max`` call from the enumerator appends to."""
    solves = []
    solve_max = empirical.solve_max
    monkeypatch.setattr(empirical, "solve_max",
                        lambda tab, rows: solves.append(rows) or solve_max(tab, rows))
    return solves


class TestParallelUnits:
    def test_opposite_pair_keeps_the_point_between(self):
        """x <= 0 and -x <= 0 meet at x = 0 alone: equal non-strict bounds
        leave a lower-dimensional region, and it counts."""
        assert one_layer_signatures([[1], [-1]], [0, 0]) == {(0, 1), (0, 0), (1, 0)}

    def test_layer_on_one_live_row_matches_the_oracle(self, monkeypatch):
        """Bit 1 of -h - 1 contradicts h > 0 on the path, and each unit after
        h - 1 is decided against it on one side, where the child at the vertex
        needs no LP once its sibling is empty: 6 LPs, where deciding every
        child by an LP takes 12, and h = 1 itself is a region."""
        solves = counting_solves(monkeypatch)
        result = enumerate_regions(ON_ONE_ROW, 10 ** 9)
        assert result.multisignatures == oracle_regions(ON_ONE_ROW)
        assert ((1,), (0, 0, 0)) in result.multisignatures
        assert (result.count, len(solves)) == (4, 6)

    def test_tightest_bound_stands_for_its_side(self):
        """The premise of a partial signature's ``bounds``: among seeded random
        halfspaces of one key, kept over two layers, a halfspace is
        ``_disjoint`` from some member iff it is disjoint from the bound
        ``_tighten`` keeps on the opposite side."""
        rng = random.Random(0)

        def halves():
            c, g, s = rng.randint(-4, 4), rng.randint(1, 3), rng.randint(0, 1)
            return (1 - s, c, g, 0), (s, -c, g, 1)

        verdicts = set()
        for _ in range(300):
            bounds, members = {}, []
            for _ in range(2):
                units = [halves() for _ in range(rng.randint(0, 4))]
                bits = tuple(rng.randint(0, 1) for _ in units)
                for h, bit in zip(units, bits):
                    assert empirical._tighten(bounds, (1, -2), h[bit]) is bounds
                members += [h[bit] for h, bit in zip(units, bits)]
            kept = bounds.get((1, -2), empirical._FREE)
            for _ in range(6):
                h = halves()[rng.randint(0, 1)]
                disjoint = any(empirical._disjoint(h, k) for k in members)
                assert disjoint == empirical._disjoint(h, kept[1 - h[0]])
                verdicts.add(disjoint)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [1, 50])
    def test_repeated_units_cost_no_lp(self, k, monkeypatch):
        """k equal units take the first one's bit on its tableau: two regions
        and the two LPs of one unit, for any k."""
        solves = counting_solves(monkeypatch)
        net = ReluNetwork(2, (ReluLayer([[3, -1]] * k, [1] * k),))
        result = enumerate_regions(net, BOX10, allow_large=True)
        assert result.multisignatures == {((0,) * k,), ((1,) * k,)}
        assert len(solves) == 2


def tableau_state(tab):
    return [row[:] for row in tab.table], tab.basis[:], tab.nonbasic[:], tab.obj[:], tab.d


class TestEmptySiblings:
    def test_survivor_keeps_its_parents_tableau(self, monkeypatch):
        """In the box [-10, 10]^2, x1 + x2 > 16 misses x1 <= 5: its bit-1 child
        there is empty, so its bit-0 child is that partial region itself, on
        its tableau, with no ``_cut`` of its own. On x1 > 5 it crosses and both
        children get one. A hyperplane that misses the box keeps the root's."""
        cuts = []
        cut = empirical._cut

        def recording(tab, f, d, bit):
            cuts.append((tab, bit, cut(tab, f, d, bit)))
            return cuts[-1][2]

        monkeypatch.setattr(empirical, "_cut", recording)
        root = empirical._root(BOX10, 2)
        children = empirical._expand_region(root, (1, [[1, 0], [1, 1]], [-5, -16]))
        assert [child.prefix for child in children] == [((0, 0),), ((1, 0),), ((1, 1),)]
        left = next(new for tab, bit, new in cuts if tab is root.tableau and bit == 0)
        assert children[0].tableau is left
        assert [(bit, new) for tab, bit, new in cuts if tab is left] == [(1, None)]
        cuts.clear()
        (child,) = empirical._expand_region(root, (1, [[1, 0]], [-20]))
        assert child.prefix == ((0,),) and child.tableau is root.tableau
        assert cuts == [(root.tableau, 1, None)]
        # Its halfspace x1 <= 20 is kept all the same: z1 = x1 + 10 <= 30 on key (1, 0).
        assert child.bounds == {(1, 0): (empirical._FREE[0], (1, -30, 1, 0))}

    def test_vertex_child_is_never_empty(self, monkeypatch):
        """Over seeded enumerations, the child whose bit holds at its parent's
        vertex (read off ``point`` in Fractions) is cut only after its
        sibling's LP found that one nonempty, and then always gets a tableau:
        each parent and unit has one ``_cut``, of the other bit and empty, or
        two, the other bit first, both nonempty."""
        cuts, calls = {}, []
        cut, expand = empirical._cut, empirical._expand_region

        def recording(tab, f, d, bit):
            z = tab.point()
            at_vertex = int(sum(x * v for x, v in zip(f[:-1], z)) + f[-1] > 0)
            new = cut(tab, f, d, bit)
            cuts.setdefault((len(calls), id(tab), tuple(f)), [tab]).append(
                (bit == at_vertex, new is not None))
            return new

        monkeypatch.setattr(empirical, "_cut", recording)
        monkeypatch.setattr(empirical, "_expand_region",
                            lambda *args: calls.append(None) or expand(*args))
        for net in (CONSTANT_UNITS, DEAD_FIRST_LAYER, *map(degenerate_network, range(12))):
            enumerate_regions(net, BOX10)
        logs = {tuple(log) for _, *log in cuts.values()}
        assert logs == {((False, False),), ((False, True), (True, True))}

    def test_expansion_leaves_its_region_as_it_was(self, monkeypatch):
        """Each partial signature's bounds are updated in place, so each must be
        its own: over seeded enumerations, expanding a region leaves its bounds
        and tableau as they were, a second expansion gives equal children, and
        no two children, nor a child and the region, share a bounds dict."""
        expand = empirical._expand_region
        sizes = []

        def twice(region, layer):
            bounds, tab = dict(region.bounds), tableau_state(region.tableau)
            first = expand(region, layer)
            assert region.bounds == bounds and tableau_state(region.tableau) == tab
            again = expand(region, layer)
            assert ([(ch.prefix, ch.live, ch.bounds, tableau_state(ch.tableau)) for ch in first]
                    == [(ch.prefix, ch.live, ch.bounds, tableau_state(ch.tableau)) for ch in again])
            dicts = [region.bounds, *(ch.bounds for ch in first)]
            assert len(set(map(id, dicts))) == len(dicts)
            sizes.append(sum(map(len, dicts)))
            return first

        monkeypatch.setattr(empirical, "_expand_region", twice)
        for net in (ON_ONE_ROW, *map(degenerate_network, range(12))):
            result = enumerate_regions(net, BOX10)
            assert {signature_at(net, r.witness) for r in result.records} == result.multisignatures
        assert max(sizes) > 2


class TestWitnesses:
    def test_witnesses_on_degenerate_networks(self):
        """Every record's witness lies in the box and realizes its prefix."""
        rng = random.Random(11)
        for _ in range(40):
            n0 = rng.randint(1, 3)
            scale = rng.choice((1, 1000))
            layers, fan_in = [], n0
            for width in [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]:
                weights = [[rng.randint(-2, 2) for _ in range(fan_in)] for _ in range(width)]
                biases = [scale * rng.randint(-2, 2) for _ in range(width)]
                layers.append(ReluLayer(weights, biases))
                fan_in = width
            net = ReluNetwork(n0, tuple(layers))
            for box in (F(10), F(10 ** 6)):
                records = enumerate_regions(net, box).records
                assert records
                for r in records:
                    assert signature_at(net, r.witness) == r.prefix
                    assert all(-box <= x <= box for x in r.witness)


class TestSampling:
    def test_single_sample(self):
        assert sample_count(triangle_network(), 1, BOX10, seed=0) == 1

    def test_deterministic(self):
        a = sample_count(triangle_network(), 500, BOX10, seed=42)
        b = sample_count(triangle_network(), 500, BOX10, seed=42)
        assert a == b

    def test_lower_bounds_exact(self):
        for seed in range(5):
            net = random_network(Architecture(2, (3,)), seed)
            sampled = sample_count(net, 300, BOX10, seed=seed)
            assert sampled <= enumerate_regions(net, BOX10).count

    def test_saturates_fixture(self):
        assert sample_count(triangle_network(), 4000, BOX10, seed=1) == 7

    def test_finds_a_region_narrower_than_a_coarse_grid(self):
        """Both units are on only for 1/300 < x < 2/300, a sliver 1/600 of
        the box [-1, 1] that no multiple of 1/100 hits: the samples come from
        a finer grid."""
        net = ReluNetwork(1, (ReluLayer([[1], [-1]], [F(-1, 300), F(2, 300)]),))
        assert enumerate_regions(net, 1).count == 3
        assert sample_count(net, 3000, 1, seed=0) == 3

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            sample_count(triangle_network(), 0, BOX10)

    @pytest.mark.parametrize("radius", [0, -5])
    def test_box_must_be_nonempty(self, radius):
        with pytest.raises(ValueError, match="box radius must be positive"):
            sample_count(triangle_network(), 50, box_radius=radius)


class TestRandomNetwork:
    def test_deterministic_per_seed(self):
        arch = Architecture(2, (3,))
        assert random_network(arch, 12) == random_network(arch, 12)

    def test_shapes(self):
        net = random_network(Architecture(2, (3,)), 0)
        assert net.layers[0].in_dim == 2
        assert net.layers[0].out_dim == 3

    def test_distinct_seeds_distinct_networks(self):
        arch = Architecture(2, (3,))
        nets = {network_to_dict(random_network(arch, s)).__str__() for s in range(100)}
        assert len(nets) == 100

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            random_network(Architecture(1, (1,)), 0, scale=0)


class TestSizeArguments:
    """A bool, float or str size or count raises the ValueError of a value
    below its bound, not a TypeError, and is never read as an int."""

    CALLS = {
        "activation_histogram": (lambda k: activation_histogram([(1,)], k),
                                 "dimension out of range"),
        "random_network": (lambda k: random_network(Architecture(1, (1,)), 1, scale=k),
                           "scale must be at least 1"),
        "sample_count": (lambda k: sample_count(triangle_network(), k, BOX10),
                         "need at least one sample"),
        "histogram.scale": (lambda k: scale(k, Histogram((1, 2))), "negative count"),
    }

    @pytest.mark.parametrize("bad", [True, 1.5, "3", -1], ids=["bool", "float", "str", "negative"])
    @pytest.mark.parametrize("call", CALLS)
    def test_non_int_sizes_raise(self, call, bad):
        function, message = self.CALLS[call]
        with pytest.raises(ValueError, match=message):
            function(bad)


class TestVerifyNetwork:
    def test_chain_holds_on_random_nets(self):
        for seed in range(8):
            net = random_network(Architecture(2, (3, 2)), seed)
            report = verify_network(net, BOX10)
            assert report.chain_ok
            assert report.recursion_ok
            assert report.count <= report.binomial <= report.zaslavsky <= report.naive


class TestNetworkJson:
    def test_round_trip(self, tmp_path):
        net = random_network(Architecture(2, (3, 2)), 5)
        path = tmp_path / "net.json"
        save_network(net, path)
        assert load_network(path) == net

    def test_accepts_fraction_strings_and_ints(self):
        data = {
            "n0": 1,
            "layers": [{"W": [["1/2"], [2]], "b": ["-3/4", 0]}],
        }
        net = network_from_dict(data)
        assert net.layers[0].weights == ((F(1, 2),), (F(2),))
        assert net.layers[0].biases == (F(-3, 4), F(0))

    def test_rejects_floats(self):
        data = {"n0": 1, "layers": [{"W": [[0.5]], "b": [0]}]}
        with pytest.raises(ValueError):
            network_from_dict(data)

    @pytest.mark.parametrize("entry, message", [
        ("1e-5", "not an exact rational: '1e-5'"),
        ("0.5", "not an exact rational: '0.5'"),
        ("1/0", "zero denominator: '1/0'"),
    ], ids=["exponent", "decimal", "zero-denominator"])
    def test_rejects_decimal_and_exponent_strings(self, entry, message):
        """An entry string is a sign, digits and an optional /digits; a decimal
        or exponent form is refused, so no huge exponent is ever expanded."""
        data = {"n0": 1, "layers": [{"W": [[entry]], "b": [0]}]}
        with pytest.raises(ValueError, match=message):
            network_from_dict(data)

    def test_rejects_layers_that_are_not_a_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            network_from_dict({"n0": 1, "layers": {}})
