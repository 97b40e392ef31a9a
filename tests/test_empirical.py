"""Exact region enumeration: signatures, LPs, counts, verification."""

import random
import sys
from fractions import Fraction

import pytest

from relubound import (
    Architecture,
    Histogram,
    ReluLayer,
    ReluNetwork,
    dimension_histogram,
    enumerate_regions,
    load_network,
    random_network,
    sample_count,
    save_network,
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

    def test_no_constraint_system_solved_twice(self, monkeypatch):
        """One warm-started LP per child, each called from _expand_region,
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
        assert len(solved) == 48
        assert all(n == 0 for holds, n in cost if holds)
        assert {holds for holds, _ in cost} == {True, False}


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
