"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from oracle import line_signatures  # noqa: E402
from spans import METRIC_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    BOX_RADIUS, WORKLOADS, ints_sha, multisig_sha, random_layers, symmetric_variant,
)

F = Fraction


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()[0]


def restrict_to_line(layers, point, direction):
    """First layer of a two-input network composed with t -> point + t * direction."""
    (weights, biases), rest = layers[0], layers[1:]
    first = (
        tuple((sum(w * d for w, d in zip(row, direction)),) for row in weights),
        tuple(b + sum(w * p for w, p in zip(row, point)) for row, b in zip(weights, biases)),
    )
    return (first, *rest)


def test_triangle_digest_and_oracle(pkg):
    from relubound import fixtures

    net = fixtures.triangle_network()
    layers = tuple((layer.weights, layer.biases) for layer in net.layers)
    result = pkg.enumerate_regions(net, BOX_RADIUS)
    expected = {(s,) for s in fixtures.TRIANGLE_SIGNATURES_DOWN}
    assert result.count == 7
    assert multisig_sha(result.multisignatures) == multisig_sha(sorted(expected, reverse=True))
    # Three horizontal lines together cross all seven regions of the arrangement.
    seen = set()
    for y in (F(2), F(1, 2), F(-1, 2)):
        seen |= line_signatures(restrict_to_line(layers, (F(0), y), (F(1), F(0))), BOX_RADIUS)
    assert seen == expected == set(result.multisignatures)


def test_tiny_network_oracle_counts_point_regions(pkg):
    # h = (relu(x), relu(-x)), then relu(h1 + h2 - 1): five signatures, one of
    # them attained only at x = 0.
    layers = (
        (((F(1),), (F(-1),)), (F(0), F(0))),
        (((F(1), F(1)),), (F(-1),)),
    )
    expected = {((0, 1), (1,)), ((0, 1), (0,)), ((0, 0), (0,)), ((1, 0), (0,)), ((1, 0), (1,))}
    assert line_signatures(layers, BOX_RADIUS) == expected
    net = pkg.ReluNetwork(1, tuple(pkg.ReluLayer(w, b) for w, b in layers))
    result = pkg.enumerate_regions(net, BOX_RADIUS)
    assert set(result.multisignatures) == expected
    assert multisig_sha(result.multisignatures) == multisig_sha(expected)
    assert multisig_sha(expected) != multisig_sha(expected - {((0, 0), (0,))})


@pytest.mark.parametrize("n0, widths", [(1, (3, 2)), (2, (3, 2)), (3, (2, 2))])
def test_symmetric_variant_keeps_the_region_count(pkg, n0, widths):
    layers = random_layers(random.Random(5), n0, widths, 2, 1)
    variants = {symmetric_variant(random.Random(seed), layers) for seed in range(6)}
    assert len(variants) > 1

    def count(layers):
        net = pkg.ReluNetwork(n0, tuple(pkg.ReluLayer(w, b) for w, b in layers))
        return pkg.enumerate_regions(net, BOX_RADIUS).count

    counts = {count(v) for v in variants}
    assert counts == {count(layers)}
    if n0 == 1:
        assert {len(line_signatures(v, BOX_RADIUS)) for v in variants} == counts


def test_big_integers_hash_from_bytes():
    big = 1 << (128 * 120)
    with pytest.raises(ValueError):
        str(big)  # the interpreter's 4300-digit limit
    assert ints_sha([big]) != ints_sha([big + 1])
    assert ints_sha([1, 23]) != ints_sha([12, 3])


@pytest.mark.parametrize("n, p", [(11, 100 / 11), (32, 68.75), (40, 75.0), (200, 95.0)])
def test_tail_percentile_keeps_ten_beyond(n, p):
    values = [float(v) for v in range(n, 0, -1)]
    assert run.tail_percentile(values) == (p, float(n - 10))


def test_tail_percentile_needs_enough_values():
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


def test_tracer_wraps_from_imports_and_restores(pkg):
    from relubound import bound_matrices, empirical, transition

    phi = transition.phi
    tracer = Tracer()
    with tracer.installed():
        assert bound_matrices.phi is empirical.phi is transition.phi is not phi
        pkg.evaluate_bound(pkg.BINOMIAL, pkg.Architecture(2, (3, 3, 4)))
    assert bound_matrices.phi is empirical.phi is transition.phi is phi
    names = [span[0] for span in tracer.spans]
    assert names.count("bound_matrices.evaluate_bound") == 1
    assert names.count("bound_matrices.build_bound_matrix") == 2
    assert names.count("transition.phi") == 4 + 5
    metrics = layer_metrics(tracer.spans)
    assert metrics["bound_matrices.build_calls"] == 2
    assert metrics["transition.phi_calls"] == 9
    assert metrics["simplex.lp_calls"] == 0
    assert 0 < metrics["bound_matrices.evaluate_self_s"] < sum(s[2] - s[1] for s in tracer.spans)


def test_tracer_counts_layers_and_lps(pkg):
    from relubound import fixtures

    tracer = Tracer()
    with tracer.installed():
        result = pkg.enumerate_regions(fixtures.triangle_network(), BOX_RADIUS)
    metrics = layer_metrics(tracer.spans)
    assert metrics["empirical.layer1.regions_in"] == 1
    assert metrics["empirical.layer1.regions_out"] == result.count == 7
    assert metrics["empirical.layer1.lps"] == metrics["simplex.lp_calls"] > 7
    assert metrics["simplex.pivots"] > 0 and metrics["simplex.max_bits"] > 0
    assert metrics["empirical.lp_per_region"] == metrics["simplex.lp_calls"] / 7


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == METRIC_UNITS


def test_gate_fails_on_a_perturbed_frozen_value(tmp_path, capsys):
    frozen = json.loads(run.EXPECTED_PATH.read_text())
    item_id = sorted(frozen["count-many-small"])[0]
    frozen["count-many-small"][item_id]["count"] += 1
    perturbed = tmp_path / "expected.json"
    perturbed.write_text(json.dumps(frozen))
    code = run.main(["--workload", "count-many-small", "--seconds", "0"], expected_path=perturbed)
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert item_id in err and "frozen" in err


def test_frozen_values_match_cheap_items():
    wl = WORKLOADS["bound-wide"](run.import_package()[0], None, run.DEFAULT_SEED, None)
    cheap = [item for item in wl.items if "/montufar" in item.id or "/closed_form" in item.id]
    results = {item.id: item.call() for item in cheap}
    frozen = json.loads(run.EXPECTED_PATH.read_text())["bound-wide"]
    wl_subset = type(wl)(tuple(cheap), wl.check)
    digests, problems = run.check_pass(wl_subset, results, {}, frozen)
    assert len(digests) == len(cheap) > 10 and problems == {}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
