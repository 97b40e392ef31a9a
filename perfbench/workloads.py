"""The three workloads: seeded inputs, the timed calls, and output checks.

Inputs come from the benchmark's own ``random.Random``, never from
``relubound.random_network``, so a library change cannot change a
workload. The seed changes how the inputs are presented, not how much
work they are: networks are fixed draws that the seed relabels by a
symmetry (``symmetric_variant``), and bound architectures are fixed width
multisets that the seed shuffles. So every seed runs the same work, and
the spread of a metric over seeds is the machine's, not the inputs'. An
item is one timed call into the package: an enumeration, an
in-process CLI count, or one bound. Items look their function up on the
package at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracle import forward_signature, line_signatures

# The enumerator's and the CLI's default box; the oracle uses the same one.
BOX_RADIUS = 10 ** 6


@dataclass(frozen=True)
class Item:
    """One timed call and the digest of its output that the frozen gate compares."""

    id: str
    call: Callable[[], object]
    digest: Callable[[object], dict]


@dataclass(frozen=True)
class Workload:
    """Items in run order, plus ``check(results) -> [(item id, problem)]``.

    ``check`` sees only the items that returned and digested cleanly, so a
    cross-item check skips an item that already failed.
    """

    items: tuple[Item, ...]
    check: Callable[[dict], list]


def ints_sha(values) -> str:
    """sha256 over nonnegative ints' big-endian bytes; no decimal string is made,
    so results past int-to-str's 4300-digit limit hash like any other."""
    h = hashlib.sha256()
    for n in values:
        raw = n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")
        h.update(len(raw).to_bytes(8, "big") + raw)
    return h.hexdigest()


def multisig_sha(multisigs) -> str:
    lines = sorted("/".join("".join(map(str, s)) for s in ms) for ms in multisigs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def random_layers(rng: random.Random, n0: int, widths, scale: int, denominator: int):
    """Weights and biases p/denominator with p uniform in [-scale, scale]."""
    layers = []
    fan_in = n0
    for width in widths:
        weights = tuple(
            tuple(Fraction(rng.randint(-scale, scale), denominator) for _ in range(fan_in))
            for _ in range(width)
        )
        biases = tuple(Fraction(rng.randint(-scale, scale), denominator) for _ in range(width))
        layers.append((weights, biases))
        fan_in = width
    return tuple(layers)


def symmetric_variant(rng: random.Random, layers):
    """``layers`` with input coordinates permuted and sign-flipped and each
    layer's units permuted, all drawn from ``rng``.

    The variant is the original network composed with a reflection of the
    (symmetric) input box and with relabellings of its units, so its regions
    correspond one to one with the original's: the same count, with each
    multisignature's bits permuted.
    """
    n0 = len(layers[0][0][0])
    inputs = rng.sample(range(n0), n0)  # new input j is old input inputs[j] ...
    signs = [rng.choice((1, -1)) for _ in range(n0)]  # ... times signs[j]
    out = []
    for weights, biases in layers:
        if out:
            weights = tuple(tuple(row[i] for i in inputs) for row in weights)
        else:
            weights = tuple(tuple(s * row[i] for s, i in zip(signs, inputs)) for row in weights)
        units = rng.sample(range(len(weights)), len(weights))
        out.append((tuple(weights[k] for k in units), tuple(biases[k] for k in units)))
        inputs = units
    return tuple(out)


def arch_name(n0: int, widths) -> str:
    return f"({n0};{','.join(map(str, widths))})"


def chain_problem(exact: int, binomial: int, zaslavsky: int, naive: int):
    if exact <= binomial <= zaslavsky <= naive:
        return None
    return f"chain broken: exact {exact}, binomial/zaslavsky/naive bits " \
           f"{binomial.bit_length()}/{zaslavsky.bit_length()}/{naive.bit_length()}"


# Four architectures; two are three layers deep, where LP coefficients
# grow largest, and (1;3,3) puts eight items under the one-input oracle.
# Each enumeration takes tens of milliseconds, so a run makes twice as
# many passes as with (2;3,3) and (1;4,4) in place of (2;3,2) and (1;3,3),
# and an item's best over the passes moves less with the host's load.
ENUM_DEEP = (((2, (3, 2)), 8), ((1, (3, 3)), 8), ((2, (2, 2, 2)), 8), ((3, (2, 2, 2)), 8))


def enum_deep(pkg, cli, seed: int, workdir: Path) -> Workload:
    base = random.Random("enum-deep")
    rng = random.Random(seed)
    items = []
    nets = {}
    for (n0, widths), copies in ENUM_DEEP:
        for k in range(copies):
            layers = symmetric_variant(rng, random_layers(base, n0, widths, 1000, 1000))
            item_id = f"{arch_name(n0, widths)}#{k}"
            net = pkg.ReluNetwork(n0, tuple(pkg.ReluLayer(w, b) for w, b in layers))
            nets[item_id] = (n0, widths, layers)
            items.append(Item(
                item_id,
                lambda net=net: pkg.enumerate_regions(net, BOX_RADIUS),
                lambda r: {"count": r.count, "multisignatures": multisig_sha(r.multisignatures)},
            ))
    oracle_sets = {}

    def check(results):
        problems = []
        for item_id, result in results.items():
            n0, widths, layers = nets[item_id]
            sigs = result.multisignatures
            if len(result.records) != result.count or {r.prefix for r in result.records} != sigs:
                problems.append((item_id, "records disagree with the multisignature set"))
            if any(forward_signature(layers, r.witness) != r.prefix for r in result.records):
                problems.append((item_id, "a witness does not reproduce its prefix"))
            if n0 == 1:
                if item_id not in oracle_sets:
                    oracle_sets[item_id] = line_signatures(layers, BOX_RADIUS)
                if oracle_sets[item_id] != sigs:
                    problems.append((item_id, f"oracle finds {len(oracle_sets[item_id])} regions, "
                                              f"enumerator {len(sigs)}"))
            arch = pkg.Architecture(n0, widths)
            bad = chain_problem(result.count, pkg.evaluate_bound(pkg.BINOMIAL, arch),
                                pkg.evaluate_bound(pkg.ZASLAVSKY, arch), 2 ** sum(widths))
            if bad:
                problems.append((item_id, bad))
        return problems

    return Workload(tuple(items), check)


# Every architecture with input dimension 1-3, depth 1-2, widths 1-3 and
# at most four units, eight networks each at weight scales cycling 1, 2, 3.
# The seed only relabels the networks, so the item mix is the same for
# every seed; larger networks would put the tail on a few costly
# enumerations.
COUNT_ARCHS = tuple(
    (n0, widths)
    for n0 in (1, 2, 3)
    for depth in (1, 2)
    for widths in itertools.product((1, 2, 3), repeat=depth)
    if sum(widths) <= 4
)
COUNT_COPIES = 8


def run_cli(cli, argv):
    """``cli.main(argv)`` in process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _count_digest(result) -> dict:
    code, out, _ = result
    data = json.loads(out)
    return {
        "exit": code,
        "count": data["exact_count"],
        "bounds": ints_sha([data["binomial_bound"], data["zaslavsky_bound"], data["naive_bound"]]),
    }


def count_many_small(pkg, cli, seed: int, workdir: Path) -> Workload:
    # Small integer weights (scale 1-3) give parallel and coincident
    # hyperplanes, zero rows and dead units; the networks are tiny, so the
    # CLI's per-call overhead is a visible share of each item.
    base = random.Random("count-many-small")
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    nets = {}
    specs = itertools.product(COUNT_ARCHS, range(COUNT_COPIES))
    for k, ((n0, widths), copy) in enumerate(specs):
        layers = symmetric_variant(rng, random_layers(base, n0, widths, 1 + copy % 3, 1))
        path = workdir / f"net{k:03d}.json"
        path.write_text(json.dumps({
            "n0": n0,
            "layers": [{"W": [[str(x) for x in row] for row in w], "b": [str(x) for x in b]}
                       for w, b in layers],
        }), encoding="utf-8")
        item_id = f"net{k:03d}{arch_name(n0, widths)}"
        nets[item_id] = (n0, widths, layers)
        argv = ["count", "--network", str(path), "--format", "json"]
        items.append(Item(item_id, lambda argv=argv: run_cli(cli, argv), _count_digest))

    def check(results):
        problems = []
        for item_id, (code, out, err) in results.items():
            n0, widths, layers = nets[item_id]
            data = json.loads(out)
            if code != 0 or not (data["chain_ok"] and data["recursion_ok"]):
                problems.append((item_id, f"exit {code}, chain_ok {data['chain_ok']}, "
                                          f"recursion_ok {data['recursion_ok']}: {err.strip()}"))
            if data["naive_bound"] != 2 ** sum(widths):
                problems.append((item_id, "naive bound is not 2^(units)"))
            bad = chain_problem(data["exact_count"], data["binomial_bound"],
                                data["zaslavsky_bound"], data["naive_bound"])
            if bad:
                problems.append((item_id, bad))
            if n0 == 1:
                expected = len(line_signatures(layers, BOX_RADIUS))
                if expected != data["exact_count"]:
                    problems.append((item_id, f"oracle finds {expected} regions, "
                                              f"CLI {data['exact_count']}"))
        return problems

    return Workload(tuple(items), check)


def _value_digest(value) -> dict:
    return {"value": ints_sha([value])}


def _histogram_digest(hist) -> dict:
    return {"value": ints_sha(hist.counts)}


def _matrix_digest(rows) -> dict:
    return {"value": ints_sha([len(rows)] + [x for row in rows for x in row])}


EQUAL_WIDTHS = (32, 64, 128)
EQUAL_DEPTHS = (50, 100)
# Input dimensions 4 and 32, so n0 = n at n = 32. Wider inputs at n = 64
# and 128 would make single calls of half a second, and a call that long
# rarely runs through one of the host's quiet spells, so its best over a
# run's passes moves with the host's load.
EQUAL_N0S = (4, 32)
# 2^(128*120) has 4624 decimal digits, past int-to-str's 4300-digit limit.
NAIVE_ARCH = (4, (128,) * 120)
# Fixed width multisets; the seed draws their order. The mixed ones hold
# the 15 widths 16, 24, ..., 128 four times each: building a bound matrix
# per distinct width still dominates, and no item runs so long that its
# best over a run's passes misses the host's quiet spells.
MIXED = tuple((n0, tuple(range(16, 129, 8)) * 4) for n0 in (4, 16))
COMPOSE = tuple((n0, tuple(8 + 56 * i // 19 for i in range(20))) for n0 in (2, 5, 8))
SERRA_N0 = 12
SERRA_WIDTHS = (12,) * 6
POWER_B_WIDTHS = (8, 16, 24)
POWER_B_EXPONENT = 10


def bound_wide(pkg, cli, seed: int, workdir: Path) -> Workload:
    # Every shape is fixed; the seed draws only the order of the mixed and
    # composed architectures' widths, which barely moves their cost.
    rng = random.Random(seed)

    def shuffled(widths):
        widths = list(widths)
        rng.shuffle(widths)
        return tuple(widths)
    items = []
    rules = []  # (ids, predicate over their values, problem text)

    def add(item_id, call, digest=_value_digest):
        items.append(Item(item_id, call, digest))
        return item_id

    def rule(ids, predicate, text):
        rules.append((ids, predicate, text))

    def add_chain(name, arch):
        """Binomial, Zaslavsky and Montufar items for ``arch``; returns the binomial id."""
        b = add(f"{name}/binomial", lambda: pkg.evaluate_bound(pkg.BINOMIAL, arch))
        z = add(f"{name}/zaslavsky", lambda: pkg.evaluate_bound(pkg.ZASLAVSKY, arch))
        m = add(f"{name}/montufar", lambda: pkg.montufar_bound(arch))
        naive = 2 ** sum(arch.widths)
        rule((b, z), lambda bv, zv: bv <= zv <= naive, "binomial <= zaslavsky <= naive fails")
        rule((z, m), lambda zv, mv: zv == mv, "evaluate_bound(ZASLAVSKY) != montufar_bound")
        return b

    for n in EQUAL_WIDTHS:
        for depth in EQUAL_DEPTHS:
            for n0 in EQUAL_N0S:
                arch = pkg.Architecture(n0, (n,) * depth)
                name = f"equal{arch_name(n0, (f'{n}x{depth}',))}"
                b = add_chain(name, arch)
                c = add(f"{name}/closed_form",
                        lambda n=n, n0=n0, depth=depth: pkg.closed_form_norm(n, min(n0, n), depth))
                rule((b, c), lambda bv, cv: bv == cv, "evaluate_bound(BINOMIAL) != closed_form_norm")

    naive_arch = pkg.Architecture(*NAIVE_ARCH)
    e = add("naive/evaluate", lambda: pkg.evaluate_bound(pkg.NAIVE, naive_arch))
    c = add("naive/closed", lambda: pkg.naive_bound(naive_arch))
    b = add("naive/binomial", lambda: pkg.evaluate_bound(pkg.BINOMIAL, naive_arch))
    top = 1 << sum(naive_arch.widths)
    rule((e, c), lambda ev, cv: ev == cv == top, "naive bound is not 2^(units)")
    rule((e,), lambda ev: ev >= 10 ** 4300, "naive bound has no more than 4300 digits")
    rule((b, e), lambda bv, ev: bv <= ev, "binomial > naive")

    for k, (n0, widths) in enumerate(MIXED):
        arch = pkg.Architecture(n0, shuffled(widths))
        add_chain(f"mixed#{k}", arch)

    for k, (n0, widths) in enumerate(COMPOSE):
        arch = pkg.Architecture(n0, shuffled(widths))
        h = add(f"compose#{k}/histogram",
                lambda arch=arch: pkg.compose_bound_histogram(pkg.BINOMIAL, arch), _histogram_digest)
        v = add(f"compose#{k}/evaluate", lambda arch=arch: pkg.evaluate_bound(pkg.BINOMIAL, arch))
        rule((h, v), lambda hv, vv: sum(hv.counts) == vv, "l1 of compose_bound_histogram != evaluate_bound")

    n0 = SERRA_N0
    serra_arch = pkg.Architecture(n0, SERRA_WIDTHS)
    s = add("serra/sum", lambda: pkg.serra_sum(serra_arch))
    b = add("serra/evaluate", lambda: pkg.evaluate_bound(pkg.BINOMIAL, serra_arch))
    c = add("serra/closed_form", lambda: pkg.closed_form_norm(SERRA_WIDTHS[0], n0, len(SERRA_WIDTHS)))
    rule((s, b, c), lambda sv, bv, cv: sv == bv == cv, "serra_sum, evaluate_bound and closed_form_norm differ")

    for n in POWER_B_WIDTHS:
        p = add(f"power_B({n},{POWER_B_EXPONENT})",
                lambda n=n: pkg.power_B(n, POWER_B_EXPONENT), _matrix_digest)
        rule((p,), lambda rows, n=n: all(
            sum(row[i] for row in rows) == pkg.closed_form_norm(n, i, POWER_B_EXPONENT)
            for i in range(n + 1)
        ), "power_B column sums != closed_form_norm")

    def check(results):
        problems = []
        for ids, predicate, text in rules:
            if all(i in results for i in ids) and not predicate(*(results[i] for i in ids)):
                problems.append((ids[0], text))
        return problems

    return Workload(tuple(items), check)


WORKLOADS = {
    "enum-deep": enum_deep,
    "count-many-small": count_many_small,
    "bound-wide": bound_wide,
}
