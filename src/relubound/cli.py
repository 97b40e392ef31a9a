"""Command-line front end for the region-bound calculators.

Subcommands: bound (all bounds for one architecture), table (equal-width
bound tables), matrix (one bound matrix), decompose (factor a binomial
bound matrix), asymptotic (per-layer growth bases), count (exact region
enumeration for a network).

Each subcommand returns one record (a dict, or a list of dicts) and a
callable building its table text only when that is printed; ``main``
alone reads ``--format`` and writes the record as JSON, CSV or text.

All integer output is exact and printed in full, however many digits it
has. Identical flags and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import decomposition, empirical, fixtures
from .bound_matrices import (
    bound_vectors,
    build_bound_matrix,
    evaluate_bound,
    montufar_bound,
    montufar_lower_bound,
    naive_bound,
    narrow_layer_somewhere,
    serra_sum,
    width_increases_somewhere,
)
from .gamma import BINOMIAL, BUILTIN, ZASLAVSKY, check_index_range
from .transition import Architecture

WIDTHS_SHORTHAND = re.compile(r"^(\d+):x(\d+)$")


def parse_widths(text: str) -> tuple[int, ...]:
    """Comma list like '3,4,5' or repetition shorthand like '4:x6'."""
    m = WIDTHS_SHORTHAND.match(text)
    if m:
        width, reps = int(m.group(1)), int(m.group(2))
        if reps < 1:
            raise argparse.ArgumentTypeError("repetition count must be positive")
        if reps > sys.maxsize:
            raise argparse.ArgumentTypeError(
                f"repetition count {reps} exceeds sys.maxsize ({sys.maxsize})")
        return (width,) * reps
    return parse_int_list(text)


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}")


def int_at_least(low: int):
    """argparse type for an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}: {text!r}")

    return parse


def parse_rational(text: str) -> Fraction:
    try:
        return empirical._frac(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rational: {text!r}")


def format_matrix(rows) -> str:
    """Right-aligned grid of the entries' str() forms, one row per line."""
    cells = [[str(x) for x in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )


def _arch_line(arch: Architecture) -> str:
    return f"n0={arch.n0} widths={','.join(map(str, arch.widths))}"


# (smaller bound, larger bound, reason if strict, reason if equal) for the
# conditions widens, narrow and (widens or narrow) in turn.
STRICTNESS = (
    ("montufar", "naive", "some layer is wider than its input",
     "no layer is wider than its input"),
    ("binomial", "montufar",
     "some hidden layer is narrower than the sum of the running width minima"
     " on its two sides",
     "no hidden layer is narrower than the sum of the running width minima"
     " on its two sides"),
    ("binomial", "naive", "at least one strictness condition holds",
     "neither strictness condition holds"),
)


def cmd_bound(args):
    arch = Architecture(args.n0, args.widths)
    head = {"n0": arch.n0, "widths": list(arch.widths)}
    if args.gamma is not None:
        g = BUILTIN[args.gamma]
        value = evaluate_bound(g, arch)
        return ({**head, "gamma": g.name, "bound": value},
                lambda: [_arch_line(arch), f"{g.name}: {value}"])
    values = {
        "naive": naive_bound(arch),
        "montufar": montufar_bound(arch),
        "binomial": evaluate_bound(BINOMIAL, arch),
        "serra": serra_sum(arch),
        "lower": montufar_lower_bound(arch),
    }
    widens, narrow = width_increases_somewhere(arch), narrow_layer_somewhere(arch)
    payload = {**head, **values, "montufar_lt_naive": widens, "binomial_lt_montufar": narrow}
    return payload, lambda: [
        _arch_line(arch),
        *(f"{name:9s}{value}" for name, value in values.items()),
        *(f"{low} {'<' if strict else '='} {high}: {yes if strict else no}"
          for (low, high, yes, no), strict in zip(STRICTNESS, (widens, narrow, widens or narrow))),
    ]


def cmd_table(args):
    check_index_range(args.l_max)
    rows = []
    for n0 in args.n0_list:
        arch = Architecture(n0, (args.n,) * args.l_max)
        layers = zip(bound_vectors(ZASLAVSKY, arch), bound_vectors(BINOMIAL, arch))
        rows += [
            {"n": args.n, "n0": n0, "L": length, "montufar": sum(z), "binomial": sum(b)}
            for length, (z, b) in enumerate(layers, start=1)
        ]
    return rows, lambda: [format_matrix([rows[0].keys(), *(r.values() for r in rows)])]


def cmd_matrix(args):
    g = BUILTIN[args.gamma]
    rows = build_bound_matrix(g, args.n).rows
    return {"gamma": g.name, "n": args.n, "rows": rows}, lambda: [format_matrix(rows)]


def cmd_decompose(args):
    # The bound matrix first: it names --n itself when --n is past the index range.
    bound = build_bound_matrix(BINOMIAL, args.n)
    dec = decomposition.build_decomposition(args.n + 1)
    ok = bound.rows == dec.C
    factors = (("C", dec.C), ("P", dec.P), ("J", dec.J), ("P_inv", dec.P_inv))
    payload = {
        "n": args.n,
        "size": dec.n,
        "xi": list(dec.xi),
        **{k: [[str(x) for x in row] for row in m] for k, m in factors},
        "matches_bound_matrix": ok,
    }
    return payload, lambda: [
        f"binomial bound matrix of width {args.n}, factored as P J P^-1",
        f"xi: {', '.join(map(str, dec.xi))}",
        *(line for k, m in factors for line in (f"{k.replace('_inv', '^-1')}:", format_matrix(m))),
        f"C equals the bound matrix: {ok}",
    ], ok


def cmd_asymptotic(args):
    rep = decomposition.asymptotic_report(args.n, args.n0)
    return dataclasses.asdict(rep), lambda: [
        f"n={rep.n} n0={rep.n0}",
        f"montufar base: {rep.montufar_base}",
        f"binomial base: {rep.binomial_base}",
        f"log2 montufar: {rep.log2_montufar!r}",
        f"log2 binomial: {rep.log2_binomial!r}",
        f"stirling exponent (approximate): {rep.stirling_exponent!r}",
    ]


def cmd_count(args):
    if args.network is not None:
        try:
            net = empirical.load_network(args.network)
        except OSError as exc:  # the only I/O error reported as "error:"
            raise ValueError(exc) from None
    elif args.random:
        if args.n0 is None or args.widths is None:
            raise ValueError("--random needs --n0 and --widths")
        arch = Architecture(args.n0, args.widths)
        net = empirical.random_network(arch, args.seed, args.scale)
    else:  # argparse requires exactly one of the three sources
        net = fixtures.triangle_network(third_unit_up=args.triangle == "up")
    report = empirical.verify_network(
        net, args.box_radius, allow_large=args.allow_large
    )
    payload = {
        "n0": report.architecture.n0,
        "widths": list(report.architecture.widths),
        "exact_count": report.count,
        "binomial_bound": report.binomial,
        "zaslavsky_bound": report.zaslavsky,
        "naive_bound": report.naive,
        "chain_ok": report.chain_ok,
        "recursion_ok": report.recursion_ok,
        "recursion_detail": [
            {"gamma": g, "layer": l, "ok": ok} for (g, l, ok) in report.recursion_detail
        ],
    }
    ok = report.chain_ok and report.recursion_ok
    sample_line = []
    if args.samples:
        n = empirical.sample_count(net, args.samples, args.box_radius, seed=args.seed)
        payload.update(sample_count=n, samples=args.samples, seed=args.seed)
        ok = ok and n <= report.count
        sample_line = [f"sampled count:   {n} ({args.samples} samples, seed {args.seed})"]
    return payload, lambda: [
        _arch_line(report.architecture),
        f"exact count:     {report.count}",
        *sample_line,
        f"binomial bound:  {report.binomial}",
        f"zaslavsky bound: {report.zaslavsky}",
        f"naive bound:     {report.naive}",
        f"chain exact <= binomial <= zaslavsky <= naive: {report.chain_ok}",
        f"per-layer dimension histogram dominance: {report.recursion_ok}",
    ], ok


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="relubound",
        description="Exact bounds and exact counts for ReLU network regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="all bounds for one architecture")
    p.add_argument("--n0", type=int, required=True, help="input dimension")
    p.add_argument("--widths", type=parse_widths, required=True,
                   help="layer widths: '3,4,5' or '4:x6'")
    p.add_argument("--gamma", choices=sorted(BUILTIN), default=None,
                   help="print only this collection's bound")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table", help="equal-width bound table")
    p.add_argument("--n", type=int, required=True, help="layer width")
    p.add_argument("--n0-list", type=parse_int_list, default=(1, 2, 3, 4),
                   help="input dimensions, comma separated")
    p.add_argument("--l-max", type=int_at_least(1), default=6,
                   help="maximum depth")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("matrix", help="print one bound matrix")
    p.add_argument("--gamma", choices=sorted(BUILTIN), required=True)
    p.add_argument("--n", type=int, required=True, help="layer width")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("decompose", help="factor a binomial bound matrix")
    p.add_argument("--n", type=int, required=True, help="layer width")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("asymptotic", help="per-layer growth bases")
    p.add_argument("--n", type=int, required=True, help="layer width")
    p.add_argument("--n0", type=int, required=True, help="input dimension")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("count", help="exact region count for one network")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--network", help="network JSON file")
    src.add_argument("--random", action="store_true", help="draw a random network")
    src.add_argument("--triangle", choices=("down", "up"),
                     help="built-in three-line fixture")
    p.add_argument("--n0", type=int, default=None, help="input dimension (with --random)")
    p.add_argument("--widths", type=parse_widths, default=None,
                   help="layer widths (with --random)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=1000,
                   help="weight denominator (with --random)")
    p.add_argument("--samples", type=int_at_least(0), default=0,
                   help="also sample this many points for a lower bound")
    p.add_argument("--box-radius", type=parse_rational,
                   default=empirical.DEFAULT_BOX_RADIUS)
    p.add_argument("--allow-large", action="store_true",
                   help="lift the instance size guard")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_count)

    return parser


def main(argv=None) -> int:
    # Python 3.11+ refuses str() of integers past 4300 digits by default; the
    # bounds here must print in full, so main lifts the limit until it returns.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        payload, text, *ok = args.func(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif args.format == "csv":
            records = payload if isinstance(payload, list) else [payload]
            for row in [records[0].keys(), *(r.values() for r in records)]:
                print(",".join(map(str, row)))
        else:
            print("\n".join(text()))
        sys.stdout.flush()
        return 0 if all(ok) else 1
    except BrokenPipeError:
        # The reader closed stdout (``| head``): stop quietly. Pointing stdout
        # at devnull keeps the interpreter's final flush from failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
