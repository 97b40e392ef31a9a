"""Seeded, timed benchmark of relubound's public entry points.

    python3 perfbench/run.py --workload enum-deep --seed 0 --seconds 42 --trace 0

Run from the repository root (or any checkout of it): the package is
imported from ``src/`` next to this directory, never from site-packages.
One process runs one workload as a closed loop: a single caller with no
threads runs the items back to back, pass after pass, until another pass
would overrun ``--seconds``. Each item starts on whichever allowed CPU
is quietest at that moment, and its latency is its best over the passes. Every output is
checked, against frozen values (``expected.json``) when the seed is the
default one. The last line printed is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. The exit code is
nonzero if any item failed.

``--trace 1`` alternates untraced and traced passes; wrappers are on the
package's functions only during traced passes, and end-to-end numbers
always come from untraced ones. The spans, one JSON array per line
``[pass, name, start, end, parent, item]``, go to
``.perfbench_work/spans-<workload>-<seed>.jsonl`` when the run ends.
``--freeze`` rewrites this workload's frozen values from the default
seed's outputs.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from spans import METRIC_UNITS, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
# Scratch inputs live here while a run lasts; a traced run leaves its spans here.
WORK_DIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
# Set-up is repeated and its median reported, so one slow import or page
# fault does not decide setup_s; the repeats are spread over the run (one
# before each of the first passes), so one slow spell of the host does not
# decide it either.
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def tail_percentile(values) -> tuple[float, float]:
    """(p, value): the highest percentile with at least 10 values beyond it.

    Of N sorted values that is the (N - 10)-th, at p = 100 (N - 10) / N.
    """
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        raise ValueError(f"{len(ordered)} values leave no percentile with 10 beyond it")
    return 100 * k / len(ordered), ordered[k - 1]


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_package():
    """Fresh import of relubound from ``src/`` (earlier imports are dropped first)."""
    for name in [m for m in sys.modules if m == "relubound" or m.startswith("relubound.")]:
        del sys.modules[name]
    return importlib.import_module("relubound"), importlib.import_module("relubound.cli")


def setup(workload: str, seed: int, workdir: Path):
    """Import, seeded input generation and one warm-up item."""
    pkg, cli = import_package()
    wl = WORKLOADS[workload](pkg, cli, seed, workdir)
    wl.items[0].call()
    return wl


def probe_seconds() -> float:
    """Time of a fixed pure-Python Fraction loop of about a quarter millisecond."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    return perf_counter() - t0


def move_to_quietest(cpus) -> None:
    """Pin this process to the allowed CPU that runs the probe fastest now.

    On a shared host each CPU is slowed, for tenths of a second to seconds
    at a time and at different times on different CPUs, by whatever shares
    its core. Starting each item on the CPU that is quiet at the moment
    puts most samples in quiet spells, so best-of-passes latencies move
    less with the host's load. The probe is never part of a timed span.
    """
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((probe_seconds(), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def run_pass(items, cpus, tracer=None):
    """Run every item once; return (wall seconds, per-item seconds, results,
    errors, CPU seconds).

    Wall and CPU seconds are sums over the items, so the CPU probes between
    items are in neither.
    """
    latencies, results, errors = [], {}, {}
    cpu = 0.0
    for index, item in enumerate(items):
        move_to_quietest(cpus)
        if tracer is not None:
            tracer.item = index
        cpu0 = process_time()
        t0 = perf_counter()
        try:
            results[item.id] = item.call()
        except (Exception, SystemExit) as exc:  # a failing item is counted, not fatal
            errors[item.id] = f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        cpu += process_time() - cpu0
    return sum(latencies), latencies, results, errors, cpu


def check_pass(wl, results, errors, expected):
    """(digests, problems by item id) for one pass's outputs."""
    problems = {item_id: [msg] for item_id, msg in errors.items()}
    digests = {}
    for item in wl.items:
        if item.id not in results:
            continue
        try:
            digests[item.id] = item.digest(results[item.id])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.setdefault(item.id, []).append(f"unreadable output: {exc!r}")
            del results[item.id]
    for item_id, msg in wl.check(results):
        problems.setdefault(item_id, []).append(msg)
    if expected is not None:
        for item_id, digest in digests.items():
            if expected.get(item_id) != digest:
                problems.setdefault(item_id, []).append(
                    f"differs from the frozen value: {digest} != {expected.get(item_id)}")
    return digests, problems


@dataclass
class Measurement:
    """What the passes of one run measured, and what their checks found."""

    walls: list = field(default_factory=list)
    per_item: list = field(default_factory=list)  # seconds per item, one entry per pass
    traced_walls: list = field(default_factory=list)
    layer_runs: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # each traced pass's spans
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)  # of the first pass

    def add_checked(self, wl, results, errors, expected):
        digests, problems = check_pass(wl, results, errors, expected)
        self.digests = self.digests or digests
        self.attempted += len(wl.items)
        self.failed += len(problems)
        self.failures.update(problems)


def measure(new_workload, seconds: float, trace: bool, expected, cpus):
    """(measurement, last workload set up) of passes until another would overrun
    ``seconds``; traced passes alternate if ``trace``.

    ``new_workload()`` sets the workload up afresh; it runs before each of the
    first SETUP_REPEATS passes, and after the last pass as often as is still
    due. Every set-up makes the same items, so their samples add up.
    """
    wl = new_workload()
    m = Measurement(per_item=[[] for _ in wl.items])
    deadline = perf_counter() + seconds
    for number in itertools.count(1):
        t0 = perf_counter()
        wall, latencies, results, errors, _ = run_pass(wl.items, cpus)
        m.walls.append(wall)
        for samples, latency in zip(m.per_item, latencies):
            samples.append(latency)
        m.add_checked(wl, results, errors, expected)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                wall, _, results, errors, cpu = run_pass(wl.items, cpus, tracer)
            layers = layer_metrics(tracer.spans)
            layers["proc.cpu_s"] = cpu
            m.traced_walls.append(wall)
            m.layer_runs.append(layers)
            m.spans.append(tracer.spans)
            m.add_checked(wl, results, errors, expected)
        if perf_counter() + (perf_counter() - t0) > deadline:
            break
        if number < SETUP_REPEATS:
            wl = new_workload()
    for _ in range(number, SETUP_REPEATS):
        new_workload()
    return m, wl


def main(argv=None, expected_path: Path = EXPECTED_PATH) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite this workload's frozen values (default seed only)")
    args = parser.parse_args(argv)
    if args.freeze and args.seed != DEFAULT_SEED:
        parser.error("--freeze needs the default seed")

    src = ROOT / "src"
    if not (src / "relubound" / "__init__.py").is_file():
        print(f"error: no relubound package under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # The thread pool it selects is not part of any workload: one caller, no threads.
    threads_env = os.environ.pop("RELUBOUND_THREADS", None)

    expected = None
    if args.seed == DEFAULT_SEED and not args.freeze:
        expected = json.loads(expected_path.read_text(encoding="utf-8")).get(args.workload, {})

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    setups = []

    def timed_setup():
        move_to_quietest(cpus)
        t0 = perf_counter()
        wl = setup(args.workload, args.seed, workdir)
        setups.append(perf_counter() - t0)
        return wl

    try:
        m, wl = measure(timed_setup, args.seconds, args.trace, expected, cpus)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    if args.trace:
        WORK_DIR.mkdir(exist_ok=True)
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        with spans_path.open("w", encoding="utf-8") as f:
            for number, spans in enumerate(m.spans):
                for name, start, end, parent, item, _ in spans:
                    f.write(json.dumps([number, name, start, end, parent, item]) + "\n")

    if args.freeze:
        data = json.loads(expected_path.read_text(encoding="utf-8")) if expected_path.is_file() else {}
        data[args.workload] = m.digests
        expected_path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    # An item's latency is the best of its passes. The work is deterministic
    # and interference from other tenants of a shared host only adds time,
    # switching on and off within seconds, so the minimum is the steadiest
    # estimate of an item's cost; wall_s is one pass at those latencies.
    item_best = [min(samples) for samples in m.per_item]
    tail_p, tail_value = tail_percentile(item_best)
    if args.trace:
        # Per-layer figures come from the fastest traced pass, which is
        # compared with the fastest untraced one, as wall_s takes the best.
        best = min(range(len(m.traced_walls)), key=m.traced_walls.__getitem__)
        metrics = {name: m.layer_runs[best][name]
                   for name in METRIC_UNITS if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = m.traced_walls[best] / min(m.walls) - 1.0
        units = METRIC_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(item_best),
            "item_p50_ms": 1e3 * statistics.median(item_best),
            "item_tail_ms": 1e3 * tail_value,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus": cpus,
        "seed": args.seed,
        "passes": len(m.walls),
        "traced_passes": len(m.traced_walls),
        "mean_pass_s": statistics.fmean(m.walls),
        "setup_repeats": SETUP_REPEATS,
        "items": len(wl.items),
        "git_commit": git_commit(ROOT),
        "RELUBOUND_THREADS": f"cleared (was {threads_env!r})" if threads_env is not None
        else "cleared (was unset)",
        "frozen_gate": expected is not None,
        "item_tail_percentile": tail_p,
    }
    if args.trace:
        env["untraced_best_pass_s"] = min(m.walls)
        env["traced_best_pass_s"] = m.traced_walls[best]
    print(f"workload {args.workload}: {len(m.walls)} passes of {len(wl.items)} items, seed {args.seed}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        note = ""
        if name == "item_p50_ms":
            note = f"  (median of {len(item_best)} items, best of {len(m.walls)} passes)"
        elif name == "item_tail_ms":
            note = f"  (p{tail_p:.4g} of {len(item_best)} items)"
        print(f"{name:34s} {value:14.6f} {units[name]}{note}")
    print(f"{'fail_frac':34s} {m.failed / m.attempted:14.6f} ratio  ({m.failed} of {m.attempted} items)")
    for item_id, msgs in sorted(m.failures.items())[:20]:
        print(f"FAIL {item_id}: {'; '.join(msgs)}", file=sys.stderr)
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
