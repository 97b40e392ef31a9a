"""Mutants of ``src/`` that named tier-1 tests must kill.

    python ci/mutants.py

Each entry is a file, an exact text that occurs in it once, the text that
replaces it, and the test ids that must fail on the mutant. The script
copies the repository's tracked and untracked, unignored files (or, with
no git repository, its tree) into a temporary directory, never touching
the checkout, and runs every entry's ids there: first all of them on the
unmutated copy, where each must pass, then each entry's own ids with its
one replacement made, where each must fail. It exits 1 if a text is not
found exactly once, an id does not pass unmutated, or a mutant survives.
Equivalent mutants are left out, and so are mutants whose survivor would
hang. Standard library only; pytest runs in a subprocess.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMPLEX = "src/relubound/simplex.py"
EMPIRICAL = "src/relubound/empirical.py"
TRANSITION = "src/relubound/transition.py"
GAMMA = "src/relubound/gamma.py"
BOUNDS = "src/relubound/bound_matrices.py"
DECOMPOSITION = "src/relubound/decomposition.py"
HISTOGRAM = "src/relubound/histogram.py"

# (file, old text, new text, test ids that must fail)
MUTANTS = (
    (SIMPLEX, "\n    tab.answer = None\n", "\n",  # a pivot keeps the last vertex's answer
     ["tests/test_simplex.py::TestAnswerReuse::test_random_copy_append_pivot_sequences"]),
    (EMPIRICAL, "child.obj[-1] > 0", "child.obj[-1] >= 0",  # a child with t* = 0 kept
     ["tests/test_empirical.py::TestFeasible::test_strict_rows_meeting_at_a_point_are_empty",
      "tests/test_enumeration_golden.py::test_enumeration_is_byte_identical[11-10]"]),
    (SIMPLEX, "g = gcd(*values) or 1", "g = 1",  # int rows enter without their gcd divided out
     ["tests/test_simplex.py::TestRowChecks::test_rows_enter_coprime"]),
    (EMPIRICAL, "int(c > 0)", "int(c >= 0)",  # a constant unit with c = 0 read as on
     ["tests/test_empirical.py::TestEnumeration::test_zero_network_single_region",
      "tests/test_empirical.py::TestFeasible::test_strict_zero_row_is_empty"]),
    (TRANSITION, "not 1 <= n_prime <= sys.maxsize", "n_prime < 1",  # a width past the index range read
     ["tests/test_transition.py::TestPhi::test_width_past_index_range"]),
    (SIMPLEX, "type(u) in (int, Fraction)", "isinstance(u, (int, Fraction))",  # a True cap read as 1
     ["tests/test_simplex.py::TestCapChecks::test_bad_caps_raise[bool]"]),
    (EMPIRICAL, "(h[3] | k[3]) > 0", "(h[3] | k[3]) >= 0",  # equal non-strict bounds read as empty
     ["tests/test_empirical.py::TestParallelUnits::test_opposite_pair_keeps_the_point_between",
      "tests/test_line_oracle.py::test_enumeration_matches_oracle[radius0]",
      "tests/test_enumeration_golden.py::test_enumeration_is_byte_identical[1-10]"]),
    (EMPIRICAL, "gcd(*a) if a > zero else -gcd(*a)", "gcd(*a)",  # opposite rows given two keys
     ["tests/test_empirical.py::TestEnumeration::test_bland_path_is_pinned",
      "tests/test_empirical.py::TestParallelUnits::test_layer_on_one_live_row_matches_the_oracle"]),
    (EMPIRICAL, "> (0, pair[h[0]][3])", "< (0, pair[h[0]][3])",  # each side's loosest bound kept
     ["tests/test_empirical.py::TestEnumeration::test_no_constraint_system_solved_twice"]),
    (EMPIRICAL, "dict(region.bounds))]", "{})]",  # partial bounds started without the path's
     ["tests/test_empirical.py::TestEnumeration::test_no_constraint_system_solved_twice"]),
    (EMPIRICAL, "[h[bit][0]]", "[1 - h[bit][0]]",  # the bound read on the other child's own side
     ["tests/test_empirical.py::TestEnumeration::test_no_constraint_system_solved_twice"]),
    (SIMPLEX, "c * self.d > 0", "c * self.d >= 0",  # a vertex on the hyperplane read as bit 1
     ["tests/test_simplex.py::TestVertexSide::test_positive_agrees_with_the_point",
      "tests/test_empirical.py::TestEmptySiblings::test_vertex_child_is_never_empty"]),
    (EMPIRICAL, "tab, _tighten(bounds, key, h[bit])))", "tab, bounds))",  # a survivor's halfspace not kept
     ["tests/test_empirical.py::TestEmptySiblings::test_survivor_keeps_its_parents_tableau",
      "tests/test_empirical.py::TestEnumeration::test_bland_path_is_pinned"]),
    (EMPIRICAL, "_tighten(dict(bounds), key, h[0])", "_tighten(bounds, key, h[0])",  # split children share bounds
     ["tests/test_empirical.py::TestEmptySiblings::test_expansion_leaves_its_region_as_it_was"]),
    (EMPIRICAL, "(child, _cut(tab, f, d, 1)) if bit", "(child, tab) if bit",  # a vertex child left without its row
     ["tests/test_empirical.py::TestEnumeration::test_bland_path_is_pinned"]),
    (EMPIRICAL, "grid = 10 ** 9", "grid = 10 ** 2",  # samples on a grid coarser than a region
     ["tests/test_empirical.py::TestSampling::test_finds_a_region_narrower_than_a_coarse_grid"]),
    (TRANSITION, "counts[n_prime - k + 1:]", "counts[n_prime - k:]",  # dimension k kept and folded
     ["tests/test_transition.py::TestPhi::test_unit_input_clips_gamma",
      "tests/test_bound_matrices.py::TestColumnPin::test_matrices_up_to_width_64[binomial]"]),
    (TRANSITION, "_trim((0,) * (k - len(above))", "((0,) * (k - len(above))",  # a column's zeros kept
     ["tests/test_bound_matrices.py::TestBoundMatrix::test_columns_are_phi_of_units_and_rows_their_dense_view"]),
    (GAMMA, "len(counts) > n_prime + 1", "len(counts) > n_prime + 3",  # counts past dimension 0 read
     ["tests/test_gamma.py::TestValidation::test_rule_with_more_counts_than_the_width_allows"]),
    (BOUNDS, "min(run_min, w - j)", "min(run_min, w)",  # the active units not subtracted
     ["tests/test_bound_matrices.py::TestReferenceBounds::test_serra_worked_values"]),
    (BOUNDS, "d < a + b", "d <= a + b",  # an equal width called narrow
     ["tests/test_bound_matrices.py::TestStrictnessConditions::test_narrow_layer"]),
    (DECOMPOSITION, "half = n // 2", "half = (n + 1) // 2",  # the midpoint one past for odd n
     ["tests/test_decomposition.py::TestClosedFormNorm::test_matches_power_column_sums"]),
    (HISTOGRAM, "zip_longest(_tails(v), _tails(w), fillvalue=0)", "zip(_tails(v), _tails(w))",
     ["tests/test_histogram.py::TestDominanceOrder::test_antisymmetric"]),  # longer tails cut off
    (TRANSITION, "key := (prev, j)", "key := j",  # a kept step read after another previous entry
     ["tests/test_transition.py::TestLayerStep::test_one_steps_dict_per_width[0]"]),
    (TRANSITION, "\n        total -= count\n", "\n",  # every step scaled by the whole sum S_1
     ["tests/test_transition.py::TestLayerStep::test_one_steps_dict_per_width[0]",
      "tests/test_bound_matrices.py::TestSupportPrefix::test_vectors_are_the_dense_product"]),
)


def copy_checkout(dest: Path) -> None:
    """The files git would see in the checkout (tracked, or untracked and not
    ignored); outside a git repository, as in a ``git archive`` copy, the whole
    tree but ``.git`` and the directories ``.gitignore`` names."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout.split("\0")
    except (OSError, subprocess.CalledProcessError):
        ignore = ROOT / ".gitignore"
        lines = ignore.read_text(encoding="utf-8").split() if ignore.is_file() else []
        skip = [line.strip("/") for line in lines if line.endswith("/")]
        shutil.copytree(ROOT, dest, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", *skip))
        return
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(source.read_bytes())


def run(copy: Path, ids: list[str]) -> tuple[int | None, set[str]]:
    """pytest's exit status on ``ids`` in ``copy`` (None on a timeout) and the
    ids that failed or errored, or sit in a file that did not collect."""
    # No bytecode is written, so a mutant of the same size and mtime is never
    # run from a stale .pyc; the copy's src/ comes before an installed relubound.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *ids],
            cwd=copy, env=env, capture_output=True, text=True, timeout=600,
        )
    except subprocess.TimeoutExpired:
        return None, set(ids)
    reported = {line.split(" ")[1] for line in done.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))}
    return done.returncode, {i for i in ids if {i, i.split("::")[0]} & reported}


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="relubound-mutants-") as tmp:
        copy = Path(tmp)
        copy_checkout(copy)
        all_ids = sorted({i for *_, ids in MUTANTS for i in ids})
        status, failed = run(copy, all_ids)
        if status != 0:  # 4 or 5: an id that names no test
            problems.append(f"unmutated, pytest exits {status}; failing: {sorted(failed)}")
        for path, old, new, ids in MUTANTS:
            source = copy / path
            text = source.read_text(encoding="utf-8")
            label = f"{path}: {old.strip()!r} -> {new.strip()!r}"
            if text.count(old) != 1:
                problems.append(f"{label}: found {text.count(old)} times, not once")
                continue
            source.write_text(text.replace(old, new), encoding="utf-8")
            try:
                failed = run(copy, ids)[1]
                survivors = [i for i in ids if i not in failed]
            finally:
                source.write_text(text, encoding="utf-8")
            print(f"{'survived' if survivors else 'killed'}: {label}")
            problems.extend(f"{label}: survives {i}" for i in survivors)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
