"""The command-line interface: flags, formats, exit codes, determinism."""

import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import relubound
from relubound import closed_form_norm
from relubound.cli import build_parser, format_matrix, main, parse_widths


class TestWidthParsing:
    def test_comma_list(self):
        assert parse_widths("3,4,5") == (3, 4, 5)
        assert parse_widths("7") == (7,)

    def test_repetition_shorthand(self):
        assert parse_widths("4:x6") == (4, 4, 4, 4, 4, 4)
        assert parse_widths("2:x1") == (2,)

    def test_bad_input(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_widths("4:x0")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_widths("a,b")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_widths("3:x99999999999999999999")


class TestFormatting:
    def test_format_matrix_alignment(self):
        text = format_matrix(((1, 10), (100, 1)))
        assert text == "  1  10\n100   1"


class TestBoundCommand:
    def test_all_bounds(self, capsys):
        assert main(["bound", "--n0", "2", "--widths", "3"]) == 0
        out = capsys.readouterr().out
        assert "naive    8" in out
        assert "montufar 7" in out
        assert "binomial 7" in out

    def test_two_layer_example(self, capsys):
        assert main(["bound", "--n0", "4", "--widths", "4,4"]) == 0
        out = capsys.readouterr().out
        assert "binomial 163" in out
        assert "montufar 256" in out
        assert "naive    256" in out

    def test_degenerate_all_two(self, capsys):
        assert main(["bound", "--n0", "1", "--widths", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("naive", "montufar", "binomial", "serra"):
            assert f"{name:9s}2" in out

    def test_json_format(self, capsys):
        assert main(["bound", "--n0", "4", "--widths", "4,4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["binomial"] == 163
        assert data["montufar_lt_naive"] is False
        assert data["binomial_lt_montufar"] is True

    def test_single_gamma(self, capsys):
        assert main(["bound", "--n0", "2", "--widths", "3", "--gamma", "zaslavsky"]) == 0
        assert "zaslavsky: 7" in capsys.readouterr().out

    @pytest.mark.parametrize("gamma", ["binomial", "zaslavsky"])
    def test_width_near_10_12(self, gamma, capsys):
        assert main(["bound", "--n0", "2", "--widths", "1000000000000", "--gamma", gamma]) == 0
        assert capsys.readouterr().out.endswith(f"{gamma}: 500000000000500000000001\n")

    @pytest.mark.parametrize("argv", [
        "bound --n0 2 --widths 1000000000000 --gamma naive",
        "bound --n0 2 --widths 1000000000000",
    ])
    def test_power_of_two_past_the_cap(self, argv, capsys):
        # without the cap on 2^W, both commands would allocate memory without bound
        assert main(argv.split()) == 1
        assert capsys.readouterr().err == (
            "error: exponent 1000000000000 exceeds 4294967296:"
            " 2^1000000000000 is too large to compute\n")

    def test_strictness_diagnosis_language(self, capsys):
        main(["bound", "--n0", "2", "--widths", "3"])
        out = capsys.readouterr().out
        assert "montufar < naive" in out
        assert "binomial = montufar" in out


class TestTableCommand:
    def test_csv_schema(self, capsys):
        assert main(["table", "--n", "4", "--l-max", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,n0,L,montufar,binomial"
        assert "4,4,2,256,163" in lines

    def test_json_round_trip(self, capsys):
        main(["table", "--n", "3", "--n0-list", "1,2", "--l-max", "2", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert {"n": 3, "n0": 2, "L": 1, "montufar": 7, "binomial": 7} in rows

    def test_full_width_table_values(self, capsys):
        main(["table", "--n", "4", "--l-max", "3", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert "4,3,3,3375,1631" in lines
        assert "4,4,3,4096,1634" in lines

    def test_deep_table_is_linear_in_depth(self, capsys):
        # depth L's vector is depth L-1's pushed through one more layer,
        # so the time is linear in --l-max
        start = time.perf_counter()
        assert main(["table", "--n", "32", "--l-max", "300"]) == 0
        elapsed = time.perf_counter() - start
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        deepest = {int(n0): (int(m), int(b)) for _, n0, L, m, b in rows if L == "300"}
        assert sorted(deepest) == [1, 2, 3, 4]
        for n0, (montufar, binomial) in deepest.items():
            assert montufar == sum(math.comb(32, j) for j in range(n0 + 1)) ** 300
            assert binomial == closed_form_norm(32, n0, 300)
        assert elapsed < 1.5

    @pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "4", "--n0-list", "1,0"]])
    def test_bad_architecture_reported(self, argv, capsys):
        assert main(["table", *argv]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")


class TestMatrixCommand:
    def test_printed_b4(self, capsys):
        assert main(["matrix", "--gamma", "binomial", "--n", "4"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows[0] == ["1", "0", "0", "0", "1"]
        assert rows[1] == ["0", "5", "0", "4", "4"]
        assert rows[2] == ["0", "0", "11", "6", "6"]

    def test_printed_d1(self, capsys):
        assert main(["matrix", "--gamma", "zaslavsky", "--n", "1"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        assert rows == [["1", "0"], ["0", "2"]]

    def test_json(self, capsys):
        main(["matrix", "--gamma", "binomial", "--n", "2", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == [[1, 0, 1], [0, 3, 2], [0, 0, 1]]


class TestDecomposeCommand:
    def test_prints_factors(self, capsys):
        assert main(["decompose", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "xi: 1, 5, 11" in out
        assert "P:" in out and "J:" in out and "P^-1:" in out
        assert "C equals the bound matrix: True" in out

    def test_json_fractions_are_strings(self, capsys):
        main(["decompose", "--n", "4", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["P_inv"][1][1] == "1/4"
        assert data["matches_bound_matrix"] is True

    def test_builds_the_decomposition_once(self, capsys, monkeypatch):
        from relubound import decomposition

        built = []
        build = decomposition.build_decomposition

        def counting(n):
            built.append(n)
            return build(n)

        monkeypatch.setattr(decomposition, "build_decomposition", counting)
        assert main(["decompose", "--n", "5"]) == 0
        assert built == [6]
        assert "C equals the bound matrix: True" in capsys.readouterr().out


class TestAsymptoticCommand:
    def test_odd_full_input(self, capsys):
        assert main(["asymptotic", "--n", "5", "--n0", "5"]) == 0
        out = capsys.readouterr().out
        assert "binomial base: 16" in out
        assert "montufar base: 32" in out

    def test_csv_schema(self, capsys):
        main(["asymptotic", "--n", "4", "--n0", "2", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == (
            "n,n0,montufar_base,binomial_base,log2_montufar,log2_binomial,"
            "stirling_exponent"
        )
        assert lines[1].startswith("4,2,11,11,")

    def test_width_past_float_range(self, capsys):
        assert main(["asymptotic", "--n", "1" + "0" * 400, "--n0", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "largest float" in line


class TestCountCommand:
    def test_triangle(self, capsys):
        code = main(["count", "--triangle", "down", "--box-radius", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact count:     7" in out
        assert "chain exact <= binomial <= zaslavsky <= naive: True" in out

    def test_report_serializes(self, capsys):
        assert main(["count", "--triangle", "down", "--box-radius", "10",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact_count"] == 7
        assert data["chain_ok"] is True

    def test_random_json(self, capsys):
        code = main(
            ["count", "--random", "--n0", "2", "--widths", "3,2", "--seed", "1",
             "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["chain_ok"] is True
        assert data["exact_count"] <= data["binomial_bound"]

    def test_samples_included(self, capsys):
        code = main(
            ["count", "--triangle", "up", "--box-radius", "10", "--samples", "50",
             "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sample_count"] <= data["exact_count"]

    def test_network_file(self, tmp_path, capsys):
        from relubound import Architecture, random_network, save_network

        path = tmp_path / "net.json"
        save_network(random_network(Architecture(2, (3,)), 2), path)
        assert main(["count", "--network", str(path)]) == 0

    def test_random_needs_dims(self, capsys):
        code = main(["count", "--random"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_guard_message(self, capsys):
        code = main(["count", "--random", "--n0", "5", "--widths", "2"])
        assert code == 1
        assert "instance too large" in capsys.readouterr().err

    def test_determinism_across_runs(self, capsys):
        args = ["count", "--random", "--n0", "2", "--widths", "3", "--seed", "4",
                "--samples", "30", "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


@pytest.fixture
def digit_limit():
    """Sets the int/str digit limit to the value a test passes, then restores the old one."""
    if not HAS_DIGIT_LIMIT:  # this Python converts any length
        yield lambda limit: None
        return
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


class TestBigIntegers:
    """main prints past the default digit limit; the tests lift it for their own str/json."""

    def test_bound_past_default_digit_limit(self, capsys, digit_limit):
        assert main(["bound", "--n0", "1", "--widths", "1:x14400", "--gamma", "naive"]) == 0
        digit_limit(0)
        assert f"naive: {2 ** 14400}" in capsys.readouterr().out

    def test_json_past_default_digit_limit(self, capsys, digit_limit):
        argv = ["bound", "--n0", "1", "--widths", "1:x14400", "--gamma", "naive",
                "--format", "json"]
        assert main(argv) == 0
        digit_limit(0)
        assert json.loads(capsys.readouterr().out)["bound"] == 2 ** 14400

    @pytest.mark.parametrize("argv,status", [
        (["bound", "--n0", "2", "--widths", "3,3"], 0),
        (["bound", "--n0", "1", "--widths", "1:x14400", "--gamma", "naive"], 0),
        (["bound", "--n0", "0", "--widths", "3"], 1),
        (["bound", "--n0", "2"], 2),
    ], ids=["success", "past-limit", "error", "usage"])
    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="this Python has no digit limit")
    def test_main_restores_the_callers_limit(self, argv, status, capsys, digit_limit):
        digit_limit(5000)
        try:
            assert main(argv) == status
        except SystemExit as exc:
            assert exc.code == status
        assert sys.get_int_max_str_digits() == 5000


MALFORMED_NETWORKS = {
    "no_layers": {"n0": 1},
    "layer_without_b": {"n0": 1, "layers": [{"W": [["1"]]}]},
    "top_level_list": [{"n0": 1}],
    "zero_denominator": {"n0": 1, "layers": [{"W": [["1/0"]], "b": ["0"]}]},
    "n0_not_integer": {"n0": [1], "layers": [{"W": [["1"]], "b": ["0"]}]},
    "weights_not_lists": {"n0": 1, "layers": [{"W": 5, "b": ["0"]}]},
    "boolean_entry": {"n0": 1, "layers": [{"W": [[True]], "b": [False]}]},
}


class TestMalformedNetwork:
    @pytest.mark.parametrize("name", sorted(MALFORMED_NETWORKS))
    def test_clear_error(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(MALFORMED_NETWORKS[name]))
        assert main(["count", "--network", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("content", [
        b"root:x:0:0:root:/root:/bin/bash\n",  # UTF-8 text, not JSON
        b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1",  # binary, not UTF-8
    ])
    def test_file_not_utf8_json(self, content, tmp_path, capsys):
        path = tmp_path / "net.dat"
        path.write_bytes(content)
        assert main(["count", "--network", str(path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:")
        assert str(path) in line and "not UTF-8 JSON" in line


class TestArgumentErrors:
    def test_unknown_gamma(self):
        with pytest.raises(SystemExit) as err:
            main(["matrix", "--gamma", "sharpest", "--n", "2"])
        assert err.value.code == 2

    def test_table_needs_a_layer(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table", "--n", "4", "--l-max", "0"])
        assert err.value.code == 2
        assert "--l-max" in capsys.readouterr().err

    def test_negative_samples(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count", "--triangle", "down", "--samples", "-1"])
        assert err.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, low", [
        (["table", "--n", "3", "--l-max", "abc"], "--l-max", 1),
        (["count", "--triangle", "down", "--samples", "x"], "--samples", 0),
    ])
    def test_non_integer_named_plainly(self, argv, flag, low, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"{flag}: must be an integer >= {low}: '{argv[-1]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["table", "--n", "4", "--n0-list", "1,x"], "--n0-list"),
        (["count", "--triangle", "down", "--box-radius", "1/0"], "--box-radius"),
    ])
    def test_malformed_list_or_rational(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e-5", "0.5", "1/0"])
    def test_box_radius_takes_ints_and_fractions_only(self, text, capsys):
        """--box-radius reads a rational as network JSON does: no decimal
        point or exponent, and the usage error names the text."""
        with pytest.raises(SystemExit) as err:
            main(["count", "--triangle", "down", "--box-radius", text])
        assert err.value.code == 2
        assert f"--box-radius: bad rational: {text!r}" in capsys.readouterr().err

    def test_zero_box_radius(self, capsys):
        assert main(["count", "--triangle", "down", "--box-radius", "0"]) == 1
        assert "error: box radius must be positive" in capsys.readouterr().err

    # A dimension past the index range; bound without --gamma is left out,
    # since 2 ** sum(widths) would allocate.
    @pytest.mark.parametrize("argv", [
        "bound --n0 2 --widths 99999999999999999999 --gamma zaslavsky",
        "bound --n0 99999999999999999999 --widths 3 --gamma binomial",
        "table --n 99999999999999999999 --l-max 1",
        "matrix --gamma binomial --n 99999999999999999999",
        "table --n 4 --l-max 99999999999999999999",
        "decompose --n 99999999999999999999",
    ])
    def test_dimension_past_index_range(self, argv, capsys):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        "bound --n0 2 --widths 99999999999999999999 --gamma zaslavsky",
        "bound --n0 99999999999999999999 --widths 3 --gamma binomial",
        "table --n 99999999999999999999 --l-max 1",
        "matrix --gamma binomial --n 99999999999999999999",
        "table --n 4 --l-max 99999999999999999999",
        "decompose --n 99999999999999999999",
    ])
    def test_dimension_past_index_range_names_the_limit(self, argv, capsys):
        assert main(argv.split()) == 1
        assert capsys.readouterr().err == (
            f"error: dimension 99999999999999999999 exceeds sys.maxsize ({sys.maxsize})\n")

    def test_missing_required(self):
        with pytest.raises(SystemExit):
            main(["bound", "--widths", "3"])

    def test_bad_arch_reported(self, capsys):
        code = main(["bound", "--n0", "0", "--widths", "3"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestOutputAndFiles:
    def test_missing_network_file(self, tmp_path, capsys):
        assert main(["count", "--network", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")

    def test_closed_stdout_is_not_an_error(self, tmp_path, capsys, monkeypatch):
        # capsys before monkeypatch: teardown runs in reverse, so monkeypatch
        # puts back capsys's open stream before capsys restores the real one.
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        try:
            assert main(["table", "--n", "4", "--l-max", "3"]) == 1
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""

    def test_reader_closing_the_pipe_early(self):
        """``relubound matrix ... | head -1``: exit 1, nothing on stderr."""
        env = dict(os.environ, PYTHONPATH=str(Path(relubound.__file__).parents[1]))
        argv = [sys.executable, "-m", "relubound.cli", "matrix", "--gamma", "naive",
                "--n", "150"]  # about 1 MB of output, far beyond a pipe buffer
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1
        assert err == b""

    @pytest.mark.parametrize("argv", [
        "matrix --gamma binomial --n 6 --format json",
        "table --n 4 --l-max 3 --format json",
        "table --n 4 --l-max 3 --format csv",
        "decompose --n 6 --format json",
    ])
    def test_no_text_grid_for_json_or_csv(self, argv, monkeypatch, capsys):
        def fail(rows):
            raise AssertionError("text grid built")

        monkeypatch.setattr("relubound.cli.format_matrix", fail)
        assert main(argv.split()) == 0
        assert capsys.readouterr().err == ""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()
