import csv
import io
import json

import pytest

from baire_odometers.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEnumerate:
    def test_plain_bcf(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--system", "bcf", "--count", "5")
        assert code == 0
        assert out.splitlines() == ["0", "1/2", "1/3", "2/3", "1/4"]

    def test_plain_cf(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--system", "cf", "--count", "7")
        assert code == 0
        assert out.splitlines() == ["1/2", "2/3", "1/3", "3/5", "2/5", "3/4", "1/4"]

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--system", "dyadic", "--count", "3",
                           "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"n": 0, "word": [1], "floor": 0, "value": "1/2"},
            {"n": 1, "word": [0, 1], "floor": 0, "value": "1/4"},
            {"n": 2, "word": [2], "floor": 0, "value": "3/4"},
        ]

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--system", "cf", "--count", "3",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "word", "value"]
        assert rows[1] == ["0", "(2)", "1/2"]
        assert rows[2] == ["1", "(1,2)", "2/3"]

    def test_bcf_zero_word_in_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--system", "bcf", "--count", "1",
                           "--format", "json")
        assert json.loads(out.splitlines()[0]) == {
            "n": 0, "word": [], "floor": 2, "value": "0/1"}

    def test_offset_root(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--system", "bcf", "--count", "2",
                           "--offset", "root")
        assert out.splitlines() == ["1/2", "1/3"]

    def test_offset_zero_invalid_for_cf(self, capsys):
        code, _, err = run(capsys, "enumerate", "--system", "cf", "--count", "2",
                           "--offset", "zero")
        assert code == 2
        assert "zero" in err

    def test_decimal_rendering(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--system", "dyadic", "--count", "2",
                           "--decimal", "8")
        assert code == 0
        assert out.splitlines() == ["0.500", "0.250"]


class TestOrbit:
    def test_word_map_topdown(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "O0", "--start", "1", "--steps", "3",
                           "--k", "1")
        assert code == 0
        assert out.splitlines() == ["(1)", "(1,1)", "(2)", "(1,1,1)"]

    def test_word_map_cyclic_policy(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "Ok", "--start", "2", "--steps", "1",
                           "--k", "1", "--policy", "cyclic")
        assert out.splitlines() == ["(2)", "(1,1)"]

    def test_binary_tailword_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "O", "--start", "1,1,0,1;0",
                           "--steps", "1")
        assert code == 0
        assert out.splitlines() == ["1,1,0,1;0", "0,0,1,1;0"]

    def test_tailword_json(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "Ok", "--start", "3,2;5",
                           "--k", "2", "--steps", "1", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"n": 0, "word": {"pre": [3, 2], "per": [5], "floor": 2}}
        assert rows[1] == {"n": 1, "word": {"pre": [2, 3], "per": [5], "floor": 2}}

    def test_finite_start_with_map_O_fails(self, capsys):
        code, _, err = run(capsys, "orbit", "--map", "O", "--start", "1,0", "--steps", "1")
        assert code == 2
        assert "pre;per" in err

    def test_rational_map_with_words(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "OR", "--start", "0/1", "--steps", "2",
                           "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"n": 0, "word": [], "value": "0/1"},
            {"n": 1, "word": [2], "value": "1/2"},
            {"n": 2, "word": [2, 2], "value": "1/3"},
        ]

    def test_gauss_odometer_left(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "OG", "--start", "1/3", "--steps", "1",
                           "--boundary", "left")
        assert out.splitlines() == ["1/3", "1/2"]

    def test_interval_dyadic(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "interval-dyadic", "--start", "1/2",
                           "--steps", "3")
        assert out.splitlines() == ["1/2", "1/4", "3/4", "1/8"]

    def test_k_gauss(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "OGk", "--start", "2/7", "--steps", "1",
                           "--k", "2")
        assert out.splitlines() == ["2/7", "3/7"]

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "orbit", "--map", "OG", "--start", "3/2", "--steps", "1")
        assert code == 2
        assert "outside" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "OG", "--start", "2/3", "--steps", "1",
                           "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "word", "value"]
        assert rows[1] == ["0", "(1,2)", "2/3"]
        assert rows[2] == ["1", "(3)", "1/3"]


class TestTree:
    def test_word_rows(self, capsys):
        code, out, _ = run(capsys, "tree", "--floor", "1", "--levels", "3")
        assert code == 0
        assert out.splitlines() == [
            "(1)", "(1,1) (2)", "(1,1,1) (2,1) (1,2) (3)"]

    def test_value_rows_dyadic(self, capsys):
        code, out, _ = run(capsys, "tree", "--floor", "0", "--levels", "3",
                           "--root", "1", "--values", "dyadic")
        assert out.splitlines() == ["1/2", "1/4 3/4", "1/8 5/8 3/8 7/8"]

    def test_value_rows_bcf(self, capsys):
        code, out, _ = run(capsys, "tree", "--floor", "2", "--levels", "3",
                           "--values", "bcf")
        assert out.splitlines() == ["1/2", "1/3 2/3", "1/4 3/5 2/5 3/4"]

    def test_mirror(self, capsys):
        code, out, _ = run(capsys, "tree", "--floor", "1", "--levels", "3",
                           "--root", "2", "--values", "cf", "--mirror")
        assert out.splitlines() == ["1/2", "1/3 2/3", "1/4 3/4 2/5 3/5"]

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "tree", "--floor", "1", "--levels", "2",
                           "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"level": 1, "pos": "0", "word": [1], "floor": 1},
            {"level": 2, "pos": "0", "word": [1, 1], "floor": 1},
            {"level": 2, "pos": "1", "word": [2], "floor": 1},
        ]

    def test_value_floor_mismatch(self, capsys):
        code, _, err = run(capsys, "tree", "--floor", "0", "--levels", "2",
                           "--values", "cf")
        assert code == 2


class TestCodec:
    def test_rational_to_word(self, capsys):
        code, out, _ = run(capsys, "codec", "--from", "dyadic", "--to", "word", "19/32")
        assert code == 0
        assert out.strip() == "(1,0,2)"

    def test_word_to_rational(self, capsys):
        code, out, _ = run(capsys, "codec", "--from", "word", "--to", "bcf", "3,2,2")
        assert out.strip() == "4/7"

    def test_system_to_system_reencodes_word(self, capsys):
        code, out, _ = run(capsys, "codec", "--from", "cf", "--to", "bcf", "1,1,3")
        assert code == 0
        assert out.strip() == "(3,2,2)"

    def test_zero_marker_both_ways(self, capsys):
        code, out, _ = run(capsys, "codec", "--from", "bcf", "--to", "word", "0/1")
        assert out.strip() == "zero"
        code, out, _ = run(capsys, "codec", "--from", "word", "--to", "bcf", "zero")
        assert out.strip() == "0"

    def test_word_to_word_rejected(self, capsys):
        code, _, err = run(capsys, "codec", "--from", "word", "--to", "word", "1,2")
        assert code == 2

    def test_malformed_input(self, capsys):
        code, _, err = run(capsys, "codec", "--from", "word", "--to", "cf", "4/7")
        assert code == 2
        assert "malformed" in err

    def test_parens_accepted(self, capsys):
        code, out, _ = run(capsys, "codec", "--from", "word", "--to", "cf", "(1,2)")
        assert out.strip() == "2/3"


RENORM_BUDGET_8 = (
    "ok   [renorm] renormalization: step^m shift^n = shift^n step^(m 2^n 2^(w1+..+wn)): "
    "100 words x m,n <= 3, 0 mismatches\n"
)

ORACLES_BUDGET_8 = (
    "ok   [oracles] gauss closed form = cyclic word action: 5634 rationals, q <= 136, 0 mismatches\n"
    "ok   [oracles] renyi closed form = backward word action: 5634 rationals, q <= 136, 0 mismatches\n"
    "ok   [oracles] restricted gauss closed form (k=2) = word action: "
    "1195 admissible rationals, 0 mismatches\n"
    "ok   [oracles] restricted gauss closed form (k=3) = word action: "
    "542 admissible rationals, 0 mismatches\n"
    "ok   [oracles] cf enumeration = son-rule breadth-first oracle: first 256 values\n"
    "ok   [oracles] bcf enumeration = son-rule breadth-first oracle: first 256 values\n"
    "ok   [oracles] dyadic enumeration = son-rule breadth-first oracle: first 256 values\n"
    "ok   [oracles] bcf enumeration = Stern diatomic oracle: first 256 values\n"
)


class TestVerify:
    @pytest.mark.parametrize("suite, expected", [
        ("renorm", RENORM_BUDGET_8),
        ("oracles", ORACLES_BUDGET_8),
    ])
    def test_golden_output(self, capsys, suite, expected):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--budget", "8")
        assert code == 0
        assert out == expected

    def test_small_budget_all_green(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counting", "--budget", "6")
        assert code == 0
        assert out.startswith("ok")

    def test_periods_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "periods", "--budget", "6")
        assert code == 0
        assert "2^(digit sum - 2)" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["polish"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["enumerate", "--count", "3"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "--system", "cf", "--count", "0"], "--count: must be >= 1"),
        (["enumerate", "--system", "cf", "--count", "-3"], "--count: must be >= 1"),
        (["enumerate", "--system", "cf", "--count", "2", "--decimal", "0"],
         "--decimal: must be >= 1"),
        (["enumerate", "--system", "cf", "--count", "2", "--decimal", "-3"],
         "--decimal: must be >= 1"),
        (["orbit", "--map", "OG", "--start", "1/3", "--steps", "-1"], "--steps: must be >= 0"),
        (["orbit", "--map", "OG", "--start", "1/3", "--steps", "1", "--decimal", "0"],
         "--decimal: must be >= 1"),
        (["orbit", "--map", "OGk", "--k", "0", "--start", "1/3", "--steps", "1"],
         "--k must be >= 1 for OGk"),
        (["orbit", "--map", "OGk", "--k", "-2", "--start", "1/3", "--steps", "1"],
         "--k must be >= 1 for OGk"),
        (["tree", "--floor", "1", "--levels", "0"], "--levels: must be >= 1"),
        (["tree", "--floor", "1", "--levels", "-2"], "--levels: must be >= 1"),
        (["tree", "--floor", "1", "--levels", "2", "--decimal", "0"], "--decimal: must be >= 1"),
        (["verify", "--suite", "counting", "--budget", "-4"], "--budget: must be >= 0"),
        (["enumerate", "--system", "cf", "--count", "x"], "invalid int value"),
    ])
    def test_out_of_range_input_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert len(err.splitlines()[-1]) < 120

    @pytest.mark.parametrize("argv", [
        ["orbit", "--map", "OG", "--start", "1/3", "--steps", "0"],
        ["verify", "--suite", "counting", "--budget", "0"],
        ["orbit", "--map", "OGk", "--k", "1", "--start", "1/3", "--steps", "1"],
    ])
    def test_range_edges_accepted(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out
