import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from baire_odometers import analysis, cli
from baire_odometers.cli import main
from baire_odometers.interval_maps import gauss_odometer
from baire_odometers.trees import locate
from baire_odometers.words import FiniteWord


@pytest.fixture
def digit_limit():
    """Python's default int/str digit limit for one test, the previous limit restored after."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


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


def decimal_by_fraction(x: Fraction, bits: int) -> str:
    """Oracle for cli._decimal_string: the Fraction rendering it replaced."""
    digits = max(1, math.ceil(bits * math.log10(2)))
    scaled = round(x * 10**digits)
    sign, scaled = ("-", -scaled) if scaled < 0 else ("", scaled)
    return f"{sign}{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"


class TestDecimal:
    """--decimal rounds the pair (p, q) half to even in integers, as round(Fraction) does."""

    @pytest.mark.parametrize("x, bits, text", [
        (Fraction(1, 4), 1, "0.2"), (Fraction(3, 4), 1, "0.8"), (Fraction(0), 1, "0.0"),
        (Fraction(1), 1, "1.0"), (Fraction(1, 8), 4, "0.12"), (Fraction(3, 8), 4, "0.38"),
        (Fraction(1, 16), 7, "0.062"), (Fraction(-1, 4), 1, "-0.2"),
    ])
    def test_ties_and_ends(self, x, bits, text):
        assert cli._decimal_string(x.numerator, x.denominator, bits) == text
        assert decimal_by_fraction(x, bits) == text

    def test_dyadics_at_one_to_three_digits(self):
        # bits 1-3 print 1 digit, 4-6 print 2 and 7-9 print 3: every k/64 is a tie somewhere
        for bits in range(1, 10):
            for k in range(65):
                x = Fraction(k, 64)
                assert cli._decimal_string(x.numerator, x.denominator, bits) == \
                    decimal_by_fraction(x, bits), (x, bits)

    def test_random_pairs(self):
        rng = random.Random(21)
        for _ in range(2000):
            x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
            bits = rng.randrange(1, 80)
            assert cli._decimal_string(x.numerator, x.denominator, bits) == \
                decimal_by_fraction(x, bits), (x, bits)


def test_closed_pipe_exits_141_without_a_traceback():
    """A reader that closes stdout early ends the command as a SIGPIPE would."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "baire_odometers", "enumerate", "--system", "cf", "--count",
         "100000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1/2\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


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
        code, out, err = run(capsys, "orbit", "--map", "OG", "--start", "3/2", "--steps", "1")
        assert code == 2
        assert "outside" in err
        assert out == ""

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("steps", ["0", "1"])
    @pytest.mark.parametrize("argv", [
        ["--map", "OG", "--start", "3/2"],
        ["--map", "OG", "--start", "0"],
        ["--map", "OR", "--start", "1"],
        ["--map", "gauss", "--start", "0"],
        ["--map", "interval-dyadic", "--start", "1"],
        ["--map", "OG", "--start", "1", "--boundary", "left"],
        ["--map", "OGk", "--start", "2/3"],
        ["--map", "OGk", "--k", "3", "--start", "2/7"],
    ])
    def test_start_outside_domain_prints_no_row(self, capsys, argv, steps, fmt):
        code, out, err = run(capsys, "orbit", *argv, "--steps", steps, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "outside" in err

    @pytest.mark.parametrize("argv", [
        ["--map", "OG", "--start", "1"],
        ["--map", "gauss", "--start", "1"],
        ["--map", "OR", "--start", "0"],
        ["--map", "interval-dyadic", "--start", "0"],
        ["--map", "OGk", "--k", "3", "--start", "3/10"],
    ])
    def test_start_at_domain_edge_accepted(self, capsys, argv):
        code, out, _ = run(capsys, "orbit", *argv, "--steps", "0")
        assert code == 0
        assert out.splitlines() == [argv[-1]]

    def test_left_boundary_orbit_reaching_1_is_rejected_there(self, capsys):
        code, out, err = run(capsys, "orbit", "--map", "OG", "--start", "1/2", "--steps", "4",
                             "--boundary", "left")
        assert (code, out, err) == (2, "1/2\n1\n", "error: 1 outside (0, 1)\n")

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "orbit", "--map", "OG", "--start", "2/3", "--steps", "1",
                           "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "word", "value"]
        assert rows[1] == ["0", "(1,2)", "2/3"]
        assert rows[2] == ["1", "(3)", "1/3"]

    @pytest.mark.parametrize("renyi_map", ["OR", "renyi"])
    def test_csv_zero_cell_round_trips(self, capsys, renyi_map):
        code, out, _ = run(capsys, "orbit", "--map", renyi_map, "--start", "0", "--steps", "1",
                           "--format", "csv")
        assert code == 0
        row = list(csv.reader(io.StringIO(out)))[1]
        assert row == ["0", "zero", "0/1"]
        code, out, _ = run(capsys, "codec", "--from", "word", "--to", "bcf", row[1])
        assert code == 0
        assert Fraction(out.strip()) == Fraction(row[2])

    def test_exact_output_above_int_digit_limit(self, capsys, digit_limit):
        code, out, err = run(capsys, "orbit", "--map", "OG", "--start", "1/30000", "--steps", "1")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == digit_limit
        p, q = out.splitlines()[1].split("/")
        assert len(p) > digit_limit
        want = gauss_odometer(Fraction(1, 30000))
        sys.set_int_max_str_digits(0)  # the fixture restores it
        assert (int(p), int(q)) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_error_mid_stream_keeps_the_rows_before_it(self, capsys, monkeypatch, fmt):
        calls = 0

        def faulty(x, *args):  # call n computes row n
            nonlocal calls
            calls += 1
            if calls == 1000:
                raise ValueError("injected at row 1000")
            return gauss_odometer(x, *args)

        monkeypatch.setattr(cli, "gauss_odometer", faulty)
        code, out, err = run(capsys, "orbit", "--map", "OG", "--start", "3/5", "--steps", "1500",
                             "--format", fmt)
        assert code == 2
        assert len(out.splitlines()) == 1000 and out.endswith("\n")
        assert err == "error: injected at row 1000\n"

    def test_long_error_line_is_bounded(self, capsys, digit_limit):
        # the 401-digit start lies outside (0, 1]: rejected before its row
        code, _, err = run(capsys, "orbit", "--map", "OG", "--start", "1e400", "--steps", "1")
        assert code == 2
        assert sys.get_int_max_str_digits() == digit_limit
        line, = err.splitlines()
        assert line.startswith("error: 1000")
        assert line.endswith("...")
        assert len(line) <= 200


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

    @pytest.mark.parametrize("floor, root", [(0, None), (1, "2,1,3"), (2, "3,2"), (3, "4,3,3")])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_json_positions_are_the_word_addresses(self, capsys, floor, root, mirror):
        argv = ["tree", "--floor", str(floor), "--levels", "6", "--format", "json"]
        argv += ["--root", root] if root else []
        argv += ["--mirror"] if mirror else []
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 63
        for row in rows:
            at = locate(FiniteWord(row["floor"], tuple(row["word"])))
            assert (row["level"], row["pos"]) == (at.level, str(at.position))

    def test_value_floor_mismatch(self, capsys):
        code, _, err = run(capsys, "tree", "--floor", "0", "--levels", "2",
                           "--values", "cf")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("floor, values, message", [
        ("0", "cf", "continued-fraction words need letters >= 1"),
        ("0", "bcf", "backward continued-fraction words need letters >= 2"),
        ("1", "bcf", "backward continued-fraction words need letters >= 2"),
        ("1", "dyadic", "dyadic words need floor 0"),
    ])
    def test_decoder_rejects_the_floor_before_any_row(self, capsys, floor, values, message, fmt):
        code, out, err = run(capsys, "tree", "--floor", floor, "--levels", "3",
                             "--values", values, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")


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
        code, out, _ = run(capsys, "codec", "--from", "bcf", "--to", "bcf", "zero")
        assert (code, out) == (0, "zero\n")

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

    @pytest.mark.parametrize("src, dst", [
        ("cf", "cf"), ("cf", "bcf"), ("cf", "dyadic"),
        ("dyadic", "cf"), ("dyadic", "bcf"), ("dyadic", "dyadic"),
        ("word", "cf"), ("word", "dyadic"),
    ])
    def test_zero_word_only_in_bcf(self, capsys, src, dst):
        code, out, err = run(capsys, "codec", "--from", src, "--to", dst, "zero")
        assert (code, out, err) == (2, "", "error: malformed word 'zero'\n")


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
CODEC_DOMAINS = {
    "cf": unit_fractions.filter(lambda x: x > 0),
    "bcf": unit_fractions.filter(lambda x: x < 1),
    "dyadic": st.integers(1, 80).flatmap(
        lambda m: st.integers(0, (1 << (m - 1)) - 1).map(lambda p: Fraction(2 * p + 1, 1 << m))),
}


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(CODEC_DOMAINS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_codec_round_trip_through_word(name, data):
    x = data.draw(CODEC_DOMAINS[name])
    code, word_text, _ = run_quiet("codec", "--from", name, "--to", "word", str(x))
    assert code == 0
    code, value, _ = run_quiet("codec", "--from", "word", "--to", name, word_text.strip())
    assert code == 0
    assert Fraction(value.strip()) == x


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

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_budget_below_2_runs_as_2(self, capsys, budget):
        code, out, _ = run(capsys, "verify", "--budget", budget)
        assert code == 0
        assert out == run(capsys, "verify", "--budget", "2")[1]

    def test_renorm_fails_on_the_same_word_alone_and_in_all(self, capsys, monkeypatch):
        real = analysis.renormalization_exponent

        def faulty(w, m, n):  # one step too many where the period has length 3
            return real(w, m, n) + (len(w.period) == 3)

        monkeypatch.setattr(analysis, "renormalization_exponent", faulty)
        fails = []
        for suite in ("all", "renorm"):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--budget", "2")
            assert code == 1
            fails += [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 2 and fails[0] == fails[1]
        assert fails[0].startswith("FAIL [renorm]") and ", first at w=" in fails[0]

    def test_a_check_that_raises_fails_and_the_run_goes_on(self, capsys, monkeypatch):
        real = analysis.gauss_odometer

        def faulty(x, *args):  # leaves (0, 1] at 1/4, so the next step raises
            return x + 1 if x == Fraction(1, 4) else real(x, *args)

        monkeypatch.setattr(analysis, "gauss_odometer", faulty)
        code, out, err = run(capsys, "verify", "--suite", "all", "--budget", "4")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert len(lines) == 16 and lines[-1].startswith("ok   [distribution]")
        assert [line for line in lines if line.startswith("FAIL [periods]")] == [
            "FAIL [periods] gauss odometer periods are exactly 2^(digit sum - 2): "
            "levels 2..4, first at s=4 (ValueError: 5/4 outside (0, 1])"]


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
         "need k >= 1"),
        (["orbit", "--map", "OGk", "--k", "-2", "--start", "1/3", "--steps", "1"],
         "need k >= 1"),
        (["tree", "--floor", "1", "--levels", "0"], "--levels: must be >= 1"),
        (["tree", "--floor", "1", "--levels", "-2"], "--levels: must be >= 1"),
        (["tree", "--floor", "1", "--levels", "2", "--decimal", "0"], "--decimal: must be >= 1"),
        (["verify", "--suite", "counting", "--budget", "-4"], "--budget: must be >= 0"),
        (["enumerate", "--system", "cf", "--count", "x"], "invalid int value"),
        (["codec", "--from", "cf", "--to", "word", "1/0"], "zero denominator in '1/0'"),
        (["orbit", "--map", "OG", "--start", "1/0", "--steps", "1"],
         "zero denominator in '1/0'"),
    ])
    def test_out_of_range_input_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert len(err.splitlines()[-1]) < 120

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--system", "cf", "--offset", "zero", "--count", "3", "--format", "csv"],
        ["orbit", "--map", "O", "--start", "1,0", "--steps", "2", "--format", "csv"],
        ["orbit", "--map", "OGk", "--k", "0", "--start", "1/3", "--steps", "1", "--format", "csv"],
        ["orbit", "--map", "O", "--start", "2;0", "--steps", "0"],
        ["orbit", "--map", "O", "--start", "2;0", "--steps", "2"],
        ["orbit", "--map", "O0", "--start", "1;x", "--steps", "2"],
    ])
    def test_error_before_first_row_prints_nothing(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["orbit", "--map", "OG", "--start", "1/3", "--steps", "0"],
        ["verify", "--suite", "counting", "--budget", "0"],
        ["orbit", "--map", "OGk", "--k", "1", "--start", "1/3", "--steps", "1"],
    ])
    def test_range_edges_accepted(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out


# Line count and sha256 prefix of stdout for commands whose output is pinned:
# every command, format, --decimal, --mirror, tail-word orbits and the bcf
# word of 0; the last five are long streams, over a thousand rows or 29 kB.
GOLDEN = [
    ("enumerate --system cf --count 40", 40, "8833d8d6bf7797e8"),
    ("enumerate --system bcf --count 40 --format json", 40, "6069569b10c3ad09"),
    ("enumerate --system dyadic --count 40 --format csv", 41, "457a952e9314aebd"),
    ("enumerate --system bcf --count 30 --format csv", 31, "34525e13236b3cfb"),
    ("enumerate --system cf --count 20 --format json --decimal 12", 20, "ab3e24991c5f0e4b"),
    ("enumerate --system dyadic --count 20 --decimal 30", 20, "5860f9b472d8ac7b"),
    ("enumerate --system bcf --count 20 --offset root --format json", 20, "68f86068c1ee286e"),
    ("enumerate --system bcf --count 10 --format csv --decimal 8", 11, "4a3869772d435637"),
    ("orbit --map OG --start 3/5 --steps 20", 21, "f080ebc857d1f9d2"),
    ("orbit --map OG --start 3/5 --steps 20 --format json --decimal 16", 21, "53038a0f55236230"),
    ("orbit --map OG --start 3/7 --steps 6 --boundary left --format csv", 8, "39b3bd782c8667f2"),
    ("orbit --map OR --start 0 --steps 20 --format json", 21, "70e2258d94d62573"),
    ("orbit --map OR --start 0 --steps 20 --format csv", 22, "5ee2f126ed821b1b"),
    ("orbit --map OGk --k 3 --start 1/7 --steps 15 --format csv", 17, "aa83f908bbd080ce"),
    ("orbit --map gauss --start 5/13 --steps 3 --format json", 4, "efaf0205683fb380"),
    ("orbit --map renyi --start 4/7 --steps 4 --format json", 5, "e5b1b5ddffc94992"),
    ("orbit --map interval-dyadic --start 1/2 --steps 30 --format csv", 32, "524effc1cbc486c8"),
    ("orbit --map interval-dyadic --start 5/8 --steps 10 --decimal 20", 11, "cf715b7ac7330ec7"),
    ("orbit --map O --start 1,1,0,1;0 --steps 12 --format json", 13, "f1cb7990237f9e18"),
    ("orbit --map O0 --start 3;1,0 --steps 10 --format csv", 12, "e5937c567c329f94"),
    ("orbit --map Ok --k 2 --start 3,2;5 --steps 10", 11, "9f498e6f29514a6e"),
    ("orbit --map O0 --start 1 --steps 30 --format json", 31, "2f476e54b5205607"),
    ("orbit --map Ok --k 1 --start 2 --steps 15 --policy cyclic --format csv", 17, "d8af9ccadc80978b"),
    ("orbit --map O0 --start 0,2 --steps 15 --policy subtree", 16, "472f2923a91dce5d"),
    ("tree --floor 1 --levels 5", 5, "1b7d375b4ae10c45"),
    ("tree --floor 1 --levels 4 --values cf --mirror", 4, "c9b493bd15731644"),
    ("tree --floor 2 --levels 4 --values bcf --format json", 15, "7cb32b7c5afc7042"),
    ("tree --floor 0 --levels 4 --values dyadic --format json --decimal 10", 15, "c5a0d2472c91ea4b"),
    ("tree --floor 1 --levels 3 --root 2,1 --values cf --decimal 12", 3, "6ba4a38cd597c036"),
    ("tree --floor 1 --levels 3 --format json --mirror", 7, "316b3546be70f82c"),
    ("codec --from cf --to bcf 1,1,3", 1, "653e1fb0a70de093"),
    ("codec --from bcf --to word 0/1", 1, "ff9fb51036a15c5c"),
    ("codec --from word --to bcf zero", 1, "9a271f2a916b0b6e"),
    ("codec --from dyadic --to word 19/32", 1, "9c1ba490126115f5"),
    ("enumerate --system cf --count 5000", 5000, "e01b29420d3a4b34"),
    ("enumerate --system bcf --count 5000", 5000, "53bce9fd46508302"),
    ("enumerate --system dyadic --count 5000", 5000, "4213421c457ea901"),
    ("enumerate --system bcf --count 5000 --format json", 5000, "bd0c226620746128"),
    ("enumerate --system bcf --count 5000 --format csv", 5001, "c285089367b38b91"),
    ("enumerate --system bcf --count 5000 --offset root --format json", 5000, "8234b7bb9bf59a5f"),
    ("enumerate --system bcf --count 5000 --offset root --format csv", 5001, "c5b2407f3c65314c"),
    ("enumerate --system cf --count 5000 --decimal 20", 5000, "a60a20c6d08b8e99"),
    ("enumerate --system cf --count 5000 --format json", 5000, "43821a63357ea28b"),
    ("enumerate --system cf --count 5000 --format csv", 5001, "4a744fcd617f9a74"),
    ("enumerate --system dyadic --count 5000 --format json", 5000, "96a3b1544607d3c1"),
    ("enumerate --system dyadic --count 5000 --format csv", 5001, "2ba41ee4f46304f3"),
    ("enumerate --system cf --count 65537", 65537, "630c7f73e415ec93"),
    ("enumerate --system bcf --count 65537", 65537, "7cc309ac621e0d06"),
    ("enumerate --system dyadic --count 65537", 65537, "f0c02d0248ef02d2"),
    ("verify --suite all --budget 8", 16, "2d561f1f0542ce5d"),
    ("orbit --map OR --start 41/97 --steps 1500", 1501, "4926ad3f4fbedb44"),
    ("orbit --map OG --start 3/5 --steps 1500 --format json", 1501, "d9bcc77c6efbf145"),
    ("orbit --map O0 --start 0,1,2,0,3 --steps 1500", 1501, "ef4db2e9d2bd610e"),
    ("tree --floor 1 --levels 12 --root 1,2 --values cf", 12, "d5be576fb087ff79"),
    ("tree --floor 2 --levels 10 --root 2,3 --values bcf --format json", 1023, "5542edb0bf49d65e"),
    # --decimal on ties (1/4 -> 0.2, 3/4 -> 0.8); csv prints no decimal, so --decimal leaves it
    ("enumerate --system dyadic --count 5000 --decimal 2", 5000, "88e7fc5e1745945f"),
    ("enumerate --system bcf --count 5000 --format csv --decimal 3", 5001, "c285089367b38b91"),
    ("orbit --map OR --start 0 --steps 200 --decimal 1", 201, "b59644987a8f656f"),
]


@pytest.mark.parametrize("command, lines, digest", GOLDEN)
def test_golden_stdout(capsys, command, lines, digest):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
