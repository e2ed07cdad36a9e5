"""Command-line surface: enumerate, orbit, tree, codec, verify.

All rational input and output is exact ("p/q"); decimal rendering only
appears behind --decimal BITS.  Finite words read and print as comma lists
like "1,0,2" (parentheses optional); eventually periodic words use
"pre;per", e.g. "0,1;1,0" or ";0".  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import analysis, odometers, words
from .codecs import (
    BCF_ZERO,
    SYSTEMS,
    bcf_decode,
    bcf_encode,
    bcf_finite_form,
    bcf_tail_form,
    cf_decode,
    cf_encode,
    format_rational,
    parse_rational,
    system,
)
from .interval_maps import (
    Boundary,
    dyadic_interval_step,
    gauss,
    gauss_odometer,
    k_gauss_odometer,
    renyi,
    renyi_odometer,
)
from .odometers import baire_step, dyadic_step
from .trees import locate, subtree_level
from .word_actions import Policy, enumerate_words, orbit as word_orbit, step as word_step
from .words import FiniteWord, TailWord, block_encode, compare_rlex, tail, total_index

ERROR_WIDTH = 200  # an error line longer than this is cut short


def parse_word(text: str, floor: int) -> FiniteWord:
    body = text.strip().strip("()")
    try:
        letters = tuple(int(t) for t in body.split(","))
    except ValueError:
        raise ValueError(f"malformed word {text!r}") from None
    return FiniteWord(floor, letters)


def parse_tailword(text: str, floor: int) -> TailWord:
    pre_text, _, per_text = text.partition(";")
    try:
        pre = tuple(int(t) for t in pre_text.split(",") if t.strip() != "")
        per = tuple(int(t) for t in per_text.split(",") if t.strip() != "")
    except ValueError:
        raise ValueError(f"malformed eventually periodic word {text!r}") from None
    return TailWord(floor, pre, per)


def _decimal_string(x: Fraction, bits: int) -> str:
    digits = max(1, math.ceil(bits * math.log10(2)))
    scaled = round(x * 10**digits)
    sign, scaled = ("-", -scaled) if scaled < 0 else ("", scaled)
    return f"{sign}{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"


def _value_text(x: Fraction, bits: int | None) -> str:
    """Plain rendering of a value: exact "p/q", or a decimal with --decimal."""
    return _decimal_string(x, bits) if bits else str(x)


Row = tuple[dict, str, object]  # (json record, plain line, csv word cell)


def _emit(rows: Iterable[Row], fmt: str) -> int:
    """Write each row in one format and return exit code 0.  The csv cell goes
    through str(), None as an empty cell.  Nothing is written before the first
    row exists, so an input error raised while building it leaves stdout empty."""
    if fmt == "json":
        for record, _, _ in rows:
            print(json.dumps(record, separators=(",", ":")))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        for n, (record, _, cell) in enumerate(rows):
            if n == 0:
                writer.writerow(["n", "word", "value"])
            writer.writerow([record["n"], cell, record.get("value", "")])
    else:
        for _, line, _ in rows:
            print(line)
    return 0


def _value_row(record: dict, x: Fraction, w, bits: int | None) -> Row:
    """A row of a rational stream: the record gains the exact value (and the
    decimal); w, the value's codec word or None, is the csv cell."""
    record["value"] = format_rational(x)
    line = _value_text(x, bits)
    if bits:
        record["decimal"] = line
    return record, line, w


# ---------------------------------------------------------------- enumerate

def _enumerate_rows(args) -> Iterator[Row]:
    floor = system(args.system)[0]
    for n, (w, x) in enumerate(analysis.enumerate_coded(args.system, args.count, args.offset)):
        yield _value_row({"n": n, "word": list(w.letters), "floor": floor}, x, w, args.decimal)


# -------------------------------------------------------------------- orbit

WORD_MAPS = ("O", "O0", "Ok")
# interval map -> the codec system of the words on its rows
RATIONAL_MAPS = {"OG": "cf", "OR": "bcf", "OGk": "cf", "gauss": "cf", "renyi": "bcf",
                 "interval-dyadic": "dyadic"}


def _orbit_rows(args) -> Iterator[Row]:
    return _value_orbit_rows(args) if args.map in RATIONAL_MAPS else _word_orbit_rows(args)


def _word_orbit_rows(args) -> Iterator[Row]:
    k = args.k if args.k is not None else 0 if args.map in ("O", "O0") else 1
    if ";" not in args.start:
        if args.map == "O":
            raise ValueError("map O acts on infinite binary words; use the pre;per syntax")
        start = parse_word(args.start, k)
        for n, cur in enumerate(word_orbit(start, Policy(args.policy), args.steps + 1)):
            text = str(cur)
            yield {"n": n, "word": list(cur.letters), "floor": cur.floor}, text, text
        return
    cur = parse_tailword(args.start, 0 if args.map == "O" else k)
    step = dyadic_step if args.map == "O" else baire_step
    for n in range(args.steps + 1):
        text = str(cur)
        word = {"pre": list(cur.preperiod), "per": list(cur.period), "floor": cur.floor}
        yield {"n": n, "word": word}, text, text
        if n < args.steps:
            cur = step(cur)


def _value_orbit_rows(args) -> Iterator[Row]:
    k = args.k if args.k is not None else 2
    if args.map == "OGk" and k < 1:
        raise ValueError("--k must be >= 1 for OGk")
    boundary = Boundary(args.boundary)
    step: Callable[[Fraction], Fraction] = {
        "OG": lambda x: gauss_odometer(x, boundary),
        "OR": renyi_odometer,
        "OGk": lambda x: k_gauss_odometer(x, k),
        "gauss": gauss,
        "renyi": renyi,
        "interval-dyadic": dyadic_interval_step,
    }[args.map]
    _, encode, _ = system(RATIONAL_MAPS[args.map])
    cur = parse_rational(args.start)
    for n in range(args.steps + 1):
        try:
            w = encode(cur)
        except ValueError:  # the point lies outside the codec's domain
            w = None
        if n == 0:
            _check_start(args, cur, w, k)
        yield _value_row({"n": n, "word": None if w is None else list(w.letters)},
                         cur, w, args.decimal)
        if n < args.steps:
            cur = step(cur)


def _check_start(args, x: Fraction, w, k: int) -> None:
    """Reject a start outside the domain of the interval map before its row
    is printed; w is the start's codec word, None outside the codec's domain.
    A step rejects a point only after that point's row."""
    if args.map == "OGk":  # cf digits >= k, which puts x in (0, 1/k]
        ok = w is not None and all(a >= k for a in w.letters)
        domain = f"(0, 1/{k}] with continued-fraction digits >= {k}"
    elif args.map in ("OR", "renyi", "interval-dyadic"):
        ok, domain = 0 <= x < 1, "[0, 1)"
    elif args.map == "OG" and args.boundary == "left":
        ok, domain = 0 < x < 1, "(0, 1)"
    else:  # OG, gauss
        ok, domain = 0 < x <= 1, "(0, 1]"
    if not ok:
        raise ValueError(f"{x} outside {domain}")


# --------------------------------------------------------------------- tree

def _cmd_tree(args) -> int:
    root = parse_word(args.root, args.floor) if args.root else FiniteWord(args.floor, (args.floor,))
    decode = None
    if args.values:
        low, _, decode = system(args.values)
        if args.values == "dyadic" and args.floor != 0:
            raise ValueError("dyadic values need floor 0")
        if args.floor < low:
            raise ValueError(f"{args.values} values need letters >= {low}")

    at = locate(root)
    for depth in range(1, args.levels + 1):
        level = subtree_level(root, depth, args.mirror)
        if args.format == "plain":
            print(" ".join(_value_text(decode(w), args.decimal) if decode else str(w)
                           for w in level))
            continue
        # row q of this depth sits at (at.level + depth - 1, (at.position << (depth - 1)) + q)
        base = at.position << (depth - 1)
        positions = range(base, base + len(level))
        for w, position in zip(level, reversed(positions) if args.mirror else positions):
            row = {"level": at.level + depth - 1, "pos": str(position), "word": list(w.letters),
                   "floor": w.floor}
            if decode:
                row, _, _ = _value_row(row, decode(w), None, args.decimal)
            print(json.dumps(row, separators=(",", ":")))
    return 0


# -------------------------------------------------------------------- codec

def _cmd_codec(args) -> int:
    src, dst = getattr(args, "from"), args.to
    if src == "word" and dst == "word":
        raise ValueError("at least one side must name a codec system")
    if dst == "word":
        print(system(src)[1](parse_rational(args.input)))
        return 0
    word_system = dst if src == "word" else src  # the input is a word of this system
    floor, _, decode = system(word_system)
    zero = word_system == "bcf" and args.input.strip() == "zero"  # bcf alone has a zero word
    value = decode(BCF_ZERO if zero else parse_word(args.input, floor))
    print(value if src == "word" else system(dst)[1](value))
    return 0


# ------------------------------------------------------------------- verify

Check = tuple[str, bool, str]  # (check name, passed, detail)


def _suite_conjugacy(budget: int, rng: random.Random) -> list[Check]:
    cases = 10_000
    bad = 0
    for _ in range(cases):
        pre = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 10)))
        per = [rng.randrange(2) for _ in range(rng.randrange(1, 7))]
        per[rng.randrange(len(per))] = 0  # keep a block boundary in every tail
        w = tail(pre, per)
        if block_encode(dyadic_step(w)) != baire_step(block_encode(w)):
            bad += 1
    return [("conjugacy: recode(add 1) = step(recode)", bad == 0,
             f"{cases} random binary words, {bad} mismatches")]


def _suite_renorm(budget: int, rng: random.Random) -> list[Check]:
    bad = 0
    cases = 100
    for _ in range(cases):
        pre = tuple(rng.randrange(4) for _ in range(rng.randrange(0, 5)))
        per = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        w = tail(pre, per)
        for m in range(4):
            for n in range(4):
                e = odometers.renormalization_exponent(w, m, n)
                lhs = words.drop_front(w, n)
                for _ in range(m):
                    lhs = baire_step(lhs)
                bad += lhs != words.drop_front(odometers.baire_fast_forward(w, e), n)
    return [("renormalization: step^m shift^n = shift^n step^(m 2^n 2^(w1+..+wn))",
             bad == 0, f"{cases} words x m,n <= 3, {bad} mismatches")]


def _suite_counting(budget: int, rng: random.Random) -> list[Check]:
    level = min(budget, 15)
    count = (1 << level) - 1
    prev = None
    seen = 0  # the words checked before the first failure
    for n, w in enumerate(enumerate_words(1, count)):
        if total_index(w) != n or (prev is not None and compare_rlex(prev, w) != -1):
            break
        prev = w
        seen += 1
    return [("counting: top-down orbit of (1) is the ordered bijection",
             seen == count, f"first {count} words (sums <= {level})")]


def _reduced(q_max: int, start: int) -> Iterator[Fraction]:
    """p/q in lowest terms for q <= q_max and start <= p < q + start:
    the rationals of (0, 1] for start 1, of [0, 1) for start 0."""
    for q in range(1, q_max + 1):
        for p in range(start, q + start):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)


def _suite_oracles(budget: int, rng: random.Random) -> list[Check]:
    q_max = min(200, max(20, 17 * budget))
    checks = []

    bad = total = 0
    for x in _reduced(q_max, 1):
        total += 1
        bad += gauss_odometer(x) != cf_decode(word_step(cf_encode(x), Policy.CYCLIC))
    checks.append(("gauss closed form = cyclic word action", bad == 0,
                   f"{total} rationals, q <= {q_max}, {bad} mismatches"))

    bad = total = 0
    for x in _reduced(q_max, 0):
        total += 1
        stepped = baire_step(bcf_tail_form(bcf_encode(x)))
        bad += renyi_odometer(x) != bcf_decode(bcf_finite_form(stepped))
    checks.append(("renyi closed form = backward word action", bad == 0,
                   f"{total} rationals, q <= {q_max}, {bad} mismatches"))

    for k in (2, 3):
        bad = total = 0
        for x in _reduced(q_max, 1):
            w = cf_encode(x)
            if any(a < k for a in w.letters):
                continue
            total += 1
            oracle = cf_decode(word_step(FiniteWord(k, w.letters), Policy.CYCLIC))
            bad += k_gauss_odometer(x, k) != oracle
        checks.append((f"restricted gauss closed form (k={k}) = word action",
                       bad == 0, f"{total} admissible rationals, {bad} mismatches"))

    depth = 1 << min(budget, 12)
    for name in SYSTEMS:
        enum = list(analysis.enumerate_rationals(name, depth, "root"))
        oracle = list(analysis.bfs_oracle(name, depth))
        checks.append((f"{name} enumeration = son-rule breadth-first oracle",
                       enum == oracle, f"first {depth} values"))
    stern_side = list(analysis.stern_oracle(depth))
    bcf_side = list(analysis.enumerate_rationals("bcf", depth))
    checks.append(("bcf enumeration = Stern diatomic oracle",
                   stern_side == bcf_side, f"first {depth} values"))
    return checks


def _suite_periods(budget: int, rng: random.Random) -> list[Check]:
    name = "gauss odometer periods are exactly 2^(digit sum - 2)"
    top = min(budget, 12)
    for s in range(2, top + 1):
        cycle = 1 << (s - 1)
        v = Fraction(1, s)
        at: dict[Fraction, list[int]] = {}
        for i in range(cycle):
            at.setdefault(v, []).append(i)
            v = gauss_odometer(v)
        if v != Fraction(1, s) or len(at) != 1 << (s - 2):
            return [(name, False, f"cycle of level {s} broken")]
        if any(len(p) != 2 or p[1] - p[0] != 1 << (s - 2) for p in at.values()):
            return [(name, False, f"period at level {s} is not exactly 2^{s - 2}")]
    return [(name, True, f"levels 2..{top}")]


def _suite_distribution(budget: int, rng: random.Random) -> list[Check]:
    count = 1 << min(budget + 4, 16)
    ks = analysis.distribution_test(count, 1024)
    control = analysis.distribution_test(count, 1024, "uniform")
    freq = analysis.frequency_test(0, count)
    worst = max(abs(freq.get(a, 0.0) - 2.0 ** (-a - 1)) for a in range(6))
    return [
        ("cf enumeration follows the question-mark distribution",
         ks < 0.02, f"KS {ks:.5f} over {count} samples"),
        ("negative control: uniform reference fails", control > 0.1, f"KS {control:.5f}"),
        ("first-letter frequencies match 2^-(k+1)", worst < 0.01,
         f"max deviation {worst:.5f} over {count} steps"),
    ]


SUITES = {
    "conjugacy": _suite_conjugacy,
    "renorm": _suite_renorm,
    "counting": _suite_counting,
    "oracles": _suite_oracles,
    "periods": _suite_periods,
    "distribution": _suite_distribution,
}


def _cmd_verify(args) -> int:
    rng = random.Random(20260814)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for check, ok, detail in SUITES[name](args.budget, rng):
            print(f"{'ok  ' if ok else 'FAIL'} [{name}] {check}: {detail}")
            failures += 0 if ok else 1
    return 1 if failures else 0


# -------------------------------------------------------------------- main

def _at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return n

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baire-odometers",
        description="Exact odometers on words, trees of rationals, and interval maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate rationals in codec order")
    p.add_argument("--system", required=True, choices=SYSTEMS)
    p.add_argument("--count", required=True, type=_at_least(1))
    p.add_argument("--offset", choices=["root", "zero"], default=None)
    p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p.add_argument("--decimal", type=_at_least(1), default=None, metavar="BITS")
    p.set_defaults(func=lambda args: _emit(_enumerate_rows(args), args.format))

    p = sub.add_parser("orbit", help="iterate an odometer or interval map")
    p.add_argument("--map", required=True, choices=[*WORD_MAPS, *RATIONAL_MAPS])
    p.add_argument("--start", required=True, metavar="WORD|P/Q")
    p.add_argument("--steps", required=True, type=_at_least(0))
    p.add_argument("--policy", choices=[pol.value for pol in Policy], default="topdown")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--boundary", choices=["right", "left"], default="right")
    p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p.add_argument("--decimal", type=_at_least(1), default=None, metavar="BITS")
    p.set_defaults(func=lambda args: _emit(_orbit_rows(args), args.format))

    p = sub.add_parser("tree", help="print levels of a word tree")
    p.add_argument("--floor", required=True, type=int)
    p.add_argument("--levels", required=True, type=_at_least(1))
    p.add_argument("--root", default=None, metavar="WORD")
    p.add_argument("--values", choices=SYSTEMS, default=None)
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--format", choices=["json", "plain"], default="plain")
    p.add_argument("--decimal", type=_at_least(1), default=None, metavar="BITS")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("codec", help="convert between words and rationals")
    p.add_argument("--from", required=True, dest="from", choices=SYSTEMS + ("word",))
    p.add_argument("--to", required=True, choices=SYSTEMS + ("word",))
    p.add_argument("input", metavar="INPUT")
    p.set_defaults(func=_cmd_codec)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", choices=list(SUITES) + ["all"])
    p.add_argument("--budget", type=_at_least(0), default=12)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    # exact output has no size cap: lift CPython's int/str digit limit meanwhile
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        line = f"error: {exc}"
        if len(line) > ERROR_WIDTH:
            line = line[:ERROR_WIDTH - 3] + "..."
        print(line, file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)

if __name__ == "__main__":
    sys.exit(main())
