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
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import analysis
from .codecs import BCF_ZERO, SYSTEMS, format_rational, parse_rational, system
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
from .word_actions import Policy, orbit as word_orbit
from .words import FiniteWord, TailWord

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


def _states(step: Callable, start, steps: int) -> Iterator:
    """The steps + 1 points start, step(start), ...  The first step is taken
    before start is yielded, so the map rejects a start outside its domain
    before row 0 prints."""
    cur, after = start, step(start)
    for n in range(steps + 1):
        yield cur
        if n < steps:
            cur = after if n == 0 else step(cur)


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
    start = parse_tailword(args.start, 0 if args.map == "O" else k)
    step = dyadic_step if args.map == "O" else baire_step
    for n, cur in enumerate(_states(step, start, args.steps)):
        text = str(cur)
        word = {"pre": list(cur.preperiod), "per": list(cur.period), "floor": cur.floor}
        yield {"n": n, "word": word}, text, text


def _value_orbit_rows(args) -> Iterator[Row]:
    k = args.k if args.k is not None else 2
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
    for n, cur in enumerate(_states(step, parse_rational(args.start), args.steps)):
        try:
            w = encode(cur)
        except ValueError:  # the point lies outside the codec's domain
            w = None
        yield _value_row({"n": n, "word": None if w is None else list(w.letters)},
                         cur, w, args.decimal)


# --------------------------------------------------------------------- tree

def _cmd_tree(args) -> int:
    root = parse_word(args.root, args.floor) if args.root else FiniteWord(args.floor, (args.floor,))
    decode = system(args.values)[2] if args.values else None
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

def _cmd_verify(args) -> int:
    names = list(analysis.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for check, ok, detail in analysis.run_suite(name, args.budget):
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
    p.add_argument("--suite", default="all", choices=[*analysis.SUITES, "all"])
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
