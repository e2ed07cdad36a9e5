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
import io
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
from .word_actions import Policy, orbit as word_orbit, step as word_step
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


# (n, word or None, value or None); a tree row's n is its (level, position)
Row = tuple[object, object, "Fraction | None"]

CHUNK_ROWS = 256  # rows rendered per write to stdout
_to_json = json.JSONEncoder(separators=(",", ":")).encode


def _emit(rows: Iterable[Row], fmt: str, record: Callable[[object, object], dict],
          bits: int | None = None) -> int:
    """Write each row in one format and return exit code 0.

    Each format renders only what it prints: plain the value (exact, or a
    decimal with --decimal) or else the word; csv n, the word (empty for None)
    and the exact value; json record(n, word) plus the exact value and the
    decimal.  Rows reach stdout CHUNK_ROWS at a time, and the pending ones are
    written in a finally: an error raised while building a row leaves every
    earlier row on stdout, and stdout empty if it is the first."""
    buf = io.StringIO()
    if fmt == "plain":
        def render(n, w, x):
            buf.write(f"{w}\n" if x is None else f"{_value_text(x, bits)}\n")
    elif fmt == "json":
        def render(n, w, x):
            fields = record(n, w)
            if x is not None:
                fields["value"] = format_rational(x)
                if bits:
                    fields["decimal"] = _decimal_string(x, bits)
            buf.write(f"{_to_json(fields)}\n")
    else:
        writer = csv.writer(buf)

        def render(n, w, x):  # the csv module writes None as an empty cell
            writer.writerow([n, w, None if x is None else format_rational(x)])
    try:
        for i, row in enumerate(rows, 1):
            if i == 1 and fmt == "csv":
                writer.writerow(["n", "word", "value"])
            render(*row)
            if i % CHUNK_ROWS == 0:
                sys.stdout.write(buf.getvalue())
                buf.seek(0)
                buf.truncate()
    finally:
        sys.stdout.write(buf.getvalue())
    return 0


# ---------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    floor = system(args.system)[0]
    if args.format == "plain":  # no word is printed, so none is stepped
        values = analysis.enumerate_rationals(args.system, args.count, args.offset)
        rows = ((n, None, x) for n, x in enumerate(values))
    else:
        pairs = analysis.enumerate_coded(args.system, args.count, args.offset)
        rows = ((n, w, x) for n, (w, x) in enumerate(pairs))
    return _emit(rows, args.format,
                 lambda n, w: {"n": n, "word": list(w.letters), "floor": floor}, args.decimal)


# -------------------------------------------------------------------- orbit

WORD_MAPS = ("O", "O0", "Ok")
# interval map -> the codec system of the words on its rows
RATIONAL_MAPS = {"OG": "cf", "OR": "bcf", "OGk": "cf", "gauss": "cf", "renyi": "bcf",
                 "interval-dyadic": "dyadic"}


def _cmd_orbit(args) -> int:
    if args.map in RATIONAL_MAPS:
        return _emit(_value_orbit_rows(args), args.format,
                     lambda n, w: {"n": n, "word": None if w is None else list(w.letters)},
                     args.decimal)
    return _emit(_word_orbit_rows(args), args.format, _word_record)


def _word_record(n: int, w) -> dict:
    if isinstance(w, TailWord):
        return {"n": n, "word": {"pre": list(w.preperiod), "per": list(w.period),
                                 "floor": w.floor}}
    return {"n": n, "word": list(w.letters), "floor": w.floor}


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
        words = word_orbit(parse_word(args.start, k), Policy(args.policy), args.steps + 1)
    else:
        start = parse_tailword(args.start, 0 if args.map == "O" else k)
        words = _states(dyadic_step if args.map == "O" else baire_step, start, args.steps)
    for n, w in enumerate(words):
        yield n, w, None


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
    states = _states(step, parse_rational(args.start), args.steps)
    if args.format == "plain":  # no word is printed, so none is encoded
        for n, x in enumerate(states):
            yield n, None, x
        return
    _, encode, _ = system(RATIONAL_MAPS[args.map])
    for n, x in enumerate(states):
        if args.map == "OR" and n:  # OR is the top-down step on bcf words, taking 0 to (2)
            w = FiniteWord(2, (2,)) if w is BCF_ZERO else word_step(w, Policy.TOPDOWN)
        else:
            try:
                w = encode(x)
            except ValueError:  # the point lies outside the codec's domain
                w = None
        yield n, w, x


# --------------------------------------------------------------------- tree

def _cmd_tree(args) -> int:
    root = parse_word(args.root, args.floor) if args.root else FiniteWord(args.floor, (args.floor,))
    decode = system(args.values)[2] if args.values else None
    if args.format == "plain":
        for depth in range(1, args.levels + 1):
            print(" ".join(_value_text(decode(w), args.decimal) if decode else str(w)
                           for w in subtree_level(root, depth, args.mirror)))
        return 0
    return _emit(_tree_rows(root, args.levels, args.mirror, decode), "json",
                 lambda at, w: {"level": at[0], "pos": str(at[1]), "word": list(w.letters),
                                "floor": w.floor},
                 args.decimal)


def _tree_rows(root: FiniteWord, levels: int, mirror: bool, decode) -> Iterator[Row]:
    at = locate(root)
    for depth in range(1, levels + 1):
        level = subtree_level(root, depth, mirror)
        # row q of this depth sits at (at.level + depth - 1, (at.position << (depth - 1)) + q)
        base = at.position << (depth - 1)
        positions = range(base, base + len(level))
        for w, position in zip(level, reversed(positions) if mirror else positions):
            yield (at.level + depth - 1, position), w, decode(w) if decode else None


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
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("orbit", help="iterate an odometer or interval map")
    p.add_argument("--map", required=True, choices=[*WORD_MAPS, *RATIONAL_MAPS])
    p.add_argument("--start", required=True, metavar="WORD|P/Q")
    p.add_argument("--steps", required=True, type=_at_least(0))
    p.add_argument("--policy", choices=[pol.value for pol in Policy], default="topdown")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--boundary", choices=["right", "left"], default="right")
    p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p.add_argument("--decimal", type=_at_least(1), default=None, metavar="BITS")
    p.set_defaults(func=_cmd_orbit)

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
