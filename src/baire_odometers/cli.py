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
from typing import Callable, Iterable

from . import analysis, odometers, words
from .codecs import (
    BCF_ZERO,
    bcf_decode,
    bcf_encode,
    bcf_finite_form,
    bcf_tail_form,
    cf_decode,
    cf_encode,
    dyadic_decode,
    dyadic_encode,
    format_rational,
    parse_rational,
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


def _emit(rows: Iterable[dict], fmt: str, out) -> None:
    if fmt == "json":
        for row in rows:
            print(json.dumps(row, separators=(",", ":")), file=out)
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["n", "word", "value"])
        for row in rows:
            writer.writerow([row.get("n", ""), row.get("word_text", ""), row.get("value", "")])
    else:
        for row in rows:
            print(row["plain"], file=out)


def _word_json(w: FiniteWord) -> list[int]:
    return list(w.letters)


def _tail_json(w: TailWord) -> dict:
    return {"pre": list(w.preperiod), "per": list(w.period), "floor": w.floor}


# ---------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    encode = {"cf": cf_encode, "bcf": bcf_encode, "dyadic": dyadic_encode}[args.system]

    def rows():
        values = analysis.enumerate_rationals(args.system, args.count, args.offset)
        for n, x in enumerate(values):
            w = encode(x) if x != 0 else BCF_ZERO
            letters = [] if w is BCF_ZERO else list(w.letters)
            floor = {"cf": 1, "bcf": 2, "dyadic": 0}[args.system]
            row = {"n": n, "word": letters, "floor": floor, "value": format_rational(x)}
            row["word_text"] = "zero" if w is BCF_ZERO else str(w)
            row["plain"] = _decimal_string(x, args.decimal) if args.decimal else str(x)
            if args.decimal:
                row["decimal"] = _decimal_string(x, args.decimal)
            yield _strip(row, args.format)
        return

    _emit(rows(), args.format, sys.stdout)
    return 0


def _strip(row: dict, fmt: str) -> dict:
    if fmt == "json":
        return {k: v for k, v in row.items() if k not in ("plain", "word_text")}
    return row


# -------------------------------------------------------------------- orbit

WORD_MAPS = ("O", "O0", "Ok")
RATIONAL_MAPS = ("OG", "OR", "OGk", "gauss", "renyi", "interval-dyadic")


def _cmd_orbit(args) -> int:
    if args.map in WORD_MAPS:
        return _orbit_words(args)
    return _orbit_rationals(args)


def _orbit_words(args) -> int:
    k = args.k if args.k is not None else 0 if args.map in ("O", "O0") else 1
    if ";" in args.start:
        w = parse_tailword(args.start, 0 if args.map == "O" else k)
        step = dyadic_step if args.map == "O" else baire_step

        def items():
            cur = w
            for n in range(args.steps + 1):
                yield n, cur
                cur = step(cur)

        def rows():
            for n, cur in items():
                yield _strip({"n": n, "word": _tail_json(cur),
                              "word_text": str(cur), "plain": str(cur)}, args.format)
    else:
        if args.map == "O":
            raise ValueError("map O acts on infinite binary words; use the pre;per syntax")
        w = parse_word(args.start, k)
        policy = Policy(args.policy)

        def rows():
            for n, cur in enumerate(word_orbit(w, policy, args.steps + 1)):
                yield _strip({"n": n, "word": _word_json(cur), "floor": cur.floor,
                              "word_text": str(cur), "plain": str(cur)}, args.format)

    _emit(rows(), args.format, sys.stdout)
    return 0


def _orbit_rationals(args) -> int:
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
    system = {"OG": "cf", "OGk": "cf", "gauss": "cf",
              "OR": "bcf", "renyi": "bcf", "interval-dyadic": "dyadic"}[args.map]
    x = parse_rational(args.start)

    def encode_word(v: Fraction):
        try:
            if system == "cf":
                return _word_json(cf_encode(v))
            if system == "bcf":
                w = bcf_encode(v)
                return [] if w is BCF_ZERO else _word_json(w)
            return _word_json(dyadic_encode(v))
        except ValueError:
            return None

    def rows():
        cur = x
        for n in range(args.steps + 1):
            w = encode_word(cur)
            row = {"n": n, "word": w, "value": format_rational(cur),
                   "word_text": "" if w is None else "(" + ",".join(str(a) for a in w) + ")",
                   "plain": _decimal_string(cur, args.decimal) if args.decimal else str(cur)}
            if args.decimal:
                row["decimal"] = _decimal_string(cur, args.decimal)
            yield _strip(row, args.format)
            if n < args.steps:
                cur = step(cur)

    _emit(rows(), args.format, sys.stdout)
    return 0


# --------------------------------------------------------------------- tree

def _cmd_tree(args) -> int:
    root = parse_word(args.root, args.floor) if args.root else FiniteWord(args.floor, (args.floor,))
    decode = {None: None, "cf": cf_decode, "bcf": bcf_decode, "dyadic": dyadic_decode}[args.values]
    if args.values == "cf" and args.floor < 1:
        raise ValueError("cf values need letters >= 1")
    if args.values == "bcf" and args.floor < 2:
        raise ValueError("bcf values need letters >= 2")
    if args.values == "dyadic" and args.floor != 0:
        raise ValueError("dyadic values need floor 0")

    if args.format == "json":
        for depth in range(1, args.levels + 1):
            for w in subtree_level(root, depth, args.mirror):
                at = locate(w)
                row = {"level": at.level, "pos": str(at.position),
                       "word": _word_json(w), "floor": w.floor}
                if decode:
                    row["value"] = format_rational(decode(w))
                    if args.decimal:
                        row["decimal"] = _decimal_string(decode(w), args.decimal)
                print(json.dumps(row, separators=(",", ":")))
    else:
        for depth in range(1, args.levels + 1):
            row = subtree_level(root, depth, args.mirror)
            if decode:
                cells = [_decimal_string(decode(w), args.decimal) if args.decimal
                         else str(decode(w)) for w in row]
            else:
                cells = [str(w) for w in row]
            print(" ".join(cells))
    return 0


# -------------------------------------------------------------------- codec

def _cmd_codec(args) -> int:
    systems = {"cf": (cf_encode, cf_decode, 1), "bcf": (bcf_encode, bcf_decode, 2),
               "dyadic": (dyadic_encode, dyadic_decode, 0)}
    src, dst = getattr(args, "from"), args.to
    if src == "word" and dst == "word":
        raise ValueError("at least one side must name a codec system")
    if src in systems and dst == "word":
        encode, _, _ = systems[src]
        w = encode(parse_rational(args.input))
        print("zero" if w is BCF_ZERO else str(w))
    elif src == "word" and dst in systems:
        _, decode, floor = systems[dst]
        w = BCF_ZERO if args.input.strip() == "zero" else parse_word(args.input, floor)
        print(decode(w))
    else:
        _, decode, floor = systems[src]
        encode, _, _ = systems[dst]
        w_in = BCF_ZERO if args.input.strip() == "zero" else parse_word(args.input, floor)
        w_out = encode(decode(w_in))
        print("zero" if w_out is BCF_ZERO else str(w_out))
    return 0


# ------------------------------------------------------------------- verify

def _check(name: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return (name, ok, detail)


def _suite_conjugacy(budget: int, rng: random.Random) -> list[tuple[str, bool, str]]:
    cases = 10_000
    bad = 0
    for _ in range(cases):
        pre = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 10)))
        per = [rng.randrange(2) for _ in range(rng.randrange(1, 7))]
        per[rng.randrange(len(per))] = 0  # keep a block boundary in every tail
        w = tail(pre, per)
        if block_encode(dyadic_step(w)) != baire_step(block_encode(w)):
            bad += 1
    return [_check("conjugacy: recode(add 1) = step(recode)", bad == 0,
                   f"{cases} random binary words, {bad} mismatches")]


def _suite_renorm(budget: int, rng: random.Random) -> list[tuple[str, bool, str]]:
    bad = 0
    cases = 100
    for _ in range(cases):
        pre = tuple(rng.randrange(4) for _ in range(rng.randrange(0, 5)))
        per = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        w = tail(pre, per)
        exponents = {(m, n): odometers.renormalization_exponent(w, m, n)
                     for m in range(4) for n in range(4)}
        at = _orbit_states(w, set(exponents.values()))
        for (m, n), e in exponents.items():
            lhs = words.drop_front(w, n)
            for _ in range(m):
                lhs = baire_step(lhs)
            if lhs != words.drop_front(at[e], n):
                bad += 1
    return [_check("renormalization: step^m shift^n = shift^n step^(m 2^n 2^(w1+..+wn))",
                   bad == 0, f"{cases} words x m,n <= 3, {bad} mismatches")]


def _orbit_states(w: TailWord, exponents: set[int]) -> dict[int, TailWord]:
    """baire_step^e(w) for every e in exponents, from one walk of the orbit."""
    states = {}
    cur = w
    top = max(exponents)
    for e in range(top + 1):
        if e in exponents:
            states[e] = cur
        if e < top:
            cur = baire_step(cur)
    return states


def _suite_counting(budget: int, rng: random.Random) -> list[tuple[str, bool, str]]:
    level = min(budget, 15)
    count = (1 << level) - 1
    ok = True
    prev = None
    seen = 0
    for n, w in enumerate(enumerate_words(1, count)):
        if total_index(w) != n or (prev is not None and compare_rlex(prev, w) != -1):
            ok = False
            break
        prev = w
        seen += 1
    return [_check("counting: top-down orbit of (1) is the ordered bijection",
                   ok and seen == count, f"first {count} words (sums <= {level})")]


def _suite_oracles(budget: int, rng: random.Random) -> list[tuple[str, bool, str]]:
    q_max = min(200, max(20, 17 * budget))
    checks = []

    bad = total = 0
    for q in range(1, q_max + 1):
        for p in range(1, q + 1):
            x = Fraction(p, q)
            if x.denominator != q:
                continue
            total += 1
            oracle = cf_decode(word_step(cf_encode(x), Policy.CYCLIC))
            if gauss_odometer(x) != oracle:
                bad += 1
    checks.append(_check("gauss closed form = cyclic word action", bad == 0,
                         f"{total} rationals, q <= {q_max}, {bad} mismatches"))

    bad = total = 0
    for q in range(1, q_max + 1):
        for p in range(q):
            x = Fraction(p, q)
            if x.denominator != q:
                continue
            total += 1
            stepped = baire_step(bcf_tail_form(bcf_encode(x)))
            if renyi_odometer(x) != bcf_decode(bcf_finite_form(stepped)):
                bad += 1
    checks.append(_check("renyi closed form = backward word action", bad == 0,
                         f"{total} rationals, q <= {q_max}, {bad} mismatches"))

    for k in (2, 3):
        bad = total = 0
        for q in range(1, q_max + 1):
            for p in range(1, q + 1):
                x = Fraction(p, q)
                if x.denominator != q:
                    continue
                w = cf_encode(x)
                if any(a < k for a in w.letters):
                    continue
                total += 1
                oracle = cf_decode(word_step(FiniteWord(k, w.letters), Policy.CYCLIC))
                if k_gauss_odometer(x, k) != oracle:
                    bad += 1
        checks.append(_check(f"restricted gauss closed form (k={k}) = word action",
                             bad == 0, f"{total} admissible rationals, {bad} mismatches"))

    depth = 1 << min(budget, 12)
    for system in ("cf", "bcf", "dyadic"):
        enum = list(analysis.enumerate_rationals(system, depth, "root"))
        oracle = list(analysis.bfs_oracle(system, depth))
        checks.append(_check(f"{system} enumeration = son-rule breadth-first oracle",
                             enum == oracle, f"first {depth} values"))
    stern_side = list(analysis.stern_oracle(depth))
    bcf_side = list(analysis.enumerate_rationals("bcf", depth))
    checks.append(_check("bcf enumeration = Stern diatomic oracle",
                         stern_side == bcf_side, f"first {depth} values"))
    return checks


def _suite_periods(budget: int, rng: random.Random) -> list[tuple[str, bool, str]]:
    top = min(budget, 12)
    ok = True
    detail = f"levels 2..{top}"
    for s in range(2, top + 1):
        cycle = 1 << (s - 1)
        v = Fraction(1, s)
        at: dict[Fraction, list[int]] = {}
        for i in range(cycle):
            at.setdefault(v, []).append(i)
            v = gauss_odometer(v)
        if v != Fraction(1, s) or len(at) != 1 << (s - 2):
            ok = False
            detail = f"cycle of level {s} broken"
            break
        if any(len(p) != 2 or p[1] - p[0] != 1 << (s - 2) for p in at.values()):
            ok = False
            detail = f"period at level {s} is not exactly 2^{s - 2}"
            break
    return [_check("gauss odometer periods are exactly 2^(digit sum - 2)", ok, detail)]


def _suite_distribution(budget: int, rng: random.Random) -> list[tuple[str, bool, str]]:
    count = 1 << min(budget + 4, 16)
    ks = analysis.distribution_test(count, 1024)
    control = analysis.distribution_test(count, 1024, "uniform")
    freq = analysis.frequency_test(0, count)
    worst = max(abs(freq.get(a, 0.0) - 2.0 ** (-a - 1)) for a in range(6))
    return [
        _check("cf enumeration follows the question-mark distribution",
               ks < 0.02, f"KS {ks:.5f} over {count} samples"),
        _check("negative control: uniform reference fails", control > 0.1,
               f"KS {control:.5f}"),
        _check("first-letter frequencies match 2^-(k+1)", worst < 0.01,
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
    p.add_argument("--system", required=True, choices=["cf", "bcf", "dyadic"])
    p.add_argument("--count", required=True, type=_at_least(1))
    p.add_argument("--offset", choices=["root", "zero"], default=None)
    p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p.add_argument("--decimal", type=_at_least(1), default=None, metavar="BITS")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("orbit", help="iterate an odometer or interval map")
    p.add_argument("--map", required=True, choices=list(WORD_MAPS) + list(RATIONAL_MAPS))
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
    p.add_argument("--values", choices=["cf", "bcf", "dyadic"], default=None)
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--format", choices=["json", "plain"], default="plain")
    p.add_argument("--decimal", type=_at_least(1), default=None, metavar="BITS")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("codec", help="convert between words and rationals")
    p.add_argument("--from", required=True, dest="from", choices=["cf", "bcf", "dyadic", "word"])
    p.add_argument("--to", required=True, choices=["cf", "bcf", "dyadic", "word"])
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
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
