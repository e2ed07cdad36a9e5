"""The three workloads, generated from a seed.

A workload is a fixed list of operations.  An operation is either a CLI
invocation (argv for ``baire_odometers.cli.main``) or a direct library call;
each carries the check that compares its output with the oracles.  The seed
picks the values (roots, starts, letters, digits); the shape of every
workload (which operations, at which sizes) is the same for every seed, so
that seeds vary the inputs and not the amount of work.

* ``stream``: many small exact values; time goes to CLI rendering, the word
  step, FiniteWord construction, short codecs and tree addressing.
* ``verify``: one ``verify`` op per suite; time goes to ``baire_step``,
  TailWord normalization, the block codec, the small closed forms and the
  analysis oracles.  The CLI fixes its own rng, so it is the same for every
  seed.
* ``deep``: few calls on huge exact values, the opposite of the other two:
  codec conversions in every direction, orbits with huge operands, and
  direct library calls at three sizes spanning 10x for the scaling fits.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles as o

VERIFY_SUITES = ("conjugacy", "renorm", "counting", "oracles", "periods", "distribution")
VERIFY_BUDGET = 8


@dataclass
class Outcome:
    code: int
    out: str = ""
    err: str = ""
    value: object = None


@dataclass
class Op:
    kind: str
    check: Callable[[Outcome], int]  # returns the rows it verified; raises o.Mismatch
    argv: tuple[str, ...] = ()
    call: tuple[str, str] | None = None  # (module, function) of a direct call
    args: tuple = ()
    size: int = 0  # operand size of a direct call, for the scaling fits
    describe: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    probes: list[Op]  # over-limit ops, run apart from the measured ops
    note: str = ""

    def digest(self) -> str:
        """Digest of every op's argv or call arguments, in order."""
        h = hashlib.sha256()
        for op in self.ops + self.probes:
            h.update(json.dumps([op.kind, list(op.argv), op.describe], sort_keys=True).encode())
        return h.hexdigest()


def _cli(kind: str, argv: list[str], check: Callable[[str], int]) -> Op:
    def run_check(r: Outcome) -> int:
        o.expect(r.code == 0, f"exit {r.code}: {r.err.strip()[:200]}")
        return check(r.out)
    return Op(kind, run_check, argv=tuple(argv))


def _letters(rng: random.Random, n: int, lo: int, hi: int, last_min: int = 0):
    """n letters in lo..hi, each value about equally often, in a random order.

    Fixing the multiset fixes the word's length and digit sum, so that
    seeds vary the word and not the cost of the ops on it.  The last letter
    is at least last_min.
    """
    letters = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(letters)
    if letters[-1] < last_min:
        j = next(j for j, a in enumerate(letters) if a >= last_min)
        letters[j], letters[-1] = letters[-1], letters[j]
    return tuple(letters)


def _csv(letters) -> str:
    return ",".join(str(a) for a in letters)


def _walk(rng: random.Random, floor: int, lefts: int, rights: int) -> tuple[int, ...]:
    """A word reached from the root (floor) by son moves in a random order.

    The numbers of left and right moves fix the word's length and level, so
    that seeds vary the letters and not the cost of the ops started there.
    """
    moves = [True] * rights + [False] * lefts
    rng.shuffle(moves)
    w = (floor,)
    for right in moves:
        w = o.right_son(w) if right else o.left_son(w, floor)
    return w


def _hex(x) -> str:
    return hex(x) if isinstance(x, int) else f"{hex(x.numerator)}/{hex(x.denominator)}"


# ------------------------------------------------------------------ stream

def stream(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for system, fmt, count in (("cf", "plain", 20000), ("bcf", "plain", 20000),
                               ("dyadic", "plain", 20000), ("cf", "json", 6000),
                               ("bcf", "csv", 6000)):
        argv = ["enumerate", "--system", system, "--count", str(count)]
        if fmt != "plain":
            argv += ["--format", fmt]
        ops.append(_cli(f"enumerate.{system}.{fmt}", argv,
                        lambda out, s=system, f=fmt, c=count: o.check_enumerate(s, f, c, out)))
    for _ in range(2):
        root = _walk(rng, 1, 1, 2)
        ops.append(_cli("tree.cf.plain",
                        ["tree", "--floor", "1", "--levels", "12", "--root", _csv(root),
                         "--values", "cf"],
                        lambda out, r=root: o.check_tree_plain(r, 1, 12, "cf", out)))
    for _ in range(2):
        root = _walk(rng, 2, 1, 2)
        ops.append(_cli("tree.bcf.json",
                        ["tree", "--floor", "2", "--levels", "10", "--root", _csv(root),
                         "--values", "bcf", "--format", "json"],
                        lambda out, r=root: o.check_tree_json(r, 2, 10, "bcf", out)))
    steps = 4000
    for _ in range(2):
        m = rng.randrange(1 << 15, 1 << 16)
        start = f"{o.fusc(2 * m)}/{o.fusc(2 * m + 1)}"
        ops.append(_cli("orbit.OR", ["orbit", "--map", "OR", "--start", start,
                                     "--steps", str(steps)],
                        lambda out, m=m: o.check_values(o.renyi_orbit(m, steps), out)))
    for floor in (0, 0, 2):
        start = _walk(rng, floor, 4, 4)
        argv = ["orbit", "--map", "O0" if floor == 0 else "Ok", "--start", _csv(start),
                "--steps", str(steps)]
        if floor:
            argv += ["--k", str(floor)]
        ops.append(_cli(f"orbit.words.k{floor}", argv,
                        lambda out, s=start, k=floor: o.check_orbit_words(s, k, steps, out)))
    pre = _letters(rng, 4, 0, 3)
    per = _letters(rng, 3, 0, 3)
    start = f"{_csv(pre)};{_csv(per)}"
    ops.append(_cli("orbit.tail", ["orbit", "--map", "O0", "--start", start, "--steps", "300"],
                    lambda out, s=start: o.check_orbit_tail(s, 0, 300, out)))
    return Workload("stream", ops, [])


# ------------------------------------------------------------------ verify

def verify(seed: int) -> Workload:
    def check(out: str) -> int:
        lines = out.splitlines()
        o.expect(lines and not any(line.startswith("FAIL") for line in lines),
                 "a verification check failed")
        return len(lines)

    ops = [_cli(f"verify.{suite}", ["verify", "--suite", suite, "--budget", str(VERIFY_BUDGET)],
                check) for suite in VERIFY_SUITES]
    return Workload("verify", ops, [], note="verify fixes its own rng: the ops do not depend on the seed")


# -------------------------------------------------------------------- deep

# Direct library calls: (module, function, three sizes spanning 10x, size unit).
SCALING = (
    ("interval_maps", "gauss_odometer", (3000, 10000, 30000), "M of 1/M"),
    ("interval_maps", "dyadic_interval_step", (800, 2500, 8000), "bits"),
    ("interval_maps", "question_mark", (300, 1000, 3000), "cf letters"),
    ("codecs", "cf_decode", (2000, 6000, 20000), "cf letters"),
    ("codecs", "bcf_decode", (1000, 3000, 10000), "bcf letters"),
    ("codecs", "cf_encode", (1500, 5000, 15000), "cf letters"),
    ("analysis", "stern", (2000, 6000, 20000), "bits"),
)


def _frac_text(p: int, q: int) -> str:
    return f"{p}/{q}"


def _dyadic(rng: random.Random, bits: int) -> tuple[int, int]:
    """A random dyadic p/2^bits whose bcf word has 3.2 to 3.4 letters per bit.

    The bcf length of a random rational has a heavy tail; holding it in a
    band keeps the cost of the ops on it the same from seed to seed.
    """
    while True:
        p = rng.getrandbits(bits) | 1
        if 3.2 * bits <= o.bcf_length(p, 1 << bits, int(3.4 * bits)) <= 3.4 * bits:
            return p, 1 << bits


def _direct(lib, rng: random.Random, module: str, name: str, size: int) -> Op:
    FiniteWord = lib.words.FiniteWord
    if name == "gauss_odometer":
        m = size + rng.randrange(8)
        args = (Fraction(1, m),)
        want = o.cf_value((1,) * m)
        check = lambda r: _frac_is(r.value, want)
    elif name == "dyadic_interval_step":
        lead = size // 2
        p = ((1 << lead) - 1) << (size - lead) | rng.getrandbits(size - lead - 1) | 1
        args = (Fraction(p, 1 << size),)
        want = o.dyadic_odometer(p, 1 << size)
        check = lambda r: _frac_is(r.value, want)
    elif name == "question_mark":
        letters = _letters(rng, size, 1, 4, last_min=2)
        args = (Fraction(*o.cf_value(letters)),)
        want = o.question_mark(letters)
        check = lambda r: _frac_is(r.value, want)
    elif name == "cf_decode":
        letters = _letters(rng, size, 1, 4, last_min=2)
        args = (FiniteWord(1, letters),)
        check = lambda r: _expect_rows(o.euclid(r.value.numerator, r.value.denominator) == letters)
    elif name == "bcf_decode":
        letters = _letters(rng, size, 2, 5)
        args = (FiniteWord(2, letters),)
        want = o.bcf_value(letters)
        check = lambda r: _frac_is(r.value, want)
    elif name == "cf_encode":
        letters = _letters(rng, size, 1, 4, last_min=2)
        args = (Fraction(*o.cf_value(letters)),)
        check = lambda r: _expect_rows(r.value.letters == letters)
    else:  # stern
        n = rng.getrandbits(size) | 1 << (size - 1)
        args = (n,)
        want = o.fusc(n)
        check = lambda r: _expect_rows(r.value == want)
    return Op(f"call.{name}", check, call=(module, name), args=args, size=size,
              describe={"call": name, "args": [_hex(a) if not hasattr(a, "letters")
                                              else [a.floor, list(a.letters)] for a in args]})


def _frac_is(value, want) -> int:
    o.expect((value.numerator, value.denominator) == want, "value differs from the oracle")
    return 1


def _expect_rows(ok: bool) -> int:
    o.expect(ok, "value differs from the oracle")
    return 1


def _one_word(check: Callable[[tuple[int, ...]], bool]) -> Callable[[str], int]:
    def run(out: str) -> int:
        lines = out.splitlines()
        o.expect(len(lines) == 1, "expected one row")
        o.expect(check(o.parse_letters(lines[0])), "word differs from the oracle")
        return 1
    return run


def _one_value(want: tuple[int, int]) -> Callable[[str], int]:
    return lambda out: o.check_values([want], out)


def deep(seed: int, lib) -> Workload:
    rng = random.Random(seed)
    ops = []
    for module, name, sizes, _unit in SCALING:
        ops += [_direct(lib, rng, module, name, size) for size in sizes]

    def codec(src: str, dst: str, text: str, check) -> None:
        ops.append(_cli(f"codec.{src}-{dst}", ["codec", "--from", src, "--to", dst, text], check))

    cf_w = _letters(rng, 4000, 1, 4, last_min=2)
    codec("cf", "word", _frac_text(*o.cf_value(cf_w)), _one_word(lambda w, v=cf_w: w == v))
    bcf_w = _letters(rng, 4000, 2, 5)
    codec("bcf", "word", _frac_text(*o.bcf_value(bcf_w)), _one_word(lambda w, v=bcf_w: w == v))
    p, q = rng.getrandbits(9000) | 1, 1 << 9000
    codec("dyadic", "word", _frac_text(p, q),
          _one_word(lambda w, v=o.dyadic_letters(p, q): w == v))
    cf_w = _letters(rng, 4000, 1, 4, last_min=2)
    codec("word", "cf", _csv(cf_w), _one_value(o.cf_value(cf_w)))
    bcf_w = _letters(rng, 4000, 2, 5)
    codec("word", "bcf", _csv(bcf_w), _one_value(o.bcf_value(bcf_w)))
    dy_w = _letters(rng, 3500, 0, 3, last_min=1)
    codec("word", "dyadic", _csv(dy_w), _one_value(o.dyadic_value(dy_w)))
    cf_w = _letters(rng, 3000, 1, 4, last_min=2)
    codec("cf", "bcf", _csv(cf_w),
          _one_word(lambda w, v=o.cf_value(cf_w): min(w) >= 2 and o.bcf_value(w) == v))
    bcf_w = _letters(rng, 3000, 2, 5)
    codec("bcf", "cf", _csv(bcf_w),
          _one_word(lambda w, v=o.bcf_value(bcf_w): w == o.euclid(*v)))
    for dst in ("cf", "bcf"):
        p, q = _dyadic(rng, 6000)
        want = o.euclid(p, q) if dst == "cf" else o.bcf_letters(p, q)
        codec("dyadic", dst, _csv(o.dyadic_letters(p, q)), _one_word(lambda w, v=want: w == v))
    for src in ("cf", "bcf"):
        p, q = _dyadic(rng, 6000)
        word = o.euclid(p, q) if src == "cf" else o.bcf_letters(p, q)
        codec(src, "dyadic", _csv(word),
              _one_word(lambda w, v=o.dyadic_letters(p, q): w == v))

    def orbit(kind: str, argv: list[str], check) -> None:
        ops.append(_cli(kind, ["orbit"] + argv, check))

    for k, base in ((1, 10000), (1, 10000), (2, 6300), (3, 5000)):
        m = base + rng.randrange(50)
        argv = ["--map", "OG" if k == 1 else "OGk", "--start", f"1/{m}", "--steps", "2"]
        if k > 1:
            argv += ["--k", str(k)]
        orbit(f"orbit.OG.k{k}", argv,
              lambda out, m=m, k=k: o.check_values(o.gauss_orbit(1, m, k, 2), out))
    for _ in range(2):
        bits = 7800
        lead = bits // 2
        p = ((1 << lead) - 1) << (bits - lead) | rng.getrandbits(bits - lead - 1) | 1
        want = [(p, 1 << bits)]
        for _ in range(2):
            want.append(o.dyadic_odometer(*want[-1]))
        want = [o.reduced(*v) for v in want]
        orbit("orbit.interval-dyadic",
              ["--map", "interval-dyadic", "--start", _frac_text(p, 1 << bits), "--steps", "2"],
              lambda out, v=want: o.check_values(v, out))
    cf_w = _letters(rng, 3000, 1, 4, last_min=2)
    x = o.cf_value(cf_w)
    orbit("orbit.OG.long", ["--map", "OG", "--start", _frac_text(*x), "--steps", "3"],
          lambda out, x=x: o.check_values(o.gauss_orbit(*x, 1, 3), out))
    shifts = [x] + [o.cf_value(cf_w[i:]) for i in range(1, 4)]
    orbit("orbit.gauss.long", ["--map", "gauss", "--start", _frac_text(*x), "--steps", "3"],
          lambda out, v=shifts: o.check_values(v, out))
    bcf_w = _letters(rng, 4000, 2, 5)
    orbit("orbit.OR.long", ["--map", "OR", "--start", _frac_text(*o.bcf_value(bcf_w)),
                            "--steps", "3"],
          lambda out, w=bcf_w: o.check_values(o.renyi_word_orbit(w, 3), out))
    pre = _letters(rng, 2000, 0, 3)
    per = _letters(rng, 40, 0, 3)
    start = f"{_csv(pre)};{_csv(per)}"
    orbit("orbit.tail.long", ["--map", "O0", "--start", start, "--steps", "3"],
          lambda out, s=start: o.check_orbit_tail(s, 0, 3, out))
    word = _letters(rng, 1500, 1, 3)
    orbit("orbit.words.long", ["--map", "Ok", "--k", "1", "--start", _csv(word), "--steps", "3"],
          lambda out, w=word: o.check_orbit_words(w, 1, 3, out))
    root = _letters(rng, 1500, 1, 3)
    ops.append(_cli("tree.long", ["tree", "--floor", "1", "--levels", "4", "--root", _csv(root),
                                  "--values", "cf"],
                    lambda out, r=root: o.check_tree_plain(r, 1, 4, "cf", out)))

    # Exact outputs above CPython's 4300-digit str limit.  They exit 2 at
    # the seed commit, so they run apart from the measured ops, one or two
    # rows each, and are reported as their own count.
    probes = []
    for k, lo, hi in ((1, 25000, 30000), (2, 12000, 13000)):
        m = rng.randint(lo, hi)
        argv = ["orbit", "--map", "OG" if k == 1 else "OGk", "--start", f"1/{m}", "--steps", "1"]
        if k > 1:
            argv += ["--k", str(k)]
        probes.append(_cli(f"probe.OG.k{k}", argv,
                           lambda out, m=m, k=k: o.check_values(o.gauss_orbit(1, m, k, 1), out)))
    return Workload("deep", ops, probes)


def build(name: str, seed: int, lib) -> Workload:
    if name == "stream":
        return stream(seed)
    if name == "verify":
        return verify(seed)
    return deep(seed, lib)


WORKLOADS = ("stream", "verify", "deep")
