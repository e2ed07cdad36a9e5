"""Independent oracles, statistics and the verification suites.

The enumeration routes built from word arithmetic are cross-checked here
against constructions that share no code with them: the Stern diatomic
sequence, direct breadth-first traversal of the rational son rules, and
distributional probes (Minkowski question-mark statistics and cylinder
frequencies).  SUITES holds the checks that `verify` runs; every check but
the three distribution probes is a tally of cases that names the first
failing one.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import chain, islice, pairwise, zip_longest
from typing import Callable, Iterable, Iterator

from .codecs import (BCF_ZERO, SYSTEMS, BcfWord, bcf_decode, bcf_encode, bcf_finite_form,
                     bcf_tail_form, cf_decode, cf_encode, system as codec_system)
from .interval_maps import (_b, _dyadic_pair, _gauss_pair, _renyi_pair, gauss_odometer,
                            k_gauss_odometer, question_mark, renyi_odometer)
from .odometers import baire_fast_forward, baire_step, dyadic_step, renormalization_exponent
from .word_actions import Policy, enumerate_words, orbit, step as word_step
from .words import (FiniteWord, block_encode, compare_rlex, constant, drop_front, tail,
                    total_index)

_STERN_LEAF = 2048  # bit strings up to this length are multiplied out bit by bit


def stern(n: int) -> int:
    """Stern diatomic sequence: s(0)=0, s(1)=1, s(2n)=s(n), s(2n+1)=s(n)+s(n+1).

    Reading the bits of n from the top keeps (a, b) = (s(m+1), s(m)) for the
    prefix m read so far: it starts at (1, 0) for m = 0, a bit 1 adds a to b
    and a bit 0 adds b to a.  So (a, b) is the top row of the matrix product
    of the bits of n (see _bit_product), whose halving recursion pairs
    operands of about equal size: near-linear in the bit length.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _bit_product(format(n, "b"))[1]


def _bit_product(bits: str) -> tuple[int, int, int, int]:
    """(A, B, C, D) with [[A, B], [C, D]] the product, left to right, of
    [[1, 1], [0, 1]] per bit 1 and [[1, 0], [1, 1]] per bit 0.

    Up to _STERN_LEAF bits are multiplied out one bit at a time; a longer
    string is split in halves whose products are multiplied together.
    """
    if len(bits) <= _STERN_LEAF:
        a_, b_, c_, d_ = 1, 0, 0, 1
        for bit in bits:
            if bit == "1":
                b_ += a_
                d_ += c_
            else:
                a_ += b_
                c_ += d_
        return a_, b_, c_, d_
    half = len(bits) // 2
    a1, b1, c1, d1 = _bit_product(bits[:half])
    a2, b2, c2, d2 = _bit_product(bits[half:])
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def enumerate_coded(system: str, count: int,
                    offset: str | None = None) -> Iterator[tuple[BcfWord, Fraction]]:
    """(word, value) pairs of a system in enumeration order: the word orbit
    whose values enumerate_rationals steps, zipped with those values.

    dyadic and cf take the subtree orbits of (1) over floor 0 and (2) over
    floor 1 (the words ending in a letter above the floor, one per value);
    bcf takes the top-down orbit of (2) over floor 2 (every word, each a
    distinct value), after BCF_ZERO, the word of 0, for offset "zero".  The
    words are the codec's canonical ones: encode(value) == word and
    decode(word) == value, though no word is decoded here.  Each value is
    built as a Fraction from the integer pair of _coded_pairs.
    """
    for w, (p, q) in _coded_pairs(system, count, offset):
        yield w, Fraction(p, q)


def _coded_pairs(system: str, count: int,
                 offset: str | None = None) -> Iterator[tuple[BcfWord, tuple[int, int]]]:
    """enumerate_coded with each value as its pair (p, q) in lowest terms."""
    offset = _offset(system, offset)
    floor = codec_system(system)[0]
    if system == "bcf":  # every word over floor 2 is canonical
        walk = orbit(FiniteWord(floor, (floor,)), Policy.TOPDOWN, count)
    else:  # the canonical words end in a letter above the floor
        walk = orbit(FiniteWord(floor, (floor + 1,)), Policy.SUBTREE, count)
    if offset == "zero":
        walk = islice(chain((BCF_ZERO,), walk), count)
    yield from zip(walk, _pair_walk(system, count, offset))


def enumerate_rationals(system: str, count: int, offset: str | None = None) -> Iterator[Fraction]:
    """The rationals of a system in enumeration order, each the image of the
    one before under its interval odometer: bcf the Renyi odometer, from 0
    for offset "zero" (bcf only, its default) or from 1/2 for "root"; dyadic
    the interval-dyadic step and cf the Gauss odometer inside a level, both
    from 1/2.  No word is built or decoded: the values are those of the
    word orbits of enumerate_coded.  The walk itself is _pair_walk, on
    integer pairs; this wrapper builds the Fractions.
    """
    for p, q in _pair_walk(system, count, offset):
        yield Fraction(p, q)


def _pair_walk(system: str, count: int, offset: str | None = None) -> Iterator[tuple[int, int]]:
    """enumerate_rationals as pairs (p, q) in lowest terms, stepped by the
    cores of interval_maps: bcf by _renyi_pair, dyadic by _dyadic_pair and
    cf by _cf_pair.  The cores return reduced pairs, so no gcd is taken."""
    offset = _offset(system, offset)
    step = {"cf": _cf_pair, "bcf": _renyi_pair, "dyadic": _dyadic_pair}[system]
    pair = (0, 1) if offset == "zero" else (1, 2)
    if count > 0:
        yield pair
    for _ in range(count - 1):
        pair = step(*pair)
        yield pair


def _offset(system: str, offset: str | None) -> str:
    """The offset of an enumeration of system, checked; None is "zero" for
    bcf and "root" for the others."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if offset is None:
        return "zero" if system == "bcf" else "root"
    if offset not in ("zero", "root"):
        raise ValueError(f"unknown offset {offset!r}")
    if offset == "zero" and system != "bcf":
        raise ValueError(f"offset 'zero' is only defined for bcf, not {system!r}")
    return offset


def _cf_pair(p: int, q: int) -> tuple[int, int]:
    """The cf subtree step on p/q in lowest terms: the right-continuous Gauss
    odometer inside a level.  A level ends at its one-letter word (a), of
    value 1/a, and the next starts at (1, ..., 1, 2), a - 1 ones, of value
    b(a+1)/b(a+2) with b the Fibonacci numbers."""
    return _b(1, q + 2) if p == 1 else _gauss_pair(p, q)


def bfs_oracle(system: str, count: int) -> Iterator[Fraction]:
    """Breadth-first values from the rational son rules alone (no words)."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    queue = deque([Fraction(1, 2)])
    for _ in range(count):
        x = queue.popleft()
        yield x
        p, q = x.numerator, x.denominator
        if system == "dyadic":
            queue.append(x / 2)
            queue.append((1 + x) / 2)
        elif system == "cf":
            queue.append(Fraction(q, p + q))
            queue.append(Fraction(p, p + q))
        else:
            queue.append(Fraction(p, p + q))
            queue.append(Fraction(q, 2 * q - p))


def stern_oracle(count: int) -> Iterator[Fraction]:
    """s(2m)/s(2m+1) for m = 0, 1, ...: the breadth-first values of the
    Calkin-Wilf tree that lie in [0, 1), i.e. the bcf enumeration from 0."""
    for m in range(count):
        yield Fraction(stern(2 * m), stern(2 * m + 1))


def distribution_test(count: int, grid: int, reference: str = "minkowski") -> float:
    """Kolmogorov-Smirnov distance on a uniform grid between the empirical
    CDF of the first count cf-enumerated rationals and a reference CDF
    ("minkowski" = the question-mark function, "uniform" = the identity).

    Sort-free: a sample p/q is <= i/grid exactly from i = ceil(p*grid/q)
    on, so it is counted into that bucket in integers, and the empirical
    CDF at i/grid is the prefix sum of the buckets up to i.
    """
    if reference not in ("minkowski", "uniform"):
        raise ValueError(f"unknown reference {reference!r}")
    return _ks_distance(_cf_buckets(count, grid), count, reference)


def _cf_buckets(count: int, grid: int) -> list[int]:
    """grid + 1 buckets; bucket i counts the first count cf-enumerated
    rationals p/q with ceil(p*grid/q) = i."""
    buckets = [0] * (grid + 1)
    for p, q in _pair_walk("cf", count):
        buckets[-(-p * grid // q)] += 1
    return buckets


def _ks_distance(buckets: list[int], count: int, reference: str) -> float:
    """The distance of distribution_test, read off the buckets of _cf_buckets."""
    grid = len(buckets) - 1
    worst = 0.0
    below = 0
    for i in range(grid + 1):
        below += buckets[i]
        g = Fraction(i, grid)
        ref = question_mark(g) if reference == "minkowski" else g
        worst = max(worst, abs(below / count - float(ref)))
    return worst


def frequency_test(word_floor: int, steps: int) -> dict[int, float]:
    """First-letter frequencies along the odometer orbit of the constant
    word; the invariant measure gives the letter floor+r mass 2^(-r-1)."""
    counts: dict[int, int] = {}
    w = constant(word_floor, word_floor)
    for _ in range(steps):
        a = w.letter(1)
        counts[a] = counts.get(a, 0) + 1
        w = baire_step(w)
    return {a: c / steps for a, c in sorted(counts.items())}


# ---------------------------------------------------------------- verify
#
# A suite is a function of the budget that returns its checks, each a
# (name, passed, detail) triple; a failing detail names the first failing
# case (the distribution probes give their statistic instead).  The random
# suites seed their own generator, so a suite run alone draws the same cases
# as in a run of all suites.

Check = tuple[str, bool, str]

MIN_BUDGET = 2  # the least budget at which every check has a case and every gate can be met
SEED = 20260814


def _tally(mismatch: Callable[..., bool], cases: Iterable[dict]) -> tuple[int, int, str]:
    """Call mismatch(**case) on every case: (cases, mismatches, a note naming
    the first mismatching case, ", first at key=value ...", or "").  A case
    whose call raises ValueError or ZeroDivisionError is a mismatch, and
    its note also names the exception.  Drawing a case that raises one ends
    the tally with one more mismatch, and the note names that case's number
    (counted from 0) and the exception."""
    total = bad = 0
    note = ""
    cases = iter(cases)
    while True:
        try:
            case = next(cases)
        except StopIteration:
            break
        except (ValueError, ZeroDivisionError) as exc:
            bad += 1
            note += f", drawing case {total} raised {type(exc).__name__}: {exc}"
            break
        total += 1
        try:
            failed, error = mismatch(**case), ""
        except (ValueError, ZeroDivisionError) as exc:
            failed, error = True, f" ({type(exc).__name__}: {exc})"
        if failed:
            if not bad:
                note = ", first at " + " ".join(f"{k}={v}" for k, v in case.items()) + error
            bad += 1
    return total, bad, note


def _check_conjugacy(budget: int) -> list[Check]:
    getrandbits = random.Random(SEED).getrandbits

    def below(n: int) -> int:
        """randrange(n), drawn by the rejection rule of CPython's _randbelow."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def cases() -> Iterator[dict]:
        for _ in range(10_000):
            pre = [below(2) for _ in range(below(10))]
            per = [below(2) for _ in range(1 + below(6))]
            per[below(len(per))] = 0  # keep a block boundary in every tail
            yield {"w": tail(pre, per)}

    total, bad, note = _tally(
        lambda w: block_encode(dyadic_step(w)) != baire_step(block_encode(w)), cases())
    return [("conjugacy: recode(add 1) = step(recode)", bad == 0,
             f"{total} random binary words, {bad} mismatches{note}")]


def _check_renorm(budget: int) -> list[Check]:
    rng = random.Random(SEED)

    def cases() -> Iterator[dict]:
        for _ in range(100):
            pre = tuple(rng.randrange(4) for _ in range(rng.randrange(0, 5)))
            per = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
            w = tail(pre, per)
            yield from ({"w": w, "m": m, "n": n} for m in range(4) for n in range(4))

    def mismatch(w, m: int, n: int) -> bool:
        lhs = drop_front(w, n)
        for _ in range(m):
            lhs = baire_step(lhs)
        e = renormalization_exponent(w, m, n)
        return lhs != drop_front(baire_fast_forward(w, e), n)

    _, bad, note = _tally(mismatch, cases())
    return [("renormalization: step^m shift^n = shift^n step^(m 2^n 2^(w1+..+wn))",
             bad == 0, f"100 words x m,n <= 3, {bad} mismatches{note}")]


def _check_counting(budget: int) -> list[Check]:
    level = min(budget, 15)
    words = list(enumerate_words(1, (1 << level) - 1))
    pairs = enumerate(pairwise(chain((None,), words)))

    def mismatch(n: int, prev, w) -> bool:  # w is word n and must come right after prev
        return total_index(w) != n or (prev is not None and compare_rlex(prev, w) != -1)

    _, bad, note = _tally(mismatch, ({"n": n, "prev": prev, "w": w} for n, (prev, w) in pairs))
    checks = [("counting: top-down orbit of (1) is the ordered bijection",
               bad == 0, f"first {len(words)} words (sums <= {level}){note}")]

    positions: dict[Fraction, list[int]] = {}
    for n, w in enumerate(words):
        positions.setdefault(cf_decode(w), []).append(n)

    def untwinned(x: Fraction, at: list[int]) -> bool:
        """Whether x misses its place: 1 at word 0 alone, any other value at two
        words of its level s, 2^(s-2) apart (word n has level (n+1).bit_length())."""
        if x == 1:
            return at != [0]
        return len(at) != 2 or at[1] - at[0] != 1 << ((at[0] + 1).bit_length() - 2)

    total, bad, note = _tally(untwinned, ({"x": x, "at": at} for x, at in positions.items()))
    checks.append(("twins: each cf value but 1 sits at two words 2^(s-2) apart",
                   bad == 0, f"{total} values{note}"))
    return checks


def _reduced(q_max: int, start: int) -> Iterator[dict]:
    """{"x": p/q} in lowest terms for q <= q_max and start <= p < q + start:
    the rationals of (0, 1] for start 1, of [0, 1) for start 0."""
    for q in range(1, q_max + 1):
        for p in range(start, q + start):
            if math.gcd(p, q) == 1:
                yield {"x": Fraction(p, q)}


def _same(values: Iterable, oracle: Iterable) -> tuple[int, int, str]:
    """_tally of two sequences compared term by term."""
    pairs = enumerate(zip_longest(values, oracle))
    return _tally(lambda n, value, oracle: value != oracle,
                  ({"n": n, "value": a, "oracle": b} for n, (a, b) in pairs))


def _check_oracles(budget: int) -> list[Check]:
    q_max = min(200, max(20, 17 * budget))
    # one encode per rational: the gauss check keeps the words whose digits are
    # all >= 2, the only ones the restricted checks take
    admissible = {}

    def gauss_mismatch(x: Fraction) -> bool:
        w = cf_encode(x)
        if min(w.letters) >= 2:
            admissible[x] = w
        return gauss_odometer(x) != cf_decode(word_step(w, Policy.CYCLIC))

    total, bad, note = _tally(gauss_mismatch, _reduced(q_max, 1))
    checks = [("gauss closed form = cyclic word action", bad == 0,
               f"{total} rationals, q <= {q_max}, {bad} mismatches{note}")]
    total, bad, note = _tally(lambda x: renyi_odometer(x) != bcf_decode(
        bcf_finite_form(baire_step(bcf_tail_form(bcf_encode(x))))), _reduced(q_max, 0))
    checks.append(("renyi closed form = backward word action", bad == 0,
                   f"{total} rationals, q <= {q_max}, {bad} mismatches{note}"))
    for k in (2, 3):
        total, bad, note = _tally(lambda x: k_gauss_odometer(x, k) != cf_decode(
            word_step(FiniteWord(k, admissible[x].letters), Policy.CYCLIC)),
            ({"x": x} for x, w in admissible.items() if min(w.letters) >= k))
        checks.append((f"restricted gauss closed form (k={k}) = word action",
                       bad == 0, f"{total} admissible rationals, {bad} mismatches{note}"))

    depth = 1 << min(budget, 12)
    for name in SYSTEMS:
        _, bad, note = _same(enumerate_rationals(name, depth, "root"), bfs_oracle(name, depth))
        checks.append((f"{name} enumeration = son-rule breadth-first oracle",
                       bad == 0, f"first {depth} values{note}"))
    _, bad, note = _same(enumerate_rationals("bcf", depth), stern_oracle(depth))
    checks.append(("bcf enumeration = Stern diatomic oracle", bad == 0,
                   f"first {depth} values{note}"))
    return checks


def _check_periods(budget: int) -> list[Check]:
    top = min(budget, 12)

    def broken(s: int) -> bool:
        """Whether the orbit of 1/s fails to close after 2^(s-1) steps through
        2^(s-2) points, each met twice, 2^(s-2) steps apart."""
        half = 1 << (s - 2)
        v = Fraction(1, s)
        at: dict[Fraction, list[int]] = {}
        for i in range(2 * half):
            at.setdefault(v, []).append(i)
            v = gauss_odometer(v)
        return v != Fraction(1, s) or len(at) != half or any(
            len(p) != 2 or p[1] - p[0] != half for p in at.values())

    _, bad, note = _tally(broken, ({"s": s} for s in range(2, top + 1)))
    return [("gauss odometer periods are exactly 2^(digit sum - 2)", bad == 0,
             f"levels 2..{top}{note}")]


def _check_distribution(budget: int) -> list[Check]:
    count = 1 << min(budget + 4, 16)
    buckets = _cf_buckets(count, 1024)  # one sample for both references
    ks = _ks_distance(buckets, count, "minkowski")
    control = _ks_distance(buckets, count, "uniform")
    freq = frequency_test(0, count)
    worst = max(abs(freq.get(a, 0.0) - 2.0 ** (-a - 1)) for a in range(6))
    return [
        ("cf enumeration follows the question-mark distribution",
         ks < 0.02, f"KS {ks:.5f} over {count} samples"),
        ("negative control: uniform reference fails", control > 0.1, f"KS {control:.5f}"),
        ("first-letter frequencies match 2^-(k+1)", worst < 0.01,
         f"max deviation {worst:.5f} over {count} steps"),
    ]


SUITES: dict[str, Callable[[int], list[Check]]] = {
    "conjugacy": _check_conjugacy,
    "renorm": _check_renorm,
    "counting": _check_counting,
    "oracles": _check_oracles,
    "periods": _check_periods,
    "distribution": _check_distribution,
}


def run_suite(name: str, budget: int) -> list[Check]:
    """The checks of one suite; a budget below MIN_BUDGET runs as MIN_BUDGET."""
    return SUITES[name](max(budget, MIN_BUDGET))
