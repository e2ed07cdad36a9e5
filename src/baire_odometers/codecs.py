"""Exact rational arithmetic and the word <-> rational codecs.

Three numeration systems pair finite words with rationals:

* cf: x = 1/(a1 + 1/(a2 + ...)), letters >= 1.  Canonical words end in a
  letter >= 2 (plus the word (1) for x = 1); every rational in (0,1) also has
  a twin expansion ending in 1.
* bcf: x = 1 - 1/(a1 - 1/(a2 - ...)), letters >= 2.  Each rational in (0,1)
  has exactly one finite word; 0 is represented by the marker BCF_ZERO (its
  infinite form is the constant word of 2s), which reads like a word with
  no letters and prints as "zero".
* dyadic: x = 0.b1 b2 ... with a finite binary expansion; letters over
  floor 0 code the maximal 1-runs between 0s, the last letter coding the
  trailing run of 1s.

All arithmetic is exact; nothing in this module touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import FiniteWord, TailWord


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Render as "p/q", always with an explicit denominator."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class _BcfZero:
    """Marker for the rational 0, whose backward expansion never terminates."""

    letters = ()

    def __str__(self) -> str:
        return "zero"

    def __repr__(self) -> str:
        return "BCF_ZERO"


BCF_ZERO = _BcfZero()

BcfWord = FiniteWord | _BcfZero


SYSTEMS = ("cf", "bcf", "dyadic")


def system(name: str) -> tuple:
    """(floor, encode, decode) of "cf", "bcf" or "dyadic".  The codecs are read
    at each call, so a caller gets the functions bound here now (a profiler may
    have wrapped them)."""
    return {"cf": (1, cf_encode, cf_decode), "bcf": (2, bcf_encode, bcf_decode),
            "dyadic": (0, dyadic_encode, dyadic_decode)}[name]


def cf_encode(x: Fraction) -> FiniteWord:
    """Continued-fraction digits of x in (0, 1], by the Euclidean algorithm.

    The result is canonical: it never ends in 1, except for cf_encode(1) = (1).
    """
    if not 0 < x <= 1:
        raise ValueError(f"{x} outside (0, 1]")
    digits = []
    p, q = x.numerator, x.denominator
    while p:
        a, r = divmod(q, p)
        digits.append(a)
        p, q = r, p
    return FiniteWord(1, tuple(digits))


_LEAF = 32  # runs up to this length are multiplied out letter by letter (16-64 time the same)


def _letter_product(letters: tuple[int, ...], e: int) -> tuple[int, int, int, int]:
    """(A, B, C, D) with [[A, B], [C, D]] the product, left to right, of the
    matrices [[a, e], [1, 0]] over the letters.

    A run of at most _LEAF letters is multiplied out one letter at a time
    (the continuant recurrences); a longer one is split in halves whose
    products are multiplied together.  The big multiplications then pair
    operands of equal size: O(log n) rounds of them for n letters, instead of
    n steps that each grow an integer as long as the result.
    """
    if len(letters) <= _LEAF:
        a_, b_, c_, d_ = 1, 0, 0, 1
        for a in letters:
            a_, b_ = a * a_ + b_, e * a_
            c_, d_ = a * c_ + d_, e * c_
        return a_, b_, c_, d_
    half = len(letters) // 2
    a1, b1, c1, d1 = _letter_product(letters[:half], e)
    a2, b2, c2, d2 = _letter_product(letters[half:], e)
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def cf_decode(w: FiniteWord) -> Fraction:
    """Evaluate 1/(a1 + 1/(a2 + ...)) exactly.

    The product of the letter matrices [[a, 1], [1, 0]] has the continuants
    q_n over p_n in its first column, and x = p_n/q_n.  Accepts any word with
    letters >= 1, canonical or not.
    """
    if w.floor < 1:
        raise ValueError("continued-fraction words need letters >= 1")
    q, _, p, _ = _letter_product(w.letters, 1)
    return Fraction(p, q)


def twin(w: FiniteWord) -> FiniteWord:
    """The other expansion of the same rational: (..., an) <-> (..., an-1, 1)."""
    if w.floor != 1:
        raise ValueError("twin is defined on floor-1 words")
    a = w.letters
    if a[-1] >= 2:
        return FiniteWord(1, a[:-1] + (a[-1] - 1, 1))
    if len(a) == 1:
        raise ValueError("the word (1) has no twin")
    return FiniteWord(1, a[:-2] + (a[-2] + 1,))


def is_canonical_cf(w: FiniteWord) -> bool:
    return w.floor == 1 and (w.letters[-1] >= 2 or w.letters == (1,))


def bcf_encode(x: Fraction) -> BcfWord:
    """Backward continued-fraction digits of x in [0, 1); all digits >= 2.

    Digits come from the engine E = 1/(1-x): emit E and stop when E is an
    integer, else emit floor(E)+1 and recurse on the fractional part of E
    (one backward-map step).  Denominators strictly decrease, so the loop
    terminates for every rational.
    """
    if not 0 <= x < 1:
        raise ValueError(f"{x} outside [0, 1)")
    if x == 0:
        return BCF_ZERO
    digits = []
    p, q = x.numerator, x.denominator
    while True:
        # E = q/(q-p) with 0 < p < q
        d = q - p
        a, r = divmod(q, d)
        if r == 0:
            digits.append(a)
            return FiniteWord(2, tuple(digits))
        digits.append(a + 1)
        p, q = r, d


def bcf_decode(w: BcfWord) -> Fraction:
    """Evaluate 1 - 1/(a1 - 1/(a2 - ...)) exactly; BCF_ZERO -> 0.

    The engine E = a1 - 1/(a2 - ...) is p/q with (p, q) the first column of
    the product of the letter matrices [[a, -1], [1, 0]], so only the final
    1 - q/p builds a Fraction.
    """
    if isinstance(w, _BcfZero):
        return Fraction(0)
    if w.floor < 2:
        raise ValueError("backward continued-fraction words need letters >= 2")
    p, _, q, _ = _letter_product(w.letters, -1)
    return Fraction(p - q, p)


def bcf_tail_form(w: BcfWord) -> TailWord:
    """Infinite form (a1, ..., a_{n-1}, an+1, 2, 2, ...); BCF_ZERO -> all 2s."""
    if isinstance(w, _BcfZero):
        return TailWord(2, (), (2,))
    a = w.letters
    return TailWord(2, a[:-1] + (a[-1] + 1,), (2,))


def bcf_finite_form(t: TailWord) -> BcfWord:
    """Inverse of bcf_tail_form on words with an all-2s tail."""
    if t.period != (2,):
        raise ValueError("not an all-2s-tail word")
    pre = t.preperiod
    if not pre:
        return BCF_ZERO
    return FiniteWord(2, pre[:-1] + (pre[-1] - 1,))


def dyadic_encode(x: Fraction) -> FiniteWord:
    """Floor-0 word of a dyadic rational in (0, 1).

    The binary digits of x are cut at each 0; a maximal 1-run of length r
    followed by a 0 becomes the letter r, and the trailing run of 1s (always
    nonempty in lowest terms) becomes the last letter.
    """
    if not 0 < x < 1:
        raise ValueError(f"{x} outside (0, 1)")
    q = x.denominator
    if q & (q - 1):
        raise ValueError(f"{x} is not dyadic")
    bits = format(x.numerator, f"0{q.bit_length() - 1}b")
    letters = []
    run = 0
    for b in bits:
        if b == "0":
            letters.append(run)
            run = 0
        else:
            run += 1
    letters.append(run)
    return FiniteWord(0, tuple(letters))


def dyadic_decode(w: FiniteWord) -> Fraction:
    """Exact value of a floor-0 word; inverse of dyadic_encode on its range."""
    if w.floor != 0:
        raise ValueError("dyadic words need floor 0")
    bits = ""
    for a in w.letters[:-1]:
        bits += "1" * a + "0"
    bits += "1" * w.letters[-1]
    if not bits:
        return Fraction(0)
    return Fraction(int(bits, 2), 1 << len(bits))
