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

Both fraction systems encode by one Euclid routine, a recursive half-gcd
that is quasi-linear in the bit length: cf_encode(p/q) is Euclid on (q, p),
and bcf_encode(p/q) rewrites the cf digits (c1, ..., cn) of 1 - p/q, Euclid
on (q, q - p): an odd-index ci becomes the letter ci + 2 (less 1 if i = 1,
less 1 if i = n), an even-index ci becomes ci - 1 letters 2.

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
    """Continued-fraction digits of x in (0, 1]: the Euclid quotients of
    (denominator, numerator), from _euclid.

    The result is canonical: it never ends in 1, except for cf_encode(1) = (1).
    """
    p, q = x.numerator, x.denominator
    if not 0 < p <= q:
        raise ValueError(f"{x} outside (0, 1]")
    return FiniteWord._canonical(1, tuple(_euclid(q, p)))


_EUCLID_LEAF = 1280  # bits: _half_gcd runs the plain loop up to this size, _euclid up to twice it


def _euclid(a: int, b: int) -> list[int]:
    """The quotients of Euclid's algorithm on a >= b > 0, in order: the
    continued-fraction digits of b/a, the last one >= 2 unless a == b.

    A pair of at most 2 * _EUCLID_LEAF bits runs one divmod per digit (a
    shorter one would gain nothing from a cut whose top half is a leaf).  A
    longer one is first cut to about half its bits by _half_gcd, and the loop
    repeats on what remains; one plain step after each cut keeps the loop
    moving when the next quotient is giant.
    """
    digits: list[int] = []
    while b and a.bit_length() > 2 * _EUCLID_LEAF:
        *_, a, b = _half_gcd(a, b, digits)
        if b:
            q, r = divmod(a, b)
            digits.append(q)
            a, b = b, r
    while b:
        q, r = divmod(a, b)
        digits.append(q)
        a, b = b, r
    return digits


def _half_gcd(a: int, b: int, digits: list[int]) -> tuple[int, int, int, int, int, int]:
    """Run Euclid on a >= b >= 0 until b < 2^h, h = ceil(bits(a)/2), appending
    the quotients to digits (above the leaf it may stop a few digits short).
    Returns (A, B, C, D, a', b') with a' > b' >= 0 the last pair and
    (a, b) = [[A, B], [C, D]] (a', b').

    Schoenhage's recursion (Thull and Yap, 1990; Moeller, 2008): the
    quotients of the top bits of a pair are, all but the last few, those of
    the pair itself.  So the top half of (a, b) is halved recursively, the
    inverse of its digit matrix is applied to the full pair (_reduce), one
    plain step follows, and the top of what remains is halved the same way.
    Each recursion works on half the bits, so the cost is that of a few
    multiplications per level instead of one full-size divmod per digit.  A
    pair of at most _EUCLID_LEAF bits runs the plain loop and multiplies its
    digit matrices out afterwards.
    """
    n = a.bit_length()
    h = (n + 1) // 2
    start = len(digits)
    if n <= _EUCLID_LEAF:
        while b >> h:
            q, r = divmod(a, b)
            digits.append(q)
            a, b = b, r
        return *_letter_product(tuple(digits[start:]), 1), a, b
    A, B, C, D = 1, 0, 0, 1
    if b >> h:
        A, B, C, D, a, b = _reduce(a, b, h, digits)
    if b >> h:
        q, r = divmod(a, b)
        digits.append(q)
        a, b = b, r
        A, B, C, D = A * q + B, A, C * q + D, C
        shift = 2 * h - a.bit_length()
        if b >> h and shift > 0:
            m00, m01, m10, m11, a, b = _reduce(a, b, shift, digits)
            A, B, C, D = (A * m00 + B * m10, A * m01 + B * m11,
                          C * m00 + D * m10, C * m01 + D * m11)
    return A, B, C, D, a, b


def _reduce(a: int, b: int, shift: int, digits: list[int]) -> tuple[int, int, int, int, int, int]:
    """_half_gcd on the top bits (a >> shift, b >> shift), carried over to
    the full pair a >= b >= 0.  The inverse of the digit matrix [[A, B], [C, D]]
    (determinant (-1)^k for k digits) maps (a, b) to the remainder pair; while
    that pair is not a > b >= 0, or ends at b = 0 after a digit 1 (the pair
    before it had a == b), the last digit is wrong for the full pair and is
    backed off.  A pair that passes proves every digit before it: each pair
    (q a + b, a) with a > b >= 0 and q >= 1 has the Euclid quotient q.
    """
    start = len(digits)
    A, B, C, D, _, _ = _half_gcd(a >> shift, b >> shift, digits)
    if (len(digits) - start) & 1:
        a, b = B * b - D * a, C * a - A * b
    else:
        a, b = D * a - B * b, A * b - C * a
    while len(digits) > start and (b < 0 or b >= a or not b and digits[-1] == 1):
        q = digits.pop()
        a, b = q * a + b, a
        A, B, C, D = B, A - q * B, D, C - q * D
    return A, B, C, D, a, b


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

    Read off the continued-fraction digits (c1, ..., cn) of 1 - x, which are
    Euclid on (q, q - p) for x = p/q: an odd-index ci becomes the letter
    ci + 2, less 1 if i = 1 and less 1 if i = n; an even-index ci becomes
    ci - 1 letters 2.  This is the engine E = 1/(1 - x) = a1 - 1/(a2 - ...)
    rewritten as c1 + 1/(c2 + ...): k letters 2 between a and b give
    a - 1/(2 - ... - 1/(2 - 1/b)) = (a - 1) + 1/(k + 1 + 1/(b - 1)).
    0 is BCF_ZERO.
    """
    p, q = x.numerator, x.denominator
    if not 0 <= p < q:
        raise ValueError(f"{x} outside [0, 1)")
    if not p:
        return BCF_ZERO
    c = _euclid(q, q - p)
    letters = []
    for i in range(0, len(c), 2):
        letters.append(c[i] + 2)
        if i + 1 < len(c):
            letters += [2] * (c[i + 1] - 1)
    letters[0] -= 1
    if len(c) & 1:
        letters[-1] -= 1
    return FiniteWord._canonical(2, tuple(letters))


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
    """Infinite form (a1, ..., a_{n-1}, an+1, 2, 2, ...); BCF_ZERO -> all 2s.

    Defined on words over a floor >= 2, as bcf_decode is.  The result is
    canonical as built: the period (2,) is primitive and the preperiod ends
    in an+1 >= 3, so it is made by the trusted TailWord._canonical.
    """
    if isinstance(w, _BcfZero):
        return TailWord._canonical(2, (), (2,))
    if w.floor < 2:
        raise ValueError("backward continued-fraction words need letters >= 2")
    a = w.letters
    return TailWord._canonical(2, a[:-1] + (a[-1] + 1,), (2,))


def bcf_finite_form(t: TailWord) -> BcfWord:
    """Inverse of bcf_tail_form on words over a floor >= 2 with an all-2s tail.

    A canonical such word has a preperiod that is empty (BCF_ZERO) or ends
    in a letter >= 3, so the letters of the result are >= 2 and it is made
    by the trusted FiniteWord._canonical.
    """
    if t.floor < 2:
        raise ValueError("backward continued-fraction words need letters >= 2")
    if t.period != (2,):
        raise ValueError("not an all-2s-tail word")
    pre = t.preperiod
    if not pre:
        return BCF_ZERO
    return FiniteWord._canonical(2, pre[:-1] + (pre[-1] - 1,))


def dyadic_encode(x: Fraction) -> FiniteWord:
    """Floor-0 word of a dyadic rational in (0, 1).

    The binary digits of x are cut at each 0; a maximal 1-run of length r
    followed by a 0 becomes the letter r, and the trailing run of 1s (always
    nonempty in lowest terms) becomes the last letter.
    """
    q = x.denominator
    if not 0 < x.numerator < q:
        raise ValueError(f"{x} outside (0, 1)")
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
