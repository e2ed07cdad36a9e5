"""Interval realizations of the odometers, in exact rational arithmetic.

The piecewise maps (Gauss map, backward/Renyi map, the dyadic interval
translation) act on rationals; the corresponding odometers have closed forms:

* gauss_odometer: Moebius formula with Fibonacci coefficients on the branch
  x in [1/(n+1), 1/n); with these left-closed branches the formula agrees
  with the cyclic word action everywhere on (0, 1], including 1/M and the
  fixed point 1 (the n=0 row is the identity, using f(-1) = 1).
* renyi_odometer: x -> 1/(2*floor(1/(1-x)) + 1 - 1/(1-x)) on [0, 1).
* k_gauss_odometer: the same Moebius scheme over the two k-Fibonacci
  sequences b (0, 1, k, ...) and d (1, 1, k+1, ...), restricted to rationals
  whose continued-fraction digits are all >= k.  With m the first digit and
  j = m - k the coefficients are b_j - m*d_j, d_j and b_{j+1} - m*d_{j+1},
  d_{j+1}; this indexing reduces exactly to the k=1 formula.

A generic countable-Markov-interval odometer (cmi_odometer) recodes a point
through any supplied branch system, applies the finite-word action, and maps
back through the inverse branches; the shipped Gauss/Renyi/restricted-Gauss
instances agree with the closed forms.

Each odometer closed form has one implementation, an integer core that
takes the numerator and denominator (p, q) of a point in lowest terms and
returns those of its image: _gauss_pair (the right-continuous Gauss
odometer), _moebius (the Moebius scheme behind both Gauss boundaries and the
restricted Gauss odometer), _renyi_pair and _dyadic_pair.  The public maps
check the domain and build one Fraction from the core's pair; the
enumeration walk in analysis steps the pairs themselves.  Domain checks
compare the numerator with the denominator as integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .codecs import cf_encode
from .word_actions import Policy, step as word_step
from .words import FiniteWord


def gauss(x: Fraction) -> Fraction:
    """Fractional part of 1/x, for x in (0, 1]."""
    p, q = x.numerator, x.denominator
    if not 0 < p <= q:
        raise ValueError(f"{x} outside (0, 1]")
    return Fraction(q % p, p)


def renyi(x: Fraction) -> Fraction:
    """Fractional part of 1/(1-x), for x in [0, 1); fixes 0."""
    p, q = x.numerator, x.denominator
    if not 0 <= p < q:
        raise ValueError(f"{x} outside [0, 1)")
    return Fraction(q % (q - p), q - p)


def dyadic_interval_step(x: Fraction) -> Fraction:
    """x + 3/2^n - 1 on the branch [1 - 2^(1-n), 1 - 2^(-n)); domain [0, 1)."""
    p, q = x.numerator, x.denominator
    if not 0 <= p < q:
        raise ValueError(f"{x} outside [0, 1)")
    return Fraction(*_dyadic_pair(p, q))


def _dyadic_pair(p: int, q: int) -> tuple[int, int]:
    """dyadic_interval_step on p/q in lowest terms, 0 <= p < q: the image
    ((p - q) 2^n + 3q) / (q 2^n), in lowest terms.

    The two terms share only a power of 2 (an odd common factor would divide
    q and p), so shifting out the trailing zero bits of their bitwise or
    reduces the pair without a gcd.
    """
    # the least n with 2^n > 1/(1-x) = q/(q-p), i.e. with 2^n > floor(q/(q-p))
    n = (q // (q - p)).bit_length()
    num, den = ((p - q) << n) + 3 * q, q << n
    both = num | den
    zeros = (both & -both).bit_length() - 1
    return num >> zeros, den >> zeros


@dataclass(frozen=True)
class FibPair:
    """n-th values of the two k-Fibonacci sequences b and d.

    b(0)=0, b(1)=1 and d(0)=1, d(1)=1, both with the recurrence
    t(n+1) = k*t(n) + t(n-1); d(n) = b(n) + b(n-1) for n >= 1.
    """

    n: int
    b: int
    d: int


def fib(k: int, n: int) -> FibPair:
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    b_prev, b_n = _b(k, n)
    return FibPair(n, b_n, b_n + b_prev)


def _b(k: int, n: int) -> tuple[int, int]:
    """(b(n-1), b(n)) for n >= -1, with (b(-2), b(-1)) = (-k, 1), the values
    that extend the recurrence below n = 0.

    Fast doubling over the bits of n - 1, from (b(h), b(h+1)) by
    b(2h) = b(h)*(2*b(h+1) - k*b(h)) and b(2h+1) = b(h)^2 + b(h+1)^2:
    O(log n) multiplications instead of n recurrence steps.
    """
    if n < 1:
        return (-k, 1) if n == -1 else (1, 0)
    lo, hi = 0, 1  # (b(h), b(h+1)) at h = 0
    for bit in bin(n - 1)[2:]:
        lo, hi = lo * (2 * hi - k * lo), lo * lo + hi * hi
        if bit == "1":
            lo, hi = hi, k * hi + lo
    return lo, hi


def golden_mean_k(k: int, n: int) -> Fraction:
    """Exact convergent b(n)/b(n+1) of 1/phi_k, phi_k = (k + sqrt(k^2+4))/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(*_b(k, n + 1))


class Boundary(Enum):
    RIGHT = "right"
    LEFT = "left"


def _moebius(p: int, q: int, k: int, m: int, j: int) -> tuple[int, int]:
    """(x*(b_j - m*d_j) + d_j) / (x*(b_{j+1} - m*d_{j+1}) + d_{j+1}) at x = p/q,
    as the pair of integers p*(b_j - m*d_j) + q*d_j and p*(b_{j+1} - m*d_{j+1})
    + q*d_{j+1}.  The coefficient matrix has determinant -+1, so the pair is in
    lowest terms when p/q is; on the odometers' domains both terms are > 0."""
    b_prev, b_j = _b(k, j)
    b_next = k * b_j + b_prev
    d_j, d_next = b_j + b_prev, b_next + b_j
    return p * (b_j - m * d_j) + q * d_j, p * (b_next - m * d_next) + q * d_next


def _gauss_pair(p: int, q: int) -> tuple[int, int]:
    """The right-continuous gauss_odometer on p/q in lowest terms, 0 < p <= q:
    the Moebius form of the branch [1/(n+1), 1/n) holding p/q."""
    n = -(-q // p) - 1
    return _moebius(p, q, 1, n, n - 1)


def gauss_odometer(x: Fraction, boundary: Boundary = Boundary.RIGHT) -> Fraction:
    """Odometer over the Gauss map, x in (0, 1].

    RIGHT (the default) takes the branch value continuous from the right;
    it coincides with the cyclic word action on continued-fraction digits.
    LEFT takes the left limit at the branch points 1/M, stepping to the
    shorter word (1, ..., 1) of M-1 ones; its domain is (0, 1), since at
    x = 1 the left limit leaves the interval.
    """
    p, q = x.numerator, x.denominator
    if boundary is Boundary.LEFT:
        if not 0 < p < q:
            raise ValueError(f"{x} outside (0, 1)")
        n = q // p
        return Fraction(*_moebius(p, q, 1, n, n - 1))
    if not 0 < p <= q:
        raise ValueError(f"{x} outside (0, 1]")
    return Fraction(*_gauss_pair(p, q))


def renyi_odometer(x: Fraction) -> Fraction:
    """Odometer over the backward map, x in [0, 1): 1/(2*floor(E) + 1 - E), E = 1/(1-x)."""
    p, q = x.numerator, x.denominator
    if not 0 <= p < q:
        raise ValueError(f"{x} outside [0, 1)")
    return Fraction(*_renyi_pair(p, q))


def _renyi_pair(p: int, q: int) -> tuple[int, int]:
    """renyi_odometer on p/q in lowest terms, 0 <= p < q: (d, (2m + 1)d - q)
    with d = q - p and m = floor(q/d), in lowest terms (gcd(d, q) = gcd(p, q))."""
    d = q - p
    return d, (2 * (q // d) + 1) * d - q  # 1/(2m + 1 - q/d); the denominator exceeds m*d > 0


def k_gauss_odometer(x: Fraction, k: int) -> Fraction:
    """Odometer over the Gauss map restricted to digits >= k.

    Single-digit points 1/M step cyclically to b(M-k+1)/b(M-k+2), fixing
    1/k; for longer expansions the Moebius closed form applies and equals
    the floor-k word action.  k must be >= 1, and every continued-fraction
    digit of x >= k (a first digit >= k puts x in (0, 1/k]).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    p, q = x.numerator, x.denominator
    w = cf_encode(x) if 0 < p <= q else None
    if w is None or min(w.letters) < k:
        raise ValueError(f"{x} outside (0, 1/{k}] with continued-fraction digits >= {k}")
    if len(w) == 1:
        return Fraction(*_b(k, w.letters[0] - k + 2))
    m = w.letters[0]
    return Fraction(*_moebius(p, q, k, m, m - k))


@dataclass(frozen=True)
class CmiMap:
    """A countable family of monotone branches covering an interval.

    ``digit`` returns the branch index of a point (an integer >= floor) or
    None at the terminal point 0, where coding stops; ``step`` is the forward
    map; ``branch_inverse(a, y)`` is the inverse of the branch with index a,
    so branch_inverse(digit(x), step(x)) = x away from the terminal point.
    ``policy`` fixes the length-1 convention of the induced word action.
    """

    floor: int
    policy: Policy
    step: Callable[[Fraction], Fraction]
    digit: Callable[[Fraction], int | None]
    branch_inverse: Callable[[int, Fraction], Fraction]


def cmi_odometer(cmi: CmiMap, x: Fraction, depth_limit: int) -> Fraction:
    """Recode x through the branches, act on the digit word, decode back."""
    digits: list[int] = []
    y = x
    while (a := cmi.digit(y)) is not None:
        if len(digits) >= depth_limit:
            raise ValueError(f"point not identifiable within depth {depth_limit}")
        digits.append(a)
        y = cmi.step(y)
    if digits:
        succ = word_step(FiniteWord(cmi.floor, tuple(digits)), cmi.policy)
    elif cmi.policy is Policy.TOPDOWN:
        succ = FiniteWord(cmi.floor, (cmi.floor,))
    else:
        raise ValueError("terminal point has no successor under this policy")
    value = Fraction(0)
    for a in reversed(succ.letters):
        value = cmi.branch_inverse(a, value)
    return value


def _gauss_digit(y: Fraction) -> int | None:
    return None if y == 0 else y.denominator // y.numerator


def _gauss_branch_inverse(a: int, y: Fraction) -> Fraction:
    return 1 / (a + y)


def gauss_cmi() -> CmiMap:
    return k_gauss_cmi(1)


def k_gauss_cmi(k: int) -> CmiMap:
    # same branches as the Gauss map; floor-k words reject stray digits
    if k < 1:
        raise ValueError("need k >= 1")
    return CmiMap(k, Policy.CYCLIC, gauss, _gauss_digit, _gauss_branch_inverse)


def _renyi_digit(y: Fraction) -> int | None:
    if y == 0:
        return None
    p, q = y.numerator, y.denominator
    a, r = divmod(q, q - p)
    return a if r == 0 else a + 1


def _renyi_branch_inverse(a: int, y: Fraction) -> Fraction:
    # the branch left endpoint is the preimage of the terminal point 0
    return 1 - Fraction(1, a) if y == 0 else 1 - 1 / (a - 1 + y)


def renyi_cmi() -> CmiMap:
    return CmiMap(2, Policy.TOPDOWN, renyi, _renyi_digit, _renyi_branch_inverse)


def question_mark(x: Fraction, precision_bits: int | None = None) -> Fraction:
    """Minkowski question-mark function, exact on rationals.

    The value is the alternating series sum of (-1)^(i+1) * 2^(1-s_i) over
    the continued-fraction digits, s_i = a1+...+ai.  Scaled by 2^(S-1), S the
    digit sum, each term is one bit S - s_i, so the series is the difference
    of two integers, the bits of the positive and of the negative terms.
    Each is set in a little-endian byte buffer and read in one pass, and one
    Fraction is built at the end.  With precision_bits set, the exact value
    is rounded to that many fractional bits (display use).
    """
    if not 0 <= x.numerator <= x.denominator:
        raise ValueError(f"{x} outside [0, 1]")
    total = Fraction(0)
    if x.numerator:
        digits = cf_encode(x).letters
        size = sum(digits)
        plus, minus = bytearray(size // 8 + 1), bytearray(size // 8 + 1)
        s = 0
        for i, a in enumerate(digits):
            s += a
            bit = size - s
            (minus if i % 2 else plus)[bit >> 3] |= 1 << (bit & 7)
        total = Fraction(int.from_bytes(plus, "little") - int.from_bytes(minus, "little"),
                         1 << (size - 1))
    if precision_bits is not None:
        scale = 1 << precision_bits
        return Fraction(round(total * scale), scale)
    return total
