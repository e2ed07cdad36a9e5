"""Odometer actions on eventually periodic infinite words.

The binary odometer adds 1 with carry: it flips the leading run of 1s to 0s
and sets the next 0 to 1 (all ones maps to all zeros).  Its block-recoded
conjugate acts on words over {k, k+1, ...} by

    (w1, w2, w3, ...)  ->  (k, ..., k, w2+1, w3, ...)      (w1-k copies of k)

and the shift drops the first letter.  fast_forward performs m binary steps
at once as arbitrary-precision addition, treating eventually constant binary
words as 2-adic integers (an all-ones tail is a two's-complement negative).
baire_fast_forward carries that jump through the block conjugacy: m steps of
baire_step cost one addition plus two recodings, not m steps.
"""

from __future__ import annotations

from .words import TailWord, _drop_letters, _require_binary, block_decode, block_encode, drop_front

# Every map below keeps the letters >= floor and the period primitive (it is
# the input's period or a rotation of it, or a constant), so results are built
# with the trusted TailWord._canonical.


def dyadic_step(w: TailWord) -> TailWord:
    """Add 1 with carry on a binary word."""
    _require_binary(w)
    head = w.preperiod
    if 0 not in head:  # the carry runs on into the period
        if w.period == (1,):
            return TailWord._canonical(0, (), (0,))
        head += w.period  # a primitive binary period other than (1,) holds a 0
    i = head.index(0)
    return TailWord._canonical(0, (0,) * i + (1,) + head[i + 1:], w.period)


def baire_step(w: TailWord) -> TailWord:
    """One odometer step on a word over {floor, floor+1, ...}."""
    k = w.floor
    pre, per = w.preperiod, w.period
    head = pre if len(pre) >= 2 else pre + per + per
    rest, per = _drop_letters(pre, per, 2)
    return TailWord._canonical(k, (k,) * (head[0] - k) + (head[1] + 1,) + rest, per)


def shift(w: TailWord) -> TailWord:
    """Drop the first letter."""
    return drop_front(w, 1)


def fast_forward(w: TailWord, m: int) -> TailWord:
    """Apply dyadic_step m times, as one big-integer addition."""
    if m < 0:
        raise ValueError("m must be >= 0")
    _require_binary(w)
    if w.period == (1,):
        # value is N - 2^P with N the preperiod bits (LSB first)
        p = len(w.preperiod)
        v = _bits_value(w.preperiod) - (1 << p) + m
        if v >= 0:
            return _from_int(v)
        width = max(p, (-v).bit_length())
        return TailWord._canonical(0, _bit_tuple(v & ((1 << width) - 1), width), (1,))
    reps = 1
    while True:
        head = w.preperiod + w.period * reps
        v = _bits_value(head) + m
        if v < 1 << len(head):
            return TailWord._canonical(0, _bit_tuple(v, len(head)), w.period)
        reps *= 2  # w.period contains a 0, so enough expansion absorbs the carry


def baire_fast_forward(w: TailWord, m: int) -> TailWord:
    """Apply baire_step m times as one 2-adic addition; m < 0 raises ValueError.

    The letters are shifted to floor 0, recoded by block_decode into the
    binary word whose dyadic_step is conjugate to baire_step, advanced m
    steps by fast_forward, recoded back by block_encode and shifted back to
    the word's floor.  The decoded word's period contains a 0 and
    fast_forward keeps it, so block_encode is always defined on the result.
    """
    k = w.floor
    return _relabel(block_encode(fast_forward(block_decode(_relabel(w, -k)), m)), k)


def renormalization_exponent(w: TailWord, m: int, n: int) -> int:
    """Exponent E = m * 2^n * 2^(w1+...+wn) in baire_step^m o shift^n = shift^n o baire_step^E."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    return m << (n + sum(w.prefix(n)))


def _relabel(w: TailWord, delta: int) -> TailWord:
    # add delta to the floor and to every letter, a bijection between alphabets
    if not delta:
        return w
    return TailWord._canonical(w.floor + delta, tuple(a + delta for a in w.preperiod),
                               tuple(a + delta for a in w.period))


def _bits_value(bits: tuple[int, ...]) -> int:
    # LSB-first binary digits to integer
    v = 0
    for b in reversed(bits):
        v = (v << 1) | b
    return v


def _bit_tuple(v: int, width: int) -> tuple[int, ...]:
    return tuple((v >> i) & 1 for i in range(width))


def _from_int(v: int) -> TailWord:
    return TailWord._canonical(0, _bit_tuple(v, v.bit_length()), (0,))
