"""Finite and eventually periodic words over integer alphabets {k, k+1, ...}.

Conventions used throughout the package:

* A finite word carries its alphabet ``floor`` k; letters are integers >= k.
* The digit sum of a word with j letters is ``sum(letters) - j*(floor - 1)``,
  which for floor 0 amounts to ``sum(letters) + j``.  Levels of the word tree
  are indexed by this sum.
* Positions inside a level come from the block code ``revblock(a) = 0 1^(a-1)``
  applied to the letters of the floor-1 form, last letter first; the resulting
  binary string (always starting with 0) is the position index.
* An eventually periodic infinite word is stored as preperiod + period in a
  canonical form (primitive period, shortest preperiod), so that two TailWords
  are equal as objects exactly when they are equal letter by letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class FiniteWord:
    """Nonempty tuple of integer letters, each >= floor.

    The public constructor validates (floor >= 0, letters nonempty and >=
    floor).  Maps whose results provably satisfy this build them with the
    internal ``FiniteWord._canonical(floor, letters)`` instead, which skips
    the checks: the word action ``word_actions.step``, ``word_at``, the
    encoders ``codecs.cf_encode`` (Euclid quotients are >= 1) and
    ``codecs.bcf_encode`` (its rewrite emits letters >= 2), and
    ``codecs.bcf_finite_form`` (a canonical all-2s tail word's preperiod
    ends in a letter >= 3, which it lowers by 1).  Its inputs are not
    checked: a caller that breaks the precondition gets an invalid word.
    """

    floor: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.floor < 0:
            raise ValueError("floor must be >= 0")
        if not self.letters:
            raise ValueError("letters must be nonempty")
        if min(self.letters) < self.floor:
            raise ValueError(f"letters {self.letters} below floor {self.floor}")

    @classmethod
    def _canonical(cls, floor: int, letters: tuple[int, ...]) -> FiniteWord:
        # trusted: letters nonempty, each >= floor >= 0
        w = object.__new__(cls)
        d = w.__dict__  # frozen: fill the fields without __init__ or __setattr__
        d["floor"] = floor
        d["letters"] = letters
        return w

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.letters) + ")"

    def __len__(self) -> int:
        return len(self.letters)


def word(letters, floor: int = 1) -> FiniteWord:
    """Convenience constructor accepting any iterable of letters."""
    return FiniteWord(floor, tuple(letters))


@dataclass(frozen=True)
class TreeAddress:
    """Level >= 1 and position in [0, 2^(level-1)) within that level."""

    level: int
    position: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if not 0 <= self.position < 1 << (self.level - 1):
            raise ValueError(f"position {self.position} out of range for level {self.level}")


@dataclass(frozen=True)
class TailWord:
    """Eventually periodic infinite word: preperiod + repeating period.

    Instances are normalized on construction: the period is primitive (not a
    repetition of a shorter word) and the preperiod is as short as possible
    (its last letter differs from the period's last letter, rotating the
    period as needed).  Normalization makes structural equality coincide with
    letterwise equality of the represented sequences.

    The public constructor validates (floor >= 0, nonempty period, letters >=
    floor) and normalizes every input.  Maps that provably keep the letters
    >= floor and the period nonempty and primitive (baire_step, dyadic_step,
    drop_front, fast_forward, baire_fast_forward, the block codec and
    codecs.bcf_tail_form, whose period is (2,)) build their results with the internal ``TailWord._canonical(floor, pre, per)``
    instead, which skips validation and the period reduction and only
    shortens the preperiod.  Its inputs are not checked: a caller that breaks
    the precondition gets a non-canonical word.
    """

    floor: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.floor < 0:
            raise ValueError("floor must be >= 0")
        if not self.period:
            raise ValueError("period must be nonempty")
        if min(self.preperiod + self.period) < self.floor:
            raise ValueError("letters below floor")
        pre, per = _absorb(self.preperiod, _primitive(self.period))
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def _canonical(cls, floor: int, pre: tuple[int, ...], per: tuple[int, ...]) -> TailWord:
        # trusted: letters >= floor >= 0, per nonempty and primitive
        if pre and pre[-1] == per[-1]:
            pre, per = _absorb(pre, per)
        w = object.__new__(cls)
        d = w.__dict__  # frozen: fill the fields without __init__ or __setattr__
        d["floor"] = floor
        d["preperiod"] = pre
        d["period"] = per
        return w

    def letter(self, i: int) -> int:
        """1-based letter access; total for every i >= 1."""
        if i < 1:
            raise ValueError("letter index is 1-based")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        return self.period[(i - len(self.preperiod) - 1) % len(self.period)]

    def letters(self) -> Iterator[int]:
        """Infinite letter stream."""
        yield from self.preperiod
        while True:
            yield from self.period

    def prefix(self, n: int) -> tuple[int, ...]:
        p, q = self.preperiod, self.period
        if n <= len(p):
            return p[:n]
        m = n - len(p)
        reps, rem = divmod(m, len(q))
        return p + q * reps + q[:rem]

    def __str__(self) -> str:
        pre = ",".join(str(a) for a in self.preperiod)
        per = ",".join(str(a) for a in self.period)
        return f"{pre};{per}"


def _primitive(per: tuple[int, ...]) -> tuple[int, ...]:
    # shortest divisor-length word whose repetition is per
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per[:d] * (n // d) == per:
            return per[:d]
    return per


def _absorb(pre: tuple[int, ...], per: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # shortest preperiod: absorb the j trailing letters that continue the
    # period backwards, then rotate the period right by j
    n, p = len(pre), len(per)
    j = 0
    while j < n and pre[n - 1 - j] == per[-1 - j % p]:
        j += 1
    if not j:
        return pre, per
    r = p - j % p
    return pre[:n - j], per[r:] + per[:r]


def tail(preperiod, period, floor: int = 0) -> TailWord:
    """Convenience constructor for TailWord."""
    return TailWord(floor, tuple(preperiod), tuple(period))


def constant(letter: int, floor: int = 0) -> TailWord:
    """The constant infinite word (letter, letter, ...)."""
    return TailWord(floor, (), (letter,))


def drop_front(w: TailWord, n: int) -> TailWord:
    """Remove the first n letters."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return TailWord._canonical(w.floor, *_drop_letters(w.preperiod, w.period, n))


def _drop_letters(pre: tuple[int, ...], per: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # preperiod and period of a canonical word after its first n letters;
    # the result is canonical too
    if n <= len(pre):
        return pre[n:], per
    k = (n - len(pre)) % len(per)
    return (), per[k:] + per[:k]


def sum_k(w: FiniteWord) -> int:
    """Digit sum s(w): number of the tree level containing w."""
    return sum(w.letters) - len(w.letters) * (w.floor - 1)


def shift_alphabet(w: FiniteWord, to_floor: int) -> FiniteWord:
    """Shift every letter by (to_floor - floor); a bijection between alphabets."""
    if to_floor < 0:
        raise ValueError("to_floor must be >= 0")
    delta = to_floor - w.floor
    return FiniteWord(to_floor, tuple(a + delta for a in w.letters))


def position_index(w: FiniteWord) -> int:
    """Index of w inside its level, in [0, 2^(s-1)).

    Computed on the floor-1 form: letters are read last to first and each
    letter a contributes the block 0 1^(a-1) to the binary expansion.
    """
    delta = 1 - w.floor
    n = 0
    for a in reversed(w.letters):
        a += delta
        n = (n << a) | ((1 << (a - 1)) - 1)
    return n


def word_at(level: int, position: int, floor: int) -> FiniteWord:
    """Inverse of (sum_k, position_index) at a fixed level.

    The position is padded to level-1 bits and prefixed with 0; each maximal
    block 0 1^(a-1) of the result is one letter a of the floor-1 form, blocks
    read last letter first.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if not 0 <= position < 1 << (level - 1):
        raise ValueError(f"position {position} out of range for level {level}")
    if floor < 0:
        raise ValueError("floor must be >= 0")
    bits = "0" + format(position, f"0{level - 1}b") if level > 1 else "0"
    # bits starts with 0, so cutting it at each 0 leaves one run of ones per
    # block 0 1^(a-1): the floor-1 letter a = len(run) + 1, here len(run) + floor
    ones = bits.split("0")[1:]
    return FiniteWord._canonical(floor, tuple(len(run) + floor for run in reversed(ones)))


def compare_rlex(a: FiniteWord, b: FiniteWord) -> int:
    """Reverse-lexicographic order: by digit sum, then last letter backwards.

    Returns -1, 0, or 1.  Requires equal floors.
    """
    if a.floor != b.floor:
        raise ValueError("cannot compare words over different floors")
    sa, sb = sum_k(a), sum_k(b)
    if sa != sb:
        return -1 if sa < sb else 1
    for x, y in zip(reversed(a.letters), reversed(b.letters)):
        if x != y:
            return -1 if x < y else 1
    # equal sums forbid one word being a strict suffix of the other
    return 0


def total_index(w: FiniteWord) -> int:
    """Global enumeration index 2^(s-1) + position - 1, strictly rlex-monotone."""
    return (1 << (sum_k(w) - 1)) + position_index(w) - 1


def block_decode(v: TailWord) -> TailWord:
    """Expand each letter k into the binary block 1^k 0.

    Defined on floor-0 words, the range of ``block_encode``; a word over
    another floor raises ValueError (shift its letters to floor 0 first).
    """
    if v.floor != 0:
        raise ValueError("block_decode takes floor-0 words")
    # The code is prefix-free (every block ends at its only 0), so the
    # expanded period is primitive; _canonical shortens the preperiod.
    return TailWord._canonical(0, _expand(v.preperiod), _expand(v.period))


def _expand(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([b for k in letters for b in (1,) * k + (0,)])


def block_encode(w: TailWord) -> TailWord:
    """Parse a binary word into blocks 1^k 0 and return the sequence of k's.

    Defined on floor-0 binary words that are not eventually all ones (every
    tail must contain another 0 for the next block to close), the range of
    ``block_decode``; the result has floor 0.
    """
    _require_binary(w)
    if w.period == (1,):
        raise ValueError("eventually-all-ones word has no block decomposition")
    # rotate the period just past its first 0, so that the preperiod and the
    # period each end a block; a period of whole blocks that repeated a
    # shorter one would make the binary period repeat too, so it is primitive
    per = w.period
    i = per.index(0) + 1
    return TailWord._canonical(0, _runs(w.preperiod + per[:i]), _runs(per[i:] + per[:i]))


def _runs(bits: tuple[int, ...]) -> tuple[int, ...]:
    # lengths of the runs of 1s closed by each 0 of bits, which ends in 0
    return tuple(map(len, bytes(bits).split(b"\0")[:-1]))


def _require_binary(w: TailWord) -> None:
    if not {*w.preperiod, *w.period} <= {0, 1}:
        raise ValueError("word is not binary")
