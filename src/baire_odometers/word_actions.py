"""The odometer action on finite words, with three length-1 conventions.

On words of length > 1 the action is forced:

    (w1, w2, ..., wj)  ->  (k, ..., k, w2+1, w3, ..., wj)   (w1-k copies of k)

and it moves a word one slot forward inside its level.  On a single letter
(w1) the successor is a convention, captured by Policy:

* Cyclic   -> (k, ..., k), w1-k+1 copies: wrap around to the start of the
  same level, making every level a cycle of length 2^(s-1).
* TopDown  -> (k, ..., k), w1-k+2 copies: continue to the first word of the
  next level, enumerating all finite words in reverse-lexicographic order.
* Subtree  -> (k, ..., k, k+1): continue to the leftmost next-level word with
  last letter > k, enumerating the subtree of such words (each value of the
  associated codec exactly once).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from .words import FiniteWord


class Policy(Enum):
    CYCLIC = "cyclic"
    TOPDOWN = "topdown"
    SUBTREE = "subtree"


def step(w: FiniteWord, policy: Policy = Policy.TOPDOWN) -> FiniteWord:
    """Successor of w; the policy only matters for single-letter words."""
    k = w.floor
    a = w.letters
    # every result is nonempty with letters >= k: the trusted constructor
    if len(a) > 1:
        return FiniteWord._canonical(k, (k,) * (a[0] - k) + (a[1] + 1,) + a[2:])
    if policy is Policy.CYCLIC:
        return FiniteWord._canonical(k, (k,) * (a[0] - k + 1))
    if policy is Policy.TOPDOWN:
        return FiniteWord._canonical(k, (k,) * (a[0] - k + 2))
    return FiniteWord._canonical(k, (k,) * (a[0] - k) + (k + 1,))


def orbit(start: FiniteWord, policy: Policy, count: int) -> Iterator[FiniteWord]:
    """Lazy orbit start, step(start), ...; exactly count items."""
    w = start
    for _ in range(count):
        yield w
        w = step(w, policy)


def enumerate_words(floor: int, count: int) -> Iterator[FiniteWord]:
    """All finite words over {floor, floor+1, ...} in reverse-lexicographic order."""
    return orbit(FiniteWord(floor, (floor,)), Policy.TOPDOWN, count)
