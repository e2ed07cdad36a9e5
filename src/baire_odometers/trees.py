"""The binary tree of finite words over {k, k+1, ...}.

Level s holds the 2^(s-1) words of digit sum s in reverse-lexicographic
order.  Every word has two sons: prepend the floor (left) or increment the
first letter (right).  The tree is virtual; navigation is arithmetic on
words and (level, position) addresses, and a level is walked left to right
by the odometer.
"""

from __future__ import annotations

from .word_actions import Policy, orbit
from .words import FiniteWord, TreeAddress, position_index, sum_k, word_at


def sons(w: FiniteWord) -> tuple[FiniteWord, FiniteWord]:
    """Left son (floor, w1, ...), right son (w1+1, ...)."""
    k = w.floor
    return (
        FiniteWord(k, (k,) + w.letters),
        FiniteWord(k, (w.letters[0] + 1,) + w.letters[1:]),
    )


def parent(w: FiniteWord) -> FiniteWord | None:
    """Inverse of sons; None for the root (the single-letter word (floor))."""
    k = w.floor
    a = w.letters
    if len(a) == 1:
        return None if a[0] == k else FiniteWord(k, (a[0] - 1,))
    if a[0] == k:
        return FiniteWord(k, a[1:])
    return FiniteWord(k, (a[0] - 1,) + a[1:])


def level_words(floor: int, level: int, mirror: bool = False) -> list[FiniteWord]:
    """The 2^(level-1) words of the given level, left to right."""
    return subtree_level(FiniteWord(floor, (floor,)), level, mirror)


def locate(w: FiniteWord) -> TreeAddress:
    """(level, position) of w."""
    return TreeAddress(sum_k(w), position_index(w))


def address_sons(a: TreeAddress) -> tuple[TreeAddress, TreeAddress]:
    """Son addresses ((l+1, 2p), (l+1, 2p+1)); commutes with sons/locate."""
    return (
        TreeAddress(a.level + 1, 2 * a.position),
        TreeAddress(a.level + 1, 2 * a.position + 1),
    )


def subtree_level(root: FiniteWord, depth: int, mirror: bool = False) -> list[FiniteWord]:
    """Depth-d slice of the descendants of root (depth 1 is the root itself).

    The slice is contiguous in its level, so after its first word, placed
    with word_at, the odometer steps through the rest one slot at a time."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    at = locate(root)
    first = word_at(at.level + depth - 1, at.position << (depth - 1), root.floor)
    rows = list(orbit(first, Policy.CYCLIC, 1 << (depth - 1)))
    return rows[::-1] if mirror else rows
