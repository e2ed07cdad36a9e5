import itertools

import pytest
from hypothesis import given, strategies as st

from baire_odometers.word_actions import Policy, enumerate_words, orbit, step
from baire_odometers.words import (
    FiniteWord,
    compare_rlex,
    position_index,
    sum_k,
    total_index,
    word,
    word_at,
)


@st.composite
def finite_words(draw):
    floor = draw(st.integers(0, 3))
    letters = draw(st.lists(st.integers(floor, floor + 6), min_size=1, max_size=8))
    return FiniteWord(floor, tuple(letters))


class TestStep:
    @given(finite_words(), st.sampled_from(Policy))
    def test_trusted_result_is_the_public_word(self, w, policy):
        r = step(w, policy)
        public = FiniteWord(r.floor, r.letters)
        assert r == public and public == r
        assert hash(r) == hash(public)
        assert r.floor == w.floor
        assert sum_k(r) == sum_k(w) + (len(w) == 1 and policy is not Policy.CYCLIC)

    def test_forced_when_longer_than_one(self):
        assert step(word((1, 1))) == word((2,))
        assert step(word((4, 2, 1))) == word((1, 1, 1, 3, 1))
        for policy in Policy:
            assert step(word((2, 5)), policy) == word((1, 6))

    def test_forced_floor_zero(self):
        assert step(FiniteWord(0, (4, 2, 1))) == FiniteWord(0, (0, 0, 0, 0, 3, 1))

    def test_single_letter_policies(self):
        assert step(word((3,)), Policy.CYCLIC) == word((1, 1, 1))
        assert step(word((3,)), Policy.TOPDOWN) == word((1, 1, 1, 1))
        assert step(word((3,)), Policy.SUBTREE) == word((1, 1, 2))

    def test_single_letter_policies_floor_two(self):
        assert step(FiniteWord(2, (4,)), Policy.CYCLIC) == FiniteWord(2, (2, 2, 2))
        assert step(FiniteWord(2, (4,)), Policy.TOPDOWN) == FiniteWord(2, (2, 2, 2, 2))
        assert step(FiniteWord(2, (4,)), Policy.SUBTREE) == FiniteWord(2, (2, 2, 3))

    def test_default_policy_is_topdown(self):
        assert step(word((2,))) == step(word((2,)), Policy.TOPDOWN)

    def test_preserves_sum_within_level(self):
        for lv in range(1, 10):
            for p in range((1 << (lv - 1)) - 1):
                w = word_at(lv, p, 1)
                assert sum_k(step(w, Policy.CYCLIC)) == lv


class TestOrbit:
    def test_topdown_prefix(self):
        got = list(orbit(word((1,)), Policy.TOPDOWN, 4))
        assert got == [word((1,)), word((1, 1)), word((2,)), word((1, 1, 1))]

    def test_cyclic_wraps(self):
        assert list(orbit(word((2,)), Policy.CYCLIC, 2)) == [word((2,)), word((1, 1))]

    def test_count_zero(self):
        assert list(orbit(word((1,)), Policy.TOPDOWN, 0)) == []

    def test_cyclic_period_is_level_size(self):
        for s in range(1, 10):
            start = word((s,))
            walk = list(orbit(start, Policy.CYCLIC, (1 << (s - 1)) + 1))
            assert walk[-1] == start
            assert len(set(walk[:-1])) == 1 << (s - 1)

    def test_subtree_visits_trailing_ge_two_words(self):
        # floor-1 subtree orbit: every word after (2) ends with a letter >= 2
        walk = list(orbit(word((2,)), Policy.SUBTREE, 200))
        assert all(w.letters[-1] >= 2 for w in walk)
        assert len(set(walk)) == 200


class TestEnumerateWords:
    def test_first_seven(self):
        got = list(enumerate_words(1, 7))
        assert got == [
            word((1,)), word((1, 1)), word((2,)),
            word((1, 1, 1)), word((2, 1)), word((1, 2)), word((3,)),
        ]

    def test_floor_two_prefix(self):
        got = list(enumerate_words(2, 3))
        assert got == [FiniteWord(2, (2,)), FiniteWord(2, (2, 2)), FiniteWord(2, (3,))]

    def test_bijection_with_levels(self):
        count = (1 << 10) - 1
        seen = set(enumerate_words(1, count))
        expected = {word_at(lv, p, 1) for lv in range(1, 11) for p in range(1 << (lv - 1))}
        assert seen == expected

    def test_indexing_is_inverse(self):
        for n, w in enumerate(enumerate_words(1, 512)):
            assert total_index(w) == n

    def test_rlex_increasing(self):
        for a, b in itertools.pairwise(enumerate_words(1, 512)):
            assert compare_rlex(a, b) == -1

    def test_adding_machine_on_longer_words(self):
        # successor bumps the global index by one whenever length > 1
        for lv in range(2, 12):
            for p in range((1 << (lv - 1))):
                w = word_at(lv, p, 1)
                if len(w) > 1:
                    assert total_index(step(w)) == total_index(w) + 1

    def test_cyclic_step_wraps_position(self):
        for lv in range(1, 10):
            for p in range(1 << (lv - 1)):
                w = word_at(lv, p, 1)
                succ = step(w, Policy.CYCLIC)
                assert position_index(succ) == (p + 1) % (1 << (lv - 1))
