import pytest

from baire_odometers.codecs import bcf_decode, cf_decode, twin
from baire_odometers.trees import (
    address_sons,
    level_words,
    locate,
    parent,
    sons,
    subtree_level,
)
from baire_odometers.words import (
    FiniteWord,
    TreeAddress,
    position_index,
    sum_k,
    word,
    word_at,
)
from fractions import Fraction


class TestSons:
    def test_floor_one_examples(self):
        assert sons(word((2,))) == (word((1, 2)), word((3,)))
        assert sons(word((1,))) == (word((1, 1)), word((2,)))

    def test_floor_two_example(self):
        assert sons(FiniteWord(2, (2,))) == (FiniteWord(2, (2, 2)), FiniteWord(2, (3,)))
        left, right = sons(FiniteWord(2, (2,)))
        assert (bcf_decode(left), bcf_decode(right)) == (Fraction(1, 3), Fraction(2, 3))

    def test_sons_move_one_level_down(self):
        w = word((3, 1, 2))
        for son in sons(w):
            assert sum_k(son) == sum_k(w) + 1


class TestParent:
    def test_left_inverse(self):
        assert parent(word((1, 2))) == word((2,))

    def test_right_inverse(self):
        assert parent(word((3,))) == word((2,))

    def test_root(self):
        assert parent(word((1,))) is None
        assert parent(FiniteWord(2, (2,))) is None

    def test_round_trip_exhaustive(self):
        for lv in range(1, 11):
            for p in range(1 << (lv - 1)):
                w = word_at(lv, p, 1)
                left, right = sons(w)
                assert parent(left) == w
                assert parent(right) == w


class TestLevelWords:
    def test_third_row(self):
        assert level_words(1, 3) == [word((1, 1, 1)), word((2, 1)), word((1, 2)), word((3,))]

    def test_first_row(self):
        assert level_words(1, 1) == [word((1,))]

    def test_floor_two_third_row(self):
        got = level_words(2, 3)
        assert got == [FiniteWord(2, t) for t in ((2, 2, 2), (3, 2), (2, 3), (4,))]
        assert [bcf_decode(w) for w in got] == [
            Fraction(1, 4), Fraction(3, 5), Fraction(2, 5), Fraction(3, 4)]

    def test_mirror_reverses(self):
        assert level_words(1, 4, mirror=True) == level_words(1, 4)[::-1]

    def test_row_sizes(self):
        for lv in range(1, 13):
            assert len(level_words(1, lv)) == 1 << (lv - 1)


class TestLocate:
    def test_worked_example(self):
        assert locate(word((4, 2, 1))) == TreeAddress(7, 23)

    def test_root(self):
        assert locate(word((1,))) == TreeAddress(1, 0)

    def test_consistent_with_level_words(self):
        for lv in range(1, 12):
            for p, w in enumerate(level_words(1, lv)):
                assert locate(w) == TreeAddress(lv, p)


class TestAddressSons:
    def test_examples(self):
        assert address_sons(TreeAddress(1, 0)) == (TreeAddress(2, 0), TreeAddress(2, 1))
        assert address_sons(TreeAddress(3, 3)) == (TreeAddress(4, 6), TreeAddress(4, 7))

    def test_commutes_with_sons(self):
        for lv in range(1, 12):
            for p in range(1 << (lv - 1)):
                w = word_at(lv, p, 1)
                left, right = sons(w)
                assert (locate(left), locate(right)) == address_sons(locate(w))


class TestSubtreeLevel:
    def test_depth_two(self):
        assert subtree_level(word((2,)), 2) == [word((1, 2)), word((3,))]

    def test_depth_one_is_root(self):
        assert subtree_level(FiniteWord(0, (1,)), 1) == [FiniteWord(0, (1,))]

    def test_depth_three(self):
        got = subtree_level(word((2,)), 3)
        assert got == [word((1, 1, 2)), word((2, 2)), word((1, 3)), word((4,))]
        assert [cf_decode(w) for w in got] == [
            Fraction(3, 5), Fraction(2, 5), Fraction(3, 4), Fraction(1, 4)]

    def test_rows_are_contiguous_level_slices(self):
        root = word((1, 2))
        at = locate(root)
        for depth in range(1, 6):
            row = subtree_level(root, depth)
            full = level_words(1, at.level + depth - 1)
            base = at.position << (depth - 1)
            assert row == full[base:base + (1 << (depth - 1))]

    def test_sons_of_row_form_next_row(self):
        root = word((2,))
        for depth in range(1, 6):
            expanded = [s for w in subtree_level(root, depth) for s in sons(w)]
            assert expanded == subtree_level(root, depth + 1)

    def test_mirror(self):
        assert subtree_level(word((2,)), 3, mirror=True) == subtree_level(word((2,)), 3)[::-1]

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            subtree_level(word((1,)), 0)

    @pytest.mark.parametrize("floor, roots", [
        (0, [(0,), (1,), (0, 1), (2, 0, 1), (1, 0, 0, 3)]),
        (1, [(1,), (2,), (1, 2), (2, 1, 3), (4, 1, 1)]),
        (2, [(2,), (3,), (2, 3), (3, 2, 2), (5, 2)]),
    ])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_matches_word_at_per_slot(self, floor, roots, mirror):
        # the per-slot loop the odometer walk replaced
        for letters in roots:
            root = FiniteWord(floor, letters)
            at = locate(root)
            for depth in range(1, 12):
                base = at.position << (depth - 1)
                slots = [word_at(at.level + depth - 1, base + q, floor)
                         for q in range(1 << (depth - 1))]
                assert subtree_level(root, depth, mirror) == (slots[::-1] if mirror else slots)


class TestTwinPositions:
    def test_twin_sits_half_level_earlier(self):
        # canonical words (last letter >= 2) trail their twin by 2^(s-2)
        for lv in range(2, 11):
            for p in range(1 << (lv - 1)):
                w = word_at(lv, p, 1)
                if w.letters[-1] >= 2:
                    assert cf_decode(twin(w)) == cf_decode(w)
                    assert position_index(w) - position_index(twin(w)) == 1 << (lv - 2)
