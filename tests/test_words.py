import random

import pytest
from hypothesis import given, strategies as st

from baire_odometers.words import (
    FiniteWord,
    TailWord,
    TreeAddress,
    _require_binary,
    block_decode,
    block_encode,
    compare_rlex,
    constant,
    drop_front,
    position_index,
    shift_alphabet,
    sum_k,
    tail,
    total_index,
    word,
    word_at,
)


def block_encode_by_loop(w):
    """Reference block parse: read letters until a tail state repeats, then
    build the result with the public, normalizing constructor."""
    pre_len, per_len = len(w.preperiod), len(w.period)

    def state(i):
        # structural position of absolute letter index i (0-based)
        return i if i < pre_len else pre_len + (i - pre_len) % per_len

    letters = w.letters()
    out = []
    seen = {}
    i = 0
    while True:
        pos = state(i)
        if pos >= pre_len:
            if pos in seen:
                return TailWord(0, tuple(out[: seen[pos]]), tuple(out[seen[pos]:]))
            seen[pos] = len(out)
        run = 0
        for a in letters:
            i += 1
            if a == 0:
                break
            run += 1
        out.append(run)


def block_decode_by_constructor(v):
    """Reference expansion through the public, normalizing constructor."""
    def expand(letters):
        out = []
        for k in letters:
            out.extend([1] * k)
            out.append(0)
        return tuple(out)

    return TailWord(0, expand(v.preperiod), expand(v.period))


def same_fields(a, b):
    return (a.floor, a.preperiod, a.period) == (b.floor, b.preperiod, b.period)


# The validators as generator scans, the form they had before they became
# C-level scans (min, set inclusion): the message each raises, or None.

def finite_word_error_by_scan(floor, letters):
    if floor < 0:
        return "floor must be >= 0"
    if not letters:
        return "letters must be nonempty"
    if any(a < floor for a in letters):
        return f"letters {letters} below floor {floor}"
    return None


def tail_word_error_by_scan(floor, pre, per):
    if floor < 0:
        return "floor must be >= 0"
    if not per:
        return "period must be nonempty"
    if any(a < floor for a in pre + per):
        return "letters below floor"
    return None


def binary_error_by_scan(pre, per):
    if any(a not in (0, 1) for a in pre + per):
        return "word is not binary"
    return None


def error_of(make, *args):
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


def with_letter(letters, i, a):
    return letters[:i] + (a,) + letters[i + 1:]


def validator_cases():
    """(floor, pre, per): words of letters floor and floor + 1, then each with
    the letter floor - 1 at the first, a middle and the last place of the
    preperiod and of the period, plus empty parts and bool letters."""
    for floor in range(4):
        pre, per = (floor, floor + 1, floor), (floor + 1, floor, floor + 1)
        yield floor, pre, per
        yield floor, (), per
        yield floor, pre, ()
        for i in (0, 1, 2):
            yield floor, with_letter(pre, i, floor - 1), per
            yield floor, pre, with_letter(per, i, floor - 1)
        yield floor, (True, False), (False, True)
        yield floor, (True,), (True,)
    yield -1, (), (0,)


def binary_cases():
    """(pre, per) over {0, 1} with a 2 or a -1 at the first, a middle and the
    last place of the preperiod and of the period, plus bool letters."""
    pre, per = (0, 1, 1), (1, 0, 1)
    yield pre, per
    yield (), per
    for bad in (2, -1):
        for i in (0, 1, 2):
            yield with_letter(pre, i, bad), per
            yield pre, with_letter(per, i, bad)
    yield (True, False), (False,)
    yield (True,), (True, 2)


class TestFiniteWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteWord(1, ())
        with pytest.raises(ValueError):
            FiniteWord(1, (0, 2))
        with pytest.raises(ValueError):
            FiniteWord(-1, (1,))

    def test_str_and_len(self):
        w = word((4, 2, 1))
        assert str(w) == "(4,2,1)"
        assert len(w) == 3

    def test_word_helper_floor(self):
        assert word((1, 0, 2), floor=0) == FiniteWord(0, (1, 0, 2))


class TestValidatorsMatchScans:
    @pytest.mark.parametrize("floor, pre, per", list(validator_cases()))
    def test_finite_word(self, floor, pre, per):
        letters = pre + per
        assert error_of(FiniteWord, floor, letters) == finite_word_error_by_scan(floor, letters)

    @pytest.mark.parametrize("floor, pre, per", list(validator_cases()))
    def test_tail_word(self, floor, pre, per):
        assert error_of(TailWord, floor, pre, per) == tail_word_error_by_scan(floor, pre, per)

    @pytest.mark.parametrize("pre, per", list(binary_cases()))
    def test_require_binary(self, pre, per):
        # built by the trusted constructor, so letters below the floor get through
        w = TailWord._canonical(0, pre, per)
        assert error_of(_require_binary, w) == binary_error_by_scan(pre, per)


class TestTreeAddress:
    def test_bounds(self):
        TreeAddress(3, 3)
        with pytest.raises(ValueError):
            TreeAddress(0, 0)
        with pytest.raises(ValueError):
            TreeAddress(3, 4)


class TestTailWordNormalization:
    def test_primitive_period(self):
        assert tail((), (1, 0, 1, 0)) == tail((), (1, 0))

    def test_preperiod_absorption(self):
        # trailing preperiod letters equal to the tail get folded into it
        assert tail((0, 1), (1,)) == tail((0,), (1,))
        assert tail((1, 0), (1, 0)) == tail((), (1, 0))

    def test_distinct_sequences_stay_distinct(self):
        assert tail((0,), (1,)) != tail((1,), (0,))

    def test_equal_sequences_compare_equal(self):
        a = tail((1, 0, 1), (0, 1))
        b = tail((1,), (0, 1))
        assert a == b
        assert a.prefix(12) == b.prefix(12)

    def test_letter_access(self):
        w = tail((5, 7), (1, 2, 3))
        assert [w.letter(i) for i in range(1, 9)] == [5, 7, 1, 2, 3, 1, 2, 3]
        with pytest.raises(ValueError):
            w.letter(0)

    def test_prefix_matches_stream(self):
        w = tail((2,), (0, 3))
        stream = w.letters()
        assert tuple(next(stream) for _ in range(9)) == w.prefix(9)

    def test_str(self):
        assert str(tail((1, 0), (2,))) == "1,0;2"
        assert str(constant(0)) == ";0"

    def test_validation(self):
        with pytest.raises(ValueError):
            TailWord(0, (), ())
        with pytest.raises(ValueError):
            TailWord(2, (1,), (2,))
        with pytest.raises(ValueError):
            TailWord(2, (3,), (2, 1))
        with pytest.raises(ValueError):
            TailWord(-1, (), (0,))


class TestDropFront:
    def test_within_preperiod(self):
        assert drop_front(tail((5, 7, 9), (1, 2)), 2) == tail((9,), (1, 2))

    def test_into_period_rotates(self):
        assert drop_front(tail((5,), (1, 2, 3)), 3) == tail((), (3, 1, 2))

    def test_zero_is_identity(self):
        w = tail((4,), (1, 2))
        assert drop_front(w, 0) == w


class TestSumK:
    def test_floor_one_direct(self):
        assert sum_k(word((4, 2, 1))) == 7

    def test_floor_two(self):
        assert sum_k(FiniteWord(2, (2, 2, 2))) == 3

    def test_single_letter(self):
        for l in range(1, 9):
            assert sum_k(word((l,))) == l

    def test_floor_zero_counts_letters(self):
        assert sum_k(FiniteWord(0, (1, 0, 2))) == 3 + 3


class TestPositionIndex:
    def test_worked_example(self):
        assert position_index(word((4, 2, 1))) == 23

    def test_rightmost(self):
        for s in range(1, 12):
            assert position_index(word((s,))) == (1 << (s - 1)) - 1

    def test_leftmost(self):
        for s in range(1, 12):
            assert position_index(word((1,) * s)) == 0

    def test_other_floors_via_shift(self):
        w = FiniteWord(3, (6, 4, 3))
        assert position_index(w) == position_index(shift_alphabet(w, 1))


class TestWordAt:
    def test_worked_example(self):
        assert word_at(7, 23, 1) == word((4, 2, 1))

    def test_leftmost_and_rightmost(self):
        assert word_at(3, 0, 1) == word((1, 1, 1))
        assert word_at(3, 3, 1) == word((3,))

    def test_bounds(self):
        with pytest.raises(ValueError):
            word_at(0, 0, 1)
        with pytest.raises(ValueError):
            word_at(3, 4, 1)

    def test_round_trip_exhaustive(self):
        for level in range(1, 11):
            for pos in range(1 << (level - 1)):
                w = word_at(level, pos, 1)
                assert sum_k(w) == level
                assert position_index(w) == pos

    def test_round_trip_floor_two(self):
        for level in range(1, 9):
            for pos in range(1 << (level - 1)):
                w = word_at(level, pos, 2)
                assert w.floor == 2
                assert sum_k(w) == level
                assert position_index(w) == pos

    def test_negative_floor_rejected(self):
        for level, pos in ((1, 0), (3, 2), (7, 23)):
            with pytest.raises(ValueError):
                word_at(level, pos, -1)

    @given(st.integers(1, 40).flatmap(
               lambda level: st.tuples(st.just(level), st.integers(0, (1 << (level - 1)) - 1))),
           st.integers(0, 3))
    def test_trusted_result_is_the_public_word(self, at, floor):
        level, pos = at
        w = word_at(level, pos, floor)
        public = FiniteWord(floor, w.letters)
        assert w == public and public == w
        assert hash(w) == hash(public)
        assert (sum_k(w), position_index(w)) == (level, pos)


class TestCompareRlex:
    def test_sum_dominates(self):
        assert compare_rlex(word((1, 1, 3)), word((4, 2))) == -1

    def test_last_letter_backwards(self):
        assert compare_rlex(word((2, 2, 2, 1)), word((4, 2, 1))) == -1

    def test_reflexive(self):
        w = word((3, 1, 2))
        assert compare_rlex(w, w) == 0

    def test_floor_mismatch(self):
        with pytest.raises(ValueError):
            compare_rlex(word((1,)), FiniteWord(2, (2,)))

    def test_matches_position_order_within_level(self):
        for level in range(2, 10):
            ws = [word_at(level, p, 1) for p in range(1 << (level - 1))]
            for a, b in zip(ws, ws[1:]):
                assert compare_rlex(a, b) == -1
                assert compare_rlex(b, a) == 1


class TestShiftAlphabet:
    def test_down(self):
        assert shift_alphabet(FiniteWord(2, (3, 2)), 1) == word((2, 1))

    def test_up(self):
        assert shift_alphabet(FiniteWord(0, (1, 0, 2)), 1) == word((2, 1, 3))

    def test_identity(self):
        w = word((3, 1))
        assert shift_alphabet(w, 1) == w

    def test_round_trip(self):
        w = FiniteWord(0, (0, 4, 1))
        assert shift_alphabet(shift_alphabet(w, 5), 0) == w


class TestTotalIndex:
    def test_root(self):
        assert total_index(word((1,))) == 0

    def test_worked_example(self):
        assert total_index(word((4, 2, 1))) == 86

    def test_second_level(self):
        # formula value 2^1 + 1 - 1; (2) is the third word of the global order
        assert total_index(word((2,))) == 2
        assert total_index(word((1, 1))) == 1

    def test_strictly_monotone_in_rlex(self):
        words = [word_at(lv, p, 1) for lv in range(1, 9) for p in range(1 << (lv - 1))]
        for a, b in zip(words, words[1:]):
            assert total_index(b) == total_index(a) + 1


class TestBlockCodec:
    def test_worked_example(self):
        binary = tail((0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0), (0,))
        assert block_encode(binary) == tail((0, 0, 3, 1, 5, 1), (0,))
        assert block_decode(tail((0, 0, 3, 1, 5, 1), (0,))) == binary

    def test_all_zeros(self):
        assert block_encode(constant(0)) == constant(0)
        assert block_decode(constant(0)) == constant(0)

    def test_periodic_10_is_constant_ones(self):
        assert block_encode(tail((), (1, 0))) == constant(1)
        assert block_decode(constant(1)) == tail((), (1, 0))

    def test_eventually_all_ones_rejected(self):
        with pytest.raises(ValueError):
            block_encode(tail((0,), (1,)))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            block_encode(tail((2,), (0,)))

    def test_purely_periodic_alignment(self):
        # period boundary does not align with block boundaries
        w = tail((), (1, 1, 0, 1, 0, 0))
        v = block_encode(w)
        assert block_decode(v) == w

    @given(
        pre=st.lists(st.integers(0, 1), max_size=12),
        per=st.lists(st.integers(0, 1), min_size=1, max_size=8),
    )
    def test_block_round_trip_random(self, pre, per):
        if all(b == 1 for b in per):
            per[0] = 0
        w = tail(pre, per)
        assert block_decode(block_encode(w)) == w

    @given(
        pre=st.lists(st.integers(0, 6), max_size=8),
        per=st.lists(st.integers(0, 6), min_size=1, max_size=5),
    )
    def test_block_decode_then_encode_random(self, pre, per):
        v = tail(pre, per)
        assert block_encode(block_decode(v)) == v

    def test_decode_rejects_nonzero_floor(self):
        for v in (TailWord(1, (2, 1), (3,)), constant(2, 2), TailWord(3, (), (3, 4))):
            with pytest.raises(ValueError):
                block_decode(v)

    @given(
        pre=st.lists(st.integers(0, 1), max_size=16),
        per=st.lists(st.integers(0, 1), min_size=1, max_size=10),
    )
    def test_encode_matches_loop(self, pre, per):
        if all(b == 1 for b in per):
            per[-1] = 0
        w = tail(pre, per)
        assert same_fields(block_encode(w), block_encode_by_loop(w))

    def test_encode_matches_loop_seeded(self):
        # non-canonical input too: repeated periods, preperiods ending in period letters
        rng = random.Random(6)
        for _ in range(3000):
            pre = [rng.randrange(2) for _ in range(rng.randrange(0, 40))]
            per = [rng.randrange(2) for _ in range(rng.randrange(1, 25))]
            per[rng.randrange(len(per))] = 0
            per = per * rng.randrange(1, 4)
            pre += per[rng.randrange(len(per)):]
            w = tail(pre, per)
            assert same_fields(block_encode(w), block_encode_by_loop(w))

    @given(
        pre=st.lists(st.integers(0, 6), max_size=10),
        per=st.lists(st.integers(0, 6), min_size=1, max_size=6),
    )
    def test_decode_is_canonical(self, pre, per):
        v = tail(pre, per)
        assert same_fields(block_decode(v), block_decode_by_constructor(v))
