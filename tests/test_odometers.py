import random

import pytest
from hypothesis import given, settings, strategies as st

from baire_odometers.odometers import (
    baire_fast_forward,
    baire_step,
    dyadic_step,
    fast_forward,
    renormalization_exponent,
    shift,
)
from baire_odometers.words import (
    TailWord,
    block_decode,
    block_encode,
    constant,
    drop_front,
    tail,
)


def binary_words(max_pre=10, max_per=6):
    return st.builds(
        tail,
        st.lists(st.integers(0, 1), max_size=max_pre),
        st.lists(st.integers(0, 1), min_size=1, max_size=max_per),
    )


@st.composite
def raw_tail_words(draw, floor=st.integers(0, 3), span=3):
    """Words built by the public constructor from often non-canonical input:
    a repeated period block and a preperiod ending in period letters."""
    k = draw(floor)
    letters = st.integers(k, k + span)
    block = draw(st.lists(letters, min_size=1, max_size=4))
    per = block * draw(st.integers(1, 3))
    pre = (draw(st.lists(letters, max_size=6)) + per * draw(st.integers(0, 2))
           + block[len(block) - draw(st.integers(0, len(block))):])
    return TailWord(k, tuple(pre), tuple(per))


def assert_canonical(r):
    c = TailWord(r.floor, r.preperiod, r.period)
    assert (c.floor, c.preperiod, c.period) == (r.floor, r.preperiod, r.period)


def oracle_length(w, r):
    # long enough for a prefix match to pin down both eventually periodic words
    return len(w.preperiod) + 2 * len(w.period) + len(r.preperiod) + len(r.period) + 2


def add_lsb_first(bits, m):
    n = len(bits)
    v = (sum(b << i for i, b in enumerate(bits)) + m) % (1 << n)
    return tuple((v >> i) & 1 for i in range(n))


class TestCanonicalResults:
    """Results of the maps built by the trusted constructor are canonical and
    agree letter by letter with prefix oracles."""

    @given(raw_tail_words())
    def test_baire_step(self, w):
        r = baire_step(w)
        assert_canonical(r)
        k, w1, w2 = w.floor, w.letter(1), w.letter(2)
        expected = (k,) * (w1 - k) + (w2 + 1,) + w.prefix(oracle_length(w, r))[2:]
        assert r.floor == k
        assert r.prefix(len(expected)) == expected

    @given(raw_tail_words(floor=st.just(0), span=1))
    def test_dyadic_step(self, w):
        r = dyadic_step(w)
        assert_canonical(r)
        bits = w.prefix(oracle_length(w, r))
        assert r.prefix(len(bits)) == add_lsb_first(bits, 1)

    @given(raw_tail_words(floor=st.just(0), span=1),
           st.one_of(st.integers(0, 5000), st.integers(0, 1 << 80)))
    def test_fast_forward(self, w, m):
        r = fast_forward(w, m)
        assert_canonical(r)
        bits = w.prefix(oracle_length(w, r) + m.bit_length())
        assert r.prefix(len(bits)) == add_lsb_first(bits, m)

    @given(raw_tail_words(), st.integers(0, 12))
    def test_drop_front_and_shift(self, w, n):
        r = drop_front(w, n)
        assert_canonical(r)
        length = oracle_length(w, r)
        assert r.floor == w.floor
        assert r.prefix(length) == w.prefix(length + n)[n:]
        s = shift(w)
        assert_canonical(s)
        assert s.prefix(length) == w.prefix(length + 1)[1:]


class TestDyadicStep:
    def test_carry_prefix(self):
        assert dyadic_step(tail((1, 1, 0, 1), (0,))) == tail((0, 0, 1, 1), (0,))

    def test_all_ones_to_all_zeros(self):
        assert dyadic_step(constant(1)) == constant(0)
        assert dyadic_step(tail((1, 1, 1), (1,))) == constant(0)

    def test_no_carry(self):
        assert dyadic_step(tail((0, 1, 1), (0,))) == tail((1, 1, 1), (0,))

    def test_carry_reaches_period(self):
        # the first 0 sits inside the periodic part
        assert dyadic_step(tail((1, 1), (0, 1))) == tail((0, 0, 1), (1, 0))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            dyadic_step(tail((2,), (0,)))

    def test_counting_eight_steps(self):
        w = constant(0)
        seen = []
        for _ in range(8):
            seen.append(w.prefix(3))
            w = dyadic_step(w)
        assert seen == [
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
            (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
        ]
        assert w == tail((0, 0, 0, 1), (0,))


class TestBaireStep:
    def test_floor_zero(self):
        assert baire_step(tail((2, 5, 1), (0,))) == tail((0, 0, 6, 1), (0,))

    def test_floor_two(self):
        assert baire_step(tail((3, 2), (2,), floor=2)) == tail((2, 3), (2,), floor=2)

    def test_zero_first_letter(self):
        assert baire_step(tail((0, 4, 7), (0,))) == tail((5, 7), (0,))

    def test_conjugate_of_dyadic_step(self):
        w = tail((0, 0, 1, 1, 1, 0, 1, 0), (0,))
        assert block_encode(dyadic_step(w)) == baire_step(block_encode(w))

    @given(binary_words())
    def test_conjugacy_random(self, w):
        if w.period == (1,):
            w = tail(w.preperiod, (1, 0))
        assert block_encode(dyadic_step(w)) == baire_step(block_encode(w))


class TestShift:
    def test_drops_preperiod(self):
        assert shift(tail((4, 5), (1, 2))) == tail((5,), (1, 2))

    def test_rotates_period(self):
        assert shift(tail((), (1, 2))) == tail((), (2, 1))

    def test_accelerated_block_identity(self):
        # dropping one block letter equals k1+1 binary shifts
        v = tail((3, 0, 2), (1, 4))
        lhs = block_decode(drop_front(v, 1))
        rhs = block_decode(v)
        for _ in range(v.letter(1) + 1):
            rhs = shift(rhs)
        assert lhs == rhs


class TestFastForward:
    def test_zero_steps(self):
        w = tail((1, 0), (0, 1))
        assert fast_forward(w, 0) == w

    def test_one_step(self):
        for w in (constant(0), constant(1), tail((1, 1, 0), (0,)), tail((1,), (0, 1))):
            assert fast_forward(w, 1) == dyadic_step(w)

    def test_power_of_two_jump(self):
        w = fast_forward(constant(0), 1 << 10)
        assert w == tail((0,) * 10 + (1,), (0,))
        assert w.letter(11) == 1

    def test_jump_matches_naive_iteration(self):
        w = tail((1, 0, 1), (0, 1, 1))
        naive = w
        for _ in range(200):
            naive = dyadic_step(naive)
        assert fast_forward(w, 200) == naive

    def test_all_ones_tail_wraps(self):
        # ...111 is the 2-adic -1: adding 1 gives 0
        assert fast_forward(constant(1), 1) == constant(0)
        assert fast_forward(tail((0,), (1,)), 2) == constant(0)
        assert fast_forward(tail((0,), (1,)), 1) == tail((1,), (1,))

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            fast_forward(constant(0), -1)

    def test_long_words_and_huge_counts(self):
        rng = random.Random(7)
        for n in (300, 3000):
            pre = [rng.randrange(2) for _ in range(n)]
            per = [rng.randrange(2) for _ in range(rng.randrange(1, 40))] + [0]
            m = rng.getrandbits(n + 50)
            for w in (tail(pre, per), tail(pre, (1,))):
                r = fast_forward(w, m)
                assert_canonical(r)
                bits = w.prefix(oracle_length(w, r) + m.bit_length())
                assert r.prefix(len(bits)) == add_lsb_first(bits, m)

    @settings(max_examples=60)
    @given(binary_words(max_pre=8, max_per=4), st.integers(0, 300), st.integers(0, 300))
    def test_additive(self, w, a, b):
        assert fast_forward(fast_forward(w, a), b) == fast_forward(w, a + b)

    @settings(max_examples=60)
    @given(binary_words(max_pre=8, max_per=4), st.integers(0, 40))
    def test_agrees_with_iteration(self, w, m):
        naive = w
        for _ in range(m):
            naive = dyadic_step(naive)
        assert fast_forward(w, m) == naive


class TestBaireFastForward:
    """m Baire steps through the block conjugacy, against baire_step m times."""

    @settings(max_examples=150)
    @given(raw_tail_words(), st.integers(0, 399))
    def test_matches_iterated_step(self, w, m):
        naive = w
        for _ in range(m):
            naive = baire_step(naive)
        r = baire_fast_forward(w, m)
        assert_canonical(r)
        assert (r.floor, r.preperiod, r.period) == (naive.floor, naive.preperiod, naive.period)

    @settings(max_examples=60)
    @given(raw_tail_words(), st.integers(2**199, 2**201), st.integers(2**199, 2**201))
    def test_additive_on_huge_counts(self, w, a, b):
        once = baire_fast_forward(w, a + b)
        assert_canonical(once)
        assert baire_fast_forward(baire_fast_forward(w, a), b) == once

    def test_zero_steps(self):
        for w in (constant(0), constant(3, 3), tail((2, 5), (1, 4), floor=1), tail((0, 1), (2, 0))):
            assert baire_fast_forward(w, 0) == w

    def test_negative_steps_rejected(self):
        for w in (constant(0), tail((2,), (1, 3), floor=1)):
            with pytest.raises(ValueError):
                baire_fast_forward(w, -1)

    def test_constant_floor_word_cycles_through_constant_floor_plus_one(self):
        # (k, k, ...) is the binary 0; 2^j - 1 steps give 1^j 0 0 ..., the word (k+j, k, k, ...)
        for k in range(4):
            for j in range(1, 12):
                assert baire_fast_forward(constant(k, k), (1 << j) - 1) == tail((k + j,), (k,), floor=k)


class TestRenormalization:
    def test_exponent_values(self):
        assert renormalization_exponent(tail((1, 2), (0,)), 1, 1) == 4
        assert renormalization_exponent(tail((5,), (3,)), 0, 7) == 0
        assert renormalization_exponent(tail((0, 0), (1,)), 1, 2) == 4

    def test_identity_small(self):
        w = tail((1, 2), (0, 3))
        for m in range(3):
            for n in range(3):
                e = renormalization_exponent(w, m, n)
                lhs = drop_front(w, n)
                for _ in range(m):
                    lhs = baire_step(lhs)
                rhs = w
                for _ in range(e):
                    rhs = baire_step(rhs)
                assert lhs == drop_front(rhs, n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            renormalization_exponent(constant(0), -1, 0)
