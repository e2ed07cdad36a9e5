import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from baire_odometers import codecs
from baire_odometers.codecs import (
    BCF_ZERO,
    SYSTEMS,
    bcf_decode,
    bcf_encode,
    bcf_finite_form,
    bcf_tail_form,
    cf_decode,
    cf_encode,
    dyadic_decode,
    dyadic_encode,
    format_rational,
    is_canonical_cf,
    parse_rational,
    system,
    twin,
)
from baire_odometers.words import FiniteWord, TailWord, tail, word


def reduced_fractions(q_max, include_zero=False, include_one=False):
    for q in range(1, q_max + 1):
        for p in range(0 if include_zero and q == 1 else 1, q + (1 if include_one else 0)):
            if gcd(p, q) == 1:
                yield Fraction(p, q)


rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=10_000)


def bcf_decode_fraction(w):
    """Reference evaluation of 1 - 1/(a1 - 1/(a2 - ...)) in Fraction arithmetic."""
    engine = Fraction(w.letters[-1])
    for a in reversed(w.letters[:-1]):
        engine = a - 1 / engine
    return 1 - 1 / engine


def cf_decode_by_loop(letters):
    """Reference x = p_n/q_n from the continuant recurrences, one letter at a time."""
    p, p_prev = 0, 1
    q, q_prev = 1, 0
    for a in letters:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return Fraction(p, q)


def bcf_decode_by_loop(letters):
    """Reference bcf value from the engine p/q, bottom up: (p, q) <- (a*p - q, p)."""
    p, q = 1, 0
    for a in reversed(letters):
        p, q = a * p - q, p
    return Fraction(p - q, p)


def euclid_by_loop(a, b):
    """Reference Euclid quotients of a >= b > 0, one full-size divmod per digit."""
    digits = []
    while b:
        q, r = divmod(a, b)
        digits.append(q)
        a, b = b, r
    return digits


def cf_encode_by_loop(x):
    """Reference cf word of x in (0, 1]: the plain Euclid loop on (q, p)."""
    return FiniteWord(1, tuple(euclid_by_loop(x.denominator, x.numerator)))


def bcf_encode_by_engine(x):
    """Reference bcf word of x in (0, 1) from the engine E = q/(q - p): emit E
    and stop when it is an integer, else emit floor(E) + 1 and go on with the
    fractional part of E."""
    digits = []
    p, q = x.numerator, x.denominator
    while True:
        d = q - p
        a, r = divmod(q, d)
        if r == 0:
            digits.append(a)
            return FiniteWord(2, tuple(digits))
        digits.append(a + 1)
        p, q = r, d


def seeded_letters(rng, n, low, high):
    """n letters in [low, high], the last one >= 2 so that a cf word is canonical."""
    return tuple(rng.randint(low, high) for _ in range(n - 1)) + (rng.randint(max(low, 2), high),)


def decoder_test_lengths():
    """Every length from 1 to 200, each multiple of the leaf length up to 4x and
    its neighbours, and 5000."""
    around_leaf = {m * codecs._LEAF + d for m in range(1, 5) for d in (-1, 0, 1)}
    return sorted(set(range(1, 201)) | around_leaf | {5000})


class TestRationalText:
    def test_parse(self):
        assert parse_rational("4/7") == Fraction(4, 7)
        assert parse_rational(" 0 ") == 0

    def test_format_always_has_denominator(self):
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(19, 32)) == "19/32"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")


class TestCfCodec:
    def test_encode_examples(self):
        assert cf_encode(Fraction(2, 3)) == word((1, 2))
        assert cf_encode(Fraction(1, 2)) == word((2,))
        assert cf_encode(Fraction(1, 3)) == word((3,))
        assert cf_encode(Fraction(1)) == word((1,))
        assert cf_encode(Fraction(4, 7)) == word((1, 1, 3))

    def test_decode_examples(self):
        assert cf_decode(word((1, 1, 1))) == Fraction(2, 3)
        assert cf_decode(word((1, 2))) == Fraction(2, 3)
        assert cf_decode(word((4,))) == Fraction(1, 4)

    def test_domain(self):
        for bad in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                cf_encode(bad)
        with pytest.raises(ValueError):
            cf_decode(FiniteWord(0, (1, 0)))

    def test_canonical_never_ends_in_one(self):
        for x in reduced_fractions(120, include_one=True):
            w = cf_encode(x)
            assert is_canonical_cf(w)
            assert w.letters[-1] >= 2 or w.letters == (1,)

    def test_round_trip_exhaustive(self):
        for x in reduced_fractions(200, include_one=True):
            assert cf_decode(cf_encode(x)) == x

    @given(rationals_01)
    def test_round_trip_random(self, x):
        if 0 < x <= 1:
            assert cf_decode(cf_encode(x)) == x

    def test_matches_continuant_loop(self):
        rng = random.Random(3)
        for n in decoder_test_lengths():
            for top in (1, 4, 1000):
                letters = tuple(rng.randint(1, top) for _ in range(n))
                assert cf_decode(FiniteWord(1, letters)) == cf_decode_by_loop(letters)

    def test_continuant_denominators_grow(self):
        w = word((2, 1, 3, 1, 4))
        denoms = [cf_decode(word(w.letters[:i])).denominator for i in range(1, 6)]
        assert denoms == sorted(denoms)


class TestTwin:
    def test_examples(self):
        assert twin(word((3,))) == word((2, 1))
        assert twin(word((2, 1))) == word((3,))
        assert twin(word((1, 2))) == word((1, 1, 1))

    def test_value_and_sum_preserved(self):
        for x in reduced_fractions(80):
            w = cf_encode(x)
            if w.letters == (1,):
                continue
            t = twin(w)
            assert cf_decode(t) == x
            assert sum(t.letters) == sum(w.letters)
            assert twin(t) == w

    def test_word_one_has_no_twin(self):
        with pytest.raises(ValueError):
            twin(word((1,)))


class TestBcfCodec:
    def test_encode_examples(self):
        assert bcf_encode(Fraction(1, 2)) == FiniteWord(2, (2,))
        assert bcf_encode(Fraction(3, 5)) == FiniteWord(2, (3, 2))
        assert bcf_encode(Fraction(4, 7)) == FiniteWord(2, (3, 2, 2))
        for n in range(1, 10):
            assert bcf_encode(Fraction(1, n + 1)) == FiniteWord(2, (2,) * n)

    def test_zero_marker(self):
        assert bcf_encode(Fraction(0)) is BCF_ZERO
        assert bcf_decode(BCF_ZERO) == 0
        assert repr(BCF_ZERO) == "BCF_ZERO"
        assert BCF_ZERO.letters == ()
        assert str(BCF_ZERO) == "zero"

    def test_decode_examples(self):
        assert bcf_decode(FiniteWord(2, (4,))) == Fraction(3, 4)
        assert bcf_decode(FiniteWord(2, (2, 3))) == Fraction(2, 5)

    def test_domain(self):
        for bad in (Fraction(1), Fraction(-1, 3), Fraction(7, 5)):
            with pytest.raises(ValueError):
                bcf_encode(bad)
        with pytest.raises(ValueError):
            bcf_decode(word((1, 2)))

    def test_round_trip_exhaustive(self):
        for x in reduced_fractions(200, include_zero=True):
            w = bcf_encode(x)
            if w is not BCF_ZERO:
                assert all(a >= 2 for a in w.letters)
            assert bcf_decode(w) == x

    @given(rationals_01)
    def test_round_trip_random(self, x):
        if x < 1:
            assert bcf_decode(bcf_encode(x)) == x

    @given(st.one_of(
        st.lists(st.integers(2, 9), min_size=1, max_size=30),
        st.lists(st.integers(2, 1000), min_size=1, max_size=30),
        st.lists(st.integers(2, 4), min_size=200, max_size=600),
    ))
    def test_matches_fraction_evaluation(self, letters):
        w = FiniteWord(2, tuple(letters))
        assert bcf_decode(w) == bcf_decode_fraction(w)

    def test_matches_engine_loop(self):
        rng = random.Random(4)
        for n in decoder_test_lengths():
            for top in (2, 5, 1000):
                letters = tuple(rng.randint(2, top) for _ in range(n))
                assert bcf_decode(FiniteWord(2, letters)) == bcf_decode_by_loop(letters)

    @given(st.lists(st.integers(2, 9), max_size=20), st.integers(0, 1),
           st.lists(st.integers(2, 9), max_size=20))
    def test_letters_below_two_rejected(self, head, low, rest):
        with pytest.raises(ValueError):
            bcf_decode(FiniteWord(0, tuple(head) + (low,) + tuple(rest)))

    @pytest.mark.parametrize("floor", [0, 1])
    def test_floor_below_two_rejected(self, floor):
        # letters >= 2 on a lower floor are still not a bcf word
        with pytest.raises(ValueError, match="need letters >= 2"):
            bcf_decode(FiniteWord(floor, (2, 3)))


class TestEncodersMatchLoops:
    """cf_encode (half-gcd Euclid) and bcf_encode (read off the cf digits of
    1 - x) against the plain loops they replace."""

    def test_every_small_rational(self):
        for q in range(1, 400):
            for p in range(1, q + 1):
                if gcd(p, q) == 1:
                    x = Fraction(p, q)
                    assert cf_encode(x) == cf_encode_by_loop(x)
                    if p < q:
                        assert bcf_encode(x) == bcf_encode_by_engine(x)

    @pytest.mark.parametrize("n", [1500, 4000, 12000, 30000])
    def test_long_seeded_words(self, n):
        rng = random.Random(n)
        for low, high in ((1, 4), (1, 60)):
            letters = seeded_letters(rng, n, low, high)
            x = cf_decode_by_loop(letters)
            assert cf_encode(x).letters == letters
            assert cf_encode(x) == cf_encode_by_loop(x)
        letters = seeded_letters(rng, n, 2, 5)
        x = bcf_decode_by_loop(letters)
        assert bcf_encode(x).letters == letters
        assert bcf_encode(x) == bcf_encode_by_engine(x)

    def test_giant_partial_quotients(self):
        for letters in ((1, 2**4000 + 1, 3), (2**5000 + 1,), (3, 2**3000, 1, 2**6000 + 7, 2),
                        (1,) * 700 + (2**9000,) + (1,) * 700 + (2,)):
            x = cf_decode_by_loop(letters)
            assert cf_encode(x).letters == letters
        x = Fraction(1, 2**5000 + 1)
        assert cf_encode(x) == cf_encode_by_loop(x) == FiniteWord(1, (2**5000 + 1,))
        # giant odd-index digits of 1 - x are giant bcf letters; an even-index
        # digit c is a run of c - 1 letters 2, so it stays buildable
        for digits in ((2**4000 + 1, 3, 2**3000), (1, 2**12 + 1), (5, 2**12, 2**5000 + 3)):
            x = 1 - cf_decode_by_loop(digits)
            assert bcf_encode(x) == bcf_encode_by_engine(x)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_constant_words(self, k):
        # k = 1: Fibonacci ratios, the longest expansion for their size
        for n in (1, 2, 3, 1000, 4000, 9000):
            letters = (k,) * n if k > 1 else (1,) * (n - 1) + (2,)
            x = cf_decode_by_loop(letters)
            assert cf_encode(x).letters == letters
            if x < 1:
                assert bcf_encode(x) == bcf_encode_by_engine(x)
        for n in (1, 2, 3, 1000, 5000):
            letters = (k + 1,) * n
            x = bcf_decode_by_loop(letters)
            assert bcf_encode(x).letters == letters

    def test_edge_values(self):
        assert cf_encode(Fraction(1)) == cf_encode_by_loop(Fraction(1)) == FiniteWord(1, (1,))
        assert cf_encode(Fraction(1, 2)) == FiniteWord(1, (2,))
        assert bcf_encode(Fraction(1, 2)) == FiniteWord(2, (2,))
        for q in (3, 4, 5, 10, 2**100, 2**5000 + 3):
            x = Fraction(q - 1, q)
            assert cf_encode(x) == cf_encode_by_loop(x) == FiniteWord(1, (1, q - 1))
            # 1 - x = 1/q has one cf digit: both corrections hit it, q + 2 - 1 - 1
            assert bcf_encode(x) == bcf_encode_by_engine(x) == FiniteWord(2, (q,))

    def test_two_digit_rewrite(self):
        # 1 - x = [c1, c2]: the first letter loses 1, the last digit is a run of 2s
        for c1 in range(1, 6):
            for c2 in range(2, 6):
                x = 1 - Fraction(1, c1 + Fraction(1, c2))
                assert bcf_encode(x) == FiniteWord(2, (c1 + 1,) + (2,) * (c2 - 1))


class TestEuclid:
    """The shared half-gcd routine on pairs of any size, common factors included."""

    def test_bit_lengths_around_the_leaves(self):
        rng = random.Random(12)
        leaf = codecs._EUCLID_LEAF
        for n in sorted({leaf - 1, leaf, leaf + 1, 2 * leaf - 1, 2 * leaf, 2 * leaf + 1, 4 * leaf + 1}):
            for _ in range(20):
                a = rng.getrandbits(n) | 1 << (n - 1)
                b = rng.randrange(1, a + 1)
                assert a.bit_length() == n
                assert codecs._euclid(a, b) == euclid_by_loop(a, b)
                x = Fraction(b, a)
                assert cf_encode(x) == cf_encode_by_loop(x)
                if x < 1:
                    assert bcf_encode(x) == bcf_encode_by_engine(x)

    def test_common_factor(self):
        # a pair with a big gcd reaches remainder 0 inside a cut, where a last
        # digit 1 must be backed off into the canonical last digit
        rng = random.Random(13)
        for _ in range(150):
            letters = seeded_letters(rng, rng.choice((10, 200, 1200)), 1, rng.choice((3, 9)))
            a, _, b, _ = codecs._letter_product(letters, 1)
            g = rng.getrandbits(rng.choice((64, 2000, 8000))) | 1
            assert codecs._euclid(g * a, g * b) == list(letters)

    @pytest.mark.parametrize("leaf", [8, 16, 64])
    def test_small_leaves(self, monkeypatch, leaf):
        # a small leaf runs the recursion many levels deep on small pairs
        monkeypatch.setattr(codecs, "_EUCLID_LEAF", leaf)
        rng = random.Random(leaf)
        for _ in range(400):
            top = rng.choice((2, 4, 50, 2**40))
            letters = seeded_letters(rng, rng.randrange(1, 120), 1, top)
            a, _, b, _ = codecs._letter_product(letters, 1)
            assert codecs._euclid(a, b) == list(letters)
            g = rng.getrandbits(rng.choice((5, 100, 1000))) | 1
            assert codecs._euclid(g * a, g * b) == list(letters)
            assert codecs._euclid(a, a) == [1]
        for _ in range(400):
            a = rng.getrandbits(rng.randrange(2, 300)) + 2
            b = rng.randrange(1, a)
            assert codecs._euclid(a, b) == euclid_by_loop(a, b)
            x = Fraction(b, a)
            assert bcf_encode(x) == bcf_encode_by_engine(x)


class TestBcfForms:
    def test_tail_form_examples(self):
        assert bcf_tail_form(FiniteWord(2, (2,))) == tail((3,), (2,), floor=2)
        assert bcf_tail_form(BCF_ZERO) == tail((), (2,), floor=2)

    def test_finite_form_inverse(self):
        for x in reduced_fractions(60, include_zero=True):
            w = bcf_encode(x)
            assert bcf_finite_form(bcf_tail_form(w)) == w

    def test_finite_form_rejects_other_tails(self):
        with pytest.raises(ValueError):
            bcf_finite_form(tail((3,), (2, 3), floor=2))

    def test_forms_match_public_constructors(self):
        # both forms are built by the trusted constructors; the public ones
        # validate and normalize the same letters to the same fields
        for w in (BCF_ZERO, *map(bcf_encode, reduced_fractions(60))):
            a = w.letters
            t = bcf_tail_form(w)
            assert t == TailWord(2, a[:-1] + (a[-1] + 1,) if a else (), (2,))
            pre = t.preperiod
            f = bcf_finite_form(t)
            assert f == (FiniteWord(2, pre[:-1] + (pre[-1] - 1,)) if pre else BCF_ZERO) == w

    def test_forms_reject_floors_below_2(self):
        # as bcf_decode does, even where every letter is >= 2
        with pytest.raises(ValueError):
            bcf_tail_form(FiniteWord(1, (3,)))
        with pytest.raises(ValueError):
            bcf_finite_form(TailWord(1, (3,), (2,)))


class TestDyadicCodec:
    def test_worked_example(self):
        assert dyadic_encode(Fraction(19, 32)) == FiniteWord(0, (1, 0, 2))
        assert dyadic_decode(FiniteWord(0, (1, 0, 2))) == Fraction(19, 32)

    def test_simple_values(self):
        assert dyadic_encode(Fraction(1, 2)) == FiniteWord(0, (1,))
        assert dyadic_encode(Fraction(3, 4)) == FiniteWord(0, (2,))

    def test_leftmost_and_rightmost_leaves(self):
        for l in range(1, 12):
            assert dyadic_decode(FiniteWord(0, (0,) * (l - 1) + (1,))) == Fraction(1, 2**l)
            assert dyadic_decode(FiniteWord(0, (l,))) == Fraction(2**l - 1, 2**l)

    def test_domain(self):
        for bad in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 6)):
            with pytest.raises(ValueError):
                dyadic_encode(bad)

    def test_round_trip_exhaustive(self):
        for m in range(1, 13):
            for p in range(1, 1 << m, 2):
                x = Fraction(p, 1 << m)
                assert dyadic_decode(dyadic_encode(x)) == x

    @pytest.mark.parametrize("floor", [1, 2])
    def test_decode_rejects_other_floors(self, floor):
        with pytest.raises(ValueError, match="dyadic words need floor 0"):
            dyadic_decode(FiniteWord(floor, (floor, floor + 1)))

    def test_decode_total_on_floor_zero(self):
        # words ending in 0 (non-reduced trailing zeros) still decode
        assert dyadic_decode(FiniteWord(0, (0,))) == 0
        assert dyadic_decode(FiniteWord(0, (1, 0))) == Fraction(1, 2)


class TestSystemTable:
    def test_names(self):
        assert SYSTEMS == ("cf", "bcf", "dyadic")
        with pytest.raises(KeyError):
            system("word")

    def test_entries(self):
        assert system("cf") == (1, cf_encode, cf_decode)
        assert system("bcf") == (2, bcf_encode, bcf_decode)
        assert system("dyadic") == (0, dyadic_encode, dyadic_decode)

    @pytest.mark.parametrize("name, values", [
        ("cf", [Fraction(1), Fraction(1, 2), Fraction(5, 13)]),
        ("bcf", [Fraction(0), Fraction(1, 2), Fraction(4, 7)]),
        ("dyadic", [Fraction(1, 2), Fraction(19, 32)]),
    ])
    def test_round_trip_with_printable_words(self, name, values):
        floor, encode, decode = system(name)
        for x in values:
            w = encode(x)
            assert decode(w) == x
            assert all(a >= floor for a in w.letters)
            assert str(w) == ("zero" if x == 0 else "(" + ",".join(map(str, w.letters)) + ")")

    def test_reads_the_module_at_call_time(self, monkeypatch):
        # a wrapper bound into the module (as a profiler installs one) is what callers get
        def wrapped(x):
            return cf_encode(x)

        monkeypatch.setattr(codecs, "cf_encode", wrapped)
        assert system("cf")[1] is wrapped
