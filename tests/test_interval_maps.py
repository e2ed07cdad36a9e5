import math
import random
from fractions import Fraction

import pytest

from baire_odometers.codecs import bcf_encode, cf_decode, cf_encode, dyadic_encode, BCF_ZERO
from baire_odometers.interval_maps import (
    Boundary,
    _b,
    _dyadic_pair,
    _gauss_pair,
    _moebius,
    _renyi_pair,
    FibPair,
    cmi_odometer,
    dyadic_interval_step,
    fib,
    gauss,
    gauss_cmi,
    gauss_odometer,
    golden_mean_k,
    k_gauss_cmi,
    k_gauss_odometer,
    question_mark,
    renyi,
    renyi_cmi,
    renyi_odometer,
)
from baire_odometers.word_actions import Policy, step as word_step
from baire_odometers.words import FiniteWord
from test_codecs import reduced_fractions


def dyadic_step_by_search(x):
    """Reference branch search: the least n >= 1 with x < 1 - 2^-n."""
    n = 1
    while x >= 1 - Fraction(1, 1 << n):
        n += 1
    return x + Fraction(3, 1 << n) - 1


def dyadic_step_by_fractions(x):
    """Reference closed form in Fraction arithmetic: x + 3/2^n - 1."""
    p, q = x.numerator, x.denominator
    n = (q // (q - p)).bit_length()
    return x + Fraction(3, 1 << n) - 1


def moebius_by_fractions(x, k, m, j):
    """Reference Moebius form in Fraction arithmetic."""
    b_prev, b_j = _b(k, j)
    b_next = k * b_j + b_prev
    d_j, d_next = b_j + b_prev, b_next + b_j
    return (x * (b_j - m * d_j) + d_j) / (x * (b_next - m * d_next) + d_next)


def gauss_odometer_by_fractions(x, boundary=Boundary.RIGHT):
    p, q = x.numerator, x.denominator
    n = q // p if boundary is Boundary.LEFT else -(-q // p) - 1
    return moebius_by_fractions(x, 1, n, n - 1)


def pair(x):
    return x.numerator, x.denominator


def random_dyadics(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        bits = rng.randrange(1, 200)
        yield Fraction(rng.randrange(1 << bits), 1 << bits)


def b_by_loop(k, n):
    """Reference k-Fibonacci b(n) for n >= -2, one loop per index."""
    if n == -1:
        return 1
    if n == -2:
        return -k
    prev, cur = 1, 0
    for _ in range(n):
        prev, cur = cur, k * cur + prev
    return cur


def renyi_odometer_by_fractions(x):
    """Reference renyi odometer: 1/(2*floor(E) + 1 - E), E = 1/(1-x), in Fraction operations."""
    p, q = x.numerator, x.denominator
    m = q // (q - p)
    return 1 / (2 * m + 1 - Fraction(q, q - p))


def _k_gauss_odometer_shifted(x, k):
    """Index-shifted variant of the restricted closed form, a negative control.

    Uses multiplier n = m - k and the coefficient pairs (b_n, d_{n+1}) and
    (b_{n+1}, d_{n+2}); disagrees with the word-action oracle (already at
    k=2 on [1/3, 1/2), where it yields 1/(x+3) instead of (1-2x)/(1-x)).
    """
    p, q = x.numerator, x.denominator
    m = -(-q // p) - 1
    n = m - k
    b_n, b_next = _b(k, n + 1)
    b_after = k * b_next + b_n
    d_next, d_after = b_next + b_n, b_after + b_next
    return (x * (b_n - n * d_next) + d_next) / (x * (b_next - n * d_after) + d_after)


def question_mark_by_series(x):
    """Reference ?(x): the alternating series in Fraction arithmetic, term by term."""
    total = Fraction(0)
    if x > 0:
        s = 0
        for i, a in enumerate(cf_encode(x).letters):
            s += a
            term = Fraction(2) ** (1 - s)
            total += term if i % 2 == 0 else -term
    return total


class TestGaussMap:
    def test_examples(self):
        assert gauss(Fraction(2, 5)) == Fraction(1, 2)
        for n in range(1, 8):
            assert gauss(Fraction(1, n)) == 0

    def test_domain(self):
        for bad in (Fraction(0), Fraction(6, 5)):
            with pytest.raises(ValueError):
                gauss(bad)

    def test_shifts_cf_word(self):
        for x in reduced_fractions(200):
            w = cf_encode(x)
            if len(w) >= 2:
                assert cf_encode(gauss(x)) == FiniteWord(1, w.letters[1:])


class TestRenyiMap:
    def test_examples(self):
        assert renyi(Fraction(1, 3)) == Fraction(1, 2)
        assert renyi(Fraction(0)) == 0

    def test_domain(self):
        for bad in (Fraction(1), Fraction(-1, 4)):
            with pytest.raises(ValueError):
                renyi(bad)

    def test_shifts_bcf_word(self):
        for x in reduced_fractions(200, include_zero=True):
            w = bcf_encode(x)
            if w is BCF_ZERO:
                assert renyi(x) == 0
            elif len(w) == 1:
                assert bcf_encode(renyi(x)) is BCF_ZERO
            else:
                assert bcf_encode(renyi(x)) == FiniteWord(2, w.letters[1:])


class TestDyadicIntervalStep:
    def test_examples(self):
        assert dyadic_interval_step(Fraction(1, 2)) == Fraction(1, 4)
        assert dyadic_interval_step(Fraction(0)) == Fraction(1, 2)

    def test_orbit_of_half(self):
        x = Fraction(1, 2)
        got = []
        for _ in range(7):
            got.append(x)
            x = dyadic_interval_step(x)
        assert got == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 8),
                       Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]

    def test_domain(self):
        for bad in (Fraction(1), Fraction(-1, 8)):
            with pytest.raises(ValueError):
                dyadic_interval_step(bad)

    def test_closed_form_matches_branch_search(self):
        rng = random.Random(7)
        points = list(reduced_fractions(199, include_zero=True))
        for _ in range(2000):
            bits = rng.randrange(1, 80)
            points.append(Fraction(rng.randrange(1 << bits), 1 << bits))
        # a 400-bit dyadic whose binary expansion opens with a run of 200 ones
        run = (1 << 200) - 1
        points.append(Fraction((run << 200) | rng.getrandbits(199) | 1, 1 << 400))
        for x in points:
            assert dyadic_interval_step(x) == dyadic_step_by_search(x)


class TestFib:
    def test_pairs_match_loop(self):
        for k in range(1, 8):
            for n in [*range(-1, 301), 1000, 4097]:
                assert _b(k, n) == (b_by_loop(k, n - 1), b_by_loop(k, n))
            for n in range(301):
                assert fib(k, n) == FibPair(n, b_by_loop(k, n),
                                            b_by_loop(k, n) + b_by_loop(k, n - 1) if n else 1)
                if n >= 1:
                    assert golden_mean_k(k, n) == Fraction(b_by_loop(k, n), b_by_loop(k, n + 1))

    def test_k1_is_fibonacci(self):
        assert [fib(1, n).b for n in range(7)] == [0, 1, 1, 2, 3, 5, 8]

    def test_huge_index_matches_all_ones_word(self):
        # 1/M steps to the word of M ones; both sides are b(M)/b(M+1)
        ones = cf_decode(FiniteWord(1, (1,) * 10**5))
        assert gauss_odometer(Fraction(1, 10**5)) == ones
        assert golden_mean_k(1, 10**5) == ones

    def test_k2_sequences(self):
        assert [fib(2, n).b for n in range(6)] == [0, 1, 2, 5, 12, 29]
        assert [fib(2, n).d for n in range(6)] == [1, 1, 3, 7, 17, 41]

    def test_pair_identity(self):
        for k in range(1, 6):
            for n in range(1, 41):
                pair = fib(k, n)
                assert pair.d == pair.b + fib(k, n - 1).b

    def test_d_satisfies_same_recurrence(self):
        for k in range(1, 6):
            d = [fib(k, n).d for n in range(30)]
            for n in range(2, 30):
                assert d[n] == k * d[n - 1] + d[n - 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            fib(0, 3)
        with pytest.raises(ValueError):
            fib(1, -1)

    def test_returns_typed_pair(self):
        assert fib(3, 4) == FibPair(4, fib(3, 4).b, fib(3, 4).d)


class TestGaussOdometer:
    def test_reflection_branch(self):
        # on [1/2, 1) the odometer is x -> 1 - x
        assert gauss_odometer(Fraction(2, 3)) == Fraction(1, 3)
        for x in reduced_fractions(50):
            if Fraction(1, 2) <= x < 1:
                assert gauss_odometer(x) == 1 - x

    def test_examples(self):
        assert gauss_odometer(Fraction(1, 3)) == Fraction(2, 3)
        assert gauss_odometer(Fraction(1, 2)) == Fraction(1, 2)
        assert gauss_odometer(Fraction(1)) == Fraction(1)

    def test_period_of_one_third_is_two(self):
        x = Fraction(1, 3)
        assert gauss_odometer(gauss_odometer(x)) == x
        assert gauss_odometer(x) != x

    def test_reciprocal_goes_to_fibonacci_ratio(self):
        # right convention: 1/n steps to [1 ... 1 2] = f(n)/f(n+1)
        for n in range(2, 12):
            expected = Fraction(fib(1, n).b, fib(1, n + 1).b)
            assert gauss_odometer(Fraction(1, n)) == expected
            assert expected == cf_decode(FiniteWord(1, (1,) * (n - 2) + (2,)))

    def test_left_boundary(self):
        # left convention: 1/n steps up to [1 ... 1] of n-1 ones
        for n in range(2, 12):
            got = gauss_odometer(Fraction(1, n), Boundary.LEFT)
            assert got == cf_decode(FiniteWord(1, (1,) * (n - 1)))
        assert gauss_odometer(Fraction(1, 3), Boundary.LEFT) == Fraction(1, 2)

    def test_left_equals_right_off_branch_points(self):
        for x in reduced_fractions(60):
            if x != 1 and x.numerator != 1:
                assert gauss_odometer(x, Boundary.LEFT) == gauss_odometer(x)

    def test_left_undefined_at_one(self):
        with pytest.raises(ValueError):
            gauss_odometer(Fraction(1), Boundary.LEFT)

    @pytest.mark.parametrize("x, boundary, message", [
        (Fraction(1), Boundary.LEFT, "1 outside (0, 1)"),
        (Fraction(3, 2), Boundary.LEFT, "3/2 outside (0, 1)"),
        (Fraction(0), Boundary.LEFT, "0 outside (0, 1)"),
        (Fraction(3, 2), Boundary.RIGHT, "3/2 outside (0, 1]"),
    ])
    def test_domain_message(self, x, boundary, message):
        with pytest.raises(ValueError) as caught:
            gauss_odometer(x, boundary)
        assert str(caught.value) == message

    def test_word_action_oracle(self):
        for x in reduced_fractions(200, include_one=True):
            oracle = cf_decode(word_step(cf_encode(x), Policy.CYCLIC))
            assert gauss_odometer(x) == oracle

    def test_right_limit_consistency(self):
        # sample y just above 1/n: O_G(y) tends to O_G(1/n)
        for n in range(2, 9):
            target = gauss_odometer(Fraction(1, n))
            for denom in (10**6, 10**9):
                y = Fraction(1, n) + Fraction(1, denom)
                assert abs(gauss_odometer(y) - target) < Fraction(50 * n, denom)

    def test_domain(self):
        for bad in (Fraction(0), Fraction(5, 4)):
            with pytest.raises(ValueError):
                gauss_odometer(bad)


class TestRenyiOdometer:
    def test_examples(self):
        assert renyi_odometer(Fraction(0)) == Fraction(1, 2)
        assert renyi_odometer(Fraction(2, 3)) == Fraction(1, 4)

    def test_orbit_of_zero(self):
        x = Fraction(0)
        got = []
        for _ in range(6):
            got.append(x)
            x = renyi_odometer(x)
        assert got == [Fraction(0), Fraction(1, 2), Fraction(1, 3),
                       Fraction(2, 3), Fraction(1, 4), Fraction(3, 5)]

    def test_domain(self):
        with pytest.raises(ValueError):
            renyi_odometer(Fraction(1))

    def test_matches_fraction_expression(self):
        # every reduced p/q of [0, 1) with q < 400, and random dyadics: the core
        # returns the lowest-terms pair, and the public map is its Fraction
        for x in [*reduced_fractions(399, include_zero=True), *random_dyadics(2000, 23)]:
            got = _renyi_pair(*pair(x))
            assert got == pair(renyi_odometer_by_fractions(x)), x
            assert renyi_odometer(x) == Fraction(*got)

    def test_is_the_topdown_step_on_bcf_words(self):
        # every reduced p/q of [0, 1) with q < 300; the bcf word of 0 steps to (2)
        for x in reduced_fractions(299, include_zero=True):
            w = bcf_encode(x)
            stepped = FiniteWord(2, (2,)) if w is BCF_ZERO else word_step(w, Policy.TOPDOWN)
            assert bcf_encode(renyi_odometer(x)) == stepped


class TestKGaussOdometer:
    def test_low_branch_formula(self):
        # k=2 on [1/3, 1/2): (1 - 2x)/(1 - x)
        assert k_gauss_odometer(Fraction(2, 5), 2) == Fraction(1, 3)
        for x in reduced_fractions(40):
            if Fraction(1, 3) < x < Fraction(1, 2):
                w = cf_encode(x)
                if len(w) >= 2 and all(a >= 2 for a in w.letters):
                    assert k_gauss_odometer(x, 2) == (1 - 2 * x) / (1 - x)

    def test_two_sevenths(self):
        # [3,2] steps to the word (2,3), i.e. 3/7
        x = Fraction(2, 7)
        assert cf_encode(x) == FiniteWord(1, (3, 2))
        assert k_gauss_odometer(x, 2) == cf_decode(FiniteWord(1, (2, 3)))
        assert k_gauss_odometer(x, 2) == Fraction(3, 7)

    def test_fixed_point(self):
        for k in range(1, 6):
            assert k_gauss_odometer(Fraction(1, k), k) == Fraction(1, k)

    def test_k1_reduces_to_gauss(self):
        for x in reduced_fractions(200, include_one=True):
            assert k_gauss_odometer(x, 1) == gauss_odometer(x)

    def test_word_action_oracle(self):
        for k in (2, 3):
            for x in reduced_fractions(150):
                w = cf_encode(x)
                if any(a < k for a in w.letters):
                    continue
                oracle = cf_decode(word_step(FiniteWord(k, w.letters), Policy.CYCLIC))
                assert k_gauss_odometer(x, k) == oracle

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            k_gauss_odometer(Fraction(2, 3), 2)
        with pytest.raises(ValueError):
            k_gauss_odometer(Fraction(2, 5), 3)

    @pytest.mark.parametrize("x, k", [
        (Fraction(2, 7), 3), (Fraction(2, 3), 2), (Fraction(1, 2), 3), (Fraction(0), 2),
        (Fraction(3, 2), 1),
    ])
    def test_domain_message(self, x, k):
        with pytest.raises(ValueError) as caught:
            k_gauss_odometer(x, k)
        assert str(caught.value) == f"{x} outside (0, 1/{k}] with continued-fraction digits >= {k}"

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_1_rejected(self, k):
        with pytest.raises(ValueError, match="need k >= 1"):
            k_gauss_odometer(Fraction(1, 3), k)
        with pytest.raises(ValueError, match="need k >= 1"):
            k_gauss_cmi(k)

    def test_shifted_variant_disagrees(self):
        # the index-shifted coefficients break on the lowest branch
        x = Fraction(2, 5)
        assert _k_gauss_odometer_shifted(x, 2) == 1 / (x + 3)
        assert _k_gauss_odometer_shifted(x, 2) != k_gauss_odometer(x, 2)


class TestGoldenMean:
    def test_fibonacci_ratio(self):
        assert golden_mean_k(1, 10) == Fraction(55, 89)

    def test_convergence(self):
        for k in (1, 2, 3):
            limit = 2 / (k + math.sqrt(k * k + 4))
            assert abs(float(golden_mean_k(k, 40)) - limit) < 1e-12

    def test_k2_value(self):
        assert abs(float(golden_mean_k(2, 40)) - 0.41421356) < 1e-8


class TestCmiOdometer:
    def test_gauss_instance(self):
        cmi = gauss_cmi()
        assert cmi_odometer(cmi, Fraction(2, 3), 64) == Fraction(1, 3)
        for x in reduced_fractions(60, include_one=True):
            assert cmi_odometer(cmi, x, 64) == gauss_odometer(x)

    def test_renyi_instance(self):
        cmi = renyi_cmi()
        assert cmi_odometer(cmi, Fraction(0), 64) == Fraction(1, 2)
        for x in reduced_fractions(60, include_zero=True):
            assert cmi_odometer(cmi, x, 64) == renyi_odometer(x)

    def test_k_gauss_instance(self):
        for k in (2, 3):
            cmi = k_gauss_cmi(k)
            for x in reduced_fractions(60):
                w = cf_encode(x)
                if all(a >= k for a in w.letters):
                    assert cmi_odometer(cmi, x, 64) == k_gauss_odometer(x, k)

    def test_gauss_is_k_gauss_at_1(self):
        assert gauss_cmi() == k_gauss_cmi(1)

    def test_depth_limit(self):
        with pytest.raises(ValueError):
            cmi_odometer(gauss_cmi(), Fraction(2, 3), 0)

    def test_terminal_without_topdown_policy(self):
        # 0 has an empty gauss digit word; the cyclic convention has no successor
        with pytest.raises(ValueError):
            cmi_odometer(gauss_cmi(), Fraction(0), 8)


class TestQuestionMark:
    def test_examples(self):
        assert question_mark(Fraction(1, 2)) == Fraction(1, 2)
        assert question_mark(Fraction(1, 3)) == Fraction(1, 4)
        assert question_mark(Fraction(2, 3)) == Fraction(3, 4)
        assert question_mark(Fraction(0)) == 0
        assert question_mark(Fraction(1)) == 1

    def test_symmetry(self):
        for x in reduced_fractions(100, include_zero=True, include_one=True):
            assert question_mark(x) + question_mark(1 - x) == 1

    def test_monotone(self):
        xs = sorted(reduced_fractions(40, include_zero=True, include_one=True))
        vals = [question_mark(x) for x in xs]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)

    def test_dyadic_fixed_points_of_tree_structure(self):
        # ? maps the cf tree onto the dyadic tree: ?([a1..an]) is dyadic
        for x in reduced_fractions(60):
            denom = question_mark(x).denominator
            assert denom & (denom - 1) == 0

    def test_precision_rounding(self):
        exact = question_mark(Fraction(4, 7))
        rounded = question_mark(Fraction(4, 7), precision_bits=8)
        assert abs(rounded - exact) <= Fraction(1, 2**9)
        assert rounded.denominator <= 2**8

    def test_domain(self):
        with pytest.raises(ValueError):
            question_mark(Fraction(3, 2))

    def test_matches_series(self):
        for x in reduced_fractions(199, include_zero=True, include_one=True):
            assert question_mark(x) == question_mark_by_series(x)

    def test_long_words_match_series(self):
        rng = random.Random(11)
        # the reference is quadratic in the digit sum: large digits on short words only
        for n, top in ((1, 10**5), (2, 300), (3, 300), (50, 300), (50, 9), (700, 9), (3000, 4)):
            for _ in range(3):
                letters = [rng.randint(1, top) for _ in range(n - 1)] + [rng.randint(2, top)]
                x = cf_decode(FiniteWord(1, tuple(letters)))
                assert question_mark(x) == question_mark_by_series(x)

    def test_precision_matches_rounded_series(self):
        rng = random.Random(5)
        points = list(reduced_fractions(60, include_zero=True, include_one=True))
        points += [cf_decode(FiniteWord(1, tuple(rng.randint(1, 6) for _ in range(400))))]
        for x in points:
            for bits in (1, 8, 40, 1200):
                scale = 1 << bits
                want = Fraction(round(question_mark_by_series(x) * scale), scale)
                assert question_mark(x, precision_bits=bits) == want


class TestIntegerCores:
    """Each core returns the lowest-terms pair of its old Fraction form, and
    each public map is the Fraction of its core's pair (the Renyi core is
    checked in TestRenyiOdometer)."""

    def test_dyadic_core(self):
        # every reduced p/q of [0, 1) with q < 400, dyadic or not, and random dyadics
        points = [*reduced_fractions(399, include_zero=True), *random_dyadics(2000, 13)]
        for x in points:
            got = _dyadic_pair(*pair(x))
            assert got == pair(dyadic_step_by_fractions(x)), x
            assert dyadic_interval_step(x) == Fraction(*got)

    def test_dyadic_core_on_8000_bits(self):
        rng = random.Random(17)
        for x in (Fraction(rng.getrandbits(8000) | 1, 1 << 8000),
                  Fraction((1 << 8000) - 1, 1 << 8000), Fraction(1, 1 << 8000)):
            p, q = _dyadic_pair(*pair(x))
            assert q & (q - 1) == 0 and p & 1
            assert (p, q) == pair(dyadic_step_by_fractions(x))
            assert dyadic_interval_step(x) == Fraction(p, q)

    def test_gauss_core(self):
        points = [*reduced_fractions(399, include_one=True), *random_dyadics(2000, 19)]
        for x in points:
            if not x:
                continue
            got = _gauss_pair(*pair(x))
            assert got == pair(gauss_odometer_by_fractions(x)), x
            assert gauss_odometer(x) == Fraction(*got)

    def test_left_moebius_core(self):
        for x in reduced_fractions(399):
            p, q = pair(x)
            n = q // p
            got = _moebius(p, q, 1, n, n - 1)
            assert got == pair(gauss_odometer_by_fractions(x, Boundary.LEFT)), x
            assert gauss_odometer(x, Boundary.LEFT) == Fraction(*got)

    def test_restricted_moebius_core(self):
        for k in (2, 3):
            for x in reduced_fractions(250):
                w = cf_encode(x)
                if len(w) == 1 or min(w.letters) < k:
                    continue
                m = w.letters[0]
                got = _moebius(*pair(x), k, m, m - k)
                assert got == pair(moebius_by_fractions(x, k, m, m - k)), (x, k)
                assert k_gauss_odometer(x, k) == Fraction(*got)


# Each point against each domain-checked function, as the Fraction comparisons
# before the integer checks answered: the result, or "error: " and the message.
DOMAIN_POINTS = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 8),
                 Fraction(7, 8), Fraction(1, 7), Fraction(6, 7), 0, 1]
DOMAIN_ANSWERS = [
    (gauss, ["error: 0 outside (0, 1]", "0", "error: -1/2 outside (0, 1]",
             "error: 3/2 outside (0, 1]", "0", "1/7", "0", "1/6", "error: 0 outside (0, 1]", "0"]),
    (renyi, ["0", "error: 1 outside [0, 1)", "error: -1/2 outside [0, 1)",
             "error: 3/2 outside [0, 1)", "1/7", "0", "1/6", "0", "0", "error: 1 outside [0, 1)"]),
    (gauss_odometer, ["error: 0 outside (0, 1]", "1", "error: -1/2 outside (0, 1]",
                      "error: 3/2 outside (0, 1]", "21/34", "1/8", "13/21", "1/7",
                      "error: 0 outside (0, 1]", "1"]),
    (lambda x: gauss_odometer(x, Boundary.LEFT),
     ["error: 0 outside (0, 1)", "error: 1 outside (0, 1)", "error: -1/2 outside (0, 1)",
      "error: 3/2 outside (0, 1)", "13/21", "1/8", "8/13", "1/7", "error: 0 outside (0, 1)",
      "error: 1 outside (0, 1)"]),
    (lambda x: k_gauss_odometer(x, 1),
     ["error: 0 outside (0, 1/1] with continued-fraction digits >= 1", "1",
      "error: -1/2 outside (0, 1/1] with continued-fraction digits >= 1",
      "error: 3/2 outside (0, 1/1] with continued-fraction digits >= 1", "21/34", "1/8",
      "13/21", "1/7", "error: 0 outside (0, 1/1] with continued-fraction digits >= 1", "1"]),
    (renyi_odometer, ["1/2", "error: 1 outside [0, 1)", "error: -1/2 outside [0, 1)",
                      "error: 3/2 outside [0, 1)", "7/13", "1/9", "6/11", "1/8", "1/2",
                      "error: 1 outside [0, 1)"]),
    (dyadic_interval_step, ["1/2", "error: 1 outside [0, 1)", "error: -1/2 outside [0, 1)",
                            "error: 3/2 outside [0, 1)", "5/8", "1/16", "9/14", "13/56", "1/2",
                            "error: 1 outside [0, 1)"]),
    (cf_encode, ["error: 0 outside (0, 1]", "(1)", "error: -1/2 outside (0, 1]",
                 "error: 3/2 outside (0, 1]", "(8)", "(1,7)", "(7)", "(1,6)",
                 "error: 0 outside (0, 1]", "(1)"]),
    (bcf_encode, ["zero", "error: 1 outside [0, 1)", "error: -1/2 outside [0, 1)",
                  "error: 3/2 outside [0, 1)", "(2,2,2,2,2,2,2)", "(8)", "(2,2,2,2,2,2)", "(7)",
                  "zero", "error: 1 outside [0, 1)"]),
    (dyadic_encode, ["error: 0 outside (0, 1)", "error: 1 outside (0, 1)",
                     "error: -1/2 outside (0, 1)", "error: 3/2 outside (0, 1)", "(0,0,1)", "(3)",
                     "error: 1/7 is not dyadic", "error: 6/7 is not dyadic",
                     "error: 0 outside (0, 1)", "error: 1 outside (0, 1)"]),
    (question_mark, ["0", "1", "error: -1/2 outside [0, 1]", "error: 3/2 outside [0, 1]",
                     "1/128", "127/128", "1/64", "63/64", "0", "1"]),
]


@pytest.mark.parametrize("function, answers", DOMAIN_ANSWERS,
                         ids=["gauss", "renyi", "gauss_odometer", "gauss_odometer_left",
                              "k_gauss_odometer", "renyi_odometer", "dyadic_interval_step",
                              "cf_encode", "bcf_encode", "dyadic_encode", "question_mark"])
def test_integer_domain_checks_keep_results_and_messages(function, answers):
    got = []
    for x in DOMAIN_POINTS:
        try:
            got.append(str(function(x)))
        except ValueError as exc:
            got.append(f"error: {exc}")
    assert got == answers
