import inspect
import random
from bisect import bisect_right
from fractions import Fraction
from hashlib import sha256
from itertools import islice

import pytest

from baire_odometers import analysis
from baire_odometers.analysis import (
    _STERN_LEAF,
    SUITES,
    bfs_oracle,
    distribution_test,
    enumerate_coded,
    enumerate_rationals,
    frequency_test,
    run_suite,
    stern,
    stern_oracle,
)
from baire_odometers.analysis import _cf_pair
from baire_odometers.codecs import BCF_ZERO, SYSTEMS, cf_decode, dyadic_decode, system
from baire_odometers.interval_maps import _dyadic_pair
from baire_odometers.interval_maps import question_mark, renyi_odometer
from baire_odometers.odometers import dyadic_step
from baire_odometers.word_actions import Policy, orbit, step
from baire_odometers.words import FiniteWord, tail, total_index, word


def distribution_test_by_sort(count, grid, reference="minkowski"):
    """Reference KS distance: sort the samples, bisect at every grid point."""
    samples = sorted(enumerate_rationals("cf", count))
    worst = 0.0
    for i in range(grid + 1):
        g = Fraction(i, grid)
        empirical = bisect_right(samples, g) / count
        ref = question_mark(g) if reference == "minkowski" else g
        worst = max(worst, abs(empirical - float(ref)))
    return worst


def stern_by_loop(n):
    # one addition per bit, the bits of n read from the top
    a, b = 1, 0
    for bit in format(n, "b"):
        if bit == "1":
            b += a
        else:
            a += b
    return b


def enumerate_by_decoding(name, count, offset):
    """Reference enumeration: step the word orbit and decode every word."""
    floor, _, decode = system(name)
    if name == "bcf":
        words = orbit(FiniteWord(floor, (floor,)), Policy.TOPDOWN, count)
        if offset == "zero":
            words = [BCF_ZERO, *islice(words, count - 1)]
    else:
        words = orbit(FiniteWord(floor, (floor + 1,)), Policy.SUBTREE, count)
    return [decode(w) for w in words]


def renyi_iteration(x, count):
    for _ in range(count):
        yield x
        x = renyi_odometer(x)


OFFSETS = [("cf", "root"), ("dyadic", "root"), ("bcf", "root"), ("bcf", "zero")]


class TestStern:
    def test_first_values(self):
        assert [stern(n) for n in range(16)] == [
            0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4]

    def test_recurrence(self):
        for n in range(1, 400):
            assert stern(2 * n) == stern(n)
            assert stern(2 * n + 1) == stern(n) + stern(n + 1)

    def test_consecutive_ratios_walk_calkin_wilf(self):
        # full-tree BFS: value at heap index n is s(n)/s(n+1)
        values = {1: Fraction(1, 1)}
        for n in range(1, 32):
            a, b = values[n].numerator, values[n].denominator
            values[2 * n] = Fraction(a, a + b)
            values[2 * n + 1] = Fraction(a + b, b)
        for n in range(1, 32):
            assert values[n] == Fraction(stern(n), stern(n + 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stern(-1)

    def test_matches_loop_below_5000(self):
        for n in range(5000):
            assert stern(n) == stern_by_loop(n)

    def test_matches_loop_on_long_bit_strings(self):
        rng = random.Random(20261018)
        sizes = [_STERN_LEAF + d for d in (-1, 0, 1)] + [2 * _STERN_LEAF + d for d in (-1, 0, 1)]
        sizes += [3 * _STERN_LEAF + 5, 6000, 20000, 10**5] + [rng.randrange(2, 10**5) for _ in range(3)]
        for bits in sizes:
            for n in (rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1, 1 << (bits - 1),
                      int("10" * (bits // 2), 2)):
                assert stern(n) == stern_by_loop(n), bits


class TestEnumerateRationals:
    def test_bcf_prefix(self):
        assert list(enumerate_rationals("bcf", 6)) == [
            Fraction(0), Fraction(1, 2), Fraction(1, 3),
            Fraction(2, 3), Fraction(1, 4), Fraction(3, 5)]

    def test_dyadic_prefix(self):
        assert list(enumerate_rationals("dyadic", 7)) == [
            Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 8),
            Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]

    def test_cf_prefix(self):
        assert list(enumerate_rationals("cf", 7)) == [
            Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 5),
            Fraction(2, 5), Fraction(3, 4), Fraction(1, 4)]

    def test_bcf_offsets(self):
        from_zero = list(enumerate_rationals("bcf", 5, "zero"))
        from_root = list(enumerate_rationals("bcf", 5, "root"))
        assert from_zero[0] == 0
        assert from_root == from_zero[1:] + [Fraction(3, 5)]

    @pytest.mark.parametrize("name, offset", OFFSETS)
    def test_matches_decoded_word_orbit(self, name, offset):
        # 2^15 values pass the level ends 1/a for a <= 16 (cf) and (2^a - 1)/2^a for
        # a <= 15 (dyadic), each with the row after it
        count = 1 << 15
        assert list(enumerate_rationals(name, count, offset)) == enumerate_by_decoding(
            name, count, offset)

    def test_cf_level_ends(self):
        # the word (a) of 1/a ends its level; its subtree successor starts the next
        for a in range(2, 400):
            after = cf_decode(step(FiniteWord(1, (a,)), Policy.SUBTREE))
            assert _cf_pair(1, a) == (after.numerator, after.denominator)

    def test_dyadic_level_ends(self):
        # the word (a) of (2^a - 1)/2^a ends its level; its subtree successor starts the next
        for a in range(1, 400):
            after = dyadic_decode(step(FiniteWord(0, (a,)), Policy.SUBTREE))
            assert _dyadic_pair((1 << a) - 1, 1 << a) == (after.numerator, after.denominator)

    def test_is_a_generator_function(self):
        # a traced run bills the walk's time to enumerate_rationals itself
        assert inspect.isgeneratorfunction(enumerate_rationals)
        assert inspect.isgeneratorfunction(enumerate_coded)

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_rationals("cf", 3, "zero"))
        with pytest.raises(ValueError):
            list(enumerate_rationals("cf", 3, "middle"))
        with pytest.raises(ValueError):
            list(enumerate_rationals("kepler", 3))


class TestEnumerateCoded:
    @pytest.mark.parametrize("name, offset", OFFSETS)
    def test_pairs_are_codec_pairs(self, name, offset):
        _, encode, decode = system(name)
        count = 0
        prev = None
        for w, x in enumerate_coded(name, 1 << 12, offset):
            assert decode(w) == x
            assert encode(x) == w
            index = -1 if w == BCF_ZERO else total_index(w)
            assert prev is None or index > prev
            prev = index
            count += 1
        assert count == 1 << 12

    @pytest.mark.parametrize("name, offset", OFFSETS + [(name, None) for name in SYSTEMS])
    def test_rationals_are_the_values(self, name, offset):
        pairs = list(enumerate_coded(name, 500, offset))
        assert list(enumerate_rationals(name, 500, offset)) == [x for _, x in pairs]

    def test_bcf_is_the_renyi_odometer_orbit(self):
        count = 1 << 12
        from_zero = [x for _, x in enumerate_coded("bcf", count)]
        assert from_zero == list(renyi_iteration(Fraction(0), count))
        from_root = [x for _, x in enumerate_coded("bcf", count, "root")]
        assert from_root == list(renyi_iteration(Fraction(1, 2), count))

    def test_first_words(self):
        assert [w for w, _ in enumerate_coded("bcf", 4)] == [
            BCF_ZERO, word((2,), 2), word((2, 2), 2), word((3,), 2)]
        assert [w for w, _ in enumerate_coded("cf", 3)] == [word((2,)), word((1, 2)), word((3,))]
        assert [w for w, _ in enumerate_coded("dyadic", 3)] == [
            word((1,), 0), word((0, 1), 0), word((2,), 0)]

    @pytest.mark.parametrize("name, offset", OFFSETS)
    def test_short_counts(self, name, offset):
        assert list(enumerate_coded(name, 0, offset)) == []
        assert len(list(enumerate_coded(name, 1, offset))) == 1


class TestOracles:
    def test_bfs_matches_enumeration(self):
        for system in ("cf", "bcf", "dyadic"):
            enum = list(enumerate_rationals(system, 1 << 12, "root"))
            assert enum == list(bfs_oracle(system, 1 << 12))

    def test_stern_oracle_matches_bcf(self):
        assert list(stern_oracle(1 << 12)) == list(enumerate_rationals("bcf", 1 << 12))

    def test_oracle_values_distinct_and_interior(self):
        for system in ("cf", "bcf", "dyadic"):
            values = list(islice(bfs_oracle(system, 200), 200))
            assert all(0 < x < 1 for x in values)
            assert len(set(values)) == 200


class TestAudits:
    def test_subtree_cf_orbit_has_no_duplicates(self):
        values = list(enumerate_rationals("cf", 1 << 14))
        assert len(set(values)) == len(values) == 1 << 14

    def test_multiplicity_structure(self):
        name, ok, detail = SUITES["counting"](6)[1]
        assert ok, (name, detail)
        # levels 2..6 hold 2^(s-2) values each, plus the once-seen 1
        assert detail == f"{sum(1 << (s - 2) for s in range(2, 7)) + 1} values"

    def test_multiplicity_twins_worked_example(self):
        walk = list(orbit(word((2,)), Policy.TOPDOWN, (1 << 4) - 3))
        two_thirds = [n for n, w in enumerate(walk) if cf_decode(w) == Fraction(2, 3)]
        one_third = [n for n, w in enumerate(walk) if cf_decode(w) == Fraction(1, 3)]
        assert [walk[n] for n in two_thirds] == [word((1, 1, 1)), word((1, 2))]
        assert [walk[n] for n in one_third] == [word((2, 1)), word((3,))]
        assert two_thirds[1] - two_thirds[0] == 2
        assert one_third[1] - one_third[0] == 2


class TestDistribution:
    def test_ks_small_against_minkowski(self):
        assert distribution_test(1 << 10, 256) < 0.01

    def test_ks_decreases_with_count(self):
        coarse = distribution_test(1 << 8, 128)
        fine = distribution_test(1 << 12, 128)
        assert fine <= coarse + 0.01

    def test_uniform_control_fails(self):
        assert distribution_test(1 << 10, 256, "uniform") > 0.1

    def test_reference_validation(self):
        with pytest.raises(ValueError):
            distribution_test(256, 64, "gaussian")

    @pytest.mark.parametrize("reference", ["minkowski", "uniform"])
    @pytest.mark.parametrize("grid", [1, 7, 64, 100, 1024])
    @pytest.mark.parametrize("count", [1, 2, 3, 1000, 3001] + [1 << e for e in range(8, 15)])
    def test_matches_sorted_oracle(self, count, grid, reference):
        # bit-identical floats, not merely close ones
        got = distribution_test(count, grid, reference)
        assert got.hex() == distribution_test_by_sort(count, grid, reference).hex()


class TestFrequencies:
    def test_exact_dyadic_block_frequencies(self):
        freq = frequency_test(0, 1 << 10)
        for a in range(6):
            assert freq[a] == 2.0 ** (-a - 1)

    def test_floor_three(self):
        freq = frequency_test(3, 1 << 10)
        for a in range(3, 9):
            assert abs(freq[a] - 2.0 ** (-(a - 3) - 1)) < 0.01

    def test_binary_digit_balance(self):
        # along any 2^n consecutive steps, the first binary digit is 1 half the time
        w = tail((0, 1, 1, 0, 1), (0,))
        ones = 0
        for _ in range(1 << 8):
            ones += w.letter(1)
            w = dyadic_step(w)
        assert ones == 1 << 7


# At least one fault per check: (suite, check index, module, function the check covers,
# fires(i, *args) on the i-th call (from 0), wrong(result, *args) returned then,
# text(seen, i, result) the FAIL line must hold, from every call's args, the
# first firing call and its true result).  Run at budget 4.
FAULTS = [
    ("conjugacy", 0, analysis, "dyadic_step", lambda i, w: i >= 2, lambda r, w: w,
     lambda seen, i, r: f", first at w={seen[i][0]}"),
    ("renorm", 0, analysis, "renormalization_exponent",
     lambda i, w, m, n: i >= 16 and m == n == 0, lambda r, *args: r + 1,
     lambda seen, i, r: f", first at w={seen[i][0]} m=0 n=0"),
    ("counting", 0, analysis, "total_index", lambda i, w: i >= 2, lambda r, w: r + 1,
     lambda seen, i, r: f"words (sums <= 4), first at n=2 prev={seen[1][0]} w={seen[2][0]}"),
    ("counting", 1, analysis, "cf_decode", lambda i, w: i == 2, lambda r, w: Fraction(1),
     lambda seen, i, r: "8 values, first at x=1 at=[0, 2]"),
    ("counting", 1, analysis, "cf_decode", lambda i, w: i == 3, lambda r, w: Fraction(1, 2),
     lambda seen, i, r: "8 values, first at x=1/2 at=[1, 2, 3]"),
    ("oracles", 0, analysis, "gauss_odometer", lambda i, x: x.denominator == 7,
     lambda r, x: x, lambda seen, i, r: "q <= 68, 6 mismatches, first at x=1/7"),
    ("oracles", 1, analysis, "renyi_odometer", lambda i, x: x.denominator == 7,
     lambda r, x: x, lambda seen, i, r: "q <= 68, 6 mismatches, first at x=1/7"),
    ("oracles", 2, analysis, "k_gauss_odometer", lambda i, x, k: k == 2 and x.denominator == 7,
     lambda r, x, k: x, lambda seen, i, r: "3 mismatches, first at x=1/7"),
    ("oracles", 3, analysis, "k_gauss_odometer", lambda i, x, k: k == 3 and x.denominator == 7,
     lambda r, x, k: x, lambda seen, i, r: "1 mismatches, first at x=1/7"),
    # the enumeration walks step (p, q) pairs from 1/2: call 1 makes value n=2,
    # and the fault reflects it to 1 - p/q, which keeps the walk in its domain
    *(("oracles", index, analysis, name, lambda i, p, q: i == 1,
       lambda r, p, q: (r[1] - r[0], r[1]),
       lambda seen, i, r: f"first 16 values, first at n=2 value={1 - Fraction(*r)} "
                          f"oracle={Fraction(*r)}")
      for index, name in ((4, "_cf_pair"), (5, "_renyi_pair"), (6, "_dyadic_pair"))),
    ("oracles", 7, analysis, "stern", lambda i, n: n == 4, lambda r, n: r + 1,
     lambda seen, i, r: "first 16 values, first at n=2 value=1/3 oracle=2/3"),
    ("periods", 0, analysis, "gauss_odometer", lambda i, x: x in (Fraction(1, 3), Fraction(1, 4)),
     lambda r, x: x, lambda seen, i, r: "levels 2..4, first at s=3"),
    ("distribution", 0, analysis, "question_mark", lambda i, *args: True,
     lambda r, x, *args: x, lambda seen, i, r: " over 256 samples"),
    ("distribution", 1, analysis, "_ks_distance",
     lambda i, buckets, count, reference: reference == "uniform",
     lambda r, *args: 0.0, lambda seen, i, r: "KS 0.00000"),
    ("distribution", 2, analysis, "frequency_test", lambda i, *args: True,
     lambda r, *args: {0: 1.0}, lambda seen, i, r: "max deviation 0.50000 over 256 steps"),
]


class TestSuites:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_check_passes_at_budget_2(self, name):
        checks = SUITES[name](2)
        assert checks and all(ok for _, ok, _ in checks), checks

    def test_conjugacy_cases_are_pinned(self, monkeypatch):
        # the 10,000 drawn words, whatever the budget: a faster draw must not change them
        seen = []
        real = analysis.dyadic_step

        def recording(w):
            seen.append(w)
            return real(w)

        monkeypatch.setattr(analysis, "dyadic_step", recording)
        run_suite("conjugacy", 2)
        assert len(seen) == 10_000
        digest = sha256("|".join(str(w) for w in seen).encode()).hexdigest()[:16]
        assert digest == "245b04bc377ec138"

    def test_distribution_draws_one_sample_for_both_references(self, monkeypatch):
        calls = []
        real = analysis.enumerate_rationals

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, "enumerate_rationals", counting)
        (_, _, fit), (_, _, control), _ = run_suite("distribution", 4)
        assert calls == [("cf", 256)]
        monkeypatch.undo()
        assert fit == f"KS {distribution_test(256, 1024):.5f} over 256 samples"
        assert control == f"KS {distribution_test(256, 1024, 'uniform'):.5f}"

    def test_every_check_has_a_fault(self):
        covered = {(suite, index) for suite, index, *_ in FAULTS}
        assert covered == {(name, i) for name, suite in SUITES.items()
                           for i in range(len(suite(2)))}

    @pytest.mark.parametrize("suite, index, module, function, fires, wrong, text", FAULTS,
                             ids=[f"{f[0]}-{f[1]}-{f[3]}" for f in FAULTS])
    def test_fault_fails_the_check_and_names_the_first_failing_case(
            self, monkeypatch, suite, index, module, function, fires, wrong, text):
        real = getattr(module, function)
        seen, fired = [], []

        def faulty(*args):
            result = real(*args)
            seen.append(args)
            if fires(len(seen) - 1, *args):
                fired.append((len(seen) - 1, result))
                return wrong(result, *args)
            return result

        monkeypatch.setattr(module, function, faulty)
        checks = SUITES[suite](4)
        monkeypatch.undo()
        assert fired, "the fault never fired"
        name, ok, detail = checks[index]
        assert not ok, (name, detail)
        i, result = fired[0]
        assert text(seen, i, result) in detail
