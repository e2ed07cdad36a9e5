"""Reference oracles for every output the benchmark checks.

Standard library only, and no code shared with the library under test, so a
change to the library's own oracles (``analysis``) cannot mask a wrong
result.  Each construction takes another route than the code it checks:

* breadth-first values come from the rational son rules, addressed by the
  binary path of an index, and the bcf order from Stern's sequence computed
  least significant bit first;
* tree levels come from the son rules on words (prepend the floor, raise the
  first letter), and a word's (level, position) from walking its parents;
* word odometers on eventually periodic words are checked as 2-adic
  addition of 1 on the block expansion;
* the Gauss odometers are Euclid's algorithm, then the cyclic word step,
  then a bottom-up evaluation; codec results are checked by exact round
  trips.

No function here converts an integer to decimal text with ``str``: exact
values above CPython's 4300-digit limit are compared as integers, and the
program's decimal output is parsed in chunks below that limit.
"""

from __future__ import annotations

import csv
import io
import json
from math import gcd, lcm


class Mismatch(Exception):
    """An output differs from the oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ------------------------------------------------------------ integers, text

_CHUNK = 4000


def parse_int(text: str) -> int:
    """Decimal text to int, in chunks that stay below the str-conversion limit."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    expect(digits.isdigit() and digits.isascii(), f"not an integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i:i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_pair(text: str) -> tuple[int, int]:
    """Parse "p/q" or "p" into a pair of ints, not reduced."""
    p, slash, q = text.partition("/")
    return parse_int(p), parse_int(q) if slash else 1


def reduced(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    return p // g, q // g


def fraction_text(p: int, q: int) -> str:
    """What str(Fraction(p, q)) prints, for a reduced pair of small ints."""
    return str(p) if q == 1 else f"{p}/{q}"


def parse_letters(text: str) -> tuple[int, ...]:
    body = text.strip().strip("()")
    return tuple(parse_int(t) for t in body.split(","))


# ------------------------------------------------------------------ codecs

def euclid(p: int, q: int) -> tuple[int, ...]:
    """Continued-fraction digits of p/q in (0, 1]; canonical (last digit >= 2 unless 1)."""
    digits = []
    while p:
        a, r = divmod(q, p)
        digits.append(a)
        p, q = r, p
    return tuple(digits)


def cf_value(letters) -> tuple[int, int]:
    """1/(a1 + 1/(a2 + ...)) evaluated bottom up, as a reduced pair."""
    p, q = 0, 1
    for a in reversed(letters):
        p, q = q, a * q + p
    return p, q  # continuants are coprime


def bcf_value(letters) -> tuple[int, int]:
    """1 - 1/(a1 - 1/(a2 - ...)) evaluated bottom up, as a reduced pair."""
    num, den = letters[-1], 1
    for a in reversed(letters[:-1]):
        num, den = a * num - den, num
    return reduced(num - den, num)


def dyadic_value(letters) -> tuple[int, int]:
    bits = "".join("1" * a + "0" for a in letters[:-1]) + "1" * letters[-1]
    if not bits:
        return 0, 1
    return reduced(int(bits, 2), 1 << len(bits))


def dyadic_letters(p: int, q: int) -> tuple[int, ...]:
    """Run lengths of the binary digits of p/q (q a power of two, p odd)."""
    bits = format(p, f"0{q.bit_length() - 1}b")
    return tuple(len(run) for run in bits.split("0"))


def bcf_letters(p: int, q: int) -> tuple[int, ...]:
    """Backward continued-fraction digits of p/q in (0, 1): the engine q/(q-p)."""
    digits = []
    while True:
        a, r = divmod(q, q - p)
        if r == 0:
            return tuple(digits) + (a,)
        digits.append(a + 1)
        p, q = r, q - p


def bcf_length(p: int, q: int, limit: int) -> int:
    """Number of bcf digits of p/q, counting no further than limit + 1."""
    n = 1
    while n <= limit:
        a, r = divmod(q, q - p)
        if r == 0:
            return n
        n += 1
        p, q = r, q - p
    return n


def fusc(n: int) -> int:
    """Stern's diatomic sequence, reading n from its least significant bit."""
    a, b = 1, 0
    while n:
        if n & 1:
            b += a
        else:
            a += b
        n >>= 1
    return b


def check_word(system: str, letters, value: tuple[int, int]) -> None:
    """letters is the canonical word of the reduced rational value in system."""
    if system == "cf":
        expect(all(a >= 1 for a in letters) and (letters[-1] >= 2 or letters == (1,)),
               f"cf word {letters[:8]} not canonical")
        expect(cf_value(letters) == value, "cf word does not decode to the value")
    elif system == "bcf":
        if value == (0, 1):
            expect(letters == (), "bcf zero must have the empty word")
            return
        expect(letters and all(a >= 2 for a in letters), "bcf letters below 2")
        expect(bcf_value(letters) == value, "bcf word does not decode to the value")
    else:
        expect(letters == dyadic_letters(*value), "dyadic word differs")


SYSTEM_FLOOR = {"cf": 1, "bcf": 2, "dyadic": 0}


# ----------------------------------------------------- breadth-first values

def _bfs_son(system: str, p: int, q: int, right: bool) -> tuple[int, int]:
    if system == "cf":  # (1, w) -> 1/(1+x); (a1+1, ...) -> x/(1+x)
        return (p, p + q) if right else (q, p + q)
    # dyadic: (0, w) -> x/2; (a1+1, ...) -> (1+x)/2
    return reduced(q + p, 2 * q) if right else reduced(p, 2 * q)


def bfs_value(system: str, n: int) -> tuple[int, int]:
    """n-th value (0-based) of the cf or dyadic enumeration, from 1/2 by son rules."""
    path = n + 1
    p, q = 1, 2
    for bit in format(path, "b")[1:]:
        p, q = _bfs_son(system, p, q, bit == "1")
    return p, q


def enumeration_value(system: str, n: int) -> tuple[int, int]:
    if system == "bcf":  # from 0: s(2m)/s(2m+1)
        return fusc(2 * n), fusc(2 * n + 1)
    return bfs_value(system, n)


def check_enumerate(system: str, fmt: str, count: int, out: str) -> int:
    lines = out.splitlines()
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        expect(rows and rows[0] == ["n", "word", "value"], "csv header")
        rows = rows[1:]
        expect(len(rows) == count, f"{len(rows)} csv rows, expected {count}")
        for n, (index, text, value) in enumerate(rows):
            p, q = enumeration_value(system, n)
            expect(index == str(n) and value == f"{p}/{q}", f"csv row {n}")
            letters = () if text == "zero" else parse_letters(text)
            check_word(system, letters, (p, q))
        return count
    expect(len(lines) == count, f"{len(lines)} rows, expected {count}")
    for n, line in enumerate(lines):
        p, q = enumeration_value(system, n)
        if fmt == "plain":
            expect(line == fraction_text(p, q), f"row {n}: {line[:40]!r}")
            continue
        row = json.loads(line)
        expect(set(row) == {"n", "word", "floor", "value"}, f"json keys at row {n}")
        expect(row["n"] == n and row["floor"] == SYSTEM_FLOOR[system]
               and row["value"] == f"{p}/{q}", f"json row {n}")
        check_word(system, tuple(row["word"]), (p, q))
    return count


# ------------------------------------------------------------- word trees

def left_son(w: tuple[int, ...], floor: int) -> tuple[int, ...]:
    return (floor,) + w


def right_son(w: tuple[int, ...]) -> tuple[int, ...]:
    return (w[0] + 1,) + w[1:]


def address(w, floor: int) -> tuple[int, int]:
    """(level, position) of a word, by walking up to the root (floor)."""
    expect(len(w) >= 1 and all(a >= floor for a in w), "word below its floor")
    rev = list(reversed(w))  # rev[-1] is the first letter
    position = 0
    moves = 0
    while len(rev) > 1 or rev[0] != floor:
        if len(rev) > 1 and rev[-1] == floor:
            rev.pop()  # a left son: (floor, rest)
        else:
            rev[-1] -= 1  # a right son: first letter raised
            position |= 1 << moves
        moves += 1
    return moves + 1, position


def subtree_levels(root: tuple[int, ...], floor: int, levels: int):
    """Lists of words at depth 1..levels below root, left to right, by son rules."""
    row = [root]
    for _ in range(levels):
        yield row
        row = [son for w in row for son in (left_son(w, floor), right_son(w))]


VALUE = {"cf": cf_value, "bcf": bcf_value, "dyadic": dyadic_value}


def check_tree_plain(root, floor: int, levels: int, values: str, out: str) -> int:
    lines = out.splitlines()
    expect(len(lines) == levels, f"{len(lines)} tree lines, expected {levels}")
    rows = 0
    for depth, (line, words) in enumerate(zip(lines, subtree_levels(root, floor, levels)), 1):
        cells = line.split(" ")
        expect(len(cells) == len(words), f"level {depth} width")
        for cell, w in zip(cells, words):
            expect(cell == fraction_text(*VALUE[values](w)), f"level {depth} cell {cell[:40]!r}")
        rows += len(cells)
    return rows


def check_tree_json(root, floor: int, levels: int, values: str, out: str) -> int:
    lines = iter(out.splitlines())
    level0, pos0 = address(root, floor)
    rows = 0
    for depth, words in enumerate(subtree_levels(root, floor, levels), 1):
        base = pos0 << (depth - 1)
        for q, w in enumerate(words):
            line = next(lines, None)
            expect(line is not None, "tree json ended early")
            row = json.loads(line)
            p_, q_ = VALUE[values](w)
            expect(row == {"level": level0 + depth - 1, "pos": str(base + q),
                           "word": list(w), "floor": floor, "value": f"{p_}/{q_}"},
                   f"tree json row {rows}")
            rows += 1
    expect(next(lines, None) is None, "tree json has extra rows")
    return rows


# ------------------------------------------------------------------- orbits

def check_orbit_words(start, floor: int, steps: int, out: str) -> int:
    """Finite-word orbit under the top-down policy: breadth-first successors."""
    lines = out.splitlines()
    expect(len(lines) == steps + 1, f"{len(lines)} orbit rows, expected {steps + 1}")
    expect(parse_letters(lines[0]) == tuple(start), "orbit does not start at its start")
    level, pos = address(tuple(start), floor)
    for n, line in enumerate(lines[1:], 1):
        pos += 1
        if pos == 1 << (level - 1):
            level, pos = level + 1, 0
        expect(address(parse_letters(line), floor) == (level, pos), f"orbit row {n}")
    return len(lines)


def _parse_tail(text: str):
    pre, _, per = text.partition(";")
    split = lambda s: tuple(parse_int(t) for t in s.split(",") if t.strip())
    return split(pre), split(per)


def _expand(pre, per, n: int) -> tuple[int, ...]:
    reps = -(-max(0, n - len(pre)) // len(per))
    return (pre + per * reps)[:n]


def baire_prefix(pre, per, floor: int, n: int) -> tuple[int, ...]:
    """First letters of the odometer image, as 2-adic +1 on blocks 1^(a-floor) 0."""
    letters = _expand(pre, per, n + 2)
    bits = "".join("1" * (a - floor) + "0" for a in letters)  # least significant first
    width = len(bits)
    value = (int(bits[::-1], 2) + 1) % (1 << width)
    runs = format(value, f"0{width}b")[::-1].split("0")[:-1]  # complete blocks only
    return tuple(len(r) + floor for r in runs)[:n]


def check_orbit_tail(start: str, floor: int, steps: int, out: str) -> int:
    """Orbit of an eventually periodic word: canonical rows, each the image of the last.

    Two eventually periodic words are equal when they agree on the longer
    preperiod plus a common multiple of the periods, which bounds the prefix
    compared.
    """
    lines = out.splitlines()
    expect(len(lines) == steps + 1, f"{len(lines)} orbit rows, expected {steps + 1}")
    prev = _parse_tail(start)
    for i, line in enumerate(lines):
        pre, per = _parse_tail(line)
        expect(per and all(a >= floor for a in pre + per), f"row {i} malformed")
        expect(not any(len(per) % d == 0 and per[:d] * (len(per) // d) == per
                       for d in range(1, len(per))), f"row {i} period not primitive")
        expect(not pre or pre[-1] != per[-1], f"row {i} preperiod not shortest")
        period = lcm(len(per), len(prev[1]))
        if i == 0:
            n = max(len(pre), len(prev[0])) + period
            want = _expand(*prev, n)
        else:  # the image's preperiod is at most w1 - floor + 1 letters longer
            reach = len(prev[0]) + _expand(*prev, 1)[0] - floor + 1
            n = max(len(pre), reach) + period
            want = baire_prefix(*prev, floor, n)
        expect(_expand(pre, per, n) == want, f"orbit row {i}")
        prev = (pre, per)
    return len(lines)


def cyclic_step(w: tuple[int, ...], floor: int) -> tuple[int, ...]:
    if len(w) > 1:
        return (floor,) * (w[0] - floor) + (w[1] + 1,) + w[2:]
    return (floor,) * (w[0] - floor + 1)


def gauss_orbit(p: int, q: int, floor: int, steps: int):
    """Values of the (restricted) Gauss odometer orbit, by Euclid + cyclic step."""
    for _ in range(steps + 1):
        yield p, q
        p, q = cf_value(cyclic_step(euclid(p, q), floor))


def dyadic_odometer(p: int, q: int) -> tuple[int, int]:
    """Add 1 to the binary digits of p/q read from the first digit as 2-adic units."""
    width = q.bit_length() - 1  # q = 2^width
    digits = format(p, f"0{width}b") if width else ""
    value = int(digits[::-1], 2) + 1 if digits else 1
    out = format(value, "b")[::-1]
    return reduced(int(out, 2), 1 << len(out))


def renyi_word_orbit(letters: tuple[int, ...], steps: int):
    """Values of the backward odometer orbit, by the word step on the all-2s tail form."""
    for _ in range(steps + 1):
        yield bcf_value(letters) if letters else (0, 1)
        tail = letters[:-1] + (letters[-1] + 1,) if letters else ()
        w1, w2 = (tail + (2, 2))[:2]
        pre = list((2,) * (w1 - 2) + (w2 + 1,) + tail[2:])
        while pre and pre[-1] == 2:  # the tail is all 2s from here on
            pre.pop()
        letters = tuple(pre[:-1]) + (pre[-1] - 1,) if pre else ()


def renyi_orbit(m: int, steps: int):
    for i in range(steps + 1):
        yield fusc(2 * (m + i)), fusc(2 * (m + i) + 1)


def check_values(expected, out: str) -> int:
    """Plain orbit output: one exact value per line."""
    lines = out.splitlines()
    expected = list(expected)
    expect(len(lines) == len(expected), f"{len(lines)} rows, expected {len(expected)}")
    for n, (line, want) in enumerate(zip(lines, expected)):
        expect(parse_pair(line) == want and ("/" in line) == (want[1] != 1), f"value row {n}")
    return len(lines)


def question_mark(letters) -> tuple[int, int]:
    """Minkowski ? of the cf word, as sum of (-1)^(i+1) 2^(1 - a1 - ... - ai)."""
    total = sum(letters)
    num = 0
    s = 0
    for i, a in enumerate(letters):
        s += a
        term = 1 << (total - s)
        num += term if i % 2 == 0 else -term
    return reduced(num, 1 << (total - 1))
