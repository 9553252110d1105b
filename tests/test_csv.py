"""CSV formatting: the numpy block formatter against per-value %-formatting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdiv._csv import BLOCK_ROWS, csv_blocks


def oracle(*columns):
    """Row by row, "%d" for an integer column and "%.17g" for a float one."""
    columns = [np.atleast_1d(c) for c in columns]
    formats = ["%d" if c.dtype.kind in "iu" else "%.17g" for c in columns]
    rows = zip(*(c.tolist() for c in columns))
    return "".join(",".join(f % v for f, v in zip(formats, row)) + "\n" for row in rows).encode()


def formatted(*columns):
    return b"".join(csv_blocks(columns))


def assert_same_text(*columns):
    got, want = formatted(*columns), oracle(*columns)
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"))
        diff = [(g, w) for g, w in pairs if g != w]
        pytest.fail(f"{len(diff)} lines differ, first: {diff[:5]}")


def float_bits(*values):
    return np.array(values, dtype=np.uint64).view(np.float64)


def test_random_bit_patterns():
    # 10^7 float64 bit patterns: every exponent, both signs, NaN payloads,
    # infinities and subnormals; the oracle is one % per 10^6-value chunk
    rng = np.random.default_rng(20_260_518)
    for _ in range(10):
        x = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
        want = (("%.17g\n" * x.size) % tuple(x.tolist())).encode()
        assert formatted(x) == want


def test_powers_of_ten_and_their_neighbours():
    # log10 rounds near powers of ten, so the first exponent guess is off
    # by one on one side or the other of many of these
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_same_text(x)
    assert_same_text(-x)


def test_values_that_round_up_across_a_decade():
    # doubles just below 10**m whose 17-digit rounding is 10**m itself
    below, powers = [], []
    for m in range(-307, 309):
        power = Fraction(10) ** m
        x = float(power)
        if Fraction(x) >= power:
            x = math.nextafter(x, 0.0)
        if power - Fraction(x) <= Fraction(10) ** (m - 17) / 2:
            below.append(x)
            powers.append(power)
    assert len(below) >= 10
    lines = formatted(np.array(below)).split()
    assert [Fraction(line.decode()) for line in lines] == powers
    assert_same_text(np.array(below + [9.9999999999999999e16]))


def test_fixed_and_exponent_notation_switch():
    edges = np.array([1e-4, 1e-5, 1e16, 1e17])
    x = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    x = np.concatenate([x, [1.5e-4, 1.5e-5, 1.2345e16, 1.2345e17, 12345678901234567.0, 0.5, 1200.0, 100.0]])
    assert_same_text(x, -x)
    assert formatted(np.array([1e-4, 1e-5, 1e16, 1e17, 1200.0])) == b"0.0001\n1.0000000000000001e-05\n10000000000000000\n1e+17\n1200\n"


def exact_ties():
    """Doubles whose exact decimal expansion has 18 significant digits, the last a 5.

    x = c / 2**t (c odd, below 2**53) is exactly c * 5**t / 10**t; when
    c * 5**t has 18 digits, the 17-digit rounding of x is an exact tie.
    Returns the doubles and their 18 digits.
    """
    ties = []
    for t in range(2, 26):
        lo = -(-(10**17) // 5**t) | 1
        hi = min(10**18 // 5**t, 2**53)
        for c in range(lo, min(lo + 8, hi), 2):
            x = c / 2**t
            digits = Fraction(x) * 10**t
            assert digits.denominator == 1
            ties.append((x, str(digits.numerator)))
    return ties


def test_exact_ties_round_half_to_even():
    ties = exact_ties()
    assert len(ties) > 50
    assert all(len(digits) == 18 and digits[-1] == "5" for _, digits in ties)
    # both directions occur: the 17th digit is even (round down) or odd (up)
    assert {int(digits[16]) % 2 for _, digits in ties} == {0, 1}
    x = np.array([x for x, _ in ties])
    assert_same_text(x, -x)


def test_special_values():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308, 1e-280, 1e280])
    x = np.concatenate([x, float_bits(0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF)])
    assert_same_text(x)
    assert formatted(x[:5]) == b"0\n-0\ninf\n-inf\nnan\n"
    assert formatted(float_bits(0xFFF8000000000000)) == b"nan\n"  # sign bit set


def test_a_column_of_zeros_and_infinities():
    x = np.zeros(70_000)
    x[::3] = np.inf
    x[1::7] = -0.0
    assert_same_text(x, np.arange(x.size))


def test_integers_over_the_int64_range():
    rng = np.random.default_rng(3)
    edges = np.array([0, 1, -1, 9, 10, -10, 99, 100, 2**63 - 1, -(2**63), -(2**63) + 1, 10**18, -(10**18)], dtype=np.int64)
    v = np.concatenate([edges, rng.integers(-(2**63), 2**63, 100_000, dtype=np.int64)])
    assert_same_text(v)
    assert_same_text(np.arange(-5, 5, dtype=np.int32), np.arange(10, dtype=np.uint8))


@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_block_boundaries(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    blocks = list(csv_blocks([np.arange(n), x]))
    assert len(blocks) == -(-n // BLOCK_ROWS)
    assert all(b.count(b"\n") == BLOCK_ROWS for b in blocks[:-1])
    assert b"".join(blocks) == oracle(np.arange(n), x)


def test_three_float_columns_and_an_empty_input():
    rng = np.random.default_rng(5)
    cols = [np.exp(rng.uniform(-700, 700, 50_000)) for _ in range(3)]
    assert_same_text(*cols)
    assert formatted(np.array([])) == b""
    assert formatted(2.5) == b"2.5\n"


def test_rejects_columns_it_cannot_print_exactly():
    with pytest.raises(TypeError):
        formatted(np.array([2**64 - 1], dtype=np.uint64))
    with pytest.raises(TypeError):
        formatted(np.array([1 + 1j]))


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(floats, min_size=1, max_size=50))
def test_property_float_column(values):
    x = np.array(values, dtype=np.float64)
    assert formatted(x) == "".join(format(v, ".17g") + "\n" for v in values).encode()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.lists(st.one_of(st.lists(floats, min_size=n, max_size=n), st.lists(ints, min_size=n, max_size=n)), min_size=1, max_size=4)
))
def test_property_mixed_columns(columns):
    arrays = [np.array(c, dtype=np.float64 if isinstance(c[0], float) else np.int64) for c in columns]
    want = "".join(
        ",".join(format(v, ".17g") if isinstance(v, float) else "%d" % v for v in row) + "\n"
        for row in zip(*columns)
    ).encode()
    assert formatted(*arrays) == want
