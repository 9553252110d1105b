"""CSV formatting: the numpy block formatter against per-value %-formatting."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdiv._csv import BLOCK_ROWS, csv_blocks


def oracle(*columns):
    """Row by row, "%.17g" for every value."""
    rows = zip(*(np.atleast_1d(c).tolist() for c in columns))
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode()


def formatted(*columns):
    return b"".join(csv_blocks(columns))


def assert_same_text(*columns):
    assert_text(formatted(*columns), oracle(*columns))


def assert_text(got, want):
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"))
        diff = [(g, w) for g, w in pairs if g != w]
        pytest.fail(f"{len(diff)} lines differ, first: {diff[:5]}")


def float_bits(*values):
    return np.array(values, dtype=np.uint64).view(np.float64)


# sha256 of the % oracle's bytes for each chunk of test_random_bit_patterns,
# as numpy 2's integers stream draws the chunks
RANDOM_CHUNK_DIGESTS = [
    "40bd5128dff93bed7767ff4198c38c64b89747a16f37b604518d24871526258c",
    "0b88129be182e20f16a1b0f6953ee8454a0185e33e31122fff8adf55f3b69b0b",
    "b862903914c81c3eb2c045e02416c74f217cc37413ec40dd05ae2d303ca5d558",
    "f8243021fc81845b9da7228660668a7bc445adfbb4e16cdad0bdb6b175a8f1d9",
    "3fbbf0379574d85819f9803bff8c8f11d416f3bb19996eaec11394714c1c535d",
    "b1fc4f615aff0352317d20e3dfed5f11afe8d689c42b17d991e38f4eeee4760b",
    "83c3e173e4eff792be0d4f9f665bba52b7a3673635994e3bbeeecb3d26d8dc76",
    "a99eb02cb226d63b1f75fd58c4641b5f907f138f543b70d1acd5a2074cfb999d",
    "788a0bc931e6b85294d9c734a22db173368022e2a40b672b53a457b4335aef87",
    "c6c1f8217b2071c3a09952be529c96968e8c751556b8d397e0daa36957cebb8a",
]


def test_random_bit_patterns():
    # 10^7 float64 bit patterns: every exponent, both signs, NaN payloads,
    # infinities and subnormals.  The oracle is one % per 10^6-value chunk,
    # run where the formatter's bytes do not hash to the oracle's pinned
    # digest: a formatter fault, or a numpy that draws other chunks
    rng = np.random.default_rng(20_260_518)
    for digest in RANDOM_CHUNK_DIGESTS:
        x = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
        got = formatted(x)
        if hashlib.sha256(got).hexdigest() != digest:
            assert_text(got, (("%.17g\n" * x.size) % tuple(x.tolist())).encode())


def test_powers_of_ten_and_their_neighbours():
    # log10 rounds near powers of ten, so the first exponent guess is off
    # by one on one side or the other of many of these
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_same_text(x)
    assert_same_text(-x)


def decade_round_ups():
    """Doubles just below 10**m whose 17-digit rounding is 10**m itself, and those powers."""
    below, powers = [], []
    for m in range(-307, 309):
        power = Fraction(10) ** m
        x = float(power)
        if Fraction(x) >= power:
            x = math.nextafter(x, 0.0)
        if power - Fraction(x) <= Fraction(10) ** (m - 17) / 2:
            below.append(x)
            powers.append(power)
    return below, powers


def test_values_that_round_up_across_a_decade():
    below, powers = decade_round_ups()
    assert len(below) >= 10
    lines = formatted(np.array(below)).split()
    assert [Fraction(line.decode()) for line in lines] == powers
    assert_same_text(np.array(below + [9.9999999999999999e16]))


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_a_log10_one_ulp_off_still_prints_exactly(monkeypatch, direction):
    # another libm may round log10 the other way near powers of ten; a k
    # one off must fall back to "%", never print a wrong digit
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a, out=None: np.nextafter(log10(a), direction, out=out))
    powers = np.array([float(f"1e{e}") for e in range(-279, 280)])
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), decade_round_ups()[0]])
    assert_same_text(x, -x)


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
    assert_same_text(x, np.arange(x.size, dtype=float))


def test_integral_floats_print_their_integer_digits():
    # below 2**53 every integer is a float, and its "%.17g" is its "%d"
    v = [0, 1, 9, 10, 65_535, 65_536, 10**15, 2**53 - 1, 2**53]
    assert formatted(np.array(v, dtype=float)) == "".join("%d\n" % int(i) for i in v).encode()
    steps = np.arange(200_000, dtype=float)
    assert formatted(steps, steps) == "".join("%d,%d\n" % (i, i) for i in range(200_000)).encode()


# one short of, at and one past a block boundary, eight or sixteen blocks
# in, so that each size also runs the reused buffers through many blocks
@pytest.mark.parametrize("n", [8 * BLOCK_ROWS - 1, 8 * BLOCK_ROWS, 8 * BLOCK_ROWS + 1, 16 * BLOCK_ROWS + 1])
def test_block_boundaries(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    steps = np.arange(n, dtype=float)
    blocks = list(csv_blocks([steps, x]))
    assert len(blocks) == -(-n // BLOCK_ROWS)
    assert all(b.count(b"\n") == BLOCK_ROWS for b in blocks[:-1])
    assert b"".join(blocks) == oracle(steps, x)
    # a range column is formatted as its float64 array, one block's rows at a time
    assert b"".join(csv_blocks([range(n), x])) == b"".join(blocks)
    assert b"".join(csv_blocks([x, range(3, 3 * n + 3, 3)])) == oracle(x, np.arange(3, 3 * n + 3, 3, dtype=float))


# the longest texts: through the digit path, through "%" (below 1e-280) and in fixed notation
LONGEST = [-1.2345678901234567e-200, -1.2345678901234567e-300, -0.00012345678901234567]


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("long_first", [True, False])
def test_blocks_after_a_block_of_other_lengths_keep_none_of_its_bytes(columns, long_first):
    # every block of a call reuses the buffers of the block before it: a
    # block of the shortest texts after one of the longest, a short last
    # block included, must keep none of the longer texts' bytes, and the reverse
    long, short = np.resize(LONGEST, BLOCK_ROWS + 3), np.resize([0.0, 1.0], BLOCK_ROWS + 3)
    first, second = (long, short) if long_first else (short, long)
    x = np.concatenate([first[:BLOCK_ROWS], second])
    assert len(list(csv_blocks([x]))) == 3
    assert_same_text(*[x, -x, x[::-1]][:columns])


def test_memory_stays_within_a_bound_set_by_the_block_size():
    # per row of one block, a call holds 16 eight-byte numbers and 2 flags,
    # 32 bytes of text per column, and at most two yielded blocks as long
    # (translate's result before it shrinks, and the block the caller still
    # holds); 1 MiB more covers numpy's cast buffers and the "%" path.  The
    # bound does not grow with the row count.
    rng = np.random.default_rng(9)
    formatted(np.array([1.5]))  # builds the lookup tables
    for rows, columns in ((10**6, 1), (2 * 10**5, 3)):
        cols = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(columns)]
        tracemalloc.start()
        try:
            for block in csv_blocks(cols):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_ROWS * (16 * 8 + 2 + 3 * 32 * columns) + 2**20


def test_three_float_columns_and_an_empty_input():
    rng = np.random.default_rng(5)
    cols = [np.exp(rng.uniform(-700, 700, 50_000)) for _ in range(3)]
    assert_same_text(*cols)
    assert formatted(np.array([])) == formatted(range(0)) == b""
    assert formatted(2.5) == b"2.5\n"


def test_rejects_columns_it_cannot_print_exactly():
    for dtype in (np.int64, np.int32, np.uint64, np.complex128):
        with pytest.raises(TypeError):
            formatted(np.ones(3), np.ones(3, dtype=dtype))


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
ints = st.integers(min_value=-(2**53), max_value=2**53)


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
    # float columns, some of them integral floats that must print as "%d"
    arrays = [np.array(c, dtype=np.float64) for c in columns]
    want = "".join(
        ",".join(format(v, ".17g") if isinstance(v, float) else "%d" % v for v in row) + "\n"
        for row in zip(*columns)
    ).encode()
    assert formatted(*arrays) == want
