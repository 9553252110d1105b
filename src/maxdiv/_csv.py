"""CSV text for float64 columns, byte-identical to ``"%.17g"``.

``csv_blocks`` formats the rows of some columns a block at a time with
numpy, not one value at a time in Python.  Every value owns a 32-byte slot
of four 64-bit words, each read lowest byte first:

- word 0: the sign, the "0.000" prefix of fixed notation below 1, the
  lead digit;
- words 1 and 2: the other 16 digits, those past the last shown one
  blanked, with the point shifted in;
- word 3: the digit the point pushed out of word 2, the exponent, and
  the ``,`` or ``\\n`` separator.

Unused bytes hold 0.  A block is a row-major (rows, 4 * columns) word
matrix, so its bytes in order are the CSV text with 0 bytes in between,
and ``bytearray.translate`` deletes those in one pass in C, with no mask
or index array.

A call allocates its buffers once, for its largest block, and every
block reuses them: each numpy step writes into them with ``out=``, so a
block allocates only the bytes it yields.  Fresh memory costs a page
fault per 4 KB page, which in a short CLI process costs as much as the
arithmetic on it.  BLOCK_ROWS keeps a block's working set (1.3 MB for
one column, 1.8 MB for three, and 0.35 MB of tables) inside a core's L2
cache.

The 17 significant digits of a float x are the integer
D = round(|x| * 10**(16 - k)), k = floor(log10|x|).  The product is formed
in double-double arithmetic: an exact (Dekker) product of |x| with the
leading part of a two-part table of 10**e, plus |x| times its tail, good
to ~1e-14.  So D is the correctly rounded integer unless the product lies
within 1e-9 of a half-integer.  The text then follows the ``%g`` rules:
fixed notation for -4 <= k < 17, otherwise one digit, the rest after a
point, and an exponent of at least two digits; trailing zeros and a bare
point removed.

A few values are formatted by Python's own ``"%.17g"``, once per distinct
bit pattern: 0, +-inf and NaN, magnitudes outside (1e-280, 1e280) (the
table's range, subnormals included), the near-half-integer cases whose
rounding the double-double product cannot decide, and the rare values
whose digits would take a second pass: a k that log10 misjudged (it
rounds near powers of ten), which puts the product outside
[10**16, 10**17), and a D that rounds up to 10**17 (9.99...95e(k) and up
print as 1e(k+1)).
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence

import numpy as np

BLOCK_ROWS = 8_192

# |x| formatted by the digit path: the split |x| * 134217729 and the
# scaled products stay finite and normal inside these bounds
_LO, _HI = 1e-280, 1e280
_E_MIN = -270  # the tables cover e = 16 - k in [-270, 300], by index e - _E_MIN
_E_MAX = 300
_TIE_GAP = 1e-9  # scaled values this close to a half-integer fall back

# a value's slot: four words, the first byte of each word its lowest
_WORD = np.dtype("<u8")
_SLOT = 32
_SEP = 30  # the separator's byte (byte 6 of word 3); "%" text fills those before it
_NO_POINT = 16  # the point's place among the 16 digits after the lead: none


def _word(text: bytes, at: int = 0) -> int:
    """The word whose bytes at, at + 1, ... hold text."""
    return int.from_bytes(text, "little") << 8 * at


class _Tables:
    """Lookup tables, built on first use so that importing costs nothing."""

    def __init__(self) -> None:
        hi, lo = [], []
        for e in range(_E_MIN, _E_MAX + 1):
            num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
            h = num / den  # int / int rounds correctly
            h_num, h_den = h.as_integer_ratio()
            hi.append(h)
            lo.append((num * h_den - h_num * den) / (den * h_den))
        self.pow_hi = np.array(hi)
        self.pow_lo = np.array(lo)
        self.pow_hi_hi, self.pow_hi_lo = _split(self.pow_hi)

        # by k, through the same index: the "0.000" prefix (bytes 1..5 of
        # word 0) and the exponent (bytes 1..5 of word 3), how many of the 16
        # digits after the lead come before the point (all shown), and the
        # place of the point among them (_NO_POINT for none)
        k = 16 - np.arange(_E_MIN, _E_MAX + 1, dtype=np.int64)
        exp_form = (k < -4) | (k >= 17)
        below_one = ~exp_form & (k < 0)
        self.prefix = np.zeros(k.size, dtype=np.uint64)
        self.prefix[below_one] = [_word(b"0." + b"0" * (-j - 1), 1) for j in k[below_one].tolist()]
        self.exponent = np.zeros(k.size, dtype=np.uint64)
        self.exponent[exp_form] = [_word(b"e%+03d" % j, 1) for j in k[exp_form].tolist()]
        self.before_point = np.where(exp_form, 0, np.maximum(k, 0))
        self.point = np.where(below_one, _NO_POINT, self.before_point)

        # a table per group j = 0..3 of the 16 digits after the lead: the four
        # ASCII digits of 0..9999 in bytes 0..3 and, from bit 32, how many of
        # the 16 reach the group's last nonzero digit (0 for 0000)
        g = np.arange(10_000, dtype=np.int64)
        digits, last = np.zeros_like(g), np.zeros_like(g)
        for j, place in enumerate((1000, 100, 10, 1)):
            digit = g // place % 10
            digits |= (digit + ord("0")) << 8 * j
            last[digit != 0] = j + 1  # the last nonzero digit wins
        self.groups = np.stack([digits | np.where(last > 0, last + 4 * j, 0) << 32 for j in range(4)])

        # the 16 digits after the lead are a 128-bit number split over two
        # words: masks of its low c bytes and the point as byte c, c = 0..16
        low = [(1 << 8 * c) - 1 for c in range(17)]
        dot = [_word(b".", c) for c in range(17)]
        self.low_a, self.low_b, self.dot_a, self.dot_b = (
            np.array([v & (2**64 - 1) for v in table], dtype=np.uint64)
            for table in (low, [v >> 64 for v in low], dot, [v >> 64 for v in dot])
        )

        for table in vars(self).values():
            table.setflags(write=False)


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: v = hi + lo exactly, each half with 26 significant bits."""
    c = v * 134217729.0
    hi = c - (c - v)
    return hi, v - hi


class _Scratch:
    """The buffers of one csv_blocks call, sized for its largest block.

    rows holds 16 eight-byte numbers per value: _digits leaves the table
    index and D in rows 0 and 1 and uses rows 2..12 on the way (3..12 as
    float64), then _float_text reuses every row but 0 as int64 or uint64.
    text holds the block's slots, in a bytearray that translate reads
    directly.
    """

    def __init__(self, rows: int, columns: int) -> None:
        self.rows = np.empty((16, rows), dtype=np.int64)
        self.flags = np.empty((2, rows), dtype=bool)
        self.buffer = bytearray(rows * columns * _SLOT)
        self.text = np.frombuffer(self.buffer, dtype=_WORD).reshape(rows, columns * _SLOT // 8)


def _digits(x: np.ndarray, s: _Scratch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table index i = 16 - k - _E_MIN and the 17 digits D = round(|x| *
    10**(16 - k)) of x as int64, in rows 0 and 1 of s, and a flag per value
    that is False where "%" must print it (D is then 10**16)."""
    t = _tables()
    n = x.size
    i, d, up = s.rows[:3, :n]
    a, ph, ph_hi, ph_lo, pl, a_hi, a_lo, p, err, tmp = s.rows[3:13, :n].view(np.float64)
    fast, flag = s.flags[:, :n]

    np.abs(x, out=a)
    np.greater(a, _LO, out=fast)
    fast &= np.less(a, _HI, out=flag)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=flag))
    k = np.floor(np.log10(a, out=tmp), out=tmp)
    np.subtract(16 - _E_MIN, k, out=i, casting="unsafe")  # k is integral

    # a * 10**(16 - k) in double-double, to ~1e-14: an exact product of the
    # Veltkamp halves of a and of the table's leading part, plus a times its tail
    for table, out in ((t.pow_hi, ph), (t.pow_hi_hi, ph_hi), (t.pow_hi_lo, ph_lo), (t.pow_lo, pl)):
        np.take(table, i, out=out, mode="clip")  # not "raise", which buffers out
    np.multiply(a, 134217729.0, out=a_lo)
    np.subtract(a_lo, np.subtract(a_lo, a, out=a_hi), out=a_hi)
    np.subtract(a, a_hi, out=a_lo)
    np.multiply(a, ph, out=p)
    np.multiply(a_hi, ph_hi, out=err)
    err -= p
    err += np.multiply(a_hi, ph_lo, out=tmp)
    err += np.multiply(a_lo, ph_hi, out=tmp)
    err += np.multiply(a_lo, ph_lo, out=tmp)
    err += np.multiply(a, pl, out=tmp)
    whole = np.floor(p, out=ph)
    frac = np.subtract(p, whole, out=p)  # whole + frac, |frac| < ~20
    frac += err

    up_f = np.floor(np.add(frac, 0.5, out=ph_hi), out=ph_hi)
    np.copyto(d, whole, casting="unsafe")
    np.copyto(up, up_f, casting="unsafe")
    d += up
    # the low end is tested on the unrounded product: with k one too high, a
    # product just below 10**16 can round up to it; a product at or above
    # 10**17 rounds to a D at or above it
    fast &= np.greater_equal(frac, np.subtract(1e16, whole, out=tmp), out=flag)
    fast &= np.less(d, 10**17, out=flag)
    fast &= np.less(np.abs(np.subtract(frac, up_f, out=tmp), out=tmp), 0.5 - _TIE_GAP, out=flag)
    np.copyto(d, 10**16, where=np.logical_not(fast, out=flag))
    return i, d, fast


def _float_text(x: np.ndarray, words: np.ndarray, sep: bytes, s: _Scratch) -> None:
    """Fill the (n, 4) words with the "%.17g" text of x, each followed by sep."""
    t = _tables()
    n = x.size
    i, d, fast = _digits(x, s)
    flag = s.flags[1, :n]
    rows = s.rows[:, :n]
    lead, rest, high, low, g0, g1, g2, g3 = rows[2:10]
    u = rows.view(np.uint64)  # the same rows as bit patterns

    # D = lead, then four groups of four digits
    np.floor_divide(d, 10**16, out=lead)
    np.subtract(d, np.multiply(lead, 10**16, out=rest), out=rest)
    np.floor_divide(rest, 10**8, out=high)
    np.subtract(rest, np.multiply(high, 10**8, out=low), out=low)
    for whole, first, second in ((high, g0, g1), (low, g2, g3)):
        np.floor_divide(whole, 10**4, out=first)
        np.subtract(whole, np.multiply(first, 10**4, out=second), out=second)

    # word 0: sign, "0.000" prefix, lead digit
    head = np.take(t.prefix, i, out=u[3], mode="clip")
    lead += ord("0")
    lead <<= 48
    head |= lead.view(np.uint64)
    sign = np.right_shift(x.view(np.uint64), 63, out=u[2])
    sign *= ord("-")
    np.bitwise_or(head, sign, out=words[:, 0])

    # the 16 digits after the lead as one 128-bit number of ASCII bytes,
    # digits 1-8 in a and 9-16 in b, and how many of them are shown: up to
    # the last nonzero one, and at least those before the point
    groups = rows[10:14]
    for table, g, group in zip(t.groups, (g0, g1, g2, g3), groups):
        np.take(table, g, out=group, mode="clip")
    a, b = u[14], u[15]
    for word, (first, second) in ((a, u[10:12]), (b, u[12:14])):
        np.bitwise_and(first, 0xFFFF_FFFF, out=word)
        word |= np.left_shift(second, 32, out=u[1])
    shown, last = g0, g1
    np.take(t.before_point, i, out=shown, mode="clip")
    for group in groups:
        np.maximum(shown, np.right_shift(group, 32, out=last), out=shown)

    # bytes [point, shown) move up one byte, and the point goes in the gap;
    # a point at or past the shown digits is masked off with them
    point = np.take(t.point, i, out=g2, mode="clip")
    fixed = np.minimum(point, shown, out=g3)
    moved_a, moved_b, kept_a, kept_b = u[10:14]
    np.take(t.low_a, shown, out=moved_a, mode="clip")
    np.take(t.low_b, shown, out=moved_b, mode="clip")
    np.take(t.low_a, fixed, out=kept_a, mode="clip")
    np.take(t.low_b, fixed, out=kept_b, mode="clip")
    dot_a = np.take(t.dot_a, point, out=u[4], mode="clip")
    dot_b = np.take(t.dot_b, point, out=u[5], mode="clip")
    dot_a &= moved_a
    dot_b &= moved_b
    moved_a ^= kept_a
    moved_b ^= kept_b
    for mask, word in ((moved_a, a), (kept_a, a), (moved_b, b), (kept_b, b)):
        mask &= word
    kept_a |= dot_a
    kept_b |= dot_b
    np.bitwise_or(kept_a, np.left_shift(moved_a, 8, out=u[3]), out=words[:, 1])
    kept_b |= np.left_shift(moved_b, 8, out=u[3])
    np.bitwise_or(kept_b, np.right_shift(moved_a, 56, out=u[3]), out=words[:, 2])

    # word 3: the digit pushed out of b, the exponent, the separator
    tail = np.take(t.exponent, i, out=u[3], mode="clip")
    tail |= np.right_shift(moved_b, 56, out=moved_b)
    np.bitwise_or(tail, _word(sep, _SEP - 24), out=words[:, 3])

    if not fast.all():
        slow = np.flatnonzero(~fast)
        _fallback(words.view(np.uint8), slow, x[slow])


def _fallback(slots: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """Write Python's "%.17g" of values over the bytes before the separator of their slots."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.zeros((bits.size, _SEP), dtype=np.uint8)
    for j, v in enumerate(bits.view(np.float64).tolist()):
        text = b"%.17g" % v
        texts[j, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    slots[rows, :_SEP] = texts[inverse.reshape(-1)]


def csv_blocks(columns: Sequence[np.ndarray | range]) -> Iterator[bytearray]:
    """Yield the CSV lines of float64 columns, BLOCK_ROWS rows at a time,
    each block a new bytearray.

    Each line ends in "\\n".  The bytes equal those of the %-format of
    every row, a line ``",".join("%.17g" % v for each column) + "\\n"`` at
    a time.  A range column, such as a step index, is formatted as the
    float64 array of its integers, one block's rows at a time, so it is
    never held whole.  A column of any other dtype raises TypeError.
    """
    columns = [c if isinstance(c, range) else np.atleast_1d(np.asarray(c)) for c in columns]
    for c in columns:
        if not isinstance(c, range) and c.dtype != np.float64:
            raise TypeError(f"csv_blocks formats float64 columns, got {c.dtype}")
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    size = len(columns[0])
    if not size:
        return
    s = _Scratch(min(BLOCK_ROWS, size), len(columns))
    for start in range(0, size, BLOCK_ROWS):
        n = min(BLOCK_ROWS, size - start)
        text = s.text[:n]
        for j, (c, sep) in enumerate(zip(columns, seps)):
            x = c[start : start + n]
            if isinstance(x, range):
                x = np.arange(x.start, x.stop, x.step, dtype=float)
            _float_text(x, text[:, 4 * j : 4 * j + 4], sep, s)
        s.text[n:] = 0  # a short last block: the rest of the buffer prints nothing
        yield s.buffer.translate(None, b"\0")
