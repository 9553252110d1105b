"""CSV text for numeric columns, byte-identical to ``"%.17g"`` and ``"%d"``.

``csv_blocks`` formats the rows of some columns a block at a time with
numpy, not one value at a time in Python.  A block becomes a uint8 matrix
with one row per character slot and one column per CSV row: every value
owns a fixed run of slots, unused slots hold 0, and a ``,`` or ``\\n``
slot follows each value.  Reading the matrix row-major along the CSV
rows and dropping the 0 bytes gives the text.

The 17 significant digits of a float x are the integer
D = round(|x| * 10**(16 - k)), k = floor(log10|x|).  The product is formed
in double-double arithmetic: an exact (Dekker) product of |x| with the
leading part of a two-part table of 10**e, plus |x| times its tail, good
to ~1e-14.  So D is the correctly rounded integer unless the product lies
within 1e-9 of a half-integer.  A k off by one (log10 rounds near powers
of ten) puts the product outside [10**16, 10**17); those rows are redone
with k -/+ 1, and a D that rounds up to 10**17 becomes 10**16 at k + 1.
The text then follows the ``%g`` rules: fixed notation for -4 <= k < 17,
otherwise one digit, the rest after a point, and an exponent of at least
two digits; trailing zeros and a bare point removed.

A few values are formatted by Python's own ``"%.17g"``, once per distinct
bit pattern: 0, +-inf and NaN, magnitudes outside (1e-280, 1e280) (the
table's range, subnormals included), and the near-half-integer cases
whose rounding the double-double product cannot decide.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence

import numpy as np

BLOCK_ROWS = 65_536

# |x| formatted by the digit path: the split |x| * 134217729 and the
# scaled products stay finite and normal inside these bounds
_LO, _HI = 1e-280, 1e280
_E_MIN = -270  # 10**e is tabulated for e = 16 - k (k -/+ 1) in [-270, 300]
_E_MAX = 300
_E_OFF = -330  # exponent text is tabulated for k in [-330, 330]
_NO_EXPONENT = 1 - 2 * _E_OFF  # the table's empty column, for fixed notation
_TIE_GAP = 1e-9  # scaled values this close to a half-integer fall back

# slots per value: sign, "0.000" prefix, 17 digits with one point,
# "e" + sign + 3 exponent digits; an int64 takes a sign and 19 digits
_F_SLOTS = 1 + 5 + 18 + 5
_I_SLOTS = 1 + 19
_ZERO = np.uint8(ord("0"))
_POINT = np.uint8(ord("."))
_MINUS = np.uint8(ord("-"))


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

        # four ASCII digits of 0..9999, and the trailing-zero count of each
        g = np.arange(10_000)
        self.digits4 = np.array([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], dtype=np.uint8) + _ZERO
        tz = np.zeros(10_000, dtype=np.uint8)
        for p in (10, 100, 1000):
            tz += g % p == 0
        tz[0] = 4
        self.trailing4 = tz

        # "0.", "0.0", "0.00", "0.000" before the digits of 10**-1..10**-4
        self.prefix = np.zeros((5, 5), dtype=np.uint8)
        for j in range(1, 5):
            text = b"0." + b"0" * (j - 1)
            self.prefix[: len(text), j] = np.frombuffer(text, dtype=np.uint8)

        # "e-330" .. "e-05" .. "e+330" by k - _E_OFF, then an empty column
        self.exponent = np.zeros((5, _NO_EXPONENT + 1), dtype=np.uint8)
        for j in range(_NO_EXPONENT):
            text = b"e%+03d" % (j + _E_OFF)
            self.exponent[: len(text), j] = np.frombuffer(text, dtype=np.uint8)

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


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) as whole + frac: whole an int64, |frac| < ~20."""
    t = _tables()
    i = 16 - _E_MIN - k
    ph, ph_hi, ph_lo, pl = (np.take(table, i) for table in (t.pow_hi, t.pow_hi_hi, t.pow_hi_lo, t.pow_lo))
    a_hi, a_lo = _split(a)
    p = a * ph
    err = ((a_hi * ph_hi - p) + a_hi * ph_lo + a_lo * ph_hi) + a_lo * ph_lo
    whole = np.floor(p)
    return whole.astype(np.int64), (p - whole) + (err + a * pl)  # to ~1e-14


def _float_text(x: np.ndarray, out: np.ndarray) -> None:
    """Fill the (_F_SLOTS, n) slots out with the "%.17g" text of x."""
    t = _tables()
    a = np.abs(x)
    fast = (a > _LO) & (a < _HI)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, k)
    for step, bad in ((-1, frac < 10**16 - whole), (1, frac >= 10**17 - whole)):
        redo = np.flatnonzero(bad)
        if redo.size:
            k[redo] += step
            whole[redo], frac[redo] = _scaled(a[redo], k[redo])
    up = np.floor(frac + 0.5)
    d = whole + up.astype(np.int64)
    fast &= (frac >= 10**16 - whole) & (frac < 10**17 - whole) & (np.abs(frac - up) < 0.5 - _TIE_GAP)
    d[~fast] = 10**16
    carry = np.flatnonzero(d == 10**17)  # 9.99...95e(k) and up round to 1e(k+1)
    d[carry] = 10**16
    k[carry] += 1

    # the 17 digits: a leading one, then four groups of four
    high = d // 100_000_000
    low = (d - high * 100_000_000).astype(np.int32)
    lead = high // 100_000_000
    high = (high - lead * 100_000_000).astype(np.int32)
    g0 = high // 10_000
    g2 = low // 10_000
    groups = (g0, high - g0 * 10_000, g2, low - g2 * 10_000)
    digits = np.empty((18, x.size), dtype=np.uint8)
    digits[0] = lead
    digits[0] += _ZERO
    for j, g in enumerate(groups):
        np.take(t.digits4, g, axis=1, out=digits[1 + 4 * j : 5 + 4 * j])
    digits[17] = 0

    # significant digits once trailing zeros go (the lead digit is never 0)
    tz = [np.take(t.trailing4, g) for g in groups]
    zeros = tz[3] + (tz[3] == 4) * (tz[2] + (tz[2] == 4) * (tz[1] + (tz[1] == 4) * tz[0]))
    m = 17 - zeros.astype(np.int64)

    # body: the digits shown, with a point after the integer digits if any
    # fraction digits are left; fixed notation below 1 has its "0.000" in
    # the prefix and no point in the body
    exp_form = (k < -4) | (k >= 17)
    int_digits = np.where(exp_form, 1, np.maximum(k + 1, 0))
    shown = np.maximum(m, int_digits)
    point = np.where((shown > int_digits) & (int_digits > 0), int_digits, 18).astype(np.uint8)
    j = np.arange(18, dtype=np.uint8)[:, None]
    digits *= (j < shown.astype(np.uint8)).view(np.uint8)  # 0 past the last shown digit
    body = out[6:24]
    body[0] = digits[0]  # the point, if any, comes after one digit at least
    # row j keeps digit j before the point and takes digit j - 1 after it
    np.subtract(digits[1:], digits[:-1], out=body[1:])
    body[1:] *= (j[1:] < point).view(np.uint8)
    body[1:] += digits[:-1]
    cols = np.flatnonzero(point < 18)
    body[point[cols], cols] = _POINT

    out[0] = np.signbit(x).view(np.uint8) * _MINUS
    np.take(t.prefix, np.where(exp_form | (k >= 0), 0, -k), axis=1, out=out[1:6])
    np.take(t.exponent, np.where(exp_form, k - _E_OFF, _NO_EXPONENT), axis=1, out=out[24:29])

    slow = np.flatnonzero(~fast)
    if slow.size:
        _fallback(out, slow, x[slow])


def _fallback(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """Write Python's "%.17g" of values into the given columns of out."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.zeros((out.shape[0], bits.size), dtype=np.uint8)
    for j, v in enumerate(bits.view(np.float64).tolist()):
        text = b"%.17g" % v
        texts[: len(text), j] = np.frombuffer(text, dtype=np.uint8)
    out[:, rows] = texts[:, inverse.reshape(-1)]


def _int_text(v: np.ndarray, out: np.ndarray) -> None:
    """Fill the (_I_SLOTS, n) slots out with the "%d" text of v."""
    t = _tables()
    neg = v < 0
    u = v.view(np.uint64)
    u = np.where(neg, -u, u)  # |v| (mod 2**64), exact for -2**63 too
    top = u // np.uint64(10**16)  # 0..922
    rest = (u - top * np.uint64(10**16)).astype(np.int64)
    high = rest // 100_000_000
    low = (rest - high * 100_000_000).astype(np.int32)
    high = high.astype(np.int32)
    g0 = high // 10_000
    g2 = low // 10_000
    digits = out[1:]
    np.take(t.digits4[1:], top.astype(np.intp), axis=1, out=digits[:3])
    for j, g in enumerate((g0, high - g0 * 10_000, g2, low - g2 * 10_000)):
        np.take(t.digits4, g, axis=1, out=digits[3 + 4 * j : 7 + 4 * j])
    size = np.ones(v.size, dtype=np.uint8)  # decimal digits of |v|; 0 has one
    for p in range(1, 19):
        size += u >= np.uint64(10**p)
    digits *= (np.arange(19, dtype=np.uint8)[:, None] >= 19 - size).view(np.uint8)
    out[0] = neg.view(np.uint8) * _MINUS


def csv_blocks(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """Yield the CSV lines of the columns, BLOCK_ROWS rows at a time.

    Integer columns print as "%d", float columns as "%.17g"; each line
    ends in "\\n".  The bytes equal those of the %-format of every row, a
    line ``",".join(fmt % v for each column) + "\\n"`` at a time.
    """
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    columns = [c.astype(np.int64 if c.dtype.kind in "iu" else np.float64, casting="safe", copy=False) for c in columns]
    fills = [(_int_text, _I_SLOTS) if c.dtype.kind == "i" else (_float_text, _F_SLOTS) for c in columns]
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    size = columns[0].size
    # the pad: rows exactly 65,536 bytes apart share cache sets, and the
    # transpose below would evict its own source rows
    height, rows = sum(w + 1 for _, w in fills), min(BLOCK_ROWS, size)
    text = np.empty((height, rows + 64), dtype=np.uint8)
    lines = np.empty((rows, height), dtype=np.uint8)
    for start in range(0, size, BLOCK_ROWS):
        n = min(BLOCK_ROWS, size - start)
        row = 0
        for c, (fill, w), sep in zip(columns, fills, seps):
            fill(c[start : start + n], text[row : row + w, :n])
            text[row + w, :n] = sep
            row += w + 1
        flat = lines[:n]
        flat[...] = text[:, :n].T
        flat = flat.reshape(-1)
        yield np.compress(flat != 0, flat).tobytes()
