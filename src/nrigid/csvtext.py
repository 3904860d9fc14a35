"""CSV text of float64 tables, byte for byte as ``format(v, ".17g")`` writes each value.

The 17 significant digits of a double are computed exactly with integer
arithmetic on whole arrays: the fixed-precision case of Adams, "Ryu
revisited: printf floating point conversion" (OOPSLA 2019), with one
multiplication by a power of five in two 64-bit words in place of Ryu's
tables.  The digits are then laid out by the rules of ``%g`` through
per-value byte templates, so a table of values becomes its text in a
fixed number of numpy passes instead of one Python call per value.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["csv_text"]


@lru_cache(maxsize=None)
def _tables():
    # The tables of `csv_text`, built on first call.  A value's slot is 48 bytes,
    # six little-endian words: sign, "0.000", digit 0 and its ".", then digits 1-16,
    # each followed by "." (words 1-4, four digits a word), "e+XX", the separator.
    # Row 18 * (X + 11) + L of `slots` serves a decimal exponent X (-11 <= X <= 16)
    # and L significant digits: words 0 and 5 hold the bytes of %g's layout that are
    # kept, words 1-4 a 0xFF mask over the digits and "." kept, and NUL elsewhere.
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.insert(digits + ord("0"), [1, 2, 3, 4], ord("."), axis=1).astype(np.uint8)
    last = 4 - (digits[:, ::-1].cumsum(axis=1) == 0).sum(axis=1)
    lengths = np.where(digits.any(axis=1), last + 1 + 4 * np.arange(4)[:, None], 1)  # L by group
    template = np.tile(np.frombuffer(b"\0" + b"0.000\0." + b"\xff" * 32 + b"e+00" + b"\0" * 4,
                                     np.uint8), (28, 1))
    need = np.full(template.shape, 17)  # a byte is kept where need < L
    for row, x in enumerate(range(-11, 17)):
        need[row, 6:40:2] = np.where(np.arange(17) <= x, -1, np.arange(17))
        if x >= 0:
            need[row, 7 + 2 * x] = x + 1
        elif x >= -4:
            need[row, 1:2 - x] = -1  # "0." and -x-1 zeros
        else:
            need[row, [7, 40, 41, 42, 43]] = [1, -1, -1, -1, -1]
            template[row, 41:44] = np.frombuffer(b"%+03d" % x, np.uint8)
    slots = np.where(need[:, None, :] < np.arange(18)[:, None], template[:, None, :], 0)
    tables = (5 ** np.arange(28, dtype=np.uint64), quads.view("<u8").ravel(),
              lengths.astype(np.uint8).ravel(), slots.astype(np.uint8).reshape(-1, 48).view("<u8"))
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(mag, k, pow5):
    # |x| 10**k = m 5**k 2**-s for |x| = m 2**q and s = -(q + k), taken exactly as
    # a (high, low) pair of words: the integer part, the round bit, the sticky
    # bits, and where the shift s is 1 to 63 and 0 <= k <= 27 (5**27 < 2**63).
    s = 1075 - (mag >> 52) - k.astype(np.uint64)
    ok = (s - 1 < 63) & (k.astype(np.uint64) <= 27)
    s[~ok] = 1
    m, p = (mag & (2 ** 52 - 1)) | 2 ** 52, pow5.take(k, mode="clip")
    m0, m1, p0, p1 = m & (2 ** 32 - 1), m >> 32, p & (2 ** 32 - 1), p >> 32
    lo, mid = m0 * p0, m0 * p1 + m1 * p0
    low = lo + (mid << 32)
    high = m1 * p1 + (mid >> 32) + (low < lo)
    return ((high << (64 - s)) | (low >> s), (low >> (s - 1)) & 1,
            (low & ((1 << (s - 1)) - 1)) != 0, ok)


def csv_text(table) -> bytes:
    """The CSV text of ``table``'s rows, each value as ``format(v, ".17g")`` writes it.

    A finite normal |x| from about 1e-11 to 2**51 is scaled exactly: its 17
    digits are |x| 10**k rounded half to even, for k = 16 - floor(log10|x|),
    redone a decade over where log10 misses.  Bits and digits are uint64
    throughout, mixed only with Python ints, never with a signed array (the
    mix is float64).  ±0 is laid out with them, every other value by `format`.
    """
    rows, cols = table.shape
    x = table.ravel()
    pow5, quads, lengths, slots = _tables()
    bits = x.view(np.uint64)
    mag = bits & (2 ** 63 - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 16 - np.floor(np.log10(np.abs(x)))
        fast = (k >= 0) & (k <= 27) & (mag >> 52 != 0)
    zero = mag == 0
    k = np.where(fast, k, 0).astype(np.intp)
    t, half, sticky, ok = _scaled(mag, k, pow5)
    fast &= ok
    below = t < 10 ** 16
    miss = np.flatnonzero(fast & (below | (t >= 10 ** 17)))
    if miss.size:
        k[miss] += np.where(below[miss], 1, -1)
        t[miss], half[miss], sticky[miss], ok = _scaled(mag[miss], k[miss], pow5)
        fast[miss[~ok]] = False
    # No rounding reaches 10**17: the nearest double below each power of ten
    # from 1e-10 to 1e16 is at least 4.5e-17 of it away, and a round-up needs 5e-18.
    d = t + (half & (sticky | (t & 1)))
    d[zero] = 0
    row = 27 - k  # X + 11 for the decimal exponent X = 16 - k
    row[zero] = 11
    lead = d // 10 ** 16
    rest = d - lead * 10 ** 16
    upper = rest // 10 ** 8
    groups = []  # the digits after the first, four to a group (`//` is faster than `%`)
    for eight in (upper, rest - upper * 10 ** 8):
        top = eight // 10000
        groups += [top.astype(np.intp), (eight - top * 10000).astype(np.intp)]
    length = lengths.take(groups[0])
    for j in (1, 2, 3):
        np.maximum(length, lengths.take(groups[j] + 10000 * j), out=length)
    out = slots.take(row * 18 + length, axis=0)
    out[:, 0] |= ((lead + ord("0")) << 48) | (bits >> 63) * ord("-")
    for j, group in enumerate(groups):
        out[:, j + 1] &= quads.take(group)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        text = [format(v, ".17g").encode() for v in x[slow].tolist()]
        out[slow, :5] = np.array(text, dtype="S40").view("<u8").reshape(-1, 5)
        out[slow, 5] = 0
    ends = out.reshape(rows, cols, 6)[:, :, 5]
    ends |= ord(",") << 32
    ends[:, -1] ^= (ord(",") ^ ord("\n")) << 32
    return out.tobytes().translate(None, b"\0")
