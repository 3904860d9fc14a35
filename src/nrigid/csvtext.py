"""CSV text of float64 tables in both directions: written byte for byte as
``format(v, ".17g")`` writes each value, and read back exactly as ``np.loadtxt``.

The 17 significant digits of a double are computed exactly with integer
arithmetic on whole arrays: the fixed-precision case of Adams, "Ryu
revisited: printf floating point conversion" (OOPSLA 2019), with one
multiplication by a power of five in two 64-bit words in place of Ryu's
tables.  The digits are then laid out by the rules of ``%g`` through
per-value byte templates, so a table of values becomes its text in a
fixed number of numpy passes instead of one Python call per value.

Reading inverts this.  Each field's digits become an exact integer m and
a count f of digits after the point, eight digits to a 64-bit word (the
step of Lemire, "Number parsing at a gigabyte per second", Softw. Pract.
Exp. 2021).  The double m / 10**f, rounded twice, is a candidate: it is
the correctly rounded value when the writer's own digit step gives it the
field's 17 digits, or else its neighbour on the side the digits point to.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial

import numpy as np

__all__ = ["csv_rows", "csv_text"]

# Bytes read from the file at a time; each parse takes the whole rows among them.
_READ_BLOCK = 1 << 17


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


@lru_cache(maxsize=None)
def _read_tables():
    # The tables of `_parse`, built on first call.  Row L of `masks` keeps the
    # last L of a field's 24 bytes, as three words.  Byte 7 - i of `after[j]` is
    # the count of the bytes after byte 8j + i of the 24, so the top byte of word
    # j times it is that count where byte i is its one 1.  `literal` is the
    # grammar of the fields handed to `float`: the writer's other forms, on
    # which `float` and ``np.loadtxt`` agree.
    keep = np.arange(24) >= 24 - np.arange(25)[:, None]
    tables = (np.where(keep, 0xFF, 0).astype(np.uint8).view("<u8"),
              10 ** np.arange(20, dtype=np.uint64), 10.0 ** np.arange(25))
    for table in tables:
        table.flags.writeable = False
    after = tuple(int.from_bytes(bytes(range(16 - 8 * j, 24 - 8 * j)), "little") for j in range(3))
    return (*tables, after, re.compile(rb"-?(?:\d+(?:\.\d+)?(?:e[-+]\d+)?|inf)|nan"))


def _rounded(mag, k, pow5):
    # |x| 10**k rounded half to even, and whether `_scaled` could take it exactly.
    t, half, sticky, ok = _scaled(mag, k, pow5)
    return t + (half & (sticky | (t & 1))), ok


def _decimals(text, ends, size):
    """The digits m of each field of ``text`` ending at ``ends``, ``size``
    bytes after its sign, as an exact integer, the count f of them after
    its ".", and whether the field is read here: 1 to 24 digits and at
    most one "." with a digit each side, and m < 10**17.
    """
    masks, pow10, _, after, _ = _read_tables()
    # Each field right-aligned in 24 bytes, three words a field: digit values,
    # "." as 30, and 0 (a leading zero) before the field.
    words = np.ndarray((len(text) - 23, 24), np.uint8, text, 0, (1, 1))[ends - 24].view("<u8")
    words ^= 0x3030303030303030
    words &= masks.take(size, axis=0, mode="clip")
    digits = words.view(np.uint8)
    dot = (digits == 30).view("<u8")  # 1 in each byte that holds a "."
    odd = (digits > 9).view("<u8") ^ dot
    dots = ((dot[:, 0] + dot[:, 1] + dot[:, 2]) * 0x0101010101010101) >> 56
    frac = sum((dot[:, j] * after[j]) >> 56 for j in range(3)).astype(np.intp)
    dot *= 30
    words -= dot
    # Lemire's step: eight digit bytes, the first lowest, to their integer.
    for mask, scale, shift in ((2 ** 64 - 1, 2561, 8), (0x00FF00FF00FF00FF, 6553601, 16),
                               (0x0000FFFF0000FFFF, 42949672960001, 32)):
        words &= mask
        words *= scale
        words >>= shift
    # The digits with a 0 for the "." (exact where words[:, 0] < 100), then
    # without it: the digits before the "." move down one place.
    whole = words[:, 0] * 10 ** 16 + words[:, 1] * 10 ** 8 + words[:, 2]
    m = whole - 9 * dots * (whole // pow10.take(frac + 1, mode="clip")) * pow10.take(frac, mode="clip")
    fast = ((odd[:, 0] | odd[:, 1] | odd[:, 2]) == 0) & (size >= 1) & (size <= 24)
    fast &= (words[:, 0] < 100) & (m < 10 ** 17)
    fast &= (dots == 0) | ((dots == 1) & (frac >= 1) & (frac <= size - 2))
    return m, frac, fast


def _parse(text, cols, out) -> bool:
    """Parse ``text``, 24 NUL bytes and whole rows of ``cols`` fields, into the flat ``out``.

    False, with ``out`` unfinished, where a row is ragged or a field is not
    a literal of the writer.  A field [-]digits[.digits] of at most 24 bytes
    is read by whole-array integer steps, and every field they do not
    certify by `float`.
    """
    _, pow10, pow10f, _, literal = _read_tables()
    pow5 = _tables()[0]
    b = np.frombuffer(text, np.uint8)
    ends = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    if ends.size != out.size or not (b[ends[cols - 1::cols]] == ord("\n")).all():
        return False
    starts = np.concatenate([[24], ends[:-1] + 1])
    neg = b[starts] == ord("-")
    m, frac, fast = _decimals(text, ends, ends - starts - neg)
    # m / 10**f as a double, certified by its 17 digits at 10**k: those of m padded.
    pad = 17 - np.searchsorted(pow10, m, side="right")
    k = frac + pad
    want = m * pow10.take(pad, mode="clip")
    value = m.astype(np.float64) / pow10f.take(frac, mode="clip")
    mag = value.view(np.uint64)
    got, ok = _rounded(mag, k, pow5)
    exact = fast & ((m == 0) | (ok & (got == want)))
    miss = np.flatnonzero(fast & ~exact)
    if miss.size:  # the neighbour the digits point to
        near = mag[miss] + (got[miss] < want[miss]) - (got[miss] > want[miss])
        got, ok = _rounded(near, k[miss], pow5)
        hit = ok & (got == want[miss])
        mag[miss[hit]] = near[hit]
        exact[miss[hit]] = True
    mag |= neg.astype(np.uint64) << 63
    out[...] = value
    slow = np.flatnonzero(~exact)
    for i, start, end in zip(slow.tolist(), starts[slow].tolist(), ends[slow].tolist()):
        field = text[start:end]
        if not literal.fullmatch(field):
            return False
        out[i] = float(field)
    return True


def _count_rows(fh):
    # The rows in the rest of ``fh``, a last one without its "\n" included.
    rows, last, buffer = 0, b"\n", bytearray(_READ_BLOCK)
    while size := fh.readinto(buffer):
        rows, last = rows + buffer.count(b"\n", 0, size), buffer[size - 1:size]
    return rows + (last != b"\n")


def _row_blocks(fh):
    # The rest of ``fh`` in blocks of whole rows, the last one ended by "\n",
    # each after 24 NUL bytes so that no field starts before byte 24.
    pending = []
    for chunk in iter(partial(fh.read, _READ_BLOCK), b""):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([bytes(24), *pending, memoryview(chunk)[:cut]])
            pending = []
        pending.append(chunk[cut:])
    if any(pending):
        yield b"".join([bytes(24), *pending, b"\n"])


def csv_rows(fh):
    """The float64 rows of the CSV body in the binary file ``fh``, or None.

    The rows are bit for bit those of ``np.loadtxt(fh, delimiter=",",
    ndmin=2)``, read in blocks of whole rows.  None, with ``fh`` moved,
    for a body `_parse` does not read: empty, a ragged row, or a field
    that is not [-]digits[.digits][e±digits], inf, -inf or nan (such as
    "+1", " 1", ".5", "1E5", "1_0", an empty field, a CR, a comment or a
    non-ASCII byte).
    """
    start = fh.tell()
    rows = _count_rows(fh)
    if not rows:
        return None
    fh.seek(start)
    done = 0
    for block in _row_blocks(fh):
        if not done:
            cols = block.count(b",", 0, block.index(b"\n")) + 1
            out = np.empty((rows, cols))
        count = block.count(b"\n")
        if not _parse(block, cols, out[done:done + count].reshape(-1)):
            return None
        done += count
    return out if done == rows else None
