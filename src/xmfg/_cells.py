"""The exact bytes of ``'%.17g' % x`` for blocks of float64 cells.

For 1e-11 < |x| < 2**53 the 17-digit integer D = round(|x| 10**s), with
s = 16 - floor(log10|x|) <= 27, comes from integer arithmetic: |x| = m 2**(e-55)
with a 55-bit m, so D is m 5**s in two uint64 limbs, shifted right by
55 - e - s bits and rounded half to even.  Each lane's text is then gathered
through a layout per sign, decimal exponent and digit count.  Zeros,
infinities and nan have layouts of their own; only |x| <= 1e-11 and
|x| >= 2**53 are written with ``%``.

A write formats its table in blocks, all in one arena made for that write:
every array whose size scales with a block is a view of it, ufuncs write
into it with ``out=``, and the next block overwrites it.  A block allocates
only the CSV bytes it returns, which belong to the caller.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest '%.17g' text: -2.2250738585072014e-308
BLOCK_CELLS = 8192  # cells formatted at once; a write's arena holds about 300 bytes a cell
_GATHER = 2048  # cells whose text is gathered at once, through a 384 KB index
_E_LO, _E_HI = -11, 15  # decimal exponents of the exact range
_CLASSES = 2 * (_E_HI - _E_LO + 1) * 17  # sign x exponent x significant digits
_ZERO, _INF, _NAN, _SLOW = _CLASSES, _CLASSES + 2, _CLASSES + 4, _CLASSES + 5
_CONST = b"\0-.e0156789naif"
_LANE = _CONST + b"ABCDEFGHIJKLMNOPQ"  # a lane's bytes: constants, then 17 digits


def _template(exp10: int, ndigits: int) -> bytes:
    """The text of a positive value with this decimal exponent and number of
    significant digits (trailing zeros dropped), with its digits as A..Q."""
    digits = _LANE[len(_CONST) :]
    if exp10 < -4:
        mantissa = digits[:1] + (b"." + digits[1:ndigits] if ndigits > 1 else b"")
        return mantissa + b"e-%02d" % -exp10
    if exp10 >= 0:
        whole, frac = digits[: exp10 + 1], digits[exp10 + 1 : ndigits]
    else:
        whole, frac = b"0", b"0" * (-exp10 - 1) + digits[:ndigits]
    return whole + (b"." + frac if frac else b"")


@functools.cache
def _tables():
    """Built on first use, so importing the package stays cheap."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(10000, 4)
    zeros = np.cumprod(quads[:, ::-1] == ord("0"), axis=1).sum(axis=1, dtype=np.uint8)  # 4 for 0000
    pow5 = np.array([5**t for t in range(28)], dtype=np.uint64)
    positive = [_template(e, nd) for e in range(_E_LO, _E_HI + 1) for nd in range(1, 18)]
    templates = positive + [b"-" + t for t in positive]
    templates += [b"0", b"-0", b"inf", b"-inf", b"nan", b""]
    offset = np.zeros(256, dtype=np.int64)
    offset[np.frombuffer(_LANE, dtype=np.uint8)] = np.arange(len(_LANE))
    layouts = offset[np.array(templates, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)]
    return quads.view("<u4").ravel(), zeros, pow5, layouts, np.frombuffer(_LANE, dtype=np.uint8)


def _rows(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """The first rows * n items of the flat buffer ``buf``, as (rows, n)."""
    return buf[: rows * n].reshape(rows, n)


class _Arena:
    """The scratch of CSV rows of text columns of ``widths`` bytes and then
    ``k`` cells, formatted ``size`` cells at a time: made once per write and
    reused by every block of it, so a block allocates only the bytes it returns."""

    def __init__(self, size: int, k: int = 1, widths=()):
        self.lanes = np.tile(_tables()[4], (size, 1))  # the constants, once; blocks write digits
        self.first = np.arange(0, self.lanes.size, self.lanes.shape[1])[:, None]  # lane starts
        self.floats, self.words = np.empty(2 * size), np.empty(7 * size, dtype=np.uint64)
        self.exp2, self.exp10 = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int64)
        self.flags, self.text = np.empty(3 * size, bool), np.empty((size, WIDTH), np.uint8)
        self.quads, self.zeros = np.empty(4 * size, np.uint32), np.empty(4 * size, np.uint8)
        self.step = max(1, size // k)  # rows per block
        starts = np.cumsum([0, *(w + 1 for w in widths)])
        row = self.row = np.empty((self.step, starts[-1] + k * (WIDTH + 1)), np.uint8)
        self.columns = [row[:, at : at + w] for at, w in zip(starts, widths)]
        self.body = row[:, starts[-1] :].reshape(self.step, k, WIDTH + 1)
        row[:, starts[1:] - 1] = self.body[:, :, WIDTH] = ord(",")  # all but the text, once
        row[:, -1] = ord("\n")
        self.index = np.empty((min(size, _GATHER), WIDTH), dtype=np.int64)
        self.mask = np.empty(row.size, dtype=bool)  # the bytes a block keeps

    def csv(self, cells: np.ndarray, *texts) -> np.ndarray:
        """The CSV rows of ``texts`` and then the float64 ``cells`` (r, k),
        r <= step, as new uint8 bytes."""
        r = cells.shape[0]
        for column, t in zip(self.columns, texts):
            column[:r] = t
        self.body[:r, :, :WIDTH] = _format(cells.reshape(-1), self).reshape(r, -1, WIDTH)
        row = self.row[:r].reshape(-1)
        return row[np.not_equal(row, 0, out=self.mask[: row.size])]


def _scaled(m: np.ndarray, exp10: np.ndarray, exp2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """round(m 5**s / 2**(k + 1)), half to even, for m < 2**55, s = 16 - exp10
    <= 27 and k = 38 + exp10 - exp2 in [0, 64], with the product held in two
    uint64 limbs.  ``u`` is (6, n) uint64 scratch; the result is its first row."""
    q, p, t, lo, hi, k = u
    _tables()[2].take(np.subtract(16, exp10, out=t.view(np.int64)), out=p, mode="clip")
    np.subtract(np.add(exp10, 38, out=k.view(np.int64)), exp2, out=k.view(np.int64))
    # m = m1 2**32 + m0 and p = p1 2**32 + p0: m p = m1 p1 2**64 + mid 2**32 + m0 p0
    np.bitwise_and(m, 0xFFFFFFFF, out=t)  # m0
    np.bitwise_and(p, 0xFFFFFFFF, out=lo)  # p0
    np.right_shift(m, 32, out=hi)  # m1
    np.multiply(t, np.right_shift(p, 32, out=p), out=q)  # m0 p1
    np.multiply(hi, p, out=p)  # m1 p1
    np.add(q, np.multiply(hi, lo, out=hi), out=q)  # mid = m0 p1 + m1 p0
    np.multiply(t, lo, out=lo)  # m0 p0
    np.add(lo, np.left_shift(q, 32, out=t), out=t)  # the low limb
    np.add(p, np.less(t, lo, out=hi), out=p)  # the high limb: the low one's carry
    np.add(p, np.right_shift(q, 32, out=q), out=p)  # and mid's upper half
    # numpy shifts by 64 give 0, which covers k = 0 and k = 64
    np.subtract(64, k, out=hi)
    np.bitwise_or(np.left_shift(p, hi, out=p), np.right_shift(t, k, out=q), out=p)  # halves
    np.not_equal(np.left_shift(t, hi, out=t), 0, out=hi)  # sticky
    np.right_shift(p, 1, out=q)
    np.bitwise_or(np.bitwise_and(q, 1, out=lo), hi, out=lo)
    np.bitwise_and(np.bitwise_and(lo, p, out=lo), 1, out=lo)
    return np.add(q, lo, out=q)


def _digits(a: np.ndarray, w: _Arena):
    """For 1e-11 < a < 2**53: the 17-digit integer D and the decimal exponent
    E with a rounded to 17 significant digits = D 10**(E - 16)."""
    n = a.size
    frac, exp2, exp10, (m, *u) = w.floats[n : 2 * n], w.exp2[:n], w.exp10[:n], _rows(w.words, 7, n)
    np.frexp(a, out=(frac, exp2))
    np.copyto(m, np.multiply(frac, 2.0**55, out=frac), casting="unsafe")
    # never above floor(log10 a), and at most one below it
    np.floor(np.subtract(np.log10(a, out=frac), 1e-9, out=frac), out=frac)
    np.copyto(exp10, frac, casting="unsafe")
    np.maximum(exp10, _E_LO, out=exp10)
    d = _scaled(m, exp10, exp2, u)
    # No rounding carries to 10**17 here: that takes a double within 5e-18
    # (relative) below a power of ten, and between 1e-11 and 2**53 there is none.
    redo = np.greater_equal(d, 10**17, out=w.flags[2 * n : 3 * n])  # the guess was one too low
    if redo.any():
        redo = np.flatnonzero(redo)
        e = exp10[redo] = exp10[redo] + 1
        d[redo] = _scaled(m[redo], e, exp2[redo], np.empty((6, redo.size), dtype=np.uint64))
    return d, exp10


def _format(x: np.ndarray, w: _Arena) -> np.ndarray:
    """``'%.17g' % v`` of the n <= size float64 values ``x`` as NUL-padded
    (n, WIDTH) rows of w's text, which the next block overwrites."""
    n = x.size
    quads, group_zeros, _, layouts, _ = _tables()
    a, (slow, neg, spare) = w.floats[:n], _rows(w.flags, 3, n)
    np.greater(np.abs(x, out=a), 1e-11, out=slow)  # the double 1e-11 is below 10**-11
    np.logical_not(np.logical_and(slow, np.less(a, 2.0**53, out=spare), out=slow), out=slow)
    np.copyto(a, 1.0, where=slow)  # slow is True for nan
    d, exp10 = _digits(a, w)

    words = _rows(w.words, 7, n)  # d is row 1
    high, top, groups = words[0], words[2], words[3:]
    np.floor_divide(d, 10**8, out=high)
    np.floor_divide(d, 10**16, out=top)
    np.add(top, ord("0"), out=w.lanes[:n, len(_CONST)], casting="unsafe")
    np.subtract(high, np.multiply(top, 10**8, out=top), out=top)
    bottom = np.subtract(d, np.multiply(high, 10**8, out=high), out=d)
    for part, (g, rest) in ((top, groups[:2]), (bottom, groups[2:])):
        np.floor_divide(part, 10**4, out=g)
        np.subtract(part, np.multiply(g, 10**4, out=rest), out=rest)
    groups = groups.view(np.int64)
    digits = quads.take(groups, out=_rows(w.quads, 4, n), mode="clip")
    w.lanes[:n].view("<u4")[:, (len(_CONST) + 1) // 4 :] = digits.T
    # trailing zeros of each group, 4 for an all-zero one
    zeros = group_zeros.take(groups, out=_rows(w.zeros, 4, n), mode="clip")
    trailing = zeros[3]
    for j in (2, 1, 0):
        np.add(trailing, zeros[j], out=trailing, where=np.equal(trailing, 4 * (3 - j), out=spare))

    # which = (neg (E_HI - E_LO + 1) + exp10 - E_LO) 17 + 16 - trailing
    which = np.add(np.multiply(exp10, 17, out=exp10), 16 - 17 * _E_LO, out=exp10)
    np.subtract(which, trailing, out=which)
    np.add(which, 17 * (_E_HI - _E_LO + 1), out=which, where=np.signbit(x, out=neg))
    odd = np.flatnonzero(slow)
    if odd.size:
        xo, no = x[odd], neg[odd]
        kinds = [xo == 0.0, np.isinf(xo), np.isnan(xo)]
        which[odd] = np.select(kinds, [_ZERO + no, _INF + no, _NAN], _SLOW)
    text, lanes = w.text[:n], w.lanes[:n].reshape(-1)
    for i in range(0, n, _GATHER):
        j = min(n, i + _GATHER)
        index = layouts.take(which[i:j], axis=0, out=w.index[: j - i], mode="clip")
        index += w.first[i:j]  # each lane's first byte
        lanes.take(index, out=text[i:j], mode="clip")
    for i in odd[which[odd] == _SLOW]:
        cell = b"%.17g" % x[i]
        text[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return text


def cell_text(values) -> np.ndarray:
    """``'%.17g' % v`` of each float64 value as a NUL-padded (n, WIDTH) uint8 row."""
    x = np.ravel(np.asarray(values, dtype=np.float64))
    w, text = _Arena(min(x.size, BLOCK_CELLS)), np.empty((x.size, WIDTH), dtype=np.uint8)
    for i in range(0, x.size, BLOCK_CELLS):
        text[i : i + BLOCK_CELLS] = _format(x[i : i + BLOCK_CELLS], w)
    return text


def int_text(values) -> np.ndarray:
    """Decimal text of each integer as a NUL-padded (n, w) uint8 row."""
    text = np.array([b"%d" % v for v in values], dtype="S")
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def csv_rows(cells, *texts) -> bytes:
    """CSV rows: the NUL-padded uint8 text columns ``texts``, then the float64
    ``cells`` (rows, k) as '%.17g', joined by ',' and ended by a newline."""
    cells = np.asarray(cells, dtype=np.float64)
    w = _Arena(min(cells.size, BLOCK_CELLS), cells.shape[1], [t.shape[1] for t in texts])
    blocks = [slice(i, i + w.step) for i in range(0, cells.shape[0], w.step)]
    return b"".join(w.csv(cells[b], *(t[b] for t in texts)) for b in blocks)


def slice_rows(times, items, columns):
    """Yield the rows ``t, item, cells...`` of a slice-major table as new
    bytes, a few slices at a time: ``times`` (S,), ``items`` an (n, w) text
    column and ``columns`` float arrays of S * n cells each, slice by slice."""
    times_text = cell_text(times)
    n, total, k = items.shape[0], times_text.shape[0] * items.shape[0], len(columns)
    flat = [np.reshape(c, total) for c in columns]
    w = _Arena(min(total * k, BLOCK_CELLS), k, (WIDTH, items.shape[1]))
    cells, at, (when, what) = np.empty((w.step, k)), np.arange(w.step), np.empty((2, w.step), int)
    lead = np.empty((w.step, WIDTH), np.uint8), np.empty((w.step, items.shape[1]), np.uint8)
    for start in range(0, total, w.step):
        r = min(w.step, total - start)
        for j, c in enumerate(flat):
            cells[:r, j] = c[start : start + r]
        np.divmod(np.add(at[:r], start, out=what[:r]), n, out=(when[:r], what[:r]))
        t = times_text.take(when[:r], axis=0, out=lead[0][:r], mode="clip")
        yield w.csv(cells[:r], t, items.take(what[:r], axis=0, out=lead[1][:r], mode="clip"))
