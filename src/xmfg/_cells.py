"""The exact bytes of ``'%.17g' % x`` for blocks of float64 cells.

For 1e-11 < |x| < 2**53 the 17-digit integer D = round(|x| 10**s), with
s = 16 - floor(log10|x|) <= 27, comes from integer arithmetic: |x| = m 2**(e-55)
with a 55-bit m, so D is m 5**s in two uint64 limbs, shifted right by
55 - e - s bits and rounded half to even.  Each lane's text is then gathered
through a layout per sign, decimal exponent and digit count.  Zeros,
infinities and nan have layouts of their own; only |x| <= 1e-11 and
|x| >= 2**53 are written with ``%``.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest '%.17g' text: -2.2250738585072014e-308
BLOCK_CELLS = 8192  # cells formatted at once; a block's scratch is about 3 MB
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
    zeros = np.cumprod(quads[:, ::-1] == ord("0"), axis=1).sum(axis=1)  # 4 for 0000
    pow5 = np.array([5**t for t in range(28)], dtype=np.uint64)
    positive = [_template(e, nd) for e in range(_E_LO, _E_HI + 1) for nd in range(1, 18)]
    templates = positive + [b"-" + t for t in positive]
    templates += [b"0", b"-0", b"inf", b"-inf", b"nan", b""]
    offset = np.zeros(256, dtype=np.int64)
    offset[np.frombuffer(_LANE, dtype=np.uint8)] = np.arange(len(_LANE))
    layouts = offset[np.array(templates, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)]
    return quads.view("<u4").ravel(), zeros, pow5, layouts, np.frombuffer(_LANE, dtype=np.uint8)


def _scaled(m: np.ndarray, s: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """round(m 5**s / 2**shift), half to even, for m < 2**55, s <= 27 and
    1 <= shift <= 65, with the product held in two uint64 limbs."""
    p = _tables()[2].take(s)
    m0, m1, p0, p1 = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    lo = m0 * p0
    mid = m0 * p1 + m1 * p0
    low = lo + (mid << 32)
    high = m1 * p1 + (mid >> 32) + (low < lo)
    k = shift - 1  # numpy shifts by 64 give 0, which covers k = 0 and k = 64
    halves = (high << (64 - k)) | (low >> k)
    sticky = (low << (64 - k)) != 0
    q = halves >> 1
    return q + (halves & 1 & (sticky | (q & 1)))


def _digits(a: np.ndarray):
    """For 1e-11 < a < 2**53: the 17-digit integer D and the decimal exponent
    E with a rounded to 17 significant digits = D 10**(E - 16)."""
    frac, exp2 = np.frexp(a)
    m = (frac * 2.0**55).astype(np.uint64)
    # never above floor(log10 a), and at most one below it
    exp10 = np.maximum(np.floor(np.log10(a) - 1e-9).astype(np.int64), _E_LO)
    d = _scaled(m, 16 - exp10, (39 + exp10 - exp2).astype(np.uint64))
    # No rounding carries to 10**17 here: that takes a double within 5e-18
    # (relative) below a power of ten, and between 1e-11 and 2**53 there is none.
    redo = np.flatnonzero(d >= 10**17)  # the guess was one too low
    if redo.size:
        e = exp10[redo] = exp10[redo] + 1
        d[redo] = _scaled(m[redo], 16 - e, (39 + e - exp2[redo]).astype(np.uint64))
    return d, exp10


def cell_text(values) -> np.ndarray:
    """``'%.17g' % v`` of each float64 value as a NUL-padded (n, WIDTH) uint8 row."""
    x = np.ravel(np.asarray(values, dtype=np.float64))
    n = x.size
    if n > BLOCK_CELLS:
        return np.concatenate([cell_text(x[i : i + BLOCK_CELLS]) for i in range(0, n, BLOCK_CELLS)])
    quads, group_zeros, _, layouts, lane = _tables()
    a = np.abs(x)
    fast = (a > 1e-11) & (a < 2.0**53)  # False for nan; the double 1e-11 is below 10**-11
    a[~fast] = 1.0
    d, exp10 = _digits(a)

    lanes = np.empty((n, lane.size), dtype=np.uint8)
    lanes[:] = lane  # the constants, then room for the digits
    lead, high = d // 10**16, d // 10**8
    lanes[:, len(_CONST)] = lead + ord("0")
    top, bottom = high - lead * 10**8, d - high * 10**8
    groups = np.empty((n, 4), dtype=np.uint64)
    groups[:, 0] = top // 10**4
    groups[:, 1] = top - groups[:, 0] * 10**4
    groups[:, 2] = bottom // 10**4
    groups[:, 3] = bottom - groups[:, 2] * 10**4
    lanes.view("<u4")[:, (len(_CONST) + 1) // 4 :] = quads.take(groups)
    zeros = group_zeros.take(groups)  # trailing zeros of each group, 4 for an all-zero one
    trailing = zeros[:, 3]
    for j in (2, 1, 0):
        trailing += zeros[:, j] * (trailing == 4 * (3 - j))

    neg = np.signbit(x)
    which = (neg * (_E_HI - _E_LO + 1) + (exp10 - _E_LO)) * 17 + (16 - trailing)
    odd = np.flatnonzero(~fast)
    if odd.size:
        xo, no = x[odd], neg[odd]
        kinds = [xo == 0.0, np.isinf(xo), np.isnan(xo)]
        which[odd] = np.select(kinds, [_ZERO + no, _INF + no, _NAN], _SLOW)
    index = layouts.take(which, axis=0)
    index += np.arange(0, lanes.size, lane.size)[:, None]  # each lane's first byte
    text = lanes.ravel().take(index)
    for i in odd[which[odd] == _SLOW]:
        cell = b"%.17g" % x[i]
        text[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return text


def int_text(values) -> np.ndarray:
    """Decimal text of each integer as a NUL-padded (n, w) uint8 row."""
    text = np.array([b"%d" % v for v in values], dtype="S")
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def csv_rows(cells, *texts) -> bytes:
    """CSV rows: the NUL-padded uint8 text columns ``texts``, then the float64
    ``cells`` (rows, k) as '%.17g', joined by ',' and ended by a newline."""
    cells = np.asarray(cells, dtype=np.float64)
    rows, k = cells.shape
    lead = sum(t.shape[1] + 1 for t in texts)
    out = np.empty((rows, lead + k * (WIDTH + 1)), dtype=np.uint8)  # every byte is set below
    end = 0
    for t in texts:
        out[:, end : end + t.shape[1]] = t
        end += t.shape[1] + 1
        out[:, end - 1] = ord(",")
    body = out[:, lead:].reshape(rows, k, WIDTH + 1)
    body[:, :, :WIDTH] = cell_text(cells).reshape(rows, k, WIDTH)
    body[:, :, WIDTH] = ord(",")
    out[:, -1] = ord("\n")
    return out[out != 0].tobytes()


def slice_rows(times, items, columns):
    """Yield the rows ``t, item, cells...`` of a slice-major table, a few
    slices at a time: ``times`` (S,), ``items`` an (n, w) text column and
    ``columns`` float arrays of S * n cells each, slice by slice."""
    times_text = cell_text(times)
    n, total = items.shape[0], times_text.shape[0] * items.shape[0]
    flat = [np.reshape(c, total) for c in columns]
    step = max(1, BLOCK_CELLS // len(flat))
    for start in range(0, total, step):
        r = np.arange(start, min(start + step, total))
        cells = np.stack([c[start : start + step] for c in flat], axis=1)
        yield csv_rows(cells, times_text.take(r // n, axis=0), items.take(r % n, axis=0))
