"""The one CSV row format of the package's data files: every value as
"%.17g" % v, which round-trips floats and prints integers below 2**53 in
full. fields() gets CPython's bytes from numpy, exactly for 0 and
1e-4 <= |v| < 1e14: with v = m 2**(e-53) (frexp) and X = floor(log10 |v|),
the digits D = m 5**s 2**(e-53+s), s = 16 - X, are rounded half to even in
26-bit limbs of int64 (5**21 < 2**49), X is stepped when D is outside
[10**16, 10**17), and they print in fixed notation without trailing
fraction zeros. Other values go through "%.17g" % v, once per distinct value.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

CHUNK = 16384  # rows formatted at a time


def write_rows(fh: TextIO, header: str, rows) -> None:
    """Write the header line, then one line per row of the 2-d array rows,
    CHUNK rows at a time."""
    fh.write(header + "\n")
    rows = np.asarray(rows, dtype=float)
    for i in range(0, len(rows) if rows.size else 0, CHUNK):
        write_fields(fh, [fields(col) for col in rows[i:i + CHUNK].T])


def write_fields(fh: TextIO, cols) -> None:
    """Write row i as row i of each of cols (from fields), comma-joined."""
    sep = np.full((len(cols[0]), 1), ord(","), dtype=np.uint8)
    lines = np.concatenate([a for c in cols for a in (c, sep)], axis=1)
    lines[:, -1] = ord("\n")
    fh.write(lines.tobytes().translate(None, b"\0").decode("ascii"))


def _round17(m, e, x):
    """round(m 5**s 2**(e-53+s)) half to even, s = 16 - x, 2**52 <= m <
    2**53, k = 53 - e - s in [1, 52): the product is hi 2**52 + lo."""
    s = 16 - x
    p, k = np.take([5 ** i for i in range(22)], s), 53 - e - s
    m0, m1, p0, p1 = m & 0x3FFFFFF, m >> 26, p & 0x3FFFFFF, p >> 26
    mid = m1 * p0 + m0 * p1
    lo = ((mid & 0x3FFFFFF) << 26) + m0 * p0
    lo, hi = lo & (1 << 52) - 1, m1 * p1 + (mid >> 26) + (lo >> 52)
    d = (hi << (52 - k)) + (lo >> k)
    rem, half = lo & ((1 << k) - 1), 1 << (k - 1)
    return d + ((rem > half) | ((rem == half) & (d & 1 == 1)))


def fields(values) -> np.ndarray:
    """Row i holds "%.17g" % values[i] (not empty) in NUL-padded bytes."""
    v = np.asarray(values, dtype=float).ravel()
    n, a = len(v), np.abs(v)
    exact = (a >= 1e-4) & (a < 1e14)
    f, e = np.frexp(np.where(exact, a, 1.0))  # the rest is replaced below
    m, e = (f * 2.0 ** 53).astype(np.int64), e.astype(np.int64)
    x = np.floor(np.log10(np.where(exact, a, 1.0))).astype(np.int64)
    d = _round17(m, e, x)
    bad = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    x[bad] += np.where(d[bad] < 10 ** 16, -1, 1)
    d[bad] = _round17(m[bad], e[bad], x[bad])
    d[a == 0] = 0  # x is 0 there: "0"
    # quad: the ASCII digits of 0..9999, then with trailing zeros as NUL
    t = np.arange(100)
    pair = (t // 10 + 48) | (t % 10 + 48) << 8
    bare = np.where(t % 10 > 0, pair, np.where(t > 0, t // 10 + 48, 0))
    quad = np.concatenate([pair[:, None] | pair << 16, np.where(
        t > 0, pair[:, None] | bare << 16, bare[:, None])]).astype(np.uint32)
    # D is d0 and four groups of four digits; a group with nothing nonzero
    # after it reads the stripped half of quad
    g = np.empty((n, 4), dtype=np.int64)
    top = d // 10 ** 12
    rest = d - top * 10 ** 12
    d0 = top // 10 ** 4
    g[:, 0] = top - d0 * 10 ** 4 + (rest == 0) * 10 ** 4
    g[:, 1] = rest // 10 ** 8
    rest -= g[:, 1] * 10 ** 8
    g[:, 2] = rest // 10 ** 4
    g[:, 3] = rest - g[:, 2] * 10 ** 4 + 10 ** 4
    g[:, 1] += (rest == 0) * 10 ** 4
    g[:, 2] += (g[:, 3] == 10 ** 4) * 10 ** 4
    # src: "0000", d0 and the groups, NUL around; its 34 bytes from x + 4
    # on put digit x in column 13, digit x + 1 in column 14
    src = np.zeros((n, 51), dtype=np.uint8)
    src[:, 13:17], src[:, 17] = 48, d0 + 48
    np.ndarray(n, "V16", src, 18, 51)[...] = np.take(
        quad.ravel(), g).view("V16").ravel()
    win = np.ndarray(n * 51 - 33, "V34", src, 0, 1)[
        np.arange(0, n * 51, 51) + x + 4].view(np.uint8).reshape(n, 34)
    # out: four columns, 14 integer columns, the point, 20 fraction columns;
    # the four columns before the first digit are cleared of src's '0's
    out = np.zeros((n, 40), dtype=np.uint8)
    out[:, 5:19], out[:, 20:] = win[:, :14], win[:, 14:]
    out[:, 19] = (out[:, 20] != 0) * ord(".")
    start = 18 - np.maximum(x, 0)
    np.ndarray(n * 40 - 3, "V4", out, 0, 1)[
        np.arange(0, n * 40, 40) + start - 4] = b"\0\0\0\0"
    ints = np.flatnonzero(out[:, 20] == 0)  # stripped zeros of an integer
    out[ints, 5:19] |= (np.arange(5, 19) >= start[ints, None]) * np.uint8(48)
    neg = np.flatnonzero(np.signbit(v))
    out[neg, start[neg] - 1] = ord("-")
    other = np.flatnonzero(~exact & (a != 0))
    u, inv = np.unique(v[other], return_inverse=True)
    text = b"".join(("%.17g" % w).encode().ljust(40, b"\0") for w in u)
    out[other] = np.frombuffer(text, np.uint8).reshape(-1, 40)[inv]
    used = out
    while len(used) > 1:  # OR the rows together, halving each time
        used = used[:(len(used) + 1) // 2] | used[len(used) // 2:]
    used = np.flatnonzero(used[0])
    return out[:, used[0]:used[-1] + 1]
