"""Python's ``'%.17g'`` and ``'%.2f'`` text of whole float64 arrays, byte for byte.

``g17`` (CSV value cells) and ``f2`` (SVG coordinates) give one NUL-padded
byte row per value; ``text`` drops the NULs.  The digits are the exact
binary value's, rounded half to even as CPython's dtoa rounds them, from
the exact Dekker product (Numer. Math. 18, 1971) of the value and a power
of ten.  Python formats what the arrays do not take: exponent notation,
zeros, inf, NaN and a value next to a power of ten that lands in another
decade; for ``f2`` negatives (-0.0 too) and values from 1e6 up.
"""

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
_POW10 = 10.0 ** np.arange(21)  # exact: 5**20 < 2**53
_ZEROS = np.uint64(0x3030303030303030)  # "00000000" as a little-endian word
# the four ASCII digits of 0..9999, each as one uint32 (40 KB)
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_QUADS = _QUADS.view(np.uint32).ravel()


def _masks(lo, hi, fill=b"\xff"):
    """A 24-byte row: bytes lo to hi - 1 are fill, the others 0."""
    return bytes(lo) + fill * max(hi - lo, 0) + bytes(24 - max(lo, hi))


def _words(rows):
    """24-byte rows as three little-endian words each."""
    return np.frombuffer(b"".join(rows), "<u8").reshape(-1, 3)


# '%.17g' by e + 4 (e the decimal exponent, -4 to 16; the dot is byte e + 7):
# the integer part's bytes, and by e + 4 and the end of the digits (0 to 24)
# the fraction's and the dot, which needs a fraction; '%.2f' from byte k
_INT = _words(_masks(min(dot - 1, 6), dot) for dot in range(3, 24))
_FRAC = _words(_masks(dot + 1, end) for dot in range(3, 24) for end in range(25))
_DOTS = _words(
    _masks(dot, dot + (end > dot + 1), b".") for dot in range(3, 24) for end in range(25)
)
_LEAD = _words(_masks(k, 6) for k in range(6))[:, 0]


def cells(texts):
    """ASCII texts as a byte matrix, one NUL-padded row each."""
    array = np.array(texts, dtype="S")
    return array.view(np.uint8).reshape(array.size, array.itemsize)


def side_by_side(parts, rows: int):
    """The byte matrices of parts side by side; a str part is in every row."""
    wide = [np.broadcast_to(cells([p]), (rows, len(p))) if isinstance(p, str) else p for p in parts]
    return np.concatenate(wide, axis=1)


def text(rows) -> str:
    """The text of a byte matrix, its rows in order and every NUL dropped."""
    flat = rows.ravel()
    return flat[flat != 0].tobytes().decode()


def _split(a):
    """(high, low): a = high + low, each with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _product(a, b):
    """(hi, lo): hi = a*b rounded and hi + lo = a*b exactly, far from overflow."""
    (a1, a2), (b1, b2) = _split(a), _split(b)
    hi = a * b
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _quads(n, groups: int):
    """The ASCII digits of the int64 array n >= 0, 4·groups of them: (n.size, groups) uint32."""
    quads = np.empty((n.size, groups), np.intp)
    for g in range(groups - 1, 0, -1):
        q = n // 10_000  # numpy divides by a constant faster than divmod does
        quads[:, g], n = n - q * 10_000, q
    quads[:, 0] = n
    return np.take(_QUADS, quads)


def _by_python(rows, x, ok, form):
    bad = np.flatnonzero(~ok)
    if bad.size:
        by_python = cells([form % v for v in x[bad].tolist()])
        rows = np.pad(rows, ((0, 0), (0, max(by_python.shape[1] - rows.shape[1], 0))))
        rows[bad] = 0
        rows[bad, : by_python.shape[1]] = by_python
    return rows


def g17(x):
    """Each value's ``'%.17g'`` bytes, a row of 24 per value."""
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e17)  # fixed notation: decimal exponent -4 to 16
    a = np.where(ok, a, 1.0)
    # the exponent, or one off next to a power of ten (1e-4 <= a < 1e17 holds at the ends)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _product(a, _POW10[16 - e])  # hi >= 2**53 is even, so rint rounds ties to even
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok &= ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & (n < 10**17)  # in [10**16, 10**17)
    # a row of "0000000" and the 17 digits, to one byte on from the last that
    # is not '0' (digit ^ '0' is below 16, so no rounding to float crosses a byte)
    words = _quads(np.where(ok, n, 10**16), 6).view("<u8")
    size = (np.frexp((words[:, 1:] ^ _ZEROS).astype(float))[1] + 7) >> 3
    k = (e + 4) * 25 + np.where(size[:, 1] > 0, 16 + size[:, 1], 8 + size[:, 0])
    flat = words.ravel()
    left = flat >> 8  # each byte one down: the integer part; byte 23 takes the next row's
    left[:-1] |= flat[1:] << 56
    rows = np.take(_INT, e + 4, axis=0) & left.reshape(-1, 3)
    rows |= np.take(_FRAC, k, axis=0) & words
    rows |= np.take(_DOTS, k, axis=0)
    rows = rows.view(np.uint8)
    rows[:, 0] = np.signbit(x) * 45  # '-'
    return _by_python(rows, x, ok, "%.17g")


def f2(x):
    """Each value's ``'%.2f'`` bytes, a row of at least 9 per value."""
    x = np.asarray(x, dtype=float).ravel()
    ok = (x < 1e6) & ~np.signbit(x)  # no NaN, no negative or -0.0, cents below 1e8
    hi, lo = _product(np.where(ok, x, 0.0), 100.0)
    n = np.rint(hi)
    half = hi - n  # exact; +-0.5 where hi sits on a half and lo decides
    n += (half == 0.5) & (lo > 0.0)
    n -= (half == -0.5) & (lo < 0.0)
    ok &= n < 1e8
    word = _quads(np.where(ok, n, 0.0).astype(np.int64), 2).view("<u8").ravel()  # 8 digits
    # the integer part from its first digit not '0', or the units digit (byte 5)
    nonzero = (word ^ _ZEROS) | np.uint64(1 << 40)
    lowest = np.frexp((nonzero & (~nonzero + np.uint64(1))).astype(float))[1] - 1 >> 3
    rows = np.empty((x.size, 2), "<u8")
    rows[:, 0] = np.take(_LEAD, lowest) & word | np.uint64(0x2E << 48) | (word >> 48 & 0xFF) << 56
    rows[:, 1] = word >> 56
    return _by_python(rows.view(np.uint8)[:, :9], x, ok, "%.2f")
