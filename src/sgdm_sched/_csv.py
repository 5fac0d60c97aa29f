"""The CSV writer of the artifacts.

Its callers import it on first use, so a process that writes no CSV never
loads it.  CSV columns are formatted a block of rows at a time into 4-byte
words of ASCII text padded with zero bytes, and a row's text is its words
with the zero bytes dropped.  Integer columns are written as ``'%d'``
writes them, float columns as ``'%.17g'`` does.  A finite normal
x = +-m 2^q (2^52 <= m < 2^53) is rounded to 17 significant digits,
D 10^(X-16) with 10^16 <= D < 10^17, by one 64-bit multiply whose rounding
is proven per value, or else left to ``_fmt.fmt_float`` (the fast path and
exact failure check of Grisu, Loitsch, PLDI 2010, with the table-driven
fixed precision of Ryu printf, Adams, PLDI 2019):

- Table.  For each k in [_KMIN, _KMAX], built on first use from exact ints,
  P_k = floor(10^k 2^S_k) with S_k chosen so that 2^63 <= P_k < 2^64.  So
  10^k = (P_k + e_k) 2^-S_k with 0 <= e_k < 1, and e_k = 0 exactly when
  10^k 2^S_k is an integer.  T_k, the smallest double >= 10^k, follows:
  doubles in [2^(63-S_k), 2^(64-S_k)) are multiples of 2^(11-S_k), so
  T_k = ceil((P_k + e_k) / 2^11) 2^(11-S_k).
- Exponent.  2^(q+52) <= |x| < 2^(q+53) puts X = floor(log10|x|) in
  {E, E + 1} with E = floor((q + 52) log10 2), which ((q + 52) 78913) >> 18
  gives exactly for |q + 52| <= 1023.  X = E + 1 iff |x| >= 10^(E+1), and,
  |x| being a double, iff |x| >= T_(E+1).
- Undershoot.  With k = 16 - X, Z = |x| 10^k lies in [10^16, 10^17) and
  Z 2^t = m P_k + m e_k with t = S_k - q.  The 128-bit product m P_k, built
  from 32-bit limbs, is below Z 2^t by m e_k, in [0, m).  As m P_k is in
  [2^115, 2^117) and Z in [2^53, 2^57), t is in [59, 63], so N = m P_k >> t
  and F = m P_k mod 2^t each fit a 64-bit word.
- Undecided window.  The fraction of Z is (F + m e_k) / 2^t, and
  m < 2^53 <= 2^(t-1) / 64.  If F > 2^(t-1), it is above 1/2 (or F + m e_k
  reaches 2^t, and Z is N + 1 plus less than 1/2): D = N + 1.  If
  F + m [e_k > 0] < 2^(t-1), it is below 1/2: D = N.  Otherwise, when
  F <= 2^(t-1) <= F + m [e_k > 0], which holds for every exact tie, the
  rounding is undecided and the value goes to ``fmt_float``, as do
  subnormals and +-0.
- Carry.  N >= 10^16 - 1, and N = 10^16 - 1 only when F + m e_k reaches 2^t,
  which rounds up; N < 10^17.  So D is in [10^16, 10^17], and D = 10^17 is
  the rounding carrying into the next decade: it is written as 10^16 with
  X + 1, the exponent by which ``%g`` chooses its notation.

``%.17g`` writes fixed notation for -4 <= X < 17 and d.ddd...e+-XX
otherwise, both without trailing zeros or a bare point.  The digits of D
before the point (one in exponent notation, none below 1) form an integer,
written without leading zeros; the rest, left-aligned in 16 digits, form
the fraction, written without trailing zeros.  Each comes from table words
of four digits, one division by 10^4 a word.

Adjacent float columns of a block are formatted together: their values,
taken row-major, go through one such pass of about 60 numpy operations,
and every value gets the word count of the widest, the extra words being
zero bytes that the row strip drops.  A cli-doubling trace (three float
columns after a preformatted lead) costs about 130 ns per float, against
155 ns formatted a column at a time, on a shared 2-vCPU AVX-512 host.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

import numpy as np

from . import _fmt

# Rows formatted per block: a block's work arrays are 32 KB per column.
_ROWS = 4096
# T is read at 10^(E+1), E + 1 >= -307; P at 10^(16-X), X >= -308.
_KMIN, _KMAX = -307, 324


def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, np.uint32)


@functools.cache
def _powers():
    """P_k, S_k, T_k and [e_k > 0] of the module docstring, for k from _KMIN."""
    P, S, exact = [], [], []
    num, den = 1, 10**-_KMIN  # 10^k = num / den
    for k in range(_KMIN, _KMAX + 1):
        c = 64 + den.bit_length()
        p, r = divmod(num << c, den)  # floor(10^k 2^c), at least 2^64
        sh = p.bit_length() - 64
        P.append(p >> sh)
        S.append(c - sh)
        exact.append(not r and not p & ((1 << sh) - 1))
        if k < 0:
            den //= 10
        else:
            num *= 10
    P, S, inexact = np.array(P, np.uint64), np.array(S, np.int64), ~np.array(exact)
    n = 309 - _KMIN  # T up to 10^308; 10^309 exceeds every double
    T = np.ldexp(((P >> 11) + ((P & 2047 != 0) | inexact))[:n].astype(np.float64), 11 - S[:n])
    return P, S, T, inexact.astype(np.uint64)


@functools.cache
def _digit_words():
    """Words of four ASCII digits of i < 10^4: at i, all four; at 10^4 + i,
    without leading zeros; at 2*10^4 + i, without trailing zeros.  And the
    %g exponent of X at X + 308 (none for -4 <= X < 17), as two words, the
    second empty for |X| < 100."""
    v, p = np.arange(10**4, dtype=np.uint16), np.array([[1000], [100], [10], [1]], np.uint16)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1) | 48
    table = np.stack([digits, digits * (v >= p), digits * (v % (10 * p) != 0)])
    exp = b"".join(b"\0" * 8 if -4 <= X < 17 else (b"e%+03d" % X).ljust(8, b"\0")
                   for X in range(-308, 309))
    return table.transpose(0, 2, 1).copy().view(np.uint32).ravel(), _words(exp).reshape(-1, 2)


# at d + 10 z, the first digit d of the fraction of 0.000ddd after z zeros;
# at 40, the point of a fraction after a nonzero integer part
_FRAC_TOP = _words(b"".join((b"0" * z + b"%d" % d).rjust(4, b"\0") if d else b"\0" * 4
                            for z in range(4) for d in range(10)) + b"\0\0\0.")
_ZERO, _ZERO_POINT = _words(b"\0\0\0" b"0" b"\0\0" b"0.")
# separator and sign at 2*sep + negative
_PREFIX = _words(b"\0\0\0\0" b"-\0\0\0" b",\0\0\0" b",-\0\0")
# at c + 1 for the last integer digit c of D, -1 <= c <= 16: 10^(16-c), 10^max(c, 0)
_SPLIT = np.array([10**17, *(10 ** (16 - c) for c in range(17))], np.uint64)
_SHIFT = np.array([1, *(10**c for c in range(17))], np.uint64)
_LOW32 = np.uint64(2**32 - 1)


def _decimal(x: np.ndarray):
    """(D, X, decided) of float64 ``x``: where ``decided``, x rounds to D 10^(X-16)
    with 10^16 <= D < 10^17, as the module docstring proves.  Elsewhere, too,
    D < 10^17 and |X| <= 308, so the layout's table reads stay in bounds."""
    P_k, S_k, T_k, inexact = _powers()
    bits = x.view(np.uint64)
    be = (bits >> 52 & 2047).astype(np.int64)  # q = be - 1075
    m = bits & 2**52 - 1 | 2**52
    E = (be - 1023) * 78913 >> 18
    X = E + (np.abs(x) >= T_k.take(E + 1 - _KMIN))
    k = 16 - X - _KMIN
    P, t = P_k.take(k), (S_k.take(k) + 1075 - be).astype(np.uint64)
    m0, m1, p0, p1 = m & _LOW32, m >> 32, P & _LOW32, P >> 32
    low, cross, cross2 = m0 * p0, m0 * p1, m1 * p0
    mid = (low >> 32) + (cross & _LOW32) + (cross2 & _LOW32)
    high = m1 * p1 + (cross >> 32) + (cross2 >> 32) + (mid >> 32)
    low = low & _LOW32 | mid << 32
    F = low & (1 << t) - 1
    half = 1 << t - 1
    up = F > half
    D = (high << 64 - t | low >> t) + up
    carry = D == 10**17
    D[carry] = 10**16
    return D, X + carry, (up | (F + m * inexact.take(k) < half)) & (be != 0)


def _integer_words(u: np.ndarray) -> list[np.ndarray]:
    """Digit words of uint64 ``u`` without leading zeros (0 gives none), most
    significant first, as many as the largest value needs."""
    quads, words = _digit_words()[0], []
    while True:
        high = u // 10**4
        words.append(quads.take(u - high * 10**4 + (high == 0) * np.uint64(10**4)))
        if not high.any():
            return words[::-1]
        u = high


def _int_words(v: np.ndarray, sep: bool) -> list[np.ndarray]:
    neg = v < 0
    u = v.astype(np.uint64)
    u[neg] = -u[neg]
    words = _integer_words(u)
    words[-1][u == 0] = _ZERO
    return [_PREFIX.take(neg + 2 * sep), *words]


def _float_words(x: np.ndarray, sep: np.ndarray) -> list[np.ndarray]:
    """Words of float64 ``x``, a value preceded by a comma where ``sep``."""
    D, X, decided = _decimal(x)
    quads, exp = _digit_words()
    fixed = np.where((X >= -4) & (X < 17), X, 0)
    c = np.maximum(fixed, -1)  # index of the last digit before the point
    split = _SPLIT.take(c + 1)
    integer = D // split
    u = (D - integer * split) * _SHIFT.take(c + 1)  # the fraction, 16 digits
    frac, low_zero = [], True
    for _ in range(4):
        high = u // 10**4
        digits = u - high * 10**4
        frac.append(quads.take(digits + low_zero * np.uint64(2 * 10**4)))
        low_zero = low_zero & (digits == 0)
        u = high
    int_words = _integer_words(integer)  # integer = 0 exactly where c < 0
    int_words[-1][c < 0] = _ZERO_POINT
    point = ~low_zero & (c >= 0)
    words = [_PREFIX.take((x < 0) + 2 * sep), *int_words,
             _FRAC_TOP.take(u.astype(np.int64) + 10 * (c - fixed) + 40 * point), *frac[::-1]]
    if (fixed != X).any():
        e = X + 308
        words += [exp[:, j].take(e) for j in range(1 if (np.abs(X) < 100).all() else 2)]
    for i in np.flatnonzero(~decided):
        text = b"," * int(sep[i]) + _fmt.fmt_float(float(x[i])).encode()
        for w, t in zip(words, _words(text.ljust(4 * len(words), b"\0"))):
            w[i] = t
    return words


def _checked(columns: Sequence, lead=None) -> list[np.ndarray]:
    cols = []
    for col in columns:
        col = np.asarray(col)
        if col.dtype.kind not in "biu":
            col = col.astype(np.float64, copy=False)
            if not np.isfinite(col).all():
                raise _fmt._non_finite(col[~np.isfinite(col)][0])
        cols.append(col)
    if len({len(c) for c in ([] if lead is None else [lead]) + cols}) > 1:
        raise ValueError("CSV columns differ in length")
    return cols


def _rows(cols: list[np.ndarray], lead: np.ndarray | None, end: bytes):
    """Yield, per block of _ROWS rows, (rows, 4 w) zero-padded ASCII rows:
    ``lead``, ``cols`` separated by commas, then ``end``."""
    n = len(lead) if lead is not None else len(cols[0]) if cols else 0
    for lo in range(0, n, _ROWS):
        yield _block([c[lo:lo + _ROWS] for c in cols],
                     None if lead is None else lead[lo:lo + _ROWS], end)


def _block(cols: list[np.ndarray], lead: np.ndarray | None, end: bytes) -> np.ndarray:
    words = [] if lead is None else [lead.view(np.uint32)]
    for is_float, run in itertools.groupby(cols, lambda col: col.dtype.kind == "f"):
        if is_float:
            # adjacent float columns are formatted row-major in one pass: each
            # value gets the run's word count, the extra words zero bytes
            x = np.column_stack(list(run))
            sep = np.broadcast_to(np.arange(x.shape[1]) + bool(words) > 0, x.shape).ravel()
            words.append(np.column_stack(_float_words(x.ravel(), sep)).reshape(len(x), -1))
        else:
            for col in run:
                words += _int_words(col, bool(words))
    words.append(np.full(len(words[0]), _words(end.ljust(4, b"\0"))[0]))
    return np.column_stack(words).view(np.uint8)


def csv_cells(columns: Sequence) -> np.ndarray:
    """The CSV rows of equal-length ``columns``, without newlines, as
    zero-padded ASCII rows (n, 4 w): the ``lead`` of ``csv_bytes``."""
    blocks = []
    for rows in _rows(_checked(columns), None, b""):
        keep = rows != 0
        length = keep.sum(axis=1)
        packed = np.zeros((len(rows), -(-length.max() // 4) * 4), np.uint8)
        packed[np.arange(packed.shape[1]) < length[:, None]] = rows[keep]
        blocks.append(packed)
    width = max((b.shape[1] for b in blocks), default=0)
    return np.concatenate([np.pad(b, ((0, 0), (0, width - b.shape[1]))) for b in blocks]
                          or [np.zeros((0, 0), np.uint8)])


def csv_bytes(header: str, columns: Sequence, lead: np.ndarray | None = None) -> bytes:
    """ASCII CSV text: the header line, then one line per row of the
    equal-length ``columns``, each line ending in a newline.

    Integer and bool columns are written as ``%d`` writes them, every other
    column as ``%.17g`` after one finiteness check per column (a non-finite
    value is a ValueError, as in ``fmt_float``).  ``lead``, when given, is
    ``csv_cells`` of the columns placed first, e.g. the shared prefix of
    several files.
    """
    parts = [header.encode(), b"\n"]
    for rows in _rows(_checked(columns, lead), lead, b"\n"):
        parts.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(parts)


def csv_text(header: str, columns: Sequence, lead: np.ndarray | None = None) -> str:
    """``csv_bytes`` as a str."""
    return csv_bytes(header, columns, lead).decode()
