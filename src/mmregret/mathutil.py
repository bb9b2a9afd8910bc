"""Numerical helpers: stable binomial PMFs, normal critical values, and the
17-significant-digit text of floats.

Binomial probabilities are computed by a multiplicative recurrence (no
factorials), for many success probabilities at once: in linear space while
the probability of zero successes stays a normal double, in log space beyond
that. The inverse normal CDF is the standard library's ``NormalDist.inv_cdf``.

``fmt17`` formats one float with ``format(x, ".17g")``. ``_fmt17_cells`` gives
the same bytes for a whole array with numpy operations: it scales each value
by a power of ten held to about 105 bits, certifies the rounding to 17 digits,
lays the digits out as ``%g`` does, and sends the few values whose rounding it
cannot certify (ties and near-ties) to ``format`` itself. Its tables are built
on first use, the power-of-ten table a row at a time as exponents need them,
from integers.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

# one-sided 5% normal critical value, fixed to 4 decimals
Z_CRIT_05 = 1.6449


def binom_pmf_matrix(n: int, ps) -> np.ndarray:
    """Binomial(n, p) PMFs, one row of length n + 1 for each p in ps.

    Every row runs pmf[k+1] = pmf[k] * (n-k)/(k+1) * p/(1-p) as one cumprod
    over the rows, from whichever end keeps the odds ratio below 1 (the row of
    p > 0.5 is the reversed row of 1 - p), then is normalized to kill drift.
    A row where pmf[0] would underflow (and the running product overflow) sums
    the recurrence in logs and is scaled by its maximum before exponentiating.
    """
    ps = np.asarray(ps, dtype=float)
    inside = (ps >= 0.0) & (ps <= 1.0)  # False for NaN
    if not inside.all():
        raise ValueError(f"p={ps[~inside][0]} outside [0, 1]")
    q = np.minimum(ps, 1.0 - ps)[:, None]
    k = np.arange(n)
    factors = (n - k) / (k + 1.0) * (q / (1.0 - q))
    log0 = n * np.log1p(-q)
    out = np.empty((len(ps), n + 1))
    linear = log0[:, 0] > -700.0
    out[linear, 0] = 1.0
    out[linear, 1:] = np.cumprod(factors[linear], axis=1)
    out[linear] *= np.exp(log0[linear])
    logs = np.zeros((len(ps) - linear.sum(), n + 1))
    np.cumsum(np.log(factors[~linear]), axis=1, out=logs[:, 1:])
    out[~linear] = np.exp(logs - logs.max(axis=1, keepdims=True))
    out /= out.sum(axis=1, keepdims=True)  # > 0: a row holds out[0] > 0 or its maximum, 1
    degenerate = q[:, 0] == 0.0  # p in {0, 1}, signed zeros included
    if degenerate.any():
        out[degenerate] = 0.0
        out[degenerate, 0] = 1.0
    flip = ps > 0.5
    if flip.any():
        out[flip] = out[flip, ::-1]
    return out


def binom_pmf_vector(n: int, p: float) -> np.ndarray:
    """Return the full Binomial(n, p) PMF as an array of length n + 1: the one
    row of ``binom_pmf_matrix(n, [p])``."""
    return binom_pmf_matrix(n, [p])[0]


def one_sided_critical_value(alpha: float) -> float:
    """Upper critical value z_{1-alpha}, the standard library's inverse normal CDF
    at 1 - alpha; the 0.05 value is pinned to 1.6449."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1)")
    if 1.0 - alpha == 1.0:  # alpha below 2^-54: the critical value would be infinite
        raise ValueError(f"alpha {alpha} has no finite critical value: 1 - alpha rounds to 1")
    if alpha == 0.05:
        return Z_CRIT_05
    # imported here, not at start-up: scans at the pinned alpha = 0.05 never call this
    from statistics import NormalDist
    return NormalDist().inv_cdf(1.0 - alpha)


FMT17 = ".17g"  # 17 significant digits, '.' decimal separator


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits, '.' decimal separator."""
    return format(float(x), FMT17)


# ---------------------------------------------------------------------------
# .17g text of whole arrays
#
# A finite x != 0 is |x| = m 2^e with m in [0.5, 1) (frexp). Its 17 significant
# digits are the integer nearest to y = |x| 10^(16-X), where X = floor(log10|x|)
# puts y in [10^16, 10^17). The power of ten is a double-double hi + lo scaled
# by 2^c, and m * hi is an exact Dekker product, so y is known to within
# 2^-44; the rounding is certified where the fraction of y is farther than
# _TIE_MARGIN from 1/2. (Adams, "Ryu revisited: printf floating point
# conversion", OOPSLA 2019, computes such digits exactly from a power table.)

_POW10_MIN, _POW10_MAX = -300, 350  # the table's decimal scales 10^k
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_TIE_MARGIN = 2.0 ** -40  # in units of the 17th digit; the error of y is below 2^-44
_E16, _E17 = 10 ** 16, 10 ** 17


def _split(a):
    g = _SPLIT * a
    high = g - (g - a)
    return high, a - high


def _pow10_row(k: int) -> tuple[float, float, int]:
    """(hi, lo, c) with hi + lo = 10^k 2^-c to within 2^-105 and hi in [1, 2), from
    exact integers."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    e = num.bit_length() - den.bit_length()  # 10^k in [2^(e-1), 2^(e+1))
    if (num << max(-e, 0)) < (den << max(e, 0)):
        e -= 1
    # r = 10^k 2^(110-e), rounded to an integer of 111 bits
    num, den = num << max(110 - e, 0), den << max(e - 110, 0)
    r = (2 * num + den) // (2 * den)
    h = float(r)
    return math.ldexp(h, -110), math.ldexp(float(r - int(h)), -110), e


@cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """Columns hi, lo, hi's two halves and c, one row per k in [_POW10_MIN,
    _POW10_MAX], and a column marking the rows built: _pow10 fills a row the
    first time an exponent needs it."""
    rows = _POW10_MAX - _POW10_MIN + 1
    return (*np.zeros((4, rows)), np.zeros(rows, np.intc),  # frexp's type
            np.zeros(rows, bool))


def _pow10(k: np.ndarray) -> tuple[np.ndarray, ...]:
    """hi, lo, hi's two halves and c of _pow10_row for each k, building the rows
    not yet built."""
    *columns, built = _pow10_table()
    index = k - _POW10_MIN
    if not built[index].all():
        hi, lo, hi_h, hi_l, c = columns
        for i in set(index[~built[index]].tolist()):  # np.unique would load numpy.ma
            hi[i], lo[i], c[i] = _pow10_row(i + _POW10_MIN)
            hi_h[i], hi_l[i] = _split(hi[i])
            built[i] = True
    return tuple(col[index] for col in columns)


def _scaled(m, e, k):
    """Integer part and fraction of m 2^e 10^k, for m in [0.5, 1) and results below 2^62."""
    hi, lo, hi_h, hi_l, c = _pow10(k)
    p = m * hi
    m_h, m_l = _split(m)
    t = (((m_h * hi_h - p) + m_h * hi_l + m_l * hi_h) + m_l * hi_l) + m * lo  # m*hi = p + err exactly
    s = c + e
    y_p, y_t = np.ldexp(p, s), np.ldexp(t, s)
    whole = np.floor(y_p)
    r = (y_p - whole) + y_t
    floor_r = np.floor(r)
    return whole.astype(np.int64) + floor_r.astype(np.int64), r - floor_r


def _digits17(ax: np.ndarray):
    """(D, X) for finite positive ax: D in [10^16, 10^17) the 17 significant
    digits of ax rounded to nearest and X its decimal exponent; D = 0 where the
    rounding could not be certified, and X means nothing there."""
    m, e = np.frexp(ax)
    x = np.floor(np.log10(ax)).astype(np.int64)
    d = np.zeros(len(ax), np.int64)
    todo = np.arange(len(ax))
    for attempt in range(3):  # log10 may miss X by one next to a power of ten
        at = todo if attempt else slice(None)
        whole, frac = _scaled(m[at], e[at], 16 - x[at])
        # y counts as in [10^16, 10^17) also within the margin of either end: there
        # the digits round to a power of ten whichever side y lies on
        miss = ((whole - (frac < _TIE_MARGIN) >= _E17).astype(np.int64)
                - (whole + (frac > 1 - _TIE_MARGIN) < _E16))
        d[at] = np.where((miss == 0) & (np.abs(frac - 0.5) > _TIE_MARGIN),
                         whole + (frac > 0.5), 0)
        x[at] += miss
        todo = todo[miss != 0]
        if not todo.size:
            break
    carry = d == _E17
    d[carry] = _E16
    x[carry] += 1
    return d, x


# The text of a value is the bytes other than NUL, in order, of a template of
# FMT17_WIDTH bytes, held as four little-endian uint64 words:
#   0-5    "-0.000": the sign, and "0." and -1-X zeros for -4 <= X < 0
#   6      the first digit D0
#   7      the point after D0 (exponent notation, and fixed notation with X = 0)
#   8-23   the digits D1..D16, without trailing zeros after the point
#   24-28  "e+dd" or "e+ddd": the exponent
#   29-31  NUL: the CSV writer puts the field's separator there
# Fixed notation with X >= 1 moves the digits after DX up one byte and puts the
# point before them.
FMT17_WIDTH = 32
_X_MIN, _X_MAX = -400, 400  # the decimal exponents the tables cover
_SIGN, _POINT = np.uint64(ord("-")), np.uint64(ord(".") << 56)
_WORD0 = {"zero": np.uint64(ord("0") << 48), "nan": np.uint64(int.from_bytes(b"nan", "little")),
          "inf": np.uint64(int.from_bytes(b"\0inf", "little"))}


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 8k bytes as rows of k little-endian uint64 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8")


@cache
def _text_tables() -> dict[str, np.ndarray]:
    """Lookup tables of template words, built on first use."""
    k = np.arange(10000, dtype=np.int16)  # small types: the transients count in peak RSS
    quads = np.zeros((10000, 8), np.uint8)  # "abcd" for abcd
    zeros = np.zeros(10000, np.int64)  # trailing zeros of abcd
    for i in range(4):
        quads[:, i] = 48 + k // 10 ** (3 - i) % 10
        zeros += k % 10 ** (i + 1) == 0
    x = np.arange(_X_MIN, _X_MAX + 1)
    mag = np.abs(x)
    fixed, small = (x >= -4) & (x < 17), (x >= -4) & (x < 0)
    point = np.where(small, -1, np.where(fixed, x, 0))  # the point follows this digit
    by_x = np.zeros((len(x), FMT17_WIDTH), np.uint8)  # the bytes X alone sets
    by_x[small, 1], by_x[small, 2] = ord("0"), ord(".")
    by_x[:, 3:6] = np.where(np.arange(3) < np.where(small, -1 - x, 0)[:, None], ord("0"), 0)
    by_x[point == 0, 7] = ord(".")
    by_x[~fixed, 24] = ord("e")
    by_x[~fixed, 25] = np.where(x < 0, ord("-"), ord("+"))[~fixed]
    digits = 48 + np.stack([mag // 100, mag // 10 % 10, mag % 10], axis=1)
    wide = ~fixed & (mag >= 100)
    by_x[wide, 26:29] = digits[wide]
    by_x[~fixed & ~wide, 26:28] = digits[~fixed & ~wide, 1:]
    word0 = _words(by_x)[:, :1] | (np.arange(48, 58, dtype="<u8") << 48)  # by X, then D0
    j = np.arange(FMT17_WIDTH)
    s = np.arange(18)[:, None]
    shown = _words(np.where((j >= 8) & (j < 24) & (j - 7 < s), 255, 0))  # D1..D(s-1)
    quads = _words(quads).ravel()
    return {"quads": quads, "quads_high": quads << 32, "zeros": zeros, "point": point,
            "word0": word0.ravel(), "word3": _words(by_x)[:, 3].copy(),
            "shown1": shown[:, 1].copy(), "shown2": shown[:, 2].copy(),
            # a point after digit p: the bytes below it, and the point
            "below": _words(np.where(j < 8 + s, 255, 0)),
            "dot": _words(np.where(j == 8 + s, ord("."), 0))}


def _text_words(ax: np.ndarray, words: np.ndarray) -> list[int]:
    """Write the unsigned templates of finite positive values into words, one row
    each; the rows whose rounding could not be certified are left out and
    returned."""
    d, x = _digits17(ax)
    tab = _text_tables()
    lead = d // _E16
    rest = d - lead * _E16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    g0, g2 = high // 10000, low // 10000
    groups = [g0, high - 10000 * g0, g2, low - 10000 * g2]  # D1..D4, ..., D13..D16
    zeros = tab["zeros"][groups[3]]  # trailing zeros of D1..D16
    more = np.flatnonzero(zeros == 4)
    for g in groups[2::-1]:
        z = tab["zeros"][g[more]]
        zeros[more] += z
        more = more[z == 4]
    xi = x - _X_MIN
    point = tab["point"][xi]
    shown = np.maximum(17 - zeros, point + 1)  # digits shown
    quads, high_quads = tab["quads"], tab["quads_high"]
    words[:, 0] = tab["word0"][10 * xi + lead]
    words[:, 1] = quads[groups[0]] | high_quads[groups[1]]
    words[:, 2] = quads[groups[2]] | high_quads[groups[3]]
    words[:, 3] = tab["word3"][xi]
    cut = np.flatnonzero(shown < 17)
    if cut.size:  # drop trailing zeros, and a point after a lone D0
        s = shown[cut]
        words[cut, 1] &= tab["shown1"][s]
        words[cut, 2] &= tab["shown2"][s]
        words[cut[s == 1], 0] &= ~_POINT
    inner = np.flatnonzero((point > 0) & (shown > point + 1))
    if inner.size:  # move the digits after D(point) up one byte, point between
        t, p = words[inner], point[inner]
        below = tab["below"][p]
        up = t & ~below
        t = (t & below) | tab["dot"][p] | up << 8
        t[:, 1:] |= up[:, :-1] >> 56
        words[inner] = t
    return np.flatnonzero(d == 0).tolist()


def _fmt17_cells(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each value's ``format(v, ".17g")`` text as a template: an (n, 4) array
    of little-endian uint64 words, FMT17_WIDTH bytes per value, whose bytes
    other than NUL, in order, are the text. Written into ``out`` if given.

    Zeros, NaN and infinities are laid out directly, the other values from
    their certified 17 digits; the values whose rounding is not certified go
    through ``format`` one at a time.
    """
    v = np.asarray(values, dtype=np.float64)
    ax = np.abs(v)
    finite = (ax > 0) & (ax < np.inf)  # also False for NaN
    sign = (v.view(np.uint64) >> np.uint64(63)) * _SIGN
    chars = np.empty((len(v), 4), "<u8") if out is None else out
    if finite.any():
        back = _text_words(np.where(finite, ax, 1.0), chars)
        chars[:, 0] |= sign
        rows = np.flatnonzero(~finite)
    else:  # as an exact report's stderr column: slices, no index arrays
        back, rows = [], slice(None)
    if not finite.all():  # zeros, NaN and infinities
        a, sign = ax[rows], sign[rows]
        chars[rows] = 0
        chars[rows, 0] = np.where(a == 0, _WORD0["zero"] | sign,
                                  np.where(a == np.inf, _WORD0["inf"] | sign, _WORD0["nan"]))
    for i in back:
        chars[i] = np.frombuffer(fmt17(v[i]).encode().ljust(FMT17_WIDTH, b"\0"), "<u8")
    return chars
