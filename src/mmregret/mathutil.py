"""Numerical helpers: stable binomial PMFs and an inverse normal CDF.

Binomial probabilities are computed by a multiplicative recurrence in linear
space (no factorials), which stays stable through n in the thousands. The
inverse normal CDF uses Acklam's rational approximation (max abs error below
1e-8), so critical values are bit-reproducible across platforms.
"""

from __future__ import annotations

import numpy as np

# one-sided 5% normal critical value, fixed to 4 decimals
Z_CRIT_05 = 1.6449


def binom_pmf_vector(n: int, p: float) -> np.ndarray:
    """Return the full Binomial(n, p) PMF as an array of length n + 1.

    Uses pmf[k+1] = pmf[k] * (n-k)/(k+1) * p/(1-p), run from whichever end
    keeps the odds ratio below 1, then normalizes to kill drift.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    out = np.zeros(n + 1)
    if p == 0.0:
        out[0] = 1.0
        return out
    if p == 1.0:
        out[n] = 1.0
        return out
    if p <= 0.5:
        ratio = p / (1.0 - p)
        log0 = n * np.log1p(-p)
        k = np.arange(n)
        factors = (n - k) / (k + 1.0) * ratio
        out[0] = 1.0
        out[1:] = np.cumprod(factors)
        out *= np.exp(log0)
    else:
        out = binom_pmf_vector(n, 1.0 - p)[::-1].copy()
        return out
    s = out.sum()
    if s > 0:
        out /= s
    return out


def binom_pmf_matrix(n: int, ps: np.ndarray) -> np.ndarray:
    """PMF vectors for many success probabilities, stacked as rows."""
    ps = np.asarray(ps, dtype=float)
    return np.vstack([binom_pmf_vector(n, p) for p in ps])


# Acklam's rational approximation coefficients
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def norm_ppf(q: float) -> float:
    """Inverse of the standard normal CDF."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    if q < _P_LOW:
        t = np.sqrt(-2.0 * np.log(q))
        num = ((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]
        den = (((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0
        x = num / den
    elif q <= _P_HIGH:
        t = q - 0.5
        r = t * t
        num = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * t
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x = num / den
    else:
        t = np.sqrt(-2.0 * np.log(1.0 - q))
        num = ((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]
        den = (((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0
        x = -num / den
    # one Halley refinement step to push the error well below 1e-8
    e = 0.5 * _erfc(-x / np.sqrt(2.0)) - q
    u = e * np.sqrt(2.0 * np.pi) * np.exp(x * x / 2.0)
    x = x - u / (1.0 + x * u / 2.0)
    return float(x)


def _erfc(x: float) -> float:
    import math
    return math.erfc(x)


def one_sided_critical_value(alpha: float) -> float:
    """Upper critical value z_{1-alpha}; the 0.05 value is pinned to 1.6449."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1)")
    if alpha == 0.05:
        return Z_CRIT_05
    return norm_ppf(1.0 - alpha)


FMT17 = ".17g"  # 17 significant digits, '.' decimal separator


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits, '.' decimal separator."""
    return format(float(x), FMT17)
