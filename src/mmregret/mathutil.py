"""Numerical helpers: stable binomial PMFs and normal critical values.

Binomial probabilities are computed by a multiplicative recurrence (no
factorials): in linear space while the probability of zero successes stays a
normal double, in log space beyond that. The inverse normal CDF is the standard
library's ``NormalDist.inv_cdf``.
"""

from __future__ import annotations

import numpy as np

# one-sided 5% normal critical value, fixed to 4 decimals
Z_CRIT_05 = 1.6449


def binom_pmf_vector(n: int, p: float) -> np.ndarray:
    """Return the full Binomial(n, p) PMF as an array of length n + 1.

    Uses pmf[k+1] = pmf[k] * (n-k)/(k+1) * p/(1-p), run from whichever end
    keeps the odds ratio below 1, then normalizes to kill drift. Where pmf[0]
    would underflow (and the running product overflow), the recurrence is
    summed in logs and scaled by its maximum before exponentiating.
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
        if log0 > -700.0:
            out[0] = 1.0
            out[1:] = np.cumprod(factors)
            out *= np.exp(log0)
        else:
            out[1:] = np.cumsum(np.log(factors))
            out = np.exp(out - out.max())
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


def norm_ppf(q: float) -> float:
    """Inverse of the standard normal CDF."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    # imported here, not at start-up: scans at the pinned alpha = 0.05 never call this
    from statistics import NormalDist
    return NormalDist().inv_cdf(q)


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
