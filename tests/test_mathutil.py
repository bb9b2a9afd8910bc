from math import exp, lgamma, log

import numpy as np
import pytest

from mmregret.mathutil import binom_pmf_vector


def _lgamma_pmf(n, k, p):
    return exp(lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
               + k * log(p) + (n - k) * log(1 - p))


class TestBinomPmf:
    @pytest.mark.parametrize("n", [1000, 2000, 20000])
    @pytest.mark.parametrize("p", [0.5, 0.03, 0.97])
    def test_large_n_is_finite_and_normalized(self, n, p):
        pmf = binom_pmf_vector(n, p)
        assert pmf.shape == (n + 1,) and np.isfinite(pmf).all() and (pmf >= 0).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf @ np.arange(n + 1) == pytest.approx(n * p, rel=1e-9)

    @pytest.mark.parametrize("n,p", [(30, 0.2), (1000, 0.5), (2000, 0.5), (20000, 0.5),
                                     (5000, 0.3), (5000, 0.8)])
    def test_matches_log_gamma_formula(self, n, p):
        pmf = binom_pmf_vector(n, p)
        sd = np.sqrt(n * p * (1 - p))
        for k in {int(n * p), int(n * p - 3 * sd), int(n * p + 3 * sd)}:
            assert pmf[k] == pytest.approx(_lgamma_pmf(n, k, p), rel=1e-8)
