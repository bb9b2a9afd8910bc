from functools import cache
from math import exp, lgamma, log

import numpy as np
import pytest

from mmregret import EmpiricalSuccess, TrialDesign, ZTest, build_binary_grid, max_regret_scan
from mmregret import mathutil
from mmregret.mathutil import (FMT17_WIDTH, _digits17, _fmt17_cells, binom_pmf_matrix,
                               binom_pmf_vector, fmt17)
from mmregret.states import _lattice
from reference import binom_pmf_recurrence


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

    @pytest.mark.parametrize("n", [1, 5, 25, 145, 2000, 10000])
    def test_rows_are_the_recurrence_byte_for_byte(self, n):
        # the lattices of the grids, and random p; n = 10000 puts p near 0.1 and
        # beyond in the log-space branch, next to linear rows of the same matrix
        lattices = [_lattice(step) for step in (0.002, 0.01, 0.05, 0.1, 1 / 3)]
        per = max(1, (1 << 20) // (n + 1))  # rows per call: a few MB at most
        for ps in lattices + [np.random.default_rng(n).random(3000)]:
            for lo in range(0, len(ps), per):
                rows = binom_pmf_matrix(n, ps[lo:lo + per])
                want = np.array([binom_pmf_recurrence(n, p) for p in ps[lo:lo + per]])
                assert rows.tobytes() == want.tobytes()

    def test_vector_is_the_one_row_matrix(self):
        for p in (0.0, -0.0, 0.3, 0.5, 0.7, 1.0):
            got = binom_pmf_vector(20, p)
            assert got.shape == (21,)
            assert got.tobytes() == binom_pmf_recurrence(20, p).tobytes()
        assert binom_pmf_matrix(7, []).shape == (0, 8)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
    def test_p_outside_the_unit_interval_is_rejected(self, p):
        with pytest.raises(ValueError, match="outside"):
            binom_pmf_vector(10, p)
        with pytest.raises(ValueError, match="outside"):
            binom_pmf_matrix(10, [0.2, p])


def _texts(values):
    """The kernel's text of each value."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in _fmt17_cells(values)]


def _assert_formats_like_python(values):
    values = np.asarray(values, dtype=np.float64)
    want = [format(v, ".17g") for v in values.tolist()]
    got = _texts(values)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]


def _uncertified(values):
    """How many finite non-zero values the kernel sends to format()."""
    values = np.abs(np.asarray(values, dtype=np.float64))
    d, _ = _digits17(values[np.isfinite(values) & (values > 0)])
    return int(np.sum(d == 0))


class TestFmt17Kernel:
    """The vectorised .17g text against format(v, ".17g"), byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_bit_patterns(self, seed):
        # every sign, exponent and mantissa: NaN and inf patterns, subnormals
        bits = np.random.default_rng(seed).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        _assert_formats_like_python(bits.view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([10.0 ** k for k in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, np.inf),
                                 np.nextafter(powers, 0.0)])
        _assert_formats_like_python(np.concatenate([values, -values]))
        assert _uncertified(powers) == 0  # log10 may miss X by one; the retry settles it

    def test_exact_ties_fall_back(self):
        # i/8 with odd i in [8e14, 8e15) has 18 significant digits ending in 5
        i = np.random.default_rng(2).integers(4 * 10 ** 14, 4 * 10 ** 15, 20_000) * 2 + 1
        ties = i / 8.0
        assert _uncertified(ties) == len(ties)
        _assert_formats_like_python(np.concatenate([ties, -ties]))

    def test_dyadic_fractions(self):
        i = np.random.default_rng(3).integers(1, 2 ** 53, 50_000)
        _assert_formats_like_python(np.concatenate([i / 8.0, np.ldexp(i.astype(float), -60)]))

    def test_subnormals_zeros_nan_payloads_and_infinities(self):
        rng = np.random.default_rng(4)
        mantissa = rng.integers(1, 2 ** 52, 5_000, dtype=np.uint64)
        subnormal = mantissa.view(np.float64)
        nan = (mantissa | np.uint64(0x7FF << 52)).view(np.float64)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                            2.2250738585072014e-308, 2.225073858507201e-308,
                            1.7976931348623157e308])
        _assert_formats_like_python(np.concatenate([subnormal, -subnormal, nan, -nan,
                                                    special, -special]))

    def test_layout_boundaries(self):
        # fixed notation for -4 <= X < 17, trailing zeros and points dropped
        values = [1e-5, 1e-4, 0.00012, 0.5, 1.0, 9.5, 10.0, 12.5, 123456.75, 1e15, 1e16,
                  1.5e16, 1e17, 1e100, 1.25e-100, 1e-310, 0.1, 1 / 3, 2 / 3, 100.0]
        _assert_formats_like_python(np.concatenate([values, np.negative(values)]))

    def test_power_table_rows_are_built_as_exponents_need_them(self):
        # from an empty table: each value alone, then all at once, text for text
        # with fmt17, and only the rows their exponents (and a retry's) need
        values = [5e-324, 2.2e-308, 1e-5, 0.5, 1.7e308]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mathutil, "_pow10_table", cache(mathutil._pow10_table.__wrapped__))
            for v in values:
                assert _texts([v, -v]) == [fmt17(v), fmt17(-v)]
            assert _texts(values) == [fmt17(v) for v in values]
            built = mathutil._pow10_table()[-1]
            assert 5 <= built.sum() <= 15
            # a row built on demand is the row built from its integers
            for k in np.flatnonzero(built) + mathutil._POW10_MIN:
                hi, lo, hi_h, hi_l, c = mathutil._pow10(np.array([k]))
                assert (hi[0], lo[0], c[0]) == mathutil._pow10_row(int(k))
                assert (hi_h[0], hi_l[0]) == mathutil._split(hi[0])

    def test_writes_into_a_given_array(self):
        values = np.array([0.25, -1e-7, np.nan])
        out = np.zeros((2 * len(values), FMT17_WIDTH // 8), "<u8")[::2]
        assert _fmt17_cells(values, out) is out
        assert [row.tobytes().replace(b"\0", b"").decode() for row in out] == \
            ["0.25", "-9.9999999999999995e-08", "nan"]

    @pytest.mark.parametrize("block", [
        np.zeros(4096), np.full(5, -0.0), np.full(3, np.nan), np.full(2, -np.nan),
        np.array([np.inf, -np.inf, 0.0, -0.0, np.nan, -np.nan, np.inf]), np.zeros(0)],
        ids=["zeros", "negative_zeros", "nan", "negative_nan", "mixed", "empty"])
    def test_block_without_a_finite_non_zero_value(self, block):
        # the CSV writer reuses its block buffer, so stale bytes must not survive
        out = np.full((len(block), FMT17_WIDTH // 8), 0x3939393939393939, "<u8")
        assert _fmt17_cells(block, out) is out
        assert [row.tobytes().replace(b"\0", b"").decode() for row in out] == \
            [format(v, ".17g") for v in block.tolist()]


@pytest.mark.parametrize("rule", [EmpiricalSuccess(), ZTest()], ids=["es", "ztest"])
def test_exact_n145_reports_need_no_fallback(rule):
    """Every number of the exact reports at n=145, step 0.01 takes the fast path."""
    report = max_regret_scan(rule, build_binary_grid(0.01), TrialDesign(per_arm_n=145))
    columns = [report.grid.points, report.error_prob, report.expected_welfare,
               report.regret, report.mc_stderr]
    assert sum(_uncertified(c) for c in columns) == 0
