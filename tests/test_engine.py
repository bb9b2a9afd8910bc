import itertools
import os
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmregret import (
    DecisionRule,
    EvalMethod,
    PreconditionError,
    RegretReport,
    SeedSpec,
    SurveyDesign,
    TrialDesign,
    build_binary_grid,
    build_prediction_grid,
    build_product_grid,
    exhaustive_mmr_oracle,
    max_mse_scan,
    max_regret_scan,
    midpoint_max_regret_formula,
    regret_bounds,
    report_to_csv,
)
import mmregret.engine as engine
from mmregret.engine import _CSV_BLOCK_ROWS, _binomial_counts, _mc_mse, choice_table
from mmregret.mathutil import binom_pmf_vector
from mmregret.rules import TableRule
from reference import (_per_cell_report_to_csv, enumerate_trial, es_choose, iid_trial_mc,
                       state_means, ztest_choose)

ES = DecisionRule("empirical_success")
ZTEST = DecisionRule("ztest", {"alpha": 0.05, "status_quo": 0})


def _brute_force_error_prob(rule_fn, p_a, p_b, n):
    """Independent oracle: loop all outcomes, accumulate mass on inferior arm."""
    inferior = 0 if p_a < p_b else 1
    total = 0.0
    for outcome, prob in enumerate_trial(p_a, p_b, TrialDesign(per_arm_n=n)):
        total += prob * rule_fn(outcome)[inferior]
    return total


class TestErrorProbability:
    def test_es_n1_hand_value(self):
        # P(0,1) = 0.16 plus half the tie mass 0.24 -> 0.40
        s = build_product_grid([0.6], [0.4])
        err = _one_state_record(ES, s, TrialDesign(per_arm_n=1)).error_prob
        assert err == pytest.approx(0.40, abs=1e-12)

    def test_equal_probabilities_skipped(self):
        s = build_product_grid([0.3], [0.3])
        rec = _one_state_record(ES, s, TrialDesign(per_arm_n=5))
        assert rec.error_prob is None
        assert rec.regret == 0.0

    def test_degenerate_state(self):
        s = build_product_grid([1.0], [0.0])
        err = _one_state_record(ES, s, TrialDesign(per_arm_n=3)).error_prob
        assert err == pytest.approx(0.0)

    def test_matches_independent_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pa, pb = rng.random(2)
            if pa == pb:
                continue
            s = build_product_grid([pa], [pb])
            got = _one_state_record(ES, s, TrialDesign(per_arm_n=4)).error_prob
            want = _brute_force_error_prob(es_choose, pa, pb, 4)
            assert got == pytest.approx(want, abs=1e-12)
            got = _one_state_record(ZTEST, s, TrialDesign(per_arm_n=4)).error_prob
            want = _brute_force_error_prob(
                lambda o: ztest_choose(o, 4, 0.05, 0), pa, pb, 4)
            assert got == pytest.approx(want, abs=1e-12)


class TestRegretAndWelfare:
    def test_regret_product_form(self):
        s = build_product_grid([0.6], [0.4])
        reg = _one_state_record(ES, s, TrialDesign(per_arm_n=1)).regret
        assert reg == pytest.approx(0.08, abs=1e-12)

    def test_expected_welfare(self):
        s = build_product_grid([0.6], [0.4])
        welfare = _one_state_record(ES, s, TrialDesign(per_arm_n=1)).expected_welfare
        assert welfare == pytest.approx(0.52, abs=1e-12)

    def test_welfare_at_equal_arms(self):
        s = build_product_grid([0.7], [0.7])
        welfare = _one_state_record(ZTEST, s, TrialDesign(per_arm_n=10)).expected_welfare
        assert welfare == pytest.approx(0.7)

    def test_medical_arithmetic(self):
        # error prob 0.05 with welfares (1, 1/3) -> regret 1/30;
        # error prob 0.20 with welfares (1, 5) -> regret 4/5
        assert 0.05 * (1 - 1 / 3) == pytest.approx(1 / 30, abs=1e-12)
        assert 0.20 * (5 - 1) == pytest.approx(4 / 5, abs=1e-12)


def _one_state_record(rule, grid, design, method=EvalMethod(), seed=None):
    """The record of one state: a scan of the grid that holds only that state, so
    Monte Carlo draws from substream 0."""
    assert len(grid) == 1
    scan = max_regret_scan if grid.family == "binary_trial" else max_mse_scan
    return scan(rule, grid, design, method, seed).record(0)


class TestExactVsMonteCarlo:
    def test_agreement_within_four_stderr(self):
        rng = np.random.default_rng(23)
        design = TrialDesign(per_arm_n=30)
        method = EvalMethod("monte_carlo", 100_000)
        for rule in (ES, ZTEST):
            for k in range(20):
                pa, pb = rng.random(2)
                s = build_product_grid([pa], [pb])
                exact = _one_state_record(rule, s, design).regret
                rec = _one_state_record(rule, s, design, method, SeedSpec(99))
                # the 1e-6 floor covers states where the MC draw never errs
                # (stderr 0) while the exact regret is a tiny positive number
                assert abs(rec.regret - exact) <= 4 * rec.mc_stderr + 1e-6

    def test_stderr_scales_as_inverse_sqrt_reps(self):
        s = build_product_grid([0.55], [0.45])
        design = TrialDesign(per_arm_n=30)
        stderrs = []
        for reps in (1000, 10_000, 100_000):
            rec = _one_state_record(ES, s, design, EvalMethod("monte_carlo", reps), SeedSpec(3))
            stderrs.append(rec.mc_stderr)
        for lo, hi in zip(stderrs[1:], stderrs[:-1]):
            ratio = hi / lo
            assert abs(ratio - np.sqrt(10)) < 0.2 * np.sqrt(10)

    def test_large_n_scan_agrees_with_exact(self):
        # n = 2000 is past the n at which a linear-space binomial PMF at p = 0.5
        # overflows; exact enumeration still runs there
        design = TrialDesign(per_arm_n=2000)
        p_a, p_b = [0.5, 0.51], [0.52, 0.49]  # no state whose regret MC cannot see
        report = max_regret_scan(ES, build_product_grid(p_a, p_b), design,
                                 EvalMethod("monte_carlo", 20_000), SeedSpec(6))
        for (a, b), rec in zip(itertools.product(p_a, p_b), report.per_state):
            exact = _one_state_record(ES, build_product_grid([a], [b]), design).regret
            assert np.isfinite(exact) and exact > 0
            assert abs(rec.regret - exact) <= 4 * rec.mc_stderr

    def test_mc_regret_within_noise_of_nonnegative(self):
        s = build_product_grid([0.5], [0.501])
        rec = _one_state_record(ES, s, TrialDesign(per_arm_n=5),
                                EvalMethod("monte_carlo", 5000), SeedSpec(1))
        assert rec.regret >= -4 * rec.mc_stderr


def _lead_rule(n):
    """A randomized rule for n < 50, given as a table of a function of the outcome:
    the mass on b rises with b's lead, a distinct value per lead."""
    return TableRule(np.fromfunction(lambda a, b: 0.5 + (b - a) / 100, (n + 1, n + 1)))


class TestValueClasses:
    """The MC trial kernel against exact values and plain iid MC."""

    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("kind", ["table", "outcome"])
    def test_rules_of_distinct_row_values_within_four_stderr(self, kind, n):
        # every row's values are distinct: n + 1 of them
        if kind == "table":
            rule = TableRule(np.random.default_rng(n).random((n + 1, n + 1)))
        else:
            rule = _lead_rule(n)
        assert all(len(np.unique(row)) == n + 1 for row in rule.table(n))
        grid, design = build_binary_grid(0.125), TrialDesign(per_arm_n=n)
        exact = max_regret_scan(rule, grid, design)
        mc = max_regret_scan(rule, grid, design, EvalMethod("monte_carlo", 20_000), SeedSpec(7))
        # the 1e-12 floor covers states whose draws of arm b are certain (p_b = 0 or
        # 1), where the MC value is exact and its stderr 0
        assert (np.abs(mc.regret - exact.regret) <= 4 * mc.mc_stderr + 1e-12).all()
        assert (mc.mc_stderr > 0).sum() > len(grid) / 2

    @pytest.mark.parametrize("kind", ["es", "table"])
    def test_agrees_with_iid_reference_and_exact_at_no_larger_stderr(self, kind):
        # the reference draws both arms iid and shares nothing with the scan's
        # kernel; summing arm a out can only lower the variance
        n, reps = 20, 20_000
        rule = ES if kind == "es" else TableRule(np.random.default_rng(3).random((n + 1, n + 1)))
        table = choice_table(rule, n)
        assert kind == "es" or all(len(np.unique(row)) == n + 1 for row in table)
        axes = [0.53, 0.3, 0.8], [0.47, 0.6, 0.65]  # gaps of 0.06 to 0.35
        grid = build_product_grid(*axes)
        design = TrialDesign(per_arm_n=n)
        exact = max_regret_scan(rule, grid, design).regret
        mc = max_regret_scan(rule, grid, design, EvalMethod("monte_carlo", reps), SeedSpec(9))
        for k, (p_a, p_b) in enumerate(itertools.product(*axes)):
            gap = abs(p_a - p_b)
            prob_b, se_b = iid_trial_mc(table, n, p_a, p_b, reps, np.random.default_rng(k))
            ref = gap * (prob_b if p_a > p_b else 1.0 - prob_b)
            se_ref, se_mc = gap * se_b, mc.mc_stderr[k]
            assert abs(mc.regret[k] - ref) <= 4 * np.hypot(se_mc, se_ref)
            assert abs(mc.regret[k] - exact[k]) <= 4 * se_mc
            assert abs(ref - exact[k]) <= 4 * se_ref
            assert 0 < se_mc <= 1.05 * se_ref

    def test_z_scores_over_seeds_are_standard_normal(self):
        # 200 seeds at one state: the z-scores against exact have mean 0 and
        # variance 1, each within four of its standard errors
        grid = build_product_grid([0.53], [0.47])
        design, method = TrialDesign(per_arm_n=145), EvalMethod("monte_carlo", 5000)
        exact = max_regret_scan(ES, grid, design).regret[0]
        z = np.array([(r.regret[0] - exact) / r.mc_stderr[0] for r in
                      (max_regret_scan(ES, grid, design, method, SeedSpec(s)) for s in range(200))])
        assert abs(z.mean()) <= 4 / np.sqrt(200)
        assert abs(z.var(ddof=1) - 1.0) <= 4 * np.sqrt(2 / 199)


MEDIAN = DecisionRule("analog_predictor", {"loss": "absolute"})


def _comb_pmf(n, p):
    from math import comb
    return [comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]


def _mc_mse_of(rule, grid, design, reps, rng):
    """_mc_mse in the one state of the grid."""
    assert len(grid) == 1
    return _mc_mse(rule, grid, 0, grid.population_mean[0], design, reps, rng, binom_pmf_vector)


def _beta_state_grid(obs, miss, miss_rate, support):
    """The grid of one Beta survey state: shapes obs and miss, and a miss rate."""
    return build_prediction_grid("beta", obs_params=[obs], miss_params=[miss],
                                 miss_rates=[miss_rate], support=support)


class TestHistogramMonteCarlo:
    @pytest.mark.parametrize("count,m", [(5000, 20), (21, 20), (20, 20), (3000, 20000)])
    def test_binomial_counts_have_the_binomial_mean(self, count, m):
        # one multinomial draw when count > m, count binomial draws otherwise
        theta = 0.3
        c = _binomial_counts(np.random.default_rng(8), count, m, theta, binom_pmf_vector)
        assert c.shape == (m + 1,) and c.sum() == count
        k = np.repeat(np.arange(m + 1), c)
        assert abs(k.mean() - m * theta) <= 4 * np.sqrt(m * theta * (1 - theta) / count)

    @pytest.mark.parametrize("rule,predict", [
        (DecisionRule("midpoint"), lambda k, m, total: m / total * k / m + (1 - m / total) / 2),
        (MEDIAN, lambda k, m, total: 1.0 if 2 * k > m else 0.0 if 2 * k < m else 0.5),
        (DecisionRule("hodges_lehmann"),
         lambda k, m, total: (k / m * np.sqrt(m) + 0.5) / (np.sqrt(m) + 1))])
    @pytest.mark.parametrize("theta_obs,theta_miss,miss", [
        (0.4, 0.9, 0.3), (0.8, 0.0, 0.7), (0.5, 0.5, 0.5)])
    def test_bernoulli_random_miss_matches_enumeration(self, rule, predict, theta_obs,
                                                       theta_miss, miss):
        total = 6
        state = _bern_state_grid(theta_obs, theta_miss, miss)
        mu = (1 - miss) * theta_obs + miss * theta_miss
        # n_obs ~ Bin(N, 1 - miss), then k | n_obs ~ Bin(n_obs, theta_obs); no
        # observation predicts the support midpoint
        exact = sum(pm * pk * ((predict(k, m, total) if m else 0.5) - mu) ** 2
                    for m, pm in enumerate(_comb_pmf(total, 1 - miss))
                    for k, pk in enumerate(_comb_pmf(m, theta_obs)))
        mse, stderr = _mc_mse_of(rule, state, SurveyDesign("random_miss", total), 50_000,
                                 SeedSpec(17).rng(3, 0))
        assert abs(mse - exact) <= 4 * stderr + 1e-12

    @pytest.mark.parametrize("obs,miss_dist,miss,support", [
        ((2.0, 5.0), (0.5, 2.0), 0.3, (0.0, 1.0)),
        ((0.5, 0.5), (2.0, 0.5), 0.6, (-1.0, 3.0))])
    def test_beta_midpoint_random_miss_matches_closed_form(self, obs, miss_dist, miss,
                                                           support):
        total = 7
        y0, y1 = support
        w, c = y1 - y0, 0.5 * (y0 + y1)
        a, b = obs
        mu_obs = y0 + w * a / (a + b)
        var_obs = w * w * a * b / ((a + b) ** 2 * (a + b + 1))
        mu = (1 - miss) * mu_obs + miss * (y0 + w * miss_dist[0] / sum(miss_dist))
        # given n_obs = m the midpoint predicts (m/N) mean + (1 - m/N) c: its
        # variance is (m/N)^2 var/m, its bias (m/N) mu_obs + (1 - m/N) c - mu
        exact = sum(pm * ((m / total) ** 2 * var_obs / max(m, 1)
                          + (m / total * mu_obs + (1 - m / total) * c - mu) ** 2)
                    for m, pm in enumerate(_comb_pmf(total, 1 - miss)))
        mse, stderr = _mc_mse_of(DecisionRule("midpoint"),
                                 _beta_state_grid(obs, miss_dist, miss, support),
                                 SurveyDesign("random_miss", total), 50_000,
                                 SeedSpec(23).rng(1, 0))
        assert abs(mse - exact) <= 4 * stderr

    @pytest.mark.parametrize("total,reps", [(2000, 20_000), (20000, 2000)])
    def test_bernoulli_random_miss_large_n_matches_closed_form(self, total, reps):
        # the midpoint predicts K/N + (1 - M/N)/2 = 1/2 + sum_i D_i (Y_i - 1/2) / N
        # over N iid units with D_i ~ Bern(q) observed and Y_i ~ Bern(theta)
        theta, theta_miss, miss = 0.5, 0.1, 0.2
        q = 1 - miss
        mu = q * theta + miss * theta_miss
        var_x = q / 4 - (q * (theta - 0.5)) ** 2
        exact = var_x / total + (q * theta + 0.5 - q / 2 - mu) ** 2
        mse, stderr = _mc_mse_of(DecisionRule("midpoint"), _bern_state_grid(theta, theta_miss, miss),
                                 SurveyDesign("random_miss", total), reps,
                                 SeedSpec(29).rng(2, 0))
        assert np.isfinite(stderr) and stderr > 0
        assert abs(mse - exact) <= 4 * stderr

    def test_each_distinct_pmf_is_computed_once_per_scan(self, monkeypatch):
        import mmregret.engine as engine
        calls = []

        def counting(n, p):
            calls.append((n, p))
            return binom_pmf_vector(n, p)

        monkeypatch.setattr(engine, "binom_pmf_vector", counting)
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.7], miss_params=[0.1, 0.5],
                                     miss_rates=[0.2, 0.4])
        max_mse_scan(DecisionRule("midpoint"), grid, SurveyDesign("random_miss", 12),
                     EvalMethod("monte_carlo", 20_000), SeedSpec(5))
        assert len(calls) == len(set(calls)) > 2

    @pytest.mark.parametrize("design", [SurveyDesign("random_miss", 12),
                                        SurveyDesign("fixed_n", 12)])
    def test_predictor_sees_only_means_that_occur(self, design):
        def strict(m, p1):  # not finite off the support of the observed mean
            m = np.asarray(m, dtype=float)
            return np.where((m >= 0) & (m <= 1), m, np.nan)

        state = _bern_state_grid(0.3, 0.6, 0.4)
        got = _mc_mse_of(DecisionRule("custom", {"predict_mean": strict}), state, design, 5000,
                         SeedSpec(4).rng(0, 0))
        plain = _mc_mse_of(DecisionRule("analog_predictor"), state, design, 5000,
                           SeedSpec(4).rng(0, 0))
        assert np.isfinite(got[0]) and got == plain

    @pytest.mark.parametrize("family,params,design,predictor", [
        ("bernoulli", [0.2, 0.7], SurveyDesign("random_miss", 9), DecisionRule("midpoint")),
        ("bernoulli", [0.2, 0.7], SurveyDesign("fixed_n", 9), MEDIAN),
        ("beta", [(1.0, 1.0), (2.0, 5.0)], SurveyDesign("random_miss", 9), MEDIAN),
        ("beta", [(1.0, 1.0), (2.0, 5.0)], SurveyDesign("random_miss", 9),
         DecisionRule("midpoint"))])
    def test_mse_scan_repeats_and_ignores_worker_count(self, family, params, design, predictor,
                                                       monkeypatch):
        grid = build_prediction_grid(family, obs_params=params, miss_params=params,
                                     miss_rates=[0.1, 0.5])
        method = EvalMethod("monte_carlo", 2000)
        one = max_mse_scan(predictor, grid, design, method, SeedSpec(3), workers=1)
        for cpus in (1, 2, 3, 4):  # on 3 CPUs the 8 states make uneven chunks
            _cpus(monkeypatch, cpus)
            for workers in (None, 1, 2, 3):
                got = max_mse_scan(predictor, grid, design, method, SeedSpec(3), workers)
                assert _column_bytes(got) == _column_bytes(one)
        assert (one.mc_stderr > 0).all()


def _column_bytes(report) -> list[bytes]:
    """The bits of each result column of a report."""
    return [getattr(report, c).tobytes()
            for c in ("error_prob", "expected_welfare", "regret", "mc_stderr")]


def _median_per_block(rng, shape, count, m):
    """The Beta sample medians by np.median, over the blocks _beta_statistic draws."""
    per, out = max(1, (1 << 18) // m), []
    for lo in range(0, count, per):
        out.append(np.median(rng.beta(*shape, size=(min(per, count - lo), m)), axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("shape", [(0.5, 0.5), (1.0, 1.0), (2.0, 5.0)])
def test_sorted_block_median_has_the_bits_of_np_median(shape):
    for m in range(1, 41):
        count = 300 if m < 40 else 7000  # at m = 40, 7,000 samples span two blocks
        got = np.concatenate(list(engine._beta_statistic(SeedSpec(m).rng(), shape, count, m,
                                                         True)))
        assert got.tobytes() == _median_per_block(SeedSpec(m).rng(), shape, count, m).tobytes()


_AXIS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1 / 3, 0.5, 1.0]),
                           st.floats(0.0, 1.0)), min_size=1, max_size=6)


def _state_rows(report, folder) -> list[bytes]:
    """The state rows of the report's CSV."""
    report_to_csv(report, folder / "report.csv")
    return (folder / "report.csv").read_bytes().split(b"\r\n")[1:-2]


class TestProductGridOrder:
    """State k of a product grid is (p_a[k // B], p_b[k % B]), B = len(p_b): its
    row of an exact report is the row of the one-state grid of that pair."""

    @given(p_a=_AXIS, p_b=_AXIS, n=st.integers(1, 40),
           rule=st.sampled_from(["always_a", "es", "ztest"]))
    @settings(max_examples=40, deadline=None)
    def test_each_state_is_its_one_state_grid(self, tmp_path_factory, p_a, p_b, n, rule):
        folder = tmp_path_factory.mktemp("order")
        rule = {"es": ES, "ztest": ZTEST}.get(rule) or TableRule(np.zeros((n + 1, n + 1)))
        design = TrialDesign(per_arm_n=n)
        report = max_regret_scan(rule, build_product_grid(p_a, p_b), design)
        rows = _state_rows(report, folder)
        assert len(rows) == len(p_a) * len(p_b)
        for k, row in enumerate(rows):
            one = max_regret_scan(rule, build_product_grid([p_a[k // len(p_b)]],
                                                           [p_b[k % len(p_b)]]), design)
            (one_row,) = _state_rows(one, folder)
            if isinstance(rule, TableRule):
                # no mass on b: the contraction is 0 in any order, so every
                # column has the bits of the one-state grid's
                assert row == one_row
                continue
            # BLAS sums a one-row contraction in another order than a larger
            # one, so the results agree to round-off, and the rest bit for bit
            assert row.split(b",")[:2] == one_row.split(b",")[:2]
            for column in ("error_prob", "expected_welfare", "regret", "mc_stderr"):
                got, want = getattr(report, column)[k], getattr(one, column)[0]
                assert np.isnan(got) == np.isnan(want)
                assert abs(got - want) <= 1e-13 or np.isnan(got)


@given(sizes=st.lists(st.integers(1, 50), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_merged_block_moments_match_the_two_pass_moments(sizes, seed):
    # blocks merged in order against one pass over all the draws: the sums run in
    # another order, so they agree to round-off
    values = np.random.default_rng(seed).random(sum(sizes)) ** 2
    merged, lo = None, 0
    for size in sizes:
        merged = engine._merge(merged, engine._moments(values[lo:lo + size], 1, size))
        lo += size
    n, mean, m2 = engine._moments(values, 1, len(values))
    assert merged[0] == n
    assert merged[1] == pytest.approx(mean, rel=1e-12)
    assert merged[2] == pytest.approx(m2, rel=1e-12, abs=1e-15)


def test_beta_mc_memory_does_not_grow_with_reps():
    # 10^6 samples of 10 draws: each block of 2^18 draws is reduced to its count,
    # mean and sum of squared deviations before the next is drawn
    import tracemalloc
    grid = build_prediction_grid("beta", obs_params=[(2.0, 5.0)], miss_params=[(0.5, 2.0)],
                                 miss_rates=[0.2])
    tracemalloc.start()
    try:
        report = max_mse_scan(DecisionRule("analog_median"), grid, SurveyDesign("fixed_n", 10),
                              EvalMethod("monte_carlo", 10 ** 6), SeedSpec(1), workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.mc_stderr[0] > 0
    assert peak < 8 << 20


class TestMaxRegretScan:
    def test_diagonal_grid_zero_regret(self):
        for p in (0.0, 0.5, 1.0):
            diag = build_product_grid([p], [p])
            assert max_regret_scan(ES, diag, TrialDesign(per_arm_n=10)).max_regret == 0.0

    def test_subgrid_max_below_full_grid_max(self):
        design = TrialDesign(per_arm_n=145)
        coarse = max_regret_scan(ES, build_binary_grid(0.5), design)
        fine = max_regret_scan(ES, build_binary_grid(0.05), design)
        assert coarse.max_regret <= fine.max_regret

    def test_exact_regret_nonnegative_everywhere(self):
        # at n=145 the contraction's round-off alone pushed some values out of range
        for rule, n, step in ((ZTEST, 25, 0.1), (ES, 145, 0.05), (ZTEST, 145, 0.05)):
            report = max_regret_scan(rule, build_binary_grid(step), TrialDesign(per_arm_n=n))
            err = report.error_prob[~np.isnan(report.error_prob)]
            assert ((err >= 0.0) & (err <= 1.0)).all()
            assert (report.regret >= 0.0).all()
            assert (report.expected_welfare <= 1.0).all()

    def test_bound_dominance(self):
        for n in (10, 50, 145):
            report = max_regret_scan(ES, build_binary_grid(0.05), TrialDesign(per_arm_n=n))
            assert report.max_regret <= regret_bounds(2, 1.0, n).bound_10

    def test_exact_scan_memory_per_state(self):
        # the report keeps four float columns, 32 B per state; the scan's working
        # columns reuse their buffers, so that at most four coexist (44 B per state
        # measured; the scan that kept every column apart peaked at 84 B)
        import tracemalloc
        grid = build_binary_grid(0.002)
        tracemalloc.start()
        try:
            max_regret_scan(ES, grid, TrialDesign(per_arm_n=145))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(grid) < 48

    def test_callable_rule_runs_on_two_workers(self, monkeypatch):
        # a rule given by a function of the outcome is the table of that function
        table = [[es_choose((i, j))[1] for j in range(13)] for i in range(13)]
        rule = DecisionRule("custom", {"trial_table": table})
        grid, design = build_binary_grid(0.25), TrialDesign(per_arm_n=12)
        method = EvalMethod("monte_carlo", 2000)
        _cpus(monkeypatch, 3)  # so that three workers get three chunks
        one = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=1)
        two = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=2)
        three = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=3)  # 9, 8, 8
        assert one.per_state == two.per_state == three.per_state
        # the function's table is the ES table, so the draws give the ES report
        es = max_regret_scan(ES, grid, design, method, SeedSpec(5), workers=1)
        assert one.per_state == es.per_state

    @pytest.mark.parametrize("method", [EvalMethod("exact"), EvalMethod("monte_carlo", 2000)])
    def test_custom_trial_table_reproduces_es(self, method, tmp_path):
        grid, design = build_binary_grid(0.125), TrialDesign(per_arm_n=12)
        table_rule = DecisionRule("custom", {"trial_table": choice_table(ES, 12)})
        got = max_regret_scan(table_rule, grid, design, method, SeedSpec(5))
        want = max_regret_scan(ES, grid, design, method, SeedSpec(5))
        assert any(r.mc_stderr > 0 for r in got.per_state) == (method.mode == "monte_carlo")
        report_to_csv(got, tmp_path / "table.csv")
        report_to_csv(want, tmp_path / "es.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "es.csv").read_bytes()

    @pytest.mark.parametrize("shape", [(12, 12), (13, 12), (13,)])
    def test_custom_trial_table_of_wrong_shape_rejected(self, shape):
        rule = DecisionRule("custom", {"trial_table": np.zeros(shape)})
        with pytest.raises(PreconditionError, match="trial table shape"):
            max_regret_scan(rule, build_binary_grid(0.5), TrialDesign(per_arm_n=12))


class TestRegretBounds:
    def test_k2_n145(self):
        b = regret_bounds(2, 1.0, 145)
        assert b.bound_10 == pytest.approx((2 * np.e) ** -0.5 / np.sqrt(145), abs=1e-12)
        assert b.bound_10 == pytest.approx(0.0356, abs=2e-4)
        assert b.bound_11 == pytest.approx(0.0691, abs=2e-4)
        assert b.tighter == 10

    def test_k4_n100(self):
        b = regret_bounds(4, 1.0, 100)
        assert b.bound_11 == pytest.approx(0.1177, abs=2e-4)
        assert b.bound_10 == pytest.approx(0.1287, abs=2e-4)
        assert b.tighter == 11

    def test_k_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            regret_bounds(1, 1.0, 10)


def _bern_state_grid(theta_obs, theta_miss, miss_rate):
    """The grid of one Bernoulli survey state."""
    return build_prediction_grid("bernoulli", obs_params=[theta_obs], miss_params=[theta_miss],
                                 miss_rates=[miss_rate])


class TestPredictorMse:
    def test_hodges_lehmann_constant_risk(self):
        design = SurveyDesign("fixed_n", 4)
        rule = DecisionRule("hodges_lehmann")
        expect = 1.0 / (4 * (np.sqrt(4) + 1) ** 2)
        for theta in np.linspace(0, 1, 11):
            mse = _one_state_record(rule, _bern_state_grid(theta, theta, 0.0), design,
                                    EvalMethod("exact")).regret
            assert mse == pytest.approx(expect, abs=1e-9)

    def test_midpoint_no_missing_is_sample_mean_mse(self):
        design = SurveyDesign("fixed_n", 8)
        rule = DecisionRule("midpoint")
        for theta in (0.2, 0.5, 0.9):
            mse = _one_state_record(rule, _bern_state_grid(theta, theta, 0.0), design,
                                    EvalMethod("exact")).regret
            assert mse == pytest.approx(theta * (1 - theta) / 8, abs=1e-12)

    def test_degenerate_state_zero(self):
        design = SurveyDesign("fixed_n", 5)
        mse = _one_state_record(DecisionRule("midpoint"), _bern_state_grid(1.0, 1.0, 0.0),
                                design, EvalMethod("exact")).regret
        assert mse == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [26, 400, 5000])
    def test_exact_has_no_sample_size_cap(self, n):
        design = SurveyDesign("fixed_n", n)
        for theta in (0.2, 0.5, 0.9):
            mse = _one_state_record(DecisionRule("midpoint"), _bern_state_grid(theta, theta, 0.0),
                                    design, EvalMethod("exact")).regret
            assert mse == pytest.approx(theta * (1 - theta) / n, rel=0, abs=1e-16)

    def test_exact_mode_guard(self):
        # the preconditions of an exact max_mse_scan, and no others
        beta = _beta_state_grid((1.0, 1.0), (2.0, 5.0), 0.2, (0.0, 1.0))
        with pytest.raises(PreconditionError):
            _one_state_record(DecisionRule("midpoint"), beta, SurveyDesign("fixed_n", 5),
                              EvalMethod("exact"))
        with pytest.raises(PreconditionError):
            _one_state_record(DecisionRule("midpoint"), _bern_state_grid(0.5, 0.5, 0.2),
                              SurveyDesign("random_miss", 5), EvalMethod("exact"))

    def test_mc_matches_exact(self):
        design = SurveyDesign("fixed_n", 10)
        rule = DecisionRule("midpoint")
        s = _bern_state_grid(0.5, 1.0, 0.2)
        exact = _one_state_record(rule, s, design, EvalMethod("exact")).regret
        mc = _one_state_record(rule, s, design, EvalMethod("monte_carlo", 100_000),
                               SeedSpec(2)).regret
        assert mc == pytest.approx(exact, abs=0.002)


class TestMaxMseScan:
    @pytest.fixture
    def bern_grid(self):
        thetas = list(np.linspace(0, 1, 11))
        return build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[0.2])

    def test_midpoint_known_miss_matches_formula_exact(self, bern_grid):
        design = SurveyDesign("fixed_n", 10)
        report = max_mse_scan(DecisionRule("midpoint"), bern_grid, design,
                              EvalMethod("exact"))
        assert report.max_regret == pytest.approx(
            midpoint_max_regret_formula(0.8, 10), abs=1e-9)

    def test_midpoint_known_miss_matches_formula_mc(self, bern_grid):
        design = SurveyDesign("fixed_n", 10)
        report = max_mse_scan(DecisionRule("midpoint"), bern_grid, design,
                              EvalMethod("monte_carlo", 50_000), SeedSpec(8))
        rec = report.record(report.argmax)
        assert abs(report.max_regret - midpoint_max_regret_formula(0.8, 10)) \
            <= 4 * rec.mc_stderr

    def test_no_missing_reduces_to_quarter_n(self):
        thetas = list(np.linspace(0, 1, 11))
        grid = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[0.0])
        design = SurveyDesign("fixed_n", 25)
        report = max_mse_scan(DecisionRule("midpoint"), grid, design, EvalMethod("exact"))
        assert report.max_regret == pytest.approx(0.01, abs=1e-9)

    def test_fully_missing_is_quarter(self):
        thetas = [0.0, 0.5, 1.0]
        grid = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[1.0])
        design = SurveyDesign("fixed_n", 5)
        report = max_mse_scan(DecisionRule("midpoint"), grid, design, EvalMethod("exact"))
        assert report.max_regret == pytest.approx(0.25, abs=1e-9)

    def test_restriction_never_raises_max(self):
        thetas = list(np.linspace(0, 1, 11))
        design = SurveyDesign("fixed_n", 10)
        full = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[0.3])
        restricted = build_prediction_grid("bernoulli", obs_params=thetas,
                                           miss_params=thetas, miss_rates=[0.3],
                                           min_missing_mean=0.5)
        full_max = max_mse_scan(DecisionRule("midpoint"), full, design,
                                EvalMethod("exact")).max_regret
        restr_max = max_mse_scan(DecisionRule("midpoint"), restricted, design,
                                 EvalMethod("exact")).max_regret
        assert restr_max <= full_max + 1e-15

    @pytest.mark.parametrize("rule", [DecisionRule("midpoint"), MEDIAN], ids=["midpoint", "median"])
    def test_fixed_n_exact_and_mc_agree_at_every_miss_rate(self, rule):
        # one grid, four miss rates: both paths read p1 = 1 - the state's miss rate
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.5, 0.9],
                                     miss_params=[0.0, 0.4, 1.0], miss_rates=[0.0, 0.25, 0.6, 1.0])
        design = SurveyDesign("fixed_n", 10)
        exact = max_mse_scan(rule, grid, design, EvalMethod("exact"))
        mc = max_mse_scan(rule, grid, design, EvalMethod("monte_carlo", 20_000), SeedSpec(19))
        assert (np.abs(mc.regret - exact.regret) <= 4 * mc.mc_stderr + 1e-12).all()
        assert (mc.mc_stderr > 0).sum() > len(grid) / 2

    @pytest.mark.parametrize("rule", [DecisionRule("midpoint"), DecisionRule("hodges_lehmann"),
                                      DecisionRule("analog_predictor"), MEDIAN,
                                      DecisionRule("custom", {"mean_table": [(0, 0.2), (1, 0.9)]})],
                             ids=["midpoint", "hodges_lehmann", "mean", "median", "table"])
    # explicit ids, so that each case keeps the name the suite reports it by
    @pytest.mark.parametrize("n,support", [(7, (0.0, 1.0)), (7, (-1.0, 2.5)), (200, (0.0, 1.0))],
                             ids=["7-None-support0", "7-None-support1", "200-None-support2"])
    def test_exact_equals_per_state_dot_product(self, rule, n, support):
        # the per-state arithmetic of the scan before it was columnar; at n = 200
        # the grid spans more than one chunk of the contraction
        from mmregret.engine import _bernoulli_predictions
        thetas = [0.0, 0.3, 0.3, 0.55, 1.0] if n == 7 else np.linspace(0, 1, 21).tolist()
        rates = [0.0, 0.25, 0.6, 1.0]
        grid = build_prediction_grid("bernoulli", obs_params=thetas, miss_params=thetas[::-1],
                                     miss_rates=rates, support=support)
        design = SurveyDesign("fixed_n", n)
        report = max_mse_scan(rule, grid, design, EvalMethod("exact"))
        want = []
        for obs, miss, rate in itertools.product(thetas, thetas[::-1], rates):
            pred = _bernoulli_predictions(rule, np.arange(n + 1), n, 1.0 - rate, support)
            mean = state_means("bernoulli", obs, miss, rate, support)[2]
            want.append(binom_pmf_vector(n, obs) @ (pred - mean) ** 2)
        assert report.regret.tolist() == want


class TestMidpointFormula:
    def test_all_observed(self):
        assert midpoint_max_regret_formula(1.0, 25) == pytest.approx(0.01)

    def test_none_observed(self):
        assert midpoint_max_regret_formula(0.0, 7) == pytest.approx(0.25)

    def test_hand_value(self):
        assert midpoint_max_regret_formula(0.8, 100) == pytest.approx(0.0116)


class TestOracle:
    def test_single_state_grid(self):
        grid = build_product_grid([0.2], [0.8])
        _, max_reg = exhaustive_mmr_oracle(TrialDesign(per_arm_n=1), grid)
        assert max_reg == pytest.approx(0.0, abs=1e-12)

    def test_no_deterministic_rule_beats_es_n1(self):
        grid = build_binary_grid(0.05)
        _, oracle_max = exhaustive_mmr_oracle(TrialDesign(per_arm_n=1), grid)
        es_max = max_regret_scan(ES, grid, TrialDesign(per_arm_n=1)).max_regret
        assert oracle_max >= es_max - 1e-12

    def test_es_table_is_oracle_optimal_up_to_ties(self):
        # on a symmetric grid the oracle's off-diagonal cells match the
        # choose-the-higher-count rule
        grid = build_binary_grid(0.1)
        table, _ = exhaustive_mmr_oracle(TrialDesign(per_arm_n=1), grid)
        assert table[0, 1] == 1.0 and table[1, 0] == 0.0

    def test_n_too_large_rejected(self):
        with pytest.raises(PreconditionError):
            exhaustive_mmr_oracle(TrialDesign(per_arm_n=4), build_binary_grid(0.5))

    def test_memory_stays_bounded_at_n3(self):
        # 441 states x 65,536 rules: the whole states x rules array is 231 MB
        import tracemalloc
        grid = build_binary_grid(0.05)
        tracemalloc.start()
        try:
            exhaustive_mmr_oracle(TrialDesign(per_arm_n=3), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestReportCsv:
    def test_round_numbers_and_footer(self, tmp_path):
        report = max_regret_scan(ES, build_binary_grid(0.5), TrialDesign(per_arm_n=2))
        path = tmp_path / "report.csv"
        report_to_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "p_a,p_b,error_prob,expected_welfare,regret,mc_stderr"
        assert len(lines) == 9 + 2
        assert lines[-1].startswith("#summary,max_regret=")

    def test_deterministic_bytes(self, tmp_path):
        method = EvalMethod("monte_carlo", 2000)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            report = max_regret_scan(ES, build_binary_grid(0.25),
                                     TrialDesign(per_arm_n=9), method, SeedSpec(4))
            report_to_csv(report, path)
        assert a.read_bytes() == b.read_bytes()


class TestScanPreconditions:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(PreconditionError):
            max_regret_scan(ES, build_binary_grid(0.5), TrialDesign(per_arm_n=2),
                            workers=workers)
        grid = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                     miss_rates=[0.2])
        with pytest.raises(PreconditionError):
            max_mse_scan(DecisionRule("midpoint"), grid,
                         SurveyDesign("fixed_n", 5), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, "2"])
    def test_worker_count_not_an_integer_rejected(self, workers):
        with pytest.raises(PreconditionError, match="workers must be an integer"):
            max_regret_scan(ES, build_binary_grid(0.5), TrialDesign(per_arm_n=2),
                            workers=workers)
        grid = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                     miss_rates=[0.2])
        with pytest.raises(PreconditionError, match="workers must be an integer"):
            max_mse_scan(DecisionRule("midpoint"), grid,
                         SurveyDesign("fixed_n", 5), workers=workers)

    @pytest.mark.parametrize("reps", [999, 1 << 63, 10 ** 20, 2000.0])
    def test_mc_reps_outside_a_sampler_count_rejected(self, reps):
        with pytest.raises(PreconditionError):
            EvalMethod("monte_carlo", reps)

    def test_mc_reps_at_the_bounds_accepted(self):
        assert EvalMethod("monte_carlo", np.int64(1000)).reps == 1000
        top = EvalMethod("monte_carlo", (1 << 63) - 1)
        report = max_regret_scan(ES, build_binary_grid(0.5), TrialDesign(per_arm_n=5), top,
                                 SeedSpec(1))
        assert np.isfinite(report.regret).all() and report.max_regret > 0

    @pytest.mark.parametrize("method", [EvalMethod("exact"), EvalMethod("monte_carlo", 1000)],
                             ids=["exact", "mc"])
    def test_trial_n_above_the_cap_rejected_before_any_table(self, method, monkeypatch):
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(engine, "binom_pmf_matrix", no_table)
        monkeypatch.setattr(engine, "choice_table", no_table)
        with pytest.raises(PreconditionError, match="per-arm n=10001 above 10000"):
            max_regret_scan(ES, build_binary_grid(0.5), TrialDesign(per_arm_n=10_001), method,
                            SeedSpec(1))

    @pytest.mark.parametrize("method", [EvalMethod("exact"), EvalMethod("monte_carlo", 1000)],
                             ids=["exact", "mc"])
    def test_survey_n_beyond_the_memory_bound_rejected_before_any_pmf(self, method,
                                                                      monkeypatch):
        calls = []

        def spy(fn):
            def recorded(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return recorded

        for name in ("binom_pmf_matrix", "binom_pmf_vector"):
            monkeypatch.setattr(engine, name, spy(getattr(engine, name)))
        # two distinct observed thetas and one miss rate: 3 (n + 1) entries
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.7, 0.2],
                                     miss_params=[0.5], miss_rates=[0.2])
        scan = partial(max_mse_scan, DecisionRule("midpoint"), grid, method=method,
                       seed=SeedSpec(1))
        with pytest.raises(PreconditionError, match="survey n=100000000 gives 3e\\+08"):
            scan(SurveyDesign("fixed_n", 100_000_000))
        assert calls == []
        monkeypatch.setattr(engine, "_MAX_GRID_STATES", 30)
        for design in (SurveyDesign("fixed_n", 10), SurveyDesign("random_miss", 10)):
            with pytest.raises(PreconditionError, match="above the 30"):
                scan(design)
        assert calls == []
        scan(SurveyDesign("fixed_n", 9))  # 30 entries: at the bound
        assert calls

    def test_exact_scan_needs_bernoulli_outcomes(self):
        grid = build_prediction_grid("beta", obs_params=[(1.0, 1.0)],
                                     miss_params=[(2.0, 5.0)], miss_rates=[0.2])
        with pytest.raises(PreconditionError):
            max_mse_scan(DecisionRule("midpoint"), grid,
                         SurveyDesign("fixed_n", 5), EvalMethod("exact"))

    def test_exact_scan_needs_fixed_n_design(self):
        grid = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                     miss_rates=[0.2])
        with pytest.raises(PreconditionError):
            max_mse_scan(DecisionRule("midpoint"), grid,
                         SurveyDesign("random_miss", 5), EvalMethod("exact"))


    @pytest.mark.parametrize("method", [EvalMethod("exact"), EvalMethod("monte_carlo", 2000)])
    def test_scan_of_the_other_rule_family_rejected(self, method):
        grid = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                     miss_rates=[0.2])
        with pytest.raises(PreconditionError, match="not a trial-choice rule"):
            max_regret_scan(DecisionRule("midpoint"), build_binary_grid(0.5),
                            TrialDesign(per_arm_n=2), method)
        with pytest.raises(PreconditionError, match="not a predictor"):
            max_mse_scan(ES, grid, SurveyDesign("fixed_n", 5), method)


def _fail_on(bad, task):
    if task == bad:
        raise PreconditionError(f"task {task} is bad")
    return task


def _no_child_left():
    """True when this process has no child, waited for or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkedWorkers:
    """With more than one task, _ordered_map forks a child per task after the
    first and runs the first itself."""

    pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")

    def test_child_exception_reaches_the_parent_with_its_type(self):
        assert engine._ordered_map(partial(_fail_on, 9), [(0,), (1,), (2,)]) == [0, 1, 2]
        with pytest.raises(PreconditionError, match="task 2 is bad"):
            engine._ordered_map(partial(_fail_on, 2), [(0,), (1,), (2,)])
        assert _no_child_left()

    def test_children_are_reaped_when_the_parents_task_raises(self):
        with pytest.raises(PreconditionError, match="task 0 is bad"):
            engine._ordered_map(partial(_fail_on, 0), [(0,), (1,), (2,)])
        assert _no_child_left()

    def test_no_child_is_left_after_a_two_worker_scan(self, monkeypatch):
        grid, design = build_binary_grid(0.25), TrialDesign(per_arm_n=12)
        method = EvalMethod("monte_carlo", 2000)
        one = max_regret_scan(ES, grid, design, method, SeedSpec(5), workers=1)
        for cpus in (1, 2, 3, 4):
            _cpus(monkeypatch, cpus)
            for workers in (None, 1, 2):
                got = max_regret_scan(ES, grid, design, method, SeedSpec(5), workers)
                assert _no_child_left()
                assert got.per_state == one.per_state

    def test_lambda_predictor_gives_the_same_columns_on_1_and_2_workers(self):
        # a child starts as a copy of the parent, so the predictor is not pickled
        rule = DecisionRule("custom", {"predict_mean": lambda m, p1: m * p1 + (1 - p1) / 2})
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.7], miss_params=[0.5],
                                     miss_rates=[0.2])
        design, method = SurveyDesign("random_miss", 6), EvalMethod("monte_carlo", 2000)
        one = max_mse_scan(rule, grid, design, method, SeedSpec(3), workers=1)
        two = max_mse_scan(rule, grid, design, method, SeedSpec(3), workers=2)
        for column in ("error_prob", "expected_welfare", "regret", "mc_stderr"):
            assert np.array_equal(getattr(one, column), getattr(two, column), equal_nan=True)
        midpoint = max_mse_scan(DecisionRule("midpoint"), grid, design, method, SeedSpec(3),
                                workers=2)
        assert one.regret.tolist() == midpoint.regret.tolist()

    def test_off_linux_the_tasks_run_in_process(self):
        def no_fork():
            raise AssertionError("forked off Linux")

        tasks = [(0,), (1,), (2,)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "platform", "darwin")
            mp.setattr(os, "fork", no_fork)
            assert engine._ordered_map(partial(_fail_on, 9), tasks) == [0, 1, 2]


def _rowwise_report_to_csv(report, path):
    """Reference writer: one csv.writer row per StateRecord, its coordinates read
    from the grid's columns one state at a time, every cell through fmt17."""
    import csv
    from mmregret.mathutil import fmt17

    g = report.grid
    if g.family == "binary_trial":
        names = ["p_a", "p_b"]

        def coords(k):
            i, j = divmod(k, len(g.points_b))
            return [g.points_a[i], g.points_b[j]]
    elif g.outcome == "bernoulli":
        names = ["theta_obs", "theta_miss", "miss_rate"]

        def coords(k):
            return [g.obs_params[g.index_obs[k]], g.miss_params[g.index_miss[k]],
                    g.miss_rates[g.index_rate[k]]]
    else:
        names = ["alpha_obs", "beta_obs", "alpha_miss", "beta_miss", "miss_rate"]

        def coords(k):
            return [*g.obs_params[g.index_obs[k]], *g.miss_params[g.index_miss[k]],
                    g.miss_rates[g.index_rate[k]]]

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(names + ["error_prob", "expected_welfare", "regret", "mc_stderr"])
        for k, rec in enumerate(report.per_state):
            wr.writerow([fmt17(v) for v in coords(k)] + [
                "" if rec.error_prob is None else fmt17(rec.error_prob),
                "" if rec.expected_welfare is None else fmt17(rec.expected_welfare),
                fmt17(rec.regret), fmt17(rec.mc_stderr)])
        wr.writerow(["#summary", f"max_regret={fmt17(report.max_regret)}",
                     "argmax=" + "|".join(map(fmt17, coords(report.argmax))),
                     f"method={report.method.mode}",
                     f"reps={report.method.reps if report.method.mode == 'monte_carlo' else 0}",
                     f"seed={report.seed.master_seed if report.seed else ''}"])


def _beta_grid():
    return build_prediction_grid("beta", obs_params=[(0.5, 0.5), (2.0, 5.0)],
                                 miss_params=[(0.5, 2.0)], miss_rates=[0.2])


class TestColumnarReport:
    CASES = {
        "exact_es_ties": lambda: max_regret_scan(
            ES, build_binary_grid(0.1), TrialDesign(per_arm_n=15)),
        "exact_ztest": lambda: max_regret_scan(
            ZTEST, build_binary_grid(0.05), TrialDesign(per_arm_n=30)),
        "mc_es": lambda: max_regret_scan(
            ES, build_binary_grid(0.25), TrialDesign(per_arm_n=9),
            EvalMethod("monte_carlo", 2000), SeedSpec(4)),
        "exact_midpoint": lambda: max_mse_scan(
            DecisionRule("midpoint"),
            build_prediction_grid("bernoulli", obs_params=list(np.linspace(0, 1, 11)),
                                  miss_params=list(np.linspace(0, 1, 11)),
                                  miss_rates=[0.2, 0.5]),
            SurveyDesign("fixed_n", 10), EvalMethod("exact")),
        "mc_beta_median": lambda: max_mse_scan(
            DecisionRule("analog_predictor", {"loss": "absolute"}), _beta_grid(),
            SurveyDesign("fixed_n", 5), EvalMethod("monte_carlo", 1000),
            SeedSpec(3)),
        "more_rows_than_a_chunk": lambda: max_regret_scan(
            ES, build_binary_grid(0.01), TrialDesign(per_arm_n=20)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_csv_bytes_match_rowwise_writer(self, case, tmp_path):
        report = self.CASES[case]()
        # write the columnar CSV first, so it cannot lean on built records
        report_to_csv(report, tmp_path / "columnar.csv")
        _rowwise_report_to_csv(report, tmp_path / "rowwise.csv")
        assert (tmp_path / "columnar.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()

    def test_cases_cover_ties_stderr_and_chunks(self):
        ties = self.CASES["exact_es_ties"]()
        assert any(r.error_prob is None for r in ties.per_state)
        assert any(r.mc_stderr > 0 for r in self.CASES["mc_es"]().per_state)
        assert any(r.mc_stderr > 0 for r in self.CASES["mc_beta_median"]().per_state)
        assert len(self.CASES["more_rows_than_a_chunk"]().grid) > _CSV_BLOCK_ROWS

    @pytest.mark.parametrize("case", ["exact_es_ties", "mc_es", "exact_midpoint"])
    def test_argmax_record_is_the_argmax_state(self, case):
        report = self.CASES[case]()
        rec = report.record(report.argmax)  # before per_state builds the others
        assert rec == report.per_state[report.argmax]
        assert rec.regret == report.max_regret
        # the first state of largest regret
        first = next(k for k, r in enumerate(report.per_state) if r.regret == report.max_regret)
        assert first == report.argmax

    def test_inconsistent_max_rejected(self):
        from dataclasses import replace
        report = self.CASES["exact_ztest"]()
        with pytest.raises(PreconditionError):
            replace(report, argmax=(report.argmax + 1) % len(report.grid))


_SPECIAL_FLOATS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
                            2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
                            0.1, 1 / 3, 1e16, 123456789.0])


def _wild_column(rng, n):
    """Floats of every kind: random bit patterns (NaN payloads, subnormals, huge
    values), the special values above, and ordinary numbers."""
    kind = rng.integers(0, 3, n)
    bits = np.frombuffer(rng.bytes(8 * n), dtype=np.float64)
    plain = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
    return np.where(kind == 0, bits, np.where(kind == 1, rng.choice(_SPECIAL_FLOATS, n), plain))


def _wild_report(grid, seed):
    """A report over the grid whose result columns hold floats of every kind;
    error_prob and expected_welfare are NaN on about a third of the rows."""
    rng = np.random.default_rng(seed)
    n = len(grid)
    err, welfare, regret, stderr = (_wild_column(rng, n) for _ in range(4))
    err[rng.random(n) < 0.3] = np.nan
    welfare[rng.random(n) < 0.3] = np.nan
    method = EvalMethod("monte_carlo", 5000) if seed % 2 else EvalMethod("exact")
    return RegretReport(grid, err, welfare, regret, stderr, int(np.argmax(regret)), method,
                        SeedSpec(seed) if seed % 3 else None)


def _grid(family, rows, rng):
    """A grid of the family with the given number of rows."""
    b = 2 - rows % 2  # rows // b x b states
    if family == "binary_trial":
        points = [0.0, -0.0, 5e-324, 1e-310, 0.1, 1 / 3, 0.5, 0.7, 1.0]
        return build_product_grid(rng.choice(points, rows // b), rng.choice(points, b))
    miss = b  # obs x miss parameters x one miss rate
    obs, rates = rows // miss, [rng.choice([0.0, 0.2, 1 / 3, 1.0])]
    if family == "bernoulli":
        return build_prediction_grid("bernoulli", obs_params=list(rng.random(obs)),
                                     miss_params=list(rng.random(miss)), miss_rates=rates)
    shapes = [5e-324, 1e-300, 0.5, 1 / 3, 2.0, 1e300]
    return build_prediction_grid(
        "beta", obs_params=[tuple(rng.choice(shapes, 2)) for _ in range(obs)],
        miss_params=[tuple(rng.choice(shapes, 2)) for _ in range(miss)], miss_rates=rates)


class TestBlockCsvWriter:
    """report_to_csv against the per-cell reference writer, byte for byte."""

    @given(family=st.sampled_from(["binary_trial", "bernoulli", "beta"]),
           rows=st.one_of(st.integers(1, 200), st.sampled_from(
               [_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                2 * _CSV_BLOCK_ROWS + 1])),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bytes_match_per_cell_writer(self, tmp_path_factory, family, rows, seed):
        tmp = tmp_path_factory.mktemp("csv")
        report = _wild_report(_grid(family, rows, np.random.default_rng(seed)), seed)
        assert len(report.grid) == rows
        report_to_csv(report, tmp / "block.csv")
        _per_cell_report_to_csv(report, tmp / "cell.csv")
        assert (tmp / "block.csv").read_bytes() == (tmp / "cell.csv").read_bytes()


def test_full_size_es_report_matches_per_cell_writer(tmp_path):
    """A real 251,001-row report: the benchmark's exact ES scan at n=145."""
    report = max_regret_scan(ES, build_binary_grid(0.002), TrialDesign(per_arm_n=145))
    assert len(report.grid) == 251_001
    report_to_csv(report, tmp_path / "block.csv")
    _per_cell_report_to_csv(report, tmp_path / "cell.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


def _boundary_report(rows, seed):
    """A report over a rows x 1 binary-trial grid, of floats of every kind, whose
    two rows at each boundary of 2, 3 and 4 equal parts hold p_a = -0.0, -0.0
    and, where a column may, no value (NaN)."""
    rng = np.random.default_rng(seed)
    points = np.array([0.0, -0.0, 5e-324, 0.1, 1 / 3, 0.5, 1.0])
    p_a = rng.choice(points, rows)
    err, welfare, regret, stderr = (_wild_column(rng, rows) for _ in range(4))
    for parts in (2, 3, 4):
        for k in range(1, parts):
            edge = slice(rows * k // parts - 1, rows * k // parts + 1)
            err[edge] = welfare[edge] = np.nan
            p_a[edge] = regret[edge] = stderr[edge] = -0.0
    grid = build_product_grid(p_a, [rng.choice(points)])
    return RegretReport(grid, err, welfare, regret, stderr, int(np.argmax(regret)),
                        EvalMethod("exact"), SeedSpec(seed))


def _cpus(mp, count):
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_csv_parts_follow_the_cpus_and_the_threshold():
    rows = engine._CSV_PART_ROWS
    with pytest.MonkeyPatch.context() as mp:
        _cpus(mp, 4)
        assert [engine._csv_parts(r) for r in (1, 2 * rows - 1, 2 * rows, 3 * rows + 1,
                                                100 * rows)] == [1, 1, 2, 3, 4]
        mp.setattr(sys, "platform", "darwin")
        assert engine._csv_parts(100 * rows) == 1


@pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")
class TestCsvParts:
    """A report's CSV written in k contiguous parts, one process each, has the
    bytes of the CSV written in one."""

    PART_ROWS = 1000  # small, so that part boundaries fall inside blocks and at their ends

    @pytest.mark.parametrize("rows", [2 * PART_ROWS - 1, 2 * PART_ROWS, 2 * PART_ROWS + 1,
                                      _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1, 3 * _CSV_BLOCK_ROWS + 1])
    def test_bytes_are_the_same_on_any_cpu_count(self, tmp_path, rows):
        report, parts = _boundary_report(rows, rows), []
        ordered_map = engine._ordered_map

        def spy(fn, tasks):
            parts.append(len(tasks))
            return ordered_map(fn, tasks)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CSV_PART_ROWS", self.PART_ROWS)
            mp.setattr(engine, "_ordered_map", spy)
            for cpus in (1, 2, 3, 4):
                _cpus(mp, cpus)
                report_to_csv(report, tmp_path / f"{cpus}.csv")
        split = [min(cpus, rows // self.PART_ROWS) for cpus in (2, 3, 4)]
        assert parts == [k for k in split if k > 1]
        one = (tmp_path / "1.csv").read_bytes()
        assert one.count(b"\r\n") == rows + 2
        for cpus in (2, 3, 4):
            assert (tmp_path / f"{cpus}.csv").read_bytes() == one
        assert sorted(os.listdir(tmp_path)) == ["1.csv", "2.csv", "3.csv", "4.csv"]
        assert _no_child_left()

    def test_at_the_threshold_two_parts_match_the_per_cell_writer(self, tmp_path):
        report = _boundary_report(2 * engine._CSV_PART_ROWS, 7)
        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 2)
            report_to_csv(report, tmp_path / "parts.csv")
        _per_cell_report_to_csv(report, tmp_path / "cell.csv")
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()

    def test_a_pipe_gets_one_part_and_no_spill_file(self, tmp_path):
        import threading
        report, fifo, got = _boundary_report(4096, 3), tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()

        def no_fork(fn, tasks):
            raise AssertionError("a pipe was written in parts")

        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 2)
            mp.setattr(engine, "_CSV_PART_ROWS", 1000)
            mp.setattr(engine, "_ordered_map", no_fork)
            report_to_csv(report, fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        report_to_csv(report, tmp_path / "file.csv")
        assert got == [(tmp_path / "file.csv").read_bytes()]

    def test_a_childs_write_error_reaches_the_caller(self, tmp_path, capsys):
        import errno
        from mmregret.cli import main
        write = engine._csv_rows

        def full_disk(texts, results, fh, lo, hi):
            if lo:  # every part but the first is a child's
                raise OSError(errno.ENOSPC, "No space left on device")
            write(texts, results, fh, lo, hi)

        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 3)
            mp.setattr(engine, "_CSV_PART_ROWS", 100)
            mp.setattr(engine, "_csv_rows", full_disk)
            with pytest.raises(OSError) as exc:
                report_to_csv(_boundary_report(4096, 1), tmp_path / "report.csv")
            assert exc.value.errno == errno.ENOSPC
            assert _no_child_left()
            # the 441 states of a 0.05 grid make 3 parts
            assert main(["scan", "--rule", "es", "--n", "5", "--step", "0.05",
                         "--out", str(tmp_path / "scan.csv")]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("i/o error: [Errno 28]")
        assert len(err.strip().splitlines()) == 1
        assert _no_child_left()
        assert sorted(os.listdir(tmp_path)) == ["report.csv", "scan.csv"]


@pytest.mark.parametrize("family", ["binary_trial", "prediction"])
def test_mc_pool_gets_one_process_per_chunk(family):
    """An MC scan asks the pool helper for no more processes than it has states
    or CPUs, however many workers it is given, and deals the states to them in
    turn: each task holds its states' indices."""
    import mmregret.engine as engine
    indices = []

    def spy(fn, tasks):
        indices.append([list(task[-1]) for task in tasks])
        return [fn(*task) for task in tasks]  # in process: no child is forked

    method = EvalMethod("monte_carlo", 1000)
    if family == "binary_trial":
        grid = build_product_grid([0.2, 0.6], [0.1, 0.3, 0.5, 0.7])
        scan = partial(max_regret_scan, ES, grid, TrialDesign(per_arm_n=5), method, SeedSpec(1))
    else:
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.6], miss_params=[0.3, 0.7],
                                     miss_rates=[0.25, 0.5])
        scan = partial(max_mse_scan, DecisionRule("midpoint"), grid,
                       SurveyDesign("fixed_n", 5), method, SeedSpec(1))
    assert len(grid) == 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "platform", "linux")
        mp.setattr(engine, "_ordered_map", spy)
        many = []
        for cpus in (2, 16):
            _cpus(mp, cpus)
            many.append(scan(workers=10 ** 6).per_state)
            many.append(scan().per_state)
    assert indices == [[[0, 2, 4, 6], [1, 3, 5, 7]]] * 2 + [[[k] for k in range(8)]] * 2
    assert many == [scan(workers=1).per_state] * 4
