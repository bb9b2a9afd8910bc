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
from mmregret.engine import _CSV_BLOCK_ROWS, choice_table
from mmregret.mathutil import binom_pmf_matrix, binom_pmf_vector
from mmregret.rules import Predictor, TableRule
from reference import (_per_cell_report_to_csv, bernoulli_survey_mse, comb_pmf, enumerate_trial,
                       es_choose, iid_bernoulli_survey_mc, iid_beta_survey_mc, iid_trial_mc,
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


def _one_state_record(rule, grid, design, reps=None, seed=None):
    """The record of one state: a scan of the grid that holds only that state, so
    Monte Carlo draws from substream 0. A trial scan is exact."""
    assert len(grid) == 1
    if grid.family == "binary_trial":
        return max_regret_scan(rule, grid, design).record(0)
    return max_mse_scan(rule, grid, design, reps, seed).record(0)


def _lead_rule(n):
    """A randomized rule for n < 50, given as a table of a function of the outcome:
    the mass on b rises with b's lead, a distinct value per lead."""
    return TableRule(np.fromfunction(lambda a, b: 0.5 + (b - a) / 100, (n + 1, n + 1)))


def _iid_regret(table, n, p_a, p_b, reps, rng):
    """The regret of a trial rule in state (p_a, p_b) by plain iid MC of both arms,
    and its standard error: tests/reference.py shares nothing with the scan."""
    gap = abs(p_a - p_b)
    prob_b, se_b = iid_trial_mc(table, n, p_a, p_b, reps, rng)
    return gap * (prob_b if p_a > p_b else 1.0 - prob_b), gap * se_b


class TestValueClasses:
    """The exact trial scan against plain iid MC of both arms."""

    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("kind", ["table", "outcome"])
    def test_rules_of_distinct_row_values_within_four_stderr(self, kind, n):
        # every row's values are distinct: n + 1 of them
        if kind == "table":
            rule = TableRule(np.random.default_rng(n).random((n + 1, n + 1)))
        else:
            rule = _lead_rule(n)
        table = choice_table(rule, n)
        assert all(len(np.unique(row)) == n + 1 for row in table)
        grid = build_binary_grid(0.125)
        exact = max_regret_scan(rule, grid, TrialDesign(per_arm_n=n)).regret
        se = np.empty(len(grid))
        for k, (p_a, p_b) in enumerate(itertools.product(grid.points_a, grid.points_b)):
            ref, se[k] = _iid_regret(table, n, p_a, p_b, 20_000, np.random.default_rng(k))
            # the 1e-12 floor covers states whose draws of both arms are certain (p_a
            # and p_b 0 or 1), where the reference is exact and its stderr 0 up to
            # rounding
            assert abs(exact[k] - ref) <= 4 * se[k] + 1e-12
        assert (se > 0).sum() > len(grid) / 2

    @pytest.mark.parametrize("kind", ["es", "table", "ztest"])
    def test_agrees_with_iid_reference_and_exact_at_no_larger_stderr(self, kind):
        # the exact scan's stderr is 0, no larger than the reference's; the random
        # table's rows each hold n + 1 distinct values
        n, reps = 20, 20_000
        rule = {"es": ES, "ztest": ZTEST}.get(kind) or TableRule(
            np.random.default_rng(3).random((n + 1, n + 1)))
        table = choice_table(rule, n)
        axes = [0.53, 0.3, 0.8], [0.47, 0.6, 0.65]  # gaps of 0.06 to 0.35
        report = max_regret_scan(rule, build_product_grid(*axes), TrialDesign(per_arm_n=n))
        assert report.method == "exact" and report.seed is None
        assert not report.mc_stderr.any()
        for k, (p_a, p_b) in enumerate(itertools.product(*axes)):
            ref, se_ref = _iid_regret(table, n, p_a, p_b, reps, np.random.default_rng(k))
            assert se_ref > 0
            assert abs(report.regret[k] - ref) <= 4 * se_ref


MEDIAN = DecisionRule("analog_predictor", {"loss": "absolute"})

AFFINE_IDS = ["midpoint", "hodges_lehmann", "analog_mean"]
AFFINE = [DecisionRule(name) for name in AFFINE_IDS]


def _random_miss_grid():
    """Eight Beta states, on which the median under random_miss draws."""
    return build_prediction_grid("beta", obs_params=[(1.0, 1.0), (2.0, 5.0)],
                                 miss_params=[(0.5, 2.0), (2.0, 0.5)], miss_rates=[0.25, 0.5])


def _nonaffine(rule):
    """The rule's predictions from a predictor the scan does not know as affine, so
    that on Beta outcomes it draws."""
    return Predictor(rule.statistic, lambda *args: rule.predict(*args))


def _beta_state_grid(obs, miss, miss_rate, support):
    """The grid of one Beta survey state: shapes obs and miss, and a miss rate."""
    return build_prediction_grid("beta", obs_params=[obs], miss_params=[miss],
                                 miss_rates=[miss_rate], support=support)


class TestHistogramMonteCarlo:
    """Survey MSE under random_miss: a Bernoulli survey is an exact sum over the
    observed and success counts, and a Beta one under a nonlinear predictor draws."""

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
                    for m, pm in enumerate(comb_pmf(total, 1 - miss))
                    for k, pk in enumerate(comb_pmf(m, theta_obs)))
        # an MC request runs the exact sum, and draws nothing
        report = max_mse_scan(rule, state, SurveyDesign("random_miss", total),
                              50_000, SeedSpec(17))
        assert report.method == "exact" and report.seed is None
        assert not report.mc_stderr.any()
        assert abs(report.regret[0] - exact) <= 1e-12

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
                    for m, pm in enumerate(comb_pmf(total, 1 - miss)))
        report = max_mse_scan(_nonaffine(DecisionRule("midpoint")),
                              _beta_state_grid(obs, miss_dist, miss, support),
                              SurveyDesign("random_miss", total), 50_000, SeedSpec(23))
        assert report.method == "monte_carlo" and report.mc_stderr[0] > 0
        assert abs(report.regret[0] - exact) <= 4 * report.mc_stderr[0]

    @pytest.mark.parametrize("total,reps", [(2000, 20_000), (20000, 2000)])
    def test_bernoulli_random_miss_large_n_matches_closed_form(self, total, reps):
        # the midpoint predicts K/N + (1 - M/N)/2 = 1/2 + sum_i D_i (Y_i - 1/2) / N
        # over N iid units with D_i ~ Bern(q) observed and Y_i ~ Bern(theta)
        theta, theta_miss, miss = 0.5, 0.1, 0.2
        q = 1 - miss
        mu = q * theta + miss * theta_miss
        var_x = q / 4 - (q * (theta - 0.5)) ** 2
        exact = var_x / total + (q * theta + 0.5 - q / 2 - mu) ** 2
        # an MC request of reps replications runs the closed form
        report = max_mse_scan(DecisionRule("midpoint"), _bern_state_grid(theta, theta_miss, miss),
                              SurveyDesign("random_miss", total), reps,
                              SeedSpec(29))
        assert report.method == "exact" and not report.mc_stderr.any()
        assert report.regret[0] == pytest.approx(exact, rel=1e-12, abs=0)

    def test_each_distinct_pmf_is_computed_once_per_scan(self, monkeypatch):
        calls = []

        def counting(n, ps):
            calls.append((n, tuple(np.asarray(ps).tolist())))
            return binom_pmf_matrix(n, ps)

        monkeypatch.setattr(engine, "binom_pmf_matrix", counting)
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.7], miss_params=[0.1, 0.5],
                                     miss_rates=[0.2, 0.4])
        # the median under random_miss enumerates: one PMF matrix of the observed
        # count, and one of the success count per n = 1..12
        max_mse_scan(MEDIAN, grid, SurveyDesign("random_miss", 12),
                     20_000, SeedSpec(5))
        assert len(calls) == len(set(calls)) == 13
        # a Beta scan sizes its draws by its one PMF matrix of the observed count
        calls.clear()
        max_mse_scan(MEDIAN, _random_miss_grid(), SurveyDesign("random_miss", 12),
                     2000, SeedSpec(5))
        assert calls == [(12, (0.75, 0.5))]

    @pytest.mark.parametrize("design", [SurveyDesign("random_miss", 12),
                                        SurveyDesign("fixed_n", 12)])
    def test_predictor_sees_only_means_that_occur(self, design):
        def strict(m, p1):  # not finite off the support of the observed mean
            m = np.asarray(m, dtype=float)
            return np.where((m >= 0) & (m <= 1), m, np.nan)

        grid = build_prediction_grid("bernoulli", obs_params=[0.0, 0.3, 1.0], miss_params=[0.6],
                                     miss_rates=[0.0, 0.4, 1.0])
        got = max_mse_scan(DecisionRule("custom", {"predict_mean": strict}), grid, design)
        plain = max_mse_scan(DecisionRule("custom", {"predict_mean": lambda m, p1: m}), grid,
                             design)
        assert np.isfinite(got.regret).all() and got.regret.tolist() == plain.regret.tolist()

    # a survey scan runs in one process on any CPU count: it forks nothing and
    # repeats bit for bit. A nonlinear predictor under random_miss: a Bernoulli scan
    # runs exact, a Beta one draws, under random_miss or with a fixed N
    @pytest.mark.parametrize("family,params,design,predictor", [
        ("bernoulli", [0.2, 0.7], SurveyDesign("random_miss", 9), MEDIAN),
        ("bernoulli", [0.2, 0.7], SurveyDesign("random_miss", 9),
         DecisionRule("custom", {"mean_table": [(0, 0.1), (0.5, 0.6), (1, 0.8)]})),
        ("beta", [(1.0, 1.0), (2.0, 5.0)], SurveyDesign("random_miss", 9), MEDIAN),
        ("beta", [(1.0, 1.0), (2.0, 5.0)], SurveyDesign("fixed_n", 9), MEDIAN),
        ("beta", [(1.0, 1.0), (2.0, 5.0)], SurveyDesign("random_miss", 9),
         DecisionRule("custom", {"mean_table": [(0, 0.1), (0.5, 0.6), (1, 0.8)]})),
        ("beta", [(1.0, 1.0), (2.0, 5.0), (0.5, 0.5)], SurveyDesign("random_miss", 12),
         DecisionRule("analog_median"))])
    def test_mse_scan_forks_nothing_and_repeats(self, family, params, design, predictor,
                                                monkeypatch):
        grid = build_prediction_grid(family, obs_params=params, miss_params=params,
                                     miss_rates=[0.1, 0.5])
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a survey scan forked"))
        one = max_mse_scan(predictor, grid, design, 2000, SeedSpec(3))
        again = max_mse_scan(predictor, grid, design, 2000, SeedSpec(3))
        assert _column_bytes(again) == _column_bytes(one)
        assert (one.mc_stderr > 0).all() == (family == "beta")

    def test_lambda_predictor_draws_as_the_wrapped_midpoint(self):
        rule = DecisionRule("custom", {"predict_mean": lambda m, p1: m * p1 + (1 - p1) / 2})
        grid = build_prediction_grid("beta", obs_params=[(2.0, 5.0), (0.5, 0.5)],
                                     miss_params=[(1.0, 1.0)], miss_rates=[0.2])
        design = SurveyDesign("random_miss", 6)
        one = max_mse_scan(rule, grid, design, 2000, SeedSpec(3))
        assert one.mc_stderr.all()
        # the same draws as the named midpoint behind a wrapper (its own scan is exact)
        midpoint = max_mse_scan(_nonaffine(DecisionRule("midpoint")), grid, design, 2000,
                                SeedSpec(3))
        assert one.regret.tolist() == midpoint.regret.tolist()


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
       seed=st.integers(0, 2 ** 31 - 1), offset=st.sampled_from([0.0, -3.0, 1e3]))
@settings(max_examples=50, deadline=None)
def test_block_moments_match_the_one_pass_central_moments(sizes, seed, offset):
    # power sums about the first block's means, over blocks of two columns, against
    # central moments taken about the mean of all the values: the sums run in another
    # order, so they agree to round-off of the values' spread
    values = offset + np.random.default_rng(seed).random((sum(sizes), 2)) ** 2
    bounds = np.cumsum([0] + sizes)
    got = engine._central_moments(values[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    mean = values.mean(axis=0)
    want = [mean] + [np.mean((values - mean) ** k, axis=0) for k in (2, 3, 4)]
    scale = np.ptp(values, axis=0) + 1e-300
    assert np.abs(got[0] - want[0]).max() <= 1e-12 * max(1.0, abs(offset))
    for k, (g, w) in enumerate(zip(got[1:], want[1:]), 2):
        assert (np.abs(g - w) <= 1e-12 * scale ** k).all()


def test_beta_mc_memory_does_not_grow_with_reps():
    # 10^6 samples of 10 draws: each block of 2^18 draws is reduced to its count,
    # mean and sum of squared deviations before the next is drawn
    import tracemalloc
    grid = build_prediction_grid("beta", obs_params=[(2.0, 5.0)], miss_params=[(0.5, 2.0)],
                                 miss_rates=[0.2])
    tracemalloc.start()
    try:
        report = max_mse_scan(DecisionRule("analog_median"), grid, SurveyDesign("fixed_n", 10),
                              10 ** 6, SeedSpec(1))
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

    def test_custom_trial_table_reproduces_es(self, tmp_path):
        grid, design = build_binary_grid(0.125), TrialDesign(per_arm_n=12)
        table_rule = DecisionRule("custom", {"trial_table": choice_table(ES, 12)})
        got = max_regret_scan(table_rule, grid, design)
        want = max_regret_scan(ES, grid, design)
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

    @pytest.mark.parametrize("k,n", [(2, 145), (7, 1), ((1 << 53) + 1, 3),
                                     ((1 << 63) - 1, (1 << 63) - 1)])
    def test_bounds_keep_the_bits_of_numpy_on_ints(self, k, n):
        b = regret_bounds(k, 1.5, n)
        assert b.bound_10 == float((2.0 * np.e) ** -0.5 * 1.5 * (k - 1) / np.sqrt(n))
        assert b.bound_11 == float(1.5 * np.sqrt(np.log(k)) / np.sqrt(n))


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
            mse = _one_state_record(rule, _bern_state_grid(theta, theta, 0.0), design).regret
            assert mse == pytest.approx(expect, abs=1e-9)

    def test_midpoint_no_missing_is_sample_mean_mse(self):
        design = SurveyDesign("fixed_n", 8)
        rule = DecisionRule("midpoint")
        for theta in (0.2, 0.5, 0.9):
            mse = _one_state_record(rule, _bern_state_grid(theta, theta, 0.0), design).regret
            assert mse == pytest.approx(theta * (1 - theta) / 8, abs=1e-12)

    def test_degenerate_state_zero(self):
        design = SurveyDesign("fixed_n", 5)
        mse = _one_state_record(DecisionRule("midpoint"), _bern_state_grid(1.0, 1.0, 0.0),
                                design).regret
        assert mse == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [26, 400, 5000])
    def test_exact_has_no_sample_size_cap(self, n):
        design = SurveyDesign("fixed_n", n)
        for theta in (0.2, 0.5, 0.9):
            mse = _one_state_record(DecisionRule("midpoint"), _bern_state_grid(theta, theta, 0.0),
                                    design).regret
            assert mse == pytest.approx(theta * (1 - theta) / n, rel=0, abs=1e-16)

    def test_exact_mode_guard(self):
        # a nonlinear predictor has an exact path for Bernoulli outcomes under either
        # design, and none on Beta outcomes; the affine midpoint has one everywhere
        beta = _beta_state_grid((1.0, 1.0), (2.0, 5.0), 0.2, (0.0, 1.0))
        bernoulli = _bern_state_grid(0.5, 0.5, 0.2)
        for design in (SurveyDesign("fixed_n", 5), SurveyDesign("random_miss", 5)):
            with pytest.raises(PreconditionError):
                _one_state_record(MEDIAN, beta, design)
            _one_state_record(DecisionRule("midpoint"), beta, design)
            _one_state_record(DecisionRule("midpoint"), bernoulli, design)
            _one_state_record(MEDIAN, bernoulli, design)

    def test_mc_matches_exact(self):
        # the exact random_miss sum against iid draws of the observed count, then
        # the successes, per replication (the reference's MC)
        design = SurveyDesign("random_miss", 10)
        table = DecisionRule("custom", {"mean_table": [(0, 0.3), (0.4, 0.1), (0.7, 0.9),
                                                       (1, 0.6)]})
        for k, (rule, (obs, miss, rate)) in enumerate(itertools.product(
                [MEDIAN, table], [(0.5, 1.0, 0.2), (0.3, 0.0, 0.6), (0.85, 0.4, 0.05)])):
            exact = _one_state_record(rule, _bern_state_grid(obs, miss, rate), design).regret
            mse, stderr = iid_bernoulli_survey_mc(rule, obs, miss, rate, design, 100_000,
                                                  SeedSpec(2).rng(k, 0))
            assert stderr > 0
            assert abs(mse - exact) <= 4 * stderr

    @given(rows=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-2.0, 2.0)), min_size=1,
                         max_size=5),
           random_miss=st.booleans(), total=st.integers(1, 30),
           obs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           rates=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_exact_mean_table_equals_the_double_sum(self, rows, random_miss, total, obs, rates):
        rule = DecisionRule("custom", {"mean_table": rows})
        design = SurveyDesign("random_miss" if random_miss else "fixed_n", total)
        grid = build_prediction_grid("bernoulli", obs_params=obs, miss_params=[0.25],
                                     miss_rates=rates)
        got = max_mse_scan(rule, grid, design).regret
        want = [bernoulli_survey_mse(rule, *state, design)
                for state in itertools.product(obs, [0.25], rates)]
        assert np.abs(got - want).max() <= 1e-12


class TestMaxMseScan:
    @pytest.fixture
    def bern_grid(self):
        thetas = list(np.linspace(0, 1, 11))
        return build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[0.2])

    def test_midpoint_known_miss_matches_formula_exact(self, bern_grid):
        design = SurveyDesign("fixed_n", 10)
        report = max_mse_scan(DecisionRule("midpoint"), bern_grid, design)
        assert report.max_regret == pytest.approx(
            midpoint_max_regret_formula(0.8, 10), abs=1e-9)

    def test_midpoint_known_miss_matches_formula_mc(self, bern_grid):
        # an MC request with an exact path runs that path, and the report says so
        design = SurveyDesign("fixed_n", 10)
        report = max_mse_scan(DecisionRule("midpoint"), bern_grid, design,
                              50_000, SeedSpec(8))
        assert report.method == "exact" and not report.mc_stderr.any()
        assert report.max_regret == pytest.approx(midpoint_max_regret_formula(0.8, 10),
                                                  rel=0, abs=1e-12)

    def test_no_missing_reduces_to_quarter_n(self):
        thetas = list(np.linspace(0, 1, 11))
        grid = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[0.0])
        design = SurveyDesign("fixed_n", 25)
        report = max_mse_scan(DecisionRule("midpoint"), grid, design)
        assert report.max_regret == pytest.approx(0.01, abs=1e-9)

    def test_fully_missing_is_quarter(self):
        thetas = [0.0, 0.5, 1.0]
        grid = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[1.0])
        design = SurveyDesign("fixed_n", 5)
        report = max_mse_scan(DecisionRule("midpoint"), grid, design)
        assert report.max_regret == pytest.approx(0.25, abs=1e-9)

    def test_restriction_never_raises_max(self):
        thetas = list(np.linspace(0, 1, 11))
        design = SurveyDesign("fixed_n", 10)
        full = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[0.3])
        restricted = build_prediction_grid("bernoulli", obs_params=thetas,
                                           miss_params=thetas, miss_rates=[0.3],
                                           min_missing_mean=0.5)
        full_max = max_mse_scan(DecisionRule("midpoint"), full, design).max_regret
        restr_max = max_mse_scan(DecisionRule("midpoint"), restricted, design).max_regret
        assert restr_max <= full_max + 1e-15

    @pytest.mark.parametrize("rule", [DecisionRule("midpoint"), MEDIAN], ids=["midpoint", "median"])
    def test_fixed_n_exact_and_mc_agree_at_every_miss_rate(self, rule):
        # one grid, four miss rates: the scan and the reference's iid draws both read
        # p1 = 1 - the state's miss rate
        obs, miss, rates = [0.2, 0.5, 0.9], [0.0, 0.4, 1.0], [0.0, 0.25, 0.6, 1.0]
        grid = build_prediction_grid("bernoulli", obs_params=obs, miss_params=miss,
                                     miss_rates=rates)
        design = SurveyDesign("fixed_n", 10)
        exact = max_mse_scan(rule, grid, design)
        mse, stderr = np.array([iid_bernoulli_survey_mc(rule, *state, design, 20_000,
                                                        SeedSpec(19).rng(k, 0))
                                for k, state in enumerate(itertools.product(obs, miss, rates))]).T
        assert (np.abs(mse - exact.regret) <= 4 * stderr + 1e-12).all()
        assert (stderr > 0).sum() > len(grid) / 2

    @pytest.mark.parametrize("rule", [DecisionRule("midpoint"), DecisionRule("hodges_lehmann"),
                                      DecisionRule("analog_predictor"), MEDIAN,
                                      DecisionRule("custom", {"mean_table": [(0, 0.2), (1, 0.9)]})],
                             ids=["midpoint", "hodges_lehmann", "mean", "median", "table"])
    # explicit ids, so that each case keeps the name the suite reports it by
    @pytest.mark.parametrize("n,support", [(7, (0.0, 1.0)), (7, (-1.0, 2.5)), (200, (0.0, 1.0))],
                             ids=["7-None-support0", "7-None-support1", "200-None-support2"])
    def test_exact_equals_per_state_dot_product(self, rule, n, support):
        # the per-state arithmetic of the scan before it was columnar; at n = 200
        # the grid spans more than one chunk of the contraction. The scan sums the
        # mean and variance of the prediction, not the squared errors, so the two
        # agree to round-off
        from mmregret.engine import _bernoulli_predictions
        thetas = [0.0, 0.3, 0.3, 0.55, 1.0] if n == 7 else np.linspace(0, 1, 21).tolist()
        rates = [0.0, 0.25, 0.6, 1.0]
        grid = build_prediction_grid("bernoulli", obs_params=thetas, miss_params=thetas[::-1],
                                     miss_rates=rates, support=support)
        design = SurveyDesign("fixed_n", n)
        report = max_mse_scan(rule, grid, design)
        want = []
        for obs, miss, rate in itertools.product(thetas, thetas[::-1], rates):
            pred = _bernoulli_predictions(rule, np.arange(n + 1), n, 1.0 - rate, support)
            mean = state_means("bernoulli", obs, miss, rate, support)[2]
            want.append(binom_pmf_vector(n, obs) @ (pred - mean) ** 2)
        assert np.abs(report.regret - want).max() <= 1e-14


_BETA_SHAPES = [(0.5, 0.5), (1.0, 1.0), (2.0, 5.0), (5.0, 2.0)]
# 4 observed shapes x 2 missing shapes x 3 miss rates, on a support other than [0, 1]
_BETA_MC_GRID = build_prediction_grid("beta", obs_params=_BETA_SHAPES,
                                      miss_params=[(0.5, 2.0), (2.0, 0.5)],
                                      miss_rates=[0.0, 0.3, 0.8], support=(-1.0, 3.0))


class TestAffineClosedForm:
    """A predictor affine in the observed mean has its MSE in closed form, for
    either outcome family and design."""

    @given(rule=st.sampled_from(AFFINE), random_miss=st.booleans(), total=st.integers(1, 40),
           obs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           miss=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
           rates=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           y0=st.floats(-5.0, 5.0), width=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_bernoulli_matches_the_double_sum(self, rule, random_miss, total, obs, miss, rates,
                                              y0, width):
        support = (y0, y0 + width)
        design = SurveyDesign("random_miss" if random_miss else "fixed_n", total)
        grid = build_prediction_grid("bernoulli", obs_params=obs, miss_params=miss,
                                     miss_rates=rates, support=support)
        got = max_mse_scan(rule, grid, design).regret
        want = [bernoulli_survey_mse(rule, *state, design, support)
                for state in itertools.product(obs, miss, rates)]
        # both sides square differences of values of the support's scale, rounded
        # to an ulp of it: by Cauchy-Schwarz that moves an MSE by at most 4 ulp times
        # its root, which dominates 1e-12 relative only in near-degenerate states
        ulp = np.finfo(float).eps * max(abs(y0), abs(y0 + width))
        for g, w in zip(got.tolist(), want):
            assert abs(g - w) <= 1e-12 * w + 4 * ulp * np.sqrt(w)

    @pytest.mark.parametrize("rule", AFFINE, ids=AFFINE_IDS)
    @pytest.mark.parametrize("design", [SurveyDesign("fixed_n", 7),
                                        SurveyDesign("random_miss", 7)], ids=["fixed_n",
                                                                              "random_miss"])
    def test_beta_within_four_stderr_of_monte_carlo(self, rule, design):
        # the rule behind a wrapper the scan does not know as affine draws
        exact = max_mse_scan(rule, _BETA_MC_GRID, design).regret
        drawn = max_mse_scan(_nonaffine(rule), _BETA_MC_GRID, design, 100_000, SeedSpec(41))
        assert drawn.method == "monte_carlo" and (drawn.mc_stderr > 0).all()
        assert (np.abs(drawn.regret - exact) <= 4 * drawn.mc_stderr).all()

    @pytest.mark.parametrize("rule", [MEDIAN, DecisionRule(
        "custom", {"mean_table": [(-1.0, 0.5), (0.2, -0.3), (1.0, 2.0), (3.0, 1.0)]})],
        ids=["median", "mean_table"])
    @pytest.mark.parametrize("design", [SurveyDesign("fixed_n", 7),
                                        SurveyDesign("random_miss", 7)], ids=["fixed_n",
                                                                              "random_miss"])
    def test_nonlinear_beta_agrees_with_the_iid_reference(self, rule, design):
        # both sides draw: the scan the moments of the prediction per shape and count,
        # the reference each replication's count and outcomes. Under fixed_n both
        # stderrs estimate one number; under random_miss the scan draws each count at
        # least in proportion to its weight, which can only shrink its stderr
        report = max_mse_scan(rule, _BETA_MC_GRID, design, 100_000, SeedSpec(43))
        g = _BETA_MC_GRID
        for k in range(len(g)):
            ref, se = iid_beta_survey_mc(
                rule, g.obs_params[g.index_obs[k]].tolist(),
                g.miss_params[g.index_miss[k]].tolist(), g.miss_rates[g.index_rate[k]],
                design, 100_000, np.random.default_rng(k), g.support)
            assert se > 0 and report.mc_stderr[k] > 0
            assert abs(report.regret[k] - ref) <= 4 * np.hypot(se, report.mc_stderr[k])
            ratio = report.mc_stderr[k] / se
            assert 0.95 < ratio < 1.05 if design.mode == "fixed_n" else ratio < 1.05

    def test_beta_random_miss_with_nothing_observed_is_the_midpoint_error(self):
        # no count n >= 1 has weight: nothing is drawn, and the MSE is exact
        grid = build_prediction_grid("beta", obs_params=_BETA_SHAPES, miss_params=_BETA_SHAPES,
                                     miss_rates=[1.0], support=(-1.0, 3.0))
        report = max_mse_scan(MEDIAN, grid, SurveyDesign("random_miss", 7), 1000, SeedSpec(1))
        assert report.method == "monte_carlo" and not report.mc_stderr.any()
        assert report.regret.tolist() == ((1.0 - grid.population_mean) ** 2).tolist()

    def test_beta_fixed_n_with_every_outcome_missing_is_finite(self):
        grid = build_prediction_grid("beta", obs_params=_BETA_SHAPES, miss_params=_BETA_SHAPES,
                                     miss_rates=[1.0])
        report = max_mse_scan(MEDIAN, grid, SurveyDesign("fixed_n", 7), 1000, SeedSpec(1))
        assert np.isfinite(report.regret).all() and np.isfinite(report.mc_stderr).all()

    def test_beta_midpoint_is_the_benchmark_formula(self):
        # p1^2 var / N + (1 - p1)^2 (1/2 - E_miss)^2 on [0, 1], for N known; an MC
        # request runs the closed form
        rates, total = [0.0, 0.2, 0.5, 1.0], 10
        grid = build_prediction_grid("beta", obs_params=_BETA_SHAPES, miss_params=_BETA_SHAPES,
                                     miss_rates=rates)
        report = max_mse_scan(DecisionRule("midpoint"), grid, SurveyDesign("fixed_n", total),
                              10_000, SeedSpec(11))
        assert report.method == "exact" and not report.mc_stderr.any()
        for k, ((a, b), (a_miss, b_miss), rate) in enumerate(
                itertools.product(_BETA_SHAPES, _BETA_SHAPES, rates)):
            p1 = 1.0 - rate
            var = a * b / ((a + b) ** 2 * (a + b + 1.0))
            want = p1 ** 2 * var / total + (1.0 - p1) ** 2 * (0.5 - a_miss / (a_miss + b_miss)) ** 2
            assert abs(report.regret[k] - want) <= 1e-15


    @pytest.mark.parametrize("shape", [1e103, 1e200])
    def test_beta_variance_of_huge_equal_shapes_is_finite(self, shape):
        # a b / ((a + b)^2 (a + b + 1)) overflowed to NaN above a = b of about 3e102;
        # the missing mean is the midpoint, so the MSE is p1^2 var / N
        grid = build_prediction_grid("beta", obs_params=[(shape, shape)],
                                     miss_params=[(1.0, 1.0)], miss_rates=[0.2])
        report = max_mse_scan(DecisionRule("midpoint"), grid, SurveyDesign("fixed_n", 10))
        assert report.regret[0] == pytest.approx(0.8 ** 2 * 0.25 / (2 * shape + 1) / 10,
                                                 rel=1e-15, abs=0)

    def test_beta_variance_keeps_its_bits_on_the_benchmark_shapes(self):
        grid = build_prediction_grid("beta", obs_params=_BETA_SHAPES, miss_params=[(1.0, 1.0)],
                                     miss_rates=[0.0])
        m, v = engine._prediction_moments(DecisionRule("analog_mean"), grid, np.array([1]),
                                          np.array([1.0]))[:2]
        a, b = np.array(_BETA_SHAPES).T
        assert v[:, 0].tolist() == (a * b / ((a + b) ** 2 * (a + b + 1.0))).tolist()


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
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            report = max_mse_scan(MEDIAN, _random_miss_grid(), SurveyDesign("random_miss", 9),
                                  2000, SeedSpec(4))
            report_to_csv(report, path)
        assert a.read_bytes() == b.read_bytes()


class TestScanPreconditions:
    @pytest.mark.parametrize("reps", [999, 1 << 63, 10 ** 20, 2000.0])
    def test_mc_reps_outside_a_sampler_count_rejected(self, reps):
        # on either path: a Bernoulli survey has an exact one, a Beta median none
        bernoulli = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                          miss_rates=[0.2])
        for grid in (bernoulli, _random_miss_grid()):
            with pytest.raises(PreconditionError, match="MC replications must be an integer"):
                max_mse_scan(MEDIAN, grid, SurveyDesign("fixed_n", 5), reps)

    def test_mc_reps_at_the_bounds_accepted(self):
        beta = build_prediction_grid("beta", obs_params=[(2.0, 5.0)], miss_params=[(1.0, 1.0)],
                                     miss_rates=[0.2])
        low = max_mse_scan(MEDIAN, beta, SurveyDesign("fixed_n", 5), np.int64(1000))
        assert low.reps == 1000 and low.method == "monte_carlo"
        # accepted, and run exact: a Bernoulli survey draws nothing
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.6], miss_params=[0.3, 0.7],
                                     miss_rates=[0.25, 0.5])
        report = max_mse_scan(MEDIAN, grid, SurveyDesign("random_miss", 5), (1 << 63) - 1,
                              SeedSpec(1))
        assert np.isfinite(report.regret).all() and report.max_regret > 0
        assert report.method == "exact" and report.reps == 0 and report.seed is None

    @pytest.mark.parametrize("method", [(), ("--method", "mc", "--reps", "1000")],
                             ids=["exact", "mc"])
    def test_trial_n_above_the_cap_rejected_before_any_table(self, method, monkeypatch,
                                                             capsys):
        from mmregret.cli import main

        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(engine, "binom_pmf_matrix", no_table)
        monkeypatch.setattr(engine, "choice_table", no_table)
        with pytest.raises(PreconditionError, match="per-arm n=10001 above 10000"):
            max_regret_scan(ES, build_binary_grid(0.5), TrialDesign(per_arm_n=10_001))
        # the command line's MC request runs the same exact scan
        assert main(["scan", "--rule", "es", "--n", "10001", "--step", "0.5", *method]) == 3
        assert "per-arm n=10001 above 10000" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", [None, 1000], ids=["exact", "mc"])
    def test_survey_n_beyond_the_memory_bound_rejected_before_any_pmf(self, reps,
                                                                      monkeypatch):
        calls = []

        def spy(fn):
            def recorded(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return recorded

        monkeypatch.setattr(engine, "binom_pmf_matrix", spy(engine.binom_pmf_matrix))
        # two distinct observed thetas and one miss rate: 3 (n + 1) entries
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.7, 0.2],
                                     miss_params=[0.5], miss_rates=[0.2])
        scan = partial(max_mse_scan, DecisionRule("midpoint"), grid, reps=reps,
                       seed=SeedSpec(1))
        with pytest.raises(PreconditionError, match="survey n=100000000 gives 3e\\+08"):
            scan(SurveyDesign("fixed_n", 100_000_000))
        assert calls == []
        monkeypatch.setattr(engine, "_MAX_GRID_STATES", 30)
        for design in (SurveyDesign("fixed_n", 10), SurveyDesign("random_miss", 10)):
            with pytest.raises(PreconditionError, match="above the 30"):
                scan(design)
        assert calls == []
        # 30 entries, at the bound: the PMF of the observed count is built
        scan(SurveyDesign("random_miss", 9))
        assert calls

    def test_exact_scan_needs_bernoulli_outcomes(self):
        # for a predictor that is not affine in the observed mean
        grid = build_prediction_grid("beta", obs_params=[(1.0, 1.0)],
                                     miss_params=[(2.0, 5.0)], miss_rates=[0.2])
        with pytest.raises(PreconditionError, match="exact MSE needs Bernoulli outcomes"):
            max_mse_scan(DecisionRule("analog_median"), grid,
                         SurveyDesign("fixed_n", 5))

    def test_exact_scan_runs_either_bernoulli_design(self):
        # for a predictor that is not affine in the observed mean
        grid = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                     miss_rates=[0.2])
        for design in (SurveyDesign("fixed_n", 5), SurveyDesign("random_miss", 5)):
            report = max_mse_scan(DecisionRule("analog_median"), grid, design)
            want = bernoulli_survey_mse(MEDIAN, 0.5, 0.5, 0.2, design)
            assert abs(report.regret[0] - want) <= 1e-15

    @pytest.mark.parametrize("reps", [None, 1000], ids=["exact", "mc"])
    def test_random_miss_enumeration_beyond_its_cell_bound_rejected_before_any_pmf(
            self, reps, monkeypatch, capsys, tmp_path):
        import time
        from mmregret.cli import main
        calls, reached = [], []

        def spy(*args):
            calls.append(args)
            return binom_pmf_matrix(*args)

        monkeypatch.setattr(engine, "binom_pmf_matrix", spy)
        monkeypatch.setattr(engine, "_survey_mse", lambda rule, grid, *rest: (
            reached.append(grid), np.zeros((2, len(grid))))[-1])
        grid = build_prediction_grid("bernoulli", obs_params=[0.3], miss_params=[0.5],
                                     miss_rates=[0.2])
        # one theta: N (N + 1) / 2 PMF cells, 2^27 + 8,192 at N = 16,384
        scan = partial(max_mse_scan, MEDIAN, grid, reps=reps, seed=SeedSpec(1))
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="n=16384 under random_miss gives 1.342e\\+08"):
            scan(SurveyDesign("random_miss", 16_384))
        # three thetas: 134,223,210 cells at N = 9,459
        cfg = tmp_path / "over.cfg"
        cfg.write_text("predictor = analog_median\ntheta_obs_step = 0.5\ntheta_miss_step = 0.5\n"
                       f"miss_values = 0.2\nn = 9459\nmiss_known = false\n"
                       f"method = {'exact' if reps is None else 'mc'}\n")
        assert main(["wald-mse", "--config", str(cfg)]) == 3
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "above the 134217728" in err
        assert calls == [] and reached == []
        # the affine midpoint takes the closed form, and fixed_n enumerates N + 1 cells
        max_mse_scan(DecisionRule("midpoint"), grid, SurveyDesign("random_miss", 16_384), reps)
        scan(SurveyDesign("fixed_n", 16_384))
        assert len(reached) == 2
        # 134,209,536 cells, just below the bound: the scan runs
        scan(SurveyDesign("random_miss", 16_383))
        assert len(reached) == 3
        monkeypatch.undo()
        monkeypatch.setattr(engine, "_MAX_ENUMERATED_CELLS", 3 * 10 * 11 // 2)
        grid = build_prediction_grid("bernoulli", obs_params=[0.1, 0.5, 0.9],
                                     miss_params=[0.5], miss_rates=[0.2])
        report = max_mse_scan(MEDIAN, grid, SurveyDesign("random_miss", 10), reps)
        assert report.method == "exact" and report.max_regret > 0
        with pytest.raises(PreconditionError, match="above the 165"):
            max_mse_scan(MEDIAN, grid, SurveyDesign("random_miss", 11), reps)


    @pytest.mark.parametrize("reps", [None, 2000], ids=["method0", "method1"])
    def test_scan_of_the_other_rule_family_rejected(self, reps):
        grid = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                     miss_rates=[0.2])
        with pytest.raises(PreconditionError, match="not a trial-choice rule"):
            max_regret_scan(DecisionRule("midpoint"), build_binary_grid(0.5),
                            TrialDesign(per_arm_n=2))
        with pytest.raises(PreconditionError, match="not a predictor"):
            max_mse_scan(ES, grid, SurveyDesign("fixed_n", 5), reps)


def _no_child_left():
    """True when this process has no child, waited for or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


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
                     f"method={report.method}", f"reps={report.reps}",
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
        # an MC request that runs the exact random_miss sum
        "mc_bernoulli_median": lambda: max_mse_scan(
            MEDIAN, build_prediction_grid("bernoulli", obs_params=[0.2, 0.6],
                                          miss_params=[0.3, 0.7], miss_rates=[0.25, 0.5]),
            SurveyDesign("random_miss", 9), 2000, SeedSpec(4)),
        "mc_beta_median_random_miss": lambda: max_mse_scan(
            MEDIAN, _random_miss_grid(), SurveyDesign("random_miss", 9),
            2000, SeedSpec(4)),
        "exact_midpoint": lambda: max_mse_scan(
            DecisionRule("midpoint"),
            build_prediction_grid("bernoulli", obs_params=list(np.linspace(0, 1, 11)),
                                  miss_params=list(np.linspace(0, 1, 11)),
                                  miss_rates=[0.2, 0.5]),
            SurveyDesign("fixed_n", 10)),
        "mc_beta_median": lambda: max_mse_scan(
            DecisionRule("analog_predictor", {"loss": "absolute"}), _beta_grid(),
            SurveyDesign("fixed_n", 5), 1000,
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
        assert not self.CASES["mc_bernoulli_median"]().mc_stderr.any()
        assert self.CASES["mc_beta_median_random_miss"]().mc_stderr.all()
        assert any(r.mc_stderr > 0 for r in self.CASES["mc_beta_median"]().per_state)
        assert len(self.CASES["more_rows_than_a_chunk"]().grid) > _CSV_BLOCK_ROWS

    @pytest.mark.parametrize("case", ["exact_es_ties", "mc_bernoulli_median", "exact_midpoint"])
    def test_argmax_record_is_the_argmax_state(self, case):
        report = self.CASES[case]()
        rec = report.record(report.argmax)  # before per_state builds the others
        assert rec == report.per_state[report.argmax]
        assert rec.regret == report.max_regret
        # the first state of largest regret
        first = next(k for k, r in enumerate(report.per_state) if r.regret == report.max_regret)
        assert first == report.argmax

    @pytest.mark.parametrize("scan", ["trial", "survey"])
    def test_argmax_is_the_first_of_tied_states(self, scan):
        if scan == "trial":
            # n=1 and p in {0, 0.5, 1}: every PMF entry and regret is dyadic, so four
            # states tie at 0.125 exactly, whatever order the contraction sums in
            report = max_regret_scan(ES, build_product_grid([0, 0.5, 1], [0, 0.5, 1]),
                                     TrialDesign(per_arm_n=1))
        else:
            # a repeated parameter is evaluated once, so each state has a bit-equal twin
            report = max_mse_scan(DecisionRule("midpoint"),
                                  build_prediction_grid("bernoulli", obs_params=[0.2, 0.7] * 2,
                                                        miss_params=[0.0, 1.0],
                                                        miss_rates=[0.5]),
                                  SurveyDesign("fixed_n", 4))
        tied = np.flatnonzero(report.regret == report.regret.max())
        assert len(tied) > 1
        assert report.argmax == tied[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_regret_rejected(self, bad):
        # a NaN or infinite regret is refused before any argmax is read from the column
        from dataclasses import replace
        report = self.CASES["exact_ztest"]()
        regret = report.regret.copy()
        regret[3] = bad
        with pytest.raises(PreconditionError, match="regret of state 3 is .*, not a finite"):
            replace(report, regret=regret)


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
    # a report's regrets and standard errors are finite
    regret, stderr = (np.nan_to_num(c, nan=0.0) for c in (regret, stderr))
    return RegretReport(grid, err, welfare, regret, stderr, 5000 if seed % 2 else 0,
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
    # a report's regrets and standard errors are finite
    regret, stderr = (np.nan_to_num(c, nan=0.0) for c in (regret, stderr))
    return RegretReport(grid, err, welfare, regret, stderr, seed=SeedSpec(seed))


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
        write_parts = engine._write_parts

        def spy(texts, results, fh, bounds):
            parts.append(len(bounds) - 1)
            write_parts(texts, results, fh, bounds)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CSV_PART_ROWS", self.PART_ROWS)
            mp.setattr(engine, "_write_parts", spy)
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

        def no_fork():
            raise AssertionError("a pipe was written in parts")

        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 2)
            mp.setattr(engine, "_CSV_PART_ROWS", 1000)
            mp.setattr(os, "fork", no_fork)
            report_to_csv(report, fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        report_to_csv(report, tmp_path / "file.csv")
        assert got == [(tmp_path / "file.csv").read_bytes()]

    @pytest.mark.parametrize("bad", [0, 2000], ids=["callers_part", "childs_part"])
    def test_a_parts_exception_reaches_the_caller_with_its_type(self, tmp_path, bad):
        # a child's part that raises is written again in the caller, where it raises
        write, caller, fds = engine._csv_rows, os.getpid(), os.listdir("/proc/self/fd")

        def fail_on(texts, results, fh, lo, hi):
            if lo == bad:
                raise PreconditionError(f"the part at row {lo} failed in process {os.getpid()}")
            write(texts, results, fh, lo, hi)

        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 3)
            mp.setattr(engine, "_CSV_PART_ROWS", 1000)
            mp.setattr(engine, "_csv_rows", fail_on)
            with pytest.raises(PreconditionError, match=f"row {bad} failed in process {caller}$"):
                report_to_csv(_boundary_report(3000, 5), tmp_path / "report.csv")
        assert _no_child_left()
        assert os.listdir(tmp_path) == ["report.csv"]
        assert os.listdir("/proc/self/fd") == fds  # every spill file is closed

    def test_a_killed_childs_part_is_written_in_process(self, tmp_path, capsys):
        import signal
        from mmregret.cli import main
        write, caller, written = engine._csv_rows, os.getpid(), []

        def killed(texts, results, fh, lo, hi):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            written.append(lo)
            write(texts, results, fh, lo, hi)

        scan = ["scan", "--rule", "es", "--n", "5", "--step", "0.05"]  # 441 rows
        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 1)
            assert main(scan + ["--out", str(tmp_path / "one.csv")]) == 0
            one = capsys.readouterr()
            _cpus(mp, 3)
            mp.setattr(engine, "_CSV_PART_ROWS", 100)
            mp.setattr(engine, "_csv_rows", killed)
            assert main(scan + ["--out", str(tmp_path / "killed.csv")]) == 0
        assert capsys.readouterr() == one
        assert written == [0, 147, 294]  # both children's parts were written again here
        assert (tmp_path / "killed.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert _no_child_left()
        assert sorted(os.listdir(tmp_path)) == ["killed.csv", "one.csv"]

    def test_a_part_that_fails_only_in_its_child_is_written_in_process(self, tmp_path):
        # the child writes its first rows and then raises: its spill is dropped,
        # and the part's rows appear once, from this process
        import errno
        write, caller, written = engine._csv_rows, os.getpid(), []

        def spill_fills(texts, results, fh, lo, hi):
            if os.getpid() != caller:
                write(texts, results, fh, lo, lo + 10)
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(lo)
            write(texts, results, fh, lo, hi)

        report = _boundary_report(3000, 5)
        report_to_csv(report, tmp_path / "one.csv")
        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 3)
            mp.setattr(engine, "_CSV_PART_ROWS", 1000)
            mp.setattr(engine, "_csv_rows", spill_fills)
            report_to_csv(report, tmp_path / "parts.csv")
        assert written == [0, 1000, 2000]
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert _no_child_left()
        assert sorted(os.listdir(tmp_path)) == ["one.csv", "parts.csv"]

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
