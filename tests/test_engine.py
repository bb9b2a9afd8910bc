import os
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmregret import (
    BinaryTrialState,
    DecisionRule,
    EvalMethod,
    OutcomeDist,
    PredictionState,
    PreconditionError,
    RegretReport,
    SeedSpec,
    SurveyDesign,
    TrialDesign,
    binary_regret,
    build_binary_grid,
    build_prediction_grid,
    error_probability,
    exhaustive_mmr_oracle,
    expected_welfare,
    max_mse_scan,
    max_regret_scan,
    midpoint_max_regret_formula,
    predictor_mse,
    regret_bounds,
    report_to_csv,
)
import mmregret.engine as engine
from mmregret.engine import (_CSV_BLOCK_ROWS, _binomial_counts, _draw_histogram, _mc_mse,
                             _mean_stderr, _trial_report, _value_classes, choice_table)
from mmregret.mathutil import binom_pmf_matrix, binom_pmf_vector
from mmregret.rules import Action, OutcomeRule, TableRule
from mmregret.states import StateGrid
from reference import _per_cell_report_to_csv, enumerate_trial, es_choose, ztest_choose

ES = DecisionRule("empirical_success")
ZTEST = DecisionRule("ztest", {"alpha": 0.05, "status_quo": 0})


def _brute_force_error_prob(rule_fn, state, n):
    """Independent oracle: loop all outcomes, accumulate mass on inferior arm."""
    inferior = 0 if state.p_a < state.p_b else 1
    total = 0.0
    for outcome, prob in enumerate_trial(state, TrialDesign(per_arm_n=n)):
        total += prob * rule_fn(outcome).mass_on(inferior)
    return total


class TestErrorProbability:
    def test_es_n1_hand_value(self):
        # P(0,1) = 0.16 plus half the tie mass 0.24 -> 0.40
        s = BinaryTrialState(0.6, 0.4)
        err = error_probability(ES, s, TrialDesign(per_arm_n=1))
        assert err == pytest.approx(0.40, abs=1e-12)

    def test_equal_probabilities_skipped(self):
        s = BinaryTrialState(0.3, 0.3)
        assert error_probability(ES, s, TrialDesign(per_arm_n=5)) is None
        assert binary_regret(ES, s, TrialDesign(per_arm_n=5)) == 0.0

    def test_degenerate_state(self):
        s = BinaryTrialState(1.0, 0.0)
        assert error_probability(ES, s, TrialDesign(per_arm_n=3)) == pytest.approx(0.0)

    def test_matches_independent_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pa, pb = rng.random(2)
            if pa == pb:
                continue
            s = BinaryTrialState(pa, pb)
            got = error_probability(ES, s, TrialDesign(per_arm_n=4))
            want = _brute_force_error_prob(es_choose, s, 4)
            assert got == pytest.approx(want, abs=1e-12)
            got = error_probability(ZTEST, s, TrialDesign(per_arm_n=4))
            want = _brute_force_error_prob(
                lambda o: ztest_choose(o, 4, 0.05, 0), s, 4)
            assert got == pytest.approx(want, abs=1e-12)


class TestRegretAndWelfare:
    def test_regret_product_form(self):
        s = BinaryTrialState(0.6, 0.4)
        assert binary_regret(ES, s, TrialDesign(per_arm_n=1)) == pytest.approx(0.08, abs=1e-12)

    def test_expected_welfare(self):
        s = BinaryTrialState(0.6, 0.4)
        assert expected_welfare(ES, s, TrialDesign(per_arm_n=1)) == pytest.approx(0.52, abs=1e-12)

    def test_welfare_at_equal_arms(self):
        s = BinaryTrialState(0.7, 0.7)
        assert expected_welfare(ZTEST, s, TrialDesign(per_arm_n=10)) == pytest.approx(0.7)

    def test_medical_arithmetic(self):
        # error prob 0.05 with welfares (1, 1/3) -> regret 1/30;
        # error prob 0.20 with welfares (1, 5) -> regret 4/5
        assert 0.05 * (1 - 1 / 3) == pytest.approx(1 / 30, abs=1e-12)
        assert 0.20 * (5 - 1) == pytest.approx(4 / 5, abs=1e-12)


def _mc_trial_record(rule, state, design, method, seed, k):
    """The MC record of one state drawn from substream k, with its standard error."""
    grid = StateGrid("binary_trial", (state,))
    return _trial_report(rule, grid, design, method, seed, 1, k).record(0)


class TestExactVsMonteCarlo:
    def test_agreement_within_four_stderr(self):
        rng = np.random.default_rng(23)
        design = TrialDesign(per_arm_n=30)
        method = EvalMethod("monte_carlo", 100_000)
        for rule in (ES, ZTEST):
            for k in range(20):
                pa, pb = rng.random(2)
                s = BinaryTrialState(pa, pb)
                exact = binary_regret(rule, s, design)
                rec = _mc_trial_record(rule, s, design, method, SeedSpec(99), k)
                # the 1e-6 floor covers states where the MC draw never errs
                # (stderr 0) while the exact regret is a tiny positive number
                assert abs(rec.regret - exact) <= 4 * rec.mc_stderr + 1e-6

    def test_stderr_scales_as_inverse_sqrt_reps(self):
        s = BinaryTrialState(0.55, 0.45)
        design = TrialDesign(per_arm_n=30)
        stderrs = []
        for reps in (1000, 10_000, 100_000):
            rec = _mc_trial_record(ES, s, design, EvalMethod("monte_carlo", reps), SeedSpec(3), 0)
            stderrs.append(rec.mc_stderr)
        for lo, hi in zip(stderrs[1:], stderrs[:-1]):
            ratio = hi / lo
            assert abs(ratio - np.sqrt(10)) < 0.2 * np.sqrt(10)

    def test_large_n_scan_agrees_with_exact(self):
        # n = 2000 is past the n at which a linear-space binomial PMF at p = 0.5
        # overflows; exact enumeration still runs there
        design = TrialDesign(per_arm_n=2000)
        states = [BinaryTrialState(0.5, 0.52), BinaryTrialState(0.31, 0.3)]
        report = max_regret_scan(ES, StateGrid("binary_trial", states), design,
                                 EvalMethod("monte_carlo", 20_000), SeedSpec(6))
        for rec in report.per_state:
            exact = binary_regret(ES, rec.state, design)
            assert np.isfinite(exact) and exact > 0
            assert abs(rec.regret - exact) <= 4 * rec.mc_stderr

    def test_mc_regret_within_noise_of_nonnegative(self):
        s = BinaryTrialState(0.5, 0.501)
        rec = _mc_trial_record(ES, s, TrialDesign(per_arm_n=5), EvalMethod("monte_carlo", 5000),
                               SeedSpec(1), 0)
        assert rec.regret >= -4 * rec.mc_stderr


def _lead_rule(o):
    """A randomized rule for n < 50: the mass on b rises with b's lead, a distinct
    value per lead."""
    a, b = o.successes
    x = 0.5 + (b - a) / 100
    return Action(allocation=(1.0 - x, x))


class TestValueClasses:
    """The MC trial kernel draws each occupied row's counts by table value."""

    @pytest.mark.parametrize("rule,k", [(ES, 3), (ZTEST, 2)])
    def test_few_classes_and_their_mass(self, rule, k):
        n, ps = 30, np.linspace(0.0, 1.0, 7)
        table, pmf = choice_table(rule, n), binom_pmf_matrix(n, ps)
        values, classes = _value_classes(table, pmf)
        assert values.shape == (n + 1, k) and classes.shape == (len(ps), n + 1, k)
        for i in range(n + 1):
            distinct = np.unique(table[i])
            assert values[i, :len(distinct)].tolist() == distinct.tolist()
            for c, v in enumerate(distinct):
                np.testing.assert_allclose(classes[:, i, c], pmf[:, table[i] == v].sum(axis=1),
                                           rtol=0, atol=1e-15)
            assert not classes[:, i, len(distinct):].any()  # pads hold no mass
        assert (classes <= 1.0).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_blocks_give_the_whole_table_classes(self, n, levels, seed):
        # a few levels per table, so rows have different numbers of values, and
        # blocks of one row each, so blocks have different widths
        rng = np.random.default_rng(seed)
        table = rng.integers(0, levels + 1, (n + 1, n + 1)) / levels
        pmf = binom_pmf_matrix(n, rng.random(3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CLASS_BLOCK_CELLS", 1)
            values, classes = _value_classes(table, pmf)
        whole = _value_classes(table, pmf)
        # the class sums are matmuls, whose round-off may depend on the block's shape
        assert np.array_equal(values, whole[0])
        np.testing.assert_allclose(classes, whole[1], rtol=0, atol=1e-15)
        # the classes partition each row: per (p, i), mass and mean of the table
        np.testing.assert_allclose(classes.sum(axis=2), 1.0, atol=1e-14)
        np.testing.assert_allclose((classes * values).sum(axis=2), pmf @ table.T, atol=1e-14)

    def test_rows_of_many_values_get_one_class_per_outcome(self):
        n = engine._MAX_VALUE_CLASSES + 1
        table = np.random.default_rng(2).random((n + 1, n + 1))
        pmf = binom_pmf_matrix(n, [0.2, 0.7])
        values, classes = _value_classes(table, pmf)
        assert values is table and classes.shape == (2, n + 1, n + 1)
        assert all(np.array_equal(classes[p, i], pmf[p]) for p in (0, 1) for i in (0, n))

    @pytest.mark.parametrize("n", [12, engine._MAX_VALUE_CLASSES + 8])
    @pytest.mark.parametrize("kind", ["table", "outcome"])
    def test_rules_of_distinct_row_values_within_four_stderr(self, kind, n):
        # every row's values are distinct (K = n + 1): classes at n = 12, one class
        # per outcome past _MAX_VALUE_CLASSES
        if kind == "table":
            rule = TableRule(np.random.default_rng(n).random((n + 1, n + 1)))
        else:
            rule = OutcomeRule(_lead_rule)
        assert all(len(np.unique(row)) == n + 1 for row in rule.table(n))
        grid, design = build_binary_grid(0.125), TrialDesign(per_arm_n=n)
        exact = max_regret_scan(rule, grid, design)
        mc = max_regret_scan(rule, grid, design, EvalMethod("monte_carlo", 20_000), SeedSpec(7))
        # the 1e-12 floor covers states whose draws are certain (p = 0 or 1 on both
        # arms), where the MC value is exact and its stderr 0
        assert (np.abs(mc.regret - exact.regret) <= 4 * mc.mc_stderr + 1e-12).all()
        assert (mc.mc_stderr > 0).sum() > len(grid) / 2

    def test_z_scores_over_seeds_are_standard_normal(self):
        # 200 seeds at one state: the z-scores against exact have mean 0 and
        # variance 1, each within four of its standard errors
        grid = StateGrid("binary_trial", (BinaryTrialState(0.53, 0.47),))
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


def _beta_state(obs, miss, miss_rate, support):
    return PredictionState(OutcomeDist("beta", alpha=obs[0], beta=obs[1]),
                           OutcomeDist("beta", alpha=miss[0], beta=miss[1]), miss_rate, support)


class TestHistogramMonteCarlo:
    def test_moments_equal_those_of_the_rebuilt_sample(self):
        n, reps = 20, 5000
        # one class per outcome j of arm b: the same pmf for every row i
        outcomes = np.broadcast_to(binom_pmf_vector(n, 0.6), (n + 1, n + 1))
        rows, counts = _draw_histogram(np.random.default_rng(5), reps,
                                       binom_pmf_vector(n, 0.45), outcomes)
        assert counts.sum() == reps and counts.shape == (len(rows), n + 1)
        values = choice_table(ES, n)[rows]
        sample = np.repeat(values.ravel(), counts.ravel())
        est, stderr = _mean_stderr(values, counts, reps)
        assert est == pytest.approx(sample.mean(), rel=1e-12)
        assert stderr == pytest.approx(sample.std(ddof=1) / np.sqrt(reps), rel=1e-12)

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
        state = _bern_state(theta_obs, theta_miss, miss)
        mu = (1 - miss) * theta_obs + miss * theta_miss
        # n_obs ~ Bin(N, 1 - miss), then k | n_obs ~ Bin(n_obs, theta_obs); no
        # observation predicts the support midpoint
        exact = sum(pm * pk * ((predict(k, m, total) if m else 0.5) - mu) ** 2
                    for m, pm in enumerate(_comb_pmf(total, 1 - miss))
                    for k, pk in enumerate(_comb_pmf(m, theta_obs)))
        mse, stderr = _mc_mse(rule, state, SurveyDesign("random_miss", total), 50_000,
                              SeedSpec(17).rng(3, 0), binom_pmf_vector)
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
        mse, stderr = _mc_mse(DecisionRule("midpoint"), _beta_state(obs, miss_dist, miss, support),
                              SurveyDesign("random_miss", total), 50_000,
                              SeedSpec(23).rng(1, 0), binom_pmf_vector)
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
        mse, stderr = _mc_mse(DecisionRule("midpoint"), _bern_state(theta, theta_miss, miss),
                              SurveyDesign("random_miss", total), reps,
                              SeedSpec(29).rng(2, 0), binom_pmf_vector)
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

        state = _bern_state(0.3, 0.6, 0.4)
        got = _mc_mse(DecisionRule("custom", {"predict_mean": strict}), state, design, 5000,
                      SeedSpec(4).rng(0, 0), binom_pmf_vector)
        plain = _mc_mse(DecisionRule("analog_predictor"), state, design, 5000,
                        SeedSpec(4).rng(0, 0), binom_pmf_vector)
        assert np.isfinite(got[0]) and got == plain

    @pytest.mark.parametrize("family,params,design,predictor", [
        ("bernoulli", [0.2, 0.7], SurveyDesign("random_miss", 9), DecisionRule("midpoint")),
        ("bernoulli", [0.2, 0.7], SurveyDesign("fixed_n", 9), MEDIAN),
        ("beta", [(1.0, 1.0), (2.0, 5.0)], SurveyDesign("random_miss", 9), MEDIAN)])
    def test_mse_scan_repeats_and_ignores_worker_count(self, family, params, design, predictor):
        grid = build_prediction_grid(family, obs_params=params, miss_params=params,
                                     miss_rates=[0.1, 0.5])
        method = EvalMethod("monte_carlo", 2000)
        one = max_mse_scan(predictor, grid, design, method, SeedSpec(3), workers=1)
        again = max_mse_scan(predictor, grid, design, method, SeedSpec(3), workers=1)
        two = max_mse_scan(predictor, grid, design, method, SeedSpec(3), workers=2)
        # three workers split the 8 states into uneven chunks
        three = max_mse_scan(predictor, grid, design, method, SeedSpec(3), workers=3)
        assert one.per_state == again.per_state == two.per_state == three.per_state
        assert all(r.mc_stderr > 0 for r in one.per_state)


class TestMaxRegretScan:
    def test_diagonal_grid_zero_regret(self):
        diag = StateGrid("binary_trial",
                         tuple(BinaryTrialState(p, p) for p in (0.0, 0.5, 1.0)))
        report = max_regret_scan(ES, diag, TrialDesign(per_arm_n=10))
        assert report.max_regret == 0.0

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

    def test_callable_rule_runs_on_two_workers(self):
        rule = DecisionRule("custom", {"apply_trial": lambda o: es_choose(o)})
        grid, design = build_binary_grid(0.25), TrialDesign(per_arm_n=12)
        method = EvalMethod("monte_carlo", 2000)
        one = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=1)
        two = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=2)
        three = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=3)  # 9, 9, 7
        assert one.per_state == two.per_state == three.per_state
        # the callable's table is the ES table, so the draws give the ES report
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


class TestScalarIsOneStateScan:
    """The scalar functions are one-state scans: state k of a scan and the scalar
    call with state_index=k give the same floats."""

    @pytest.mark.parametrize("method", [EvalMethod("exact"), EvalMethod("monte_carlo", 2000)])
    @pytest.mark.parametrize("rule", [ES, ZTEST])
    def test_trial_scalars_equal_scan_records(self, rule, method):
        grid, design = build_binary_grid(0.125), TrialDesign(per_arm_n=12)
        report = max_regret_scan(rule, grid, design, method, SeedSpec(7))
        for k in range(len(grid)):
            rec, args = report.record(k), (rule, grid.state(k), design, method, SeedSpec(7))
            assert error_probability(*args, state_index=k) == rec.error_prob
            assert binary_regret(*args, state_index=k) == rec.regret
            assert expected_welfare(*args, state_index=k) == rec.expected_welfare

    @pytest.mark.parametrize("method,design", [
        (EvalMethod("exact"), SurveyDesign("fixed_n", 12)),
        (EvalMethod("monte_carlo", 2000), SurveyDesign("fixed_n", 12)),
        (EvalMethod("monte_carlo", 2000), SurveyDesign("random_miss", 12))])
    def test_predictor_mse_equals_scan(self, method, design):
        grid = build_prediction_grid("bernoulli", obs_params=[0.1, 0.5, 0.8],
                                     miss_params=[0.0, 0.6], miss_rates=[0.2, 0.7])
        report = max_mse_scan(DecisionRule("hodges_lehmann"), grid, design, method, SeedSpec(7))
        for k, state in enumerate(grid):
            assert predictor_mse(DecisionRule("hodges_lehmann"), state, design, method,
                                 SeedSpec(7), state_index=k) == report.regret[k]


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


def _bern_state(theta_obs, theta_miss, miss_rate):
    return PredictionState(OutcomeDist("bernoulli", theta=theta_obs),
                           OutcomeDist("bernoulli", theta=theta_miss), miss_rate)


class TestPredictorMse:
    def test_hodges_lehmann_constant_risk(self):
        design = SurveyDesign("fixed_n", 4)
        rule = DecisionRule("hodges_lehmann")
        expect = 1.0 / (4 * (np.sqrt(4) + 1) ** 2)
        for theta in np.linspace(0, 1, 11):
            mse = predictor_mse(rule, _bern_state(theta, theta, 0.0), design,
                                EvalMethod("exact"))
            assert mse == pytest.approx(expect, abs=1e-9)

    def test_midpoint_no_missing_is_sample_mean_mse(self):
        design = SurveyDesign("fixed_n", 8)
        rule = DecisionRule("midpoint")
        for theta in (0.2, 0.5, 0.9):
            mse = predictor_mse(rule, _bern_state(theta, theta, 0.0), design,
                                EvalMethod("exact"))
            assert mse == pytest.approx(theta * (1 - theta) / 8, abs=1e-12)

    def test_degenerate_state_zero(self):
        design = SurveyDesign("fixed_n", 5)
        mse = predictor_mse(DecisionRule("midpoint"), _bern_state(1.0, 1.0, 0.0),
                            design, EvalMethod("exact"))
        assert mse == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [26, 400, 5000])
    def test_exact_has_no_sample_size_cap(self, n):
        design = SurveyDesign("fixed_n", n)
        for theta in (0.2, 0.5, 0.9):
            mse = predictor_mse(DecisionRule("midpoint"), _bern_state(theta, theta, 0.0),
                                design, EvalMethod("exact"))
            assert mse == pytest.approx(theta * (1 - theta) / n, rel=0, abs=1e-16)

    def test_exact_mode_guard(self):
        # the preconditions of an exact max_mse_scan, and no others
        beta = _beta_state((1.0, 1.0), (2.0, 5.0), 0.2, (0.0, 1.0))
        with pytest.raises(PreconditionError):
            predictor_mse(DecisionRule("midpoint"), beta, SurveyDesign("fixed_n", 5),
                          EvalMethod("exact"))
        with pytest.raises(PreconditionError):
            predictor_mse(DecisionRule("midpoint"), _bern_state(0.5, 0.5, 0.2),
                          SurveyDesign("random_miss", 5), EvalMethod("exact"))

    def test_mc_matches_exact(self):
        design = SurveyDesign("fixed_n", 10)
        rule = DecisionRule("midpoint")
        s = _bern_state(0.5, 1.0, 0.2)
        exact = predictor_mse(rule, s, design, EvalMethod("exact"))
        mc = predictor_mse(rule, s, design, EvalMethod("monte_carlo", 100_000), SeedSpec(2))
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
        rec = next(r for r in report.per_state if r.state is report.argmax_state)
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
        thetas = [0.0, 0.3, 0.3, 0.55, 1.0] if n == 7 else list(np.linspace(0, 1, 21))
        grid = build_prediction_grid("bernoulli", obs_params=thetas, miss_params=thetas[::-1],
                                     miss_rates=[0.0, 0.25, 0.6, 1.0], support=support)
        design = SurveyDesign("fixed_n", n)
        report = max_mse_scan(rule, grid, design, EvalMethod("exact"))
        want = []
        for s in grid.states:
            pred = _bernoulli_predictions(rule, np.arange(n + 1), n, 1.0 - s.miss_rate, support)
            want.append(binom_pmf_vector(n, s.dist_observed.theta)
                        @ (pred - s.population_mean) ** 2)
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
        grid = StateGrid("binary_trial", (BinaryTrialState(0.2, 0.8),))
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

    def test_no_child_is_left_after_a_two_worker_scan(self):
        grid, design = build_binary_grid(0.25), TrialDesign(per_arm_n=12)
        method = EvalMethod("monte_carlo", 2000)
        two = max_regret_scan(ES, grid, design, method, SeedSpec(5), workers=2)
        assert _no_child_left()
        assert two.per_state == max_regret_scan(ES, grid, design, method, SeedSpec(5)).per_state

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
    """Reference writer: one csv.writer row per StateRecord, every cell through fmt17."""
    import csv
    from mmregret.mathutil import fmt17

    def coords(state):
        if isinstance(state, BinaryTrialState):
            return ["p_a", "p_b"], [fmt17(state.p_a), fmt17(state.p_b)]
        do, dm = state.dist_observed, state.dist_missing
        if do.family == "bernoulli":
            return (["theta_obs", "theta_miss", "miss_rate"],
                    [fmt17(do.theta), fmt17(dm.theta), fmt17(state.miss_rate)])
        return (["alpha_obs", "beta_obs", "alpha_miss", "beta_miss", "miss_rate"],
                [fmt17(do.alpha), fmt17(do.beta), fmt17(dm.alpha), fmt17(dm.beta),
                 fmt17(state.miss_rate)])

    names, _ = coords(report.per_state[0].state)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(names + ["error_prob", "expected_welfare", "regret", "mc_stderr"])
        for rec in report.per_state:
            wr.writerow(coords(rec.state)[1] + [
                "" if rec.error_prob is None else fmt17(rec.error_prob),
                "" if rec.expected_welfare is None else fmt17(rec.expected_welfare),
                fmt17(rec.regret), fmt17(rec.mc_stderr)])
        wr.writerow(["#summary", f"max_regret={fmt17(report.max_regret)}",
                     "argmax=" + "|".join(coords(report.argmax_state)[1]),
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
        state = report.argmax_state  # before per_state builds the others
        rec = report.per_state[report.argmax]
        assert rec.state is state
        assert rec.regret == report.max_regret
        assert report.record(report.argmax) == rec
        assert [r for r in report.per_state if r.state is report.argmax_state] == [rec]

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
    if family == "binary_trial":
        points = [0.0, -0.0, 5e-324, 1e-310, 0.1, 1 / 3, 0.5, 0.7, 1.0]
        pick = rng.integers(0, len(points), (rows, 2)).tolist()
        return StateGrid("binary_trial", [BinaryTrialState(points[i], points[j])
                                          for i, j in pick])
    miss = 2 - rows % 2  # obs x miss parameters x one miss rate
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
    """A report of floats of every kind whose two rows at each boundary of 2, 3
    and 4 equal parts hold -0.0 and, where a column may, no value (NaN)."""
    rng = np.random.default_rng(seed)
    points = np.array([0.0, -0.0, 5e-324, 0.1, 1 / 3, 0.5, 1.0])
    index_a, index_b = rng.integers(0, len(points), (2, rows))
    grid = StateGrid._from_columns("binary_trial", points=points, index_a=index_a,
                                   index_b=index_b)
    err, welfare, regret, stderr = (_wild_column(rng, rows) for _ in range(4))
    for parts in (2, 3, 4):
        for k in range(1, parts):
            edge = slice(rows * k // parts - 1, rows * k // parts + 1)
            err[edge] = welfare[edge] = np.nan
            regret[edge] = stderr[edge] = -0.0
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
    """An MC scan asks the pool helper for no more processes than it has chunks
    of states, however many workers it is given."""
    import mmregret.engine as engine
    counts = []

    def spy(fn, tasks):
        counts.append(len(tasks))
        return [fn(*task) for task in tasks]  # in process: no child is forked

    method = EvalMethod("monte_carlo", 1000)
    if family == "binary_trial":
        grid = StateGrid("binary_trial", [BinaryTrialState(a, b)
                                          for a in (0.2, 0.6) for b in (0.3, 0.7)])
        scan = partial(max_regret_scan, ES, grid, TrialDesign(per_arm_n=5), method, SeedSpec(1))
    else:
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.6], miss_params=[0.3, 0.7],
                                     miss_rates=[0.25])
        scan = partial(max_mse_scan, DecisionRule("midpoint"), grid,
                       SurveyDesign("fixed_n", 5), method, SeedSpec(1))
    assert len(grid) == 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_ordered_map", spy)
        many = scan(workers=10 ** 6)
    assert counts == [4]
    assert many.per_state == scan(workers=1).per_state
