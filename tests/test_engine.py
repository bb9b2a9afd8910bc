import numpy as np
import pytest

from mmregret import (
    BinaryTrialState,
    DecisionRule,
    EvalMethod,
    OutcomeDist,
    PredictionState,
    PreconditionError,
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
from mmregret.engine import (_binomial_counts, _draw_histogram, _mc_mse, _mean_stderr,
                             _trial_report, choice_table)
from mmregret.mathutil import binom_pmf_vector
from mmregret.states import StateGrid

ES = DecisionRule("empirical_success")
ZTEST = DecisionRule("ztest", {"alpha": 0.05, "status_quo": 0})


def _brute_force_error_prob(rule_fn, state, n):
    """Independent oracle: loop all outcomes, accumulate mass on inferior arm."""
    from mmregret import enumerate_trial
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
        from mmregret import es_choose, ztest_choose
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
        rows, counts = _draw_histogram(np.random.default_rng(5), reps,
                                       binom_pmf_vector(n, 0.45), binom_pmf_vector(n, 0.6))
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
        c = _binomial_counts(np.random.default_rng(8), count, m, theta)
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
        mse, stderr = _mc_mse(rule, state, SurveyDesign("random_miss", total_n=total), 50_000,
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
        mse, stderr = _mc_mse(DecisionRule("midpoint"), _beta_state(obs, miss_dist, miss, support),
                              SurveyDesign("random_miss", total_n=total), 50_000,
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
        mse, stderr = _mc_mse(DecisionRule("midpoint"), _bern_state(theta, theta_miss, miss),
                              SurveyDesign("random_miss", total_n=total), reps,
                              SeedSpec(29).rng(2, 0))
        assert np.isfinite(stderr) and stderr > 0
        assert abs(mse - exact) <= 4 * stderr

    @pytest.mark.parametrize("design", [SurveyDesign("random_miss", total_n=12),
                                        SurveyDesign("fixed_n", n_observed=12)])
    def test_predictor_sees_only_means_that_occur(self, design):
        def strict(m, p1):  # not finite off the support of the observed mean
            m = np.asarray(m, dtype=float)
            return np.where((m >= 0) & (m <= 1), m, np.nan)

        state = _bern_state(0.3, 0.6, 0.4)
        got = _mc_mse(DecisionRule("custom", {"predict_mean": strict}), state, design, 5000,
                      SeedSpec(4).rng(0, 0))
        plain = _mc_mse(DecisionRule("analog_predictor"), state, design, 5000,
                        SeedSpec(4).rng(0, 0))
        assert np.isfinite(got[0]) and got == plain

    @pytest.mark.parametrize("family,params,design,predictor", [
        ("bernoulli", [0.2, 0.7], SurveyDesign("random_miss", total_n=9), DecisionRule("midpoint")),
        ("bernoulli", [0.2, 0.7], SurveyDesign("fixed_n", n_observed=9), MEDIAN),
        ("beta", [(1.0, 1.0), (2.0, 5.0)], SurveyDesign("random_miss", total_n=9), MEDIAN)])
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
        report = max_regret_scan(ZTEST, build_binary_grid(0.1), TrialDesign(per_arm_n=25))
        assert all(rec.regret >= 0.0 for rec in report.per_state)

    def test_bound_dominance(self):
        for n in (10, 50, 145):
            report = max_regret_scan(ES, build_binary_grid(0.05), TrialDesign(per_arm_n=n))
            assert report.max_regret <= regret_bounds(2, 1.0, n).bound_10

    def test_callable_rule_runs_on_two_workers(self):
        from mmregret import es_choose
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
        (EvalMethod("exact"), SurveyDesign("fixed_n", n_observed=12)),
        (EvalMethod("monte_carlo", 2000), SurveyDesign("fixed_n", n_observed=12)),
        (EvalMethod("monte_carlo", 2000), SurveyDesign("random_miss", total_n=12))])
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
        design = SurveyDesign("fixed_n", n_observed=4, known_miss_rate=0.0)
        rule = DecisionRule("hodges_lehmann")
        expect = 1.0 / (4 * (np.sqrt(4) + 1) ** 2)
        for theta in np.linspace(0, 1, 11):
            mse = predictor_mse(rule, _bern_state(theta, theta, 0.0), design,
                                EvalMethod("exact"))
            assert mse == pytest.approx(expect, abs=1e-9)

    def test_midpoint_no_missing_is_sample_mean_mse(self):
        design = SurveyDesign("fixed_n", n_observed=8, known_miss_rate=0.0)
        rule = DecisionRule("midpoint")
        for theta in (0.2, 0.5, 0.9):
            mse = predictor_mse(rule, _bern_state(theta, theta, 0.0), design,
                                EvalMethod("exact"))
            assert mse == pytest.approx(theta * (1 - theta) / 8, abs=1e-12)

    def test_degenerate_state_zero(self):
        design = SurveyDesign("fixed_n", n_observed=5, known_miss_rate=0.0)
        mse = predictor_mse(DecisionRule("midpoint"), _bern_state(1.0, 1.0, 0.0),
                            design, EvalMethod("exact"))
        assert mse == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [26, 400, 5000])
    def test_exact_has_no_sample_size_cap(self, n):
        design = SurveyDesign("fixed_n", n_observed=n, known_miss_rate=0.0)
        for theta in (0.2, 0.5, 0.9):
            mse = predictor_mse(DecisionRule("midpoint"), _bern_state(theta, theta, 0.0),
                                design, EvalMethod("exact"))
            assert mse == pytest.approx(theta * (1 - theta) / n, rel=0, abs=1e-16)

    def test_exact_mode_guard(self):
        # the preconditions of an exact max_mse_scan, and no others
        beta = _beta_state((1.0, 1.0), (2.0, 5.0), 0.2, (0.0, 1.0))
        with pytest.raises(PreconditionError):
            predictor_mse(DecisionRule("midpoint"), beta, SurveyDesign("fixed_n", n_observed=5),
                          EvalMethod("exact"))
        with pytest.raises(PreconditionError):
            predictor_mse(DecisionRule("midpoint"), _bern_state(0.5, 0.5, 0.2),
                          SurveyDesign("random_miss", total_n=5), EvalMethod("exact"))

    def test_mc_matches_exact(self):
        design = SurveyDesign("fixed_n", n_observed=10, known_miss_rate=0.2)
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
        design = SurveyDesign("fixed_n", n_observed=10, known_miss_rate=0.2)
        report = max_mse_scan(DecisionRule("midpoint"), bern_grid, design,
                              EvalMethod("exact"))
        assert report.max_regret == pytest.approx(
            midpoint_max_regret_formula(0.8, 10), abs=1e-9)

    def test_midpoint_known_miss_matches_formula_mc(self, bern_grid):
        design = SurveyDesign("fixed_n", n_observed=10, known_miss_rate=0.2)
        report = max_mse_scan(DecisionRule("midpoint"), bern_grid, design,
                              EvalMethod("monte_carlo", 50_000), SeedSpec(8))
        rec = next(r for r in report.per_state if r.state is report.argmax_state)
        assert abs(report.max_regret - midpoint_max_regret_formula(0.8, 10)) \
            <= 4 * rec.mc_stderr

    def test_no_missing_reduces_to_quarter_n(self):
        thetas = list(np.linspace(0, 1, 11))
        grid = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[0.0])
        design = SurveyDesign("fixed_n", n_observed=25, known_miss_rate=0.0)
        report = max_mse_scan(DecisionRule("midpoint"), grid, design, EvalMethod("exact"))
        assert report.max_regret == pytest.approx(0.01, abs=1e-9)

    def test_fully_missing_is_quarter(self):
        thetas = [0.0, 0.5, 1.0]
        grid = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[1.0])
        design = SurveyDesign("fixed_n", n_observed=5, known_miss_rate=1.0)
        report = max_mse_scan(DecisionRule("midpoint"), grid, design, EvalMethod("exact"))
        assert report.max_regret == pytest.approx(0.25, abs=1e-9)

    def test_restriction_never_raises_max(self):
        thetas = list(np.linspace(0, 1, 11))
        design = SurveyDesign("fixed_n", n_observed=10, known_miss_rate=0.3)
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

    @pytest.mark.parametrize("rule", [DecisionRule("midpoint"), DecisionRule("hodges_lehmann"),
                                      DecisionRule("analog_predictor"), MEDIAN,
                                      DecisionRule("custom", {"mean_table": [(0, 0.2), (1, 0.9)]})],
                             ids=["midpoint", "hodges_lehmann", "mean", "median", "table"])
    @pytest.mark.parametrize("n,known,support", [(7, None, (0.0, 1.0)), (7, 0.3, (-1.0, 2.5)),
                                                 (200, None, (0.0, 1.0))])
    def test_exact_equals_per_state_dot_product(self, rule, n, known, support):
        # the per-state arithmetic of the scan before it was columnar; at n = 200
        # the grid spans more than one chunk of the contraction
        from mmregret.engine import _bernoulli_predictions
        thetas = [0.0, 0.3, 0.3, 0.55, 1.0] if n == 7 else list(np.linspace(0, 1, 21))
        grid = build_prediction_grid("bernoulli", obs_params=thetas, miss_params=thetas[::-1],
                                     miss_rates=[0.0, 0.25, 0.6, 1.0], support=support)
        design = SurveyDesign("fixed_n", n_observed=n, known_miss_rate=known)
        report = max_mse_scan(rule, grid, design, EvalMethod("exact"))
        want = []
        for s in grid.states:
            p1 = 1.0 - (s.miss_rate if known is None else known)
            pred = _bernoulli_predictions(rule, np.arange(n + 1), n, p1, support)
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
                         SurveyDesign("fixed_n", n_observed=5), workers=workers)

    def test_exact_scan_needs_bernoulli_outcomes(self):
        grid = build_prediction_grid("beta", obs_params=[(1.0, 1.0)],
                                     miss_params=[(2.0, 5.0)], miss_rates=[0.2])
        with pytest.raises(PreconditionError):
            max_mse_scan(DecisionRule("midpoint"), grid,
                         SurveyDesign("fixed_n", n_observed=5), EvalMethod("exact"))

    def test_exact_scan_needs_fixed_n_design(self):
        grid = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                     miss_rates=[0.2])
        with pytest.raises(PreconditionError):
            max_mse_scan(DecisionRule("midpoint"), grid,
                         SurveyDesign("random_miss", total_n=5), EvalMethod("exact"))


    @pytest.mark.parametrize("method", [EvalMethod("exact"), EvalMethod("monte_carlo", 2000)])
    def test_scan_of_the_other_rule_family_rejected(self, method):
        grid = build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                     miss_rates=[0.2])
        with pytest.raises(PreconditionError, match="not a trial-choice rule"):
            max_regret_scan(DecisionRule("midpoint"), build_binary_grid(0.5),
                            TrialDesign(per_arm_n=2), method)
        with pytest.raises(PreconditionError, match="not a predictor"):
            max_mse_scan(ES, grid, SurveyDesign("fixed_n", n_observed=5), method)

    def test_predictor_that_does_not_pickle_needs_one_worker(self):
        rule = DecisionRule("custom", {"predict_mean": lambda m, p1: m * p1 + (1 - p1) / 2})
        grid = build_prediction_grid("bernoulli", obs_params=[0.2, 0.7], miss_params=[0.5],
                                     miss_rates=[0.2])
        design, method = SurveyDesign("random_miss", total_n=6), EvalMethod("monte_carlo", 2000)
        with pytest.raises(PreconditionError, match="does not pickle") as exc:
            max_mse_scan(rule, grid, design, method, SeedSpec(3), workers=2)
        assert len(str(exc.value).splitlines()) == 1
        one = max_mse_scan(rule, grid, design, method, SeedSpec(3), workers=1)
        midpoint = max_mse_scan(DecisionRule("midpoint"), grid, design, method, SeedSpec(3),
                                workers=2)
        assert one.regret.tolist() == midpoint.regret.tolist()


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
            SurveyDesign("fixed_n", n_observed=10), EvalMethod("exact")),
        "mc_beta_median": lambda: max_mse_scan(
            DecisionRule("analog_predictor", {"loss": "absolute"}), _beta_grid(),
            SurveyDesign("fixed_n", n_observed=5), EvalMethod("monte_carlo", 1000),
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
        from mmregret.engine import _CSV_CHUNK_ROWS
        ties = self.CASES["exact_es_ties"]()
        assert any(r.error_prob is None for r in ties.per_state)
        assert any(r.mc_stderr > 0 for r in self.CASES["mc_es"]().per_state)
        assert any(r.mc_stderr > 0 for r in self.CASES["mc_beta_median"]().per_state)
        assert len(self.CASES["more_rows_than_a_chunk"]().grid) > _CSV_CHUNK_ROWS

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
