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
    build_binary_grid,
    draw_survey,
    draw_trial,
    enumerate_trial,
    max_regret_scan,
)
from mmregret.sampling import survey_draw_to_csv


class TestEnumerateTrial:
    def test_n1_symmetric(self):
        pairs = dict((o.successes, p) for o, p in
                     enumerate_trial(BinaryTrialState(0.5, 0.5), TrialDesign(per_arm_n=1)))
        assert all(abs(p - 0.25) < 1e-12 for p in pairs.values())

    def test_n1_hand_product(self):
        pairs = dict((o.successes, p) for o, p in
                     enumerate_trial(BinaryTrialState(0.6, 0.4), TrialDesign(per_arm_n=1)))
        assert pairs[(1, 0)] == pytest.approx(0.36, abs=1e-12)
        assert pairs[(0, 1)] == pytest.approx(0.16, abs=1e-12)
        assert pairs[(0, 0)] == pytest.approx(0.24, abs=1e-12)
        assert pairs[(1, 1)] == pytest.approx(0.24, abs=1e-12)

    def test_completeness(self):
        pairs = list(enumerate_trial(BinaryTrialState(0.3, 0.8), TrialDesign(per_arm_n=2)))
        assert len(pairs) == 9
        assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-10)

    def test_overflow_guard(self):
        with pytest.raises(PreconditionError):
            list(enumerate_trial(BinaryTrialState(0.5, 0.5),
                                 TrialDesign(per_arm_n=10001)))


class TestDrawTrial:
    def test_degenerate_zero(self):
        out = draw_trial(BinaryTrialState(0.0, 0.5), TrialDesign(per_arm_n=10), SeedSpec(3))
        assert out.successes[0] == 0

    def test_degenerate_one(self):
        out = draw_trial(BinaryTrialState(0.5, 1.0), TrialDesign(per_arm_n=10), SeedSpec(3))
        assert out.successes[1] == 10

    def test_determinism(self):
        d = TrialDesign(per_arm_n=20)
        s = BinaryTrialState(0.4, 0.7)
        a = draw_trial(s, d, SeedSpec(42), state_index=5, stream=9)
        b = draw_trial(s, d, SeedSpec(42), state_index=5, stream=9)
        assert a == b

    def test_different_streams_differ(self):
        d = TrialDesign(per_arm_n=200)
        s = BinaryTrialState(0.4, 0.7)
        draws = {draw_trial(s, d, SeedSpec(42), 0, k).successes for k in range(8)}
        assert len(draws) > 1

    def test_draws_are_the_substreams_binomials(self):
        d = TrialDesign(per_arm_n=12)
        s = BinaryTrialState(0.4, 0.7)
        rng = SeedSpec(42).rng(5, 9)
        want = (int(rng.binomial(12, 0.4)), int(rng.binomial(12, 0.7)))
        assert draw_trial(s, d, SeedSpec(42), state_index=5, stream=9).successes == want

    def test_simulation_matches_enumeration(self):
        # empirical frequencies within 4 standard errors of exact probabilities
        d = TrialDesign(per_arm_n=3)
        s = BinaryTrialState(0.35, 0.7)
        exact = dict((o.successes, p) for o, p in enumerate_trial(s, d))
        reps = 100_000
        counts = {}
        rng = SeedSpec(11).rng(0, 0)
        ca = rng.binomial(3, s.p_a, size=reps)
        cb = rng.binomial(3, s.p_b, size=reps)
        for a, b in zip(ca, cb):
            counts[(a, b)] = counts.get((a, b), 0) + 1
        for outcome, p in exact.items():
            freq = counts.get(outcome, 0) / reps
            se = np.sqrt(p * (1 - p) / reps)
            assert abs(freq - p) <= 4 * se + 1e-12


class TestDrawSurvey:
    def test_no_missing_random_mode(self):
        state = PredictionState(OutcomeDist("bernoulli", theta=0.5),
                                OutcomeDist("bernoulli", theta=0.5), 0.0)
        draw = draw_survey(state, SurveyDesign("random_miss", total_n=50), SeedSpec(1))
        assert all(d == 1 for _, d in draw.records)

    def test_all_missing_random_mode(self):
        state = PredictionState(OutcomeDist("bernoulli", theta=0.5),
                                OutcomeDist("bernoulli", theta=0.5), 1.0)
        draw = draw_survey(state, SurveyDesign("random_miss", total_n=50), SeedSpec(1))
        assert all(d == 0 and y is None for y, d in draw.records)

    def test_degenerate_theta_one(self):
        state = PredictionState(OutcomeDist("bernoulli", theta=1.0),
                                OutcomeDist("bernoulli", theta=0.5), 0.3)
        draw = draw_survey(state, SurveyDesign("fixed_n", n_observed=20), SeedSpec(1))
        assert draw.observed == (1.0,) * 20

    def test_fixed_n_zero_rejected(self):
        with pytest.raises(PreconditionError):
            SurveyDesign("fixed_n", n_observed=0)

    def test_beta_outcomes_within_support(self):
        state = PredictionState(OutcomeDist("beta", alpha=2.0, beta=5.0),
                                OutcomeDist("beta", alpha=1.0, beta=1.0), 0.2,
                                support=(0.0, 2.0))
        draw = draw_survey(state, SurveyDesign("fixed_n", n_observed=30), SeedSpec(4))
        assert all(0.0 <= y <= 2.0 for y in draw.observed)

    def test_csv_dump(self, tmp_path):
        state = PredictionState(OutcomeDist("bernoulli", theta=0.5),
                                OutcomeDist("bernoulli", theta=0.5), 0.5)
        draw = draw_survey(state, SurveyDesign("random_miss", total_n=10), SeedSpec(2))
        path = tmp_path / "draw.csv"
        survey_draw_to_csv(draw, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "y,delta"
        assert len(lines) == 11


class TestParallelDeterminism:
    def test_worker_count_does_not_change_mc_scan(self):
        rule = DecisionRule("empirical_success")
        grid = build_binary_grid(0.25)
        design = TrialDesign(per_arm_n=12)
        method = EvalMethod("monte_carlo", 2000)
        one = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=1)
        two = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=2)
        three = max_regret_scan(rule, grid, design, method, SeedSpec(5), workers=3)  # 9, 9, 7
        assert one.per_state == two.per_state == three.per_state
        assert one.max_regret == two.max_regret
