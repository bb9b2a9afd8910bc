from dataclasses import fields

import numpy as np
import pytest

from mmregret import (
    DecisionRule,
    PreconditionError,
    SeedSpec,
    SurveyDesign,
    TrialDesign,
    build_binary_grid,
    max_regret_scan,
)
from reference import enumerate_trial


class TestEnumerateTrial:
    def test_n1_symmetric(self):
        pairs = dict(enumerate_trial(0.5, 0.5, TrialDesign(per_arm_n=1)))
        assert all(abs(p - 0.25) < 1e-12 for p in pairs.values())

    def test_n1_hand_product(self):
        pairs = dict(enumerate_trial(0.6, 0.4, TrialDesign(per_arm_n=1)))
        assert pairs[(1, 0)] == pytest.approx(0.36, abs=1e-12)
        assert pairs[(0, 1)] == pytest.approx(0.16, abs=1e-12)
        assert pairs[(0, 0)] == pytest.approx(0.24, abs=1e-12)
        assert pairs[(1, 1)] == pytest.approx(0.24, abs=1e-12)

    def test_completeness(self):
        pairs = list(enumerate_trial(0.3, 0.8, TrialDesign(per_arm_n=2)))
        assert len(pairs) == 9
        assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-10)


class TestSubstreams:
    def test_determinism(self):
        a = SeedSpec(42).rng(state_index=5, stream=9).binomial(20, [0.4, 0.7])
        b = SeedSpec(42).rng(state_index=5, stream=9).binomial(20, [0.4, 0.7])
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("seed", [-1, 2.0, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy rejects -1 only when a substream is made, and an exact scan makes none
        with pytest.raises(PreconditionError, match="a seed must be an integer >= 0"):
            SeedSpec(seed)

    def test_numpy_integer_seed_accepted(self):
        assert SeedSpec(np.int64(0)).rng(1, 0).random() == SeedSpec(0).rng(1, 0).random()

    def test_different_streams_differ(self):
        draws = {tuple(SeedSpec(42).rng(0, k).binomial(200, [0.4, 0.7])) for k in range(8)}
        assert len(draws) > 1

    def test_simulation_matches_enumeration(self):
        # empirical frequencies within 4 standard errors of exact probabilities
        d = TrialDesign(per_arm_n=3)
        p_a, p_b = 0.35, 0.7
        exact = dict(enumerate_trial(p_a, p_b, d))
        reps = 100_000
        counts = {}
        rng = SeedSpec(11).rng(0, 0)
        ca = rng.binomial(3, p_a, size=reps)
        cb = rng.binomial(3, p_b, size=reps)
        for a, b in zip(ca, cb):
            counts[(a, b)] = counts.get((a, b), 0) + 1
        for outcome, p in exact.items():
            freq = counts.get(outcome, 0) / reps
            se = np.sqrt(p * (1 - p) / reps)
            assert abs(freq - p) <= 4 * se + 1e-12


class TestTrialDesign:
    def test_two_arms_only(self):
        assert TrialDesign(arms=2, per_arm_n=5) == TrialDesign(per_arm_n=5)
        with pytest.raises(PreconditionError):  # so no Monte Carlo scan can be given one
            max_regret_scan(DecisionRule("empirical_success"), build_binary_grid(0.5),
                            TrialDesign(arms=3, per_arm_n=5))

    def test_no_outcome_range(self):
        with pytest.raises(TypeError):
            TrialDesign(per_arm_n=5, outcome_range=7.0)

    def test_non_integer_per_arm_n_rejected(self):
        # numpy would fail later in the scan, on a float where it needs a count
        with pytest.raises(PreconditionError, match="integer >= 1, got 2.5"):
            TrialDesign(per_arm_n=2.5)


class TestSurveyDesign:
    def test_fixed_n_zero_rejected(self):
        with pytest.raises(PreconditionError):
            SurveyDesign("fixed_n", 0)

    @pytest.mark.parametrize("mode,n,match", [("fixed_N", 10, "unknown survey mode"),
                                              ("random_miss", -1, "integer >= 1, got -1")],
                             ids=["unknown_mode", "n_below_one"])
    def test_bad_design_rejected(self, mode, n, match):
        with pytest.raises(PreconditionError, match=match):
            SurveyDesign(mode, n)

    def test_n_must_be_an_integer(self):
        assert SurveyDesign("random_miss", np.int64(4)).n == 4
        with pytest.raises(PreconditionError, match="integer >= 1, got 2.5"):
            SurveyDesign("fixed_n", 2.5)

    def test_mode_and_n_are_its_only_fields(self):
        assert [f.name for f in fields(SurveyDesign)] == ["mode", "n"]
