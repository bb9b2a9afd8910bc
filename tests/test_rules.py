import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmregret import (
    ANALOG_MEAN,
    ANALOG_MEDIAN,
    HODGES_LEHMANN,
    MIDPOINT,
    DecisionRule,
    EmpiricalSuccess,
    FiniteDecisionProblem,
    OutcomeRule,
    PreconditionError,
    Predictor,
    TableRule,
    TrialOutcome,
    ZTest,
    asif_decide,
    asif_optimize,
    mean_function_predictor,
    mean_table_predictor,
)
from mmregret.engine import _bernoulli_predictions, choice_table
from mmregret.mathutil import binom_pmf_vector, one_sided_critical_value
from reference import es_choose, ztest_choose


class TestEsChoose:
    def test_strict_max(self):
        assert es_choose(TrialOutcome((7, 4))).arm == 0
        assert EmpiricalSuccess().table(11)[7, 4] == 0.0

    def test_two_way_tie(self):
        action = es_choose(TrialOutcome((5, 5)))
        assert action.allocation == (0.5, 0.5)
        assert EmpiricalSuccess().table(5)[5, 5] == 0.5

    def test_three_arm_tie_among_top(self):
        action = es_choose(TrialOutcome((2, 5, 5)))
        assert action.allocation == (0.0, 0.5, 0.5)

    @given(st.lists(st.integers(0, 30), min_size=2, max_size=5),
           st.integers(1, 5), st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_argmax_invariance_under_increasing_transform(self, counts, scale, shift):
        # any strictly increasing transform applied uniformly preserves the choice
        base = es_choose(TrialOutcome(tuple(counts)))
        transformed = es_choose(TrialOutcome(tuple(scale * c + shift for c in counts)))
        assert base == transformed


class TestZtestChoose:
    def test_equal_counts_keep_status_quo(self):
        assert ztest_choose(TrialOutcome((40, 40)), n=100).arm == 0
        assert ZTest().table(100)[40, 40] == 0.0

    def test_hand_computed_rejection(self):
        # n=145, counts (70, 90): z ~ 2.36 > 1.6449, so the innovation wins
        assert ztest_choose(TrialOutcome((70, 90)), n=145, status_quo=0).arm == 1
        assert ZTest(status_quo=0).table(145)[70, 90] == 1.0
        p1, p2 = 70 / 145, 90 / 145
        pooled = 160 / 290
        z = (p2 - p1) / np.sqrt(pooled * (1 - pooled) * 2 / 145)
        assert z == pytest.approx(2.36, abs=0.02)

    def test_zero_pooled_se_keeps_status_quo(self):
        assert ztest_choose(TrialOutcome((0, 0)), n=50).arm == 0
        assert ztest_choose(TrialOutcome((50, 50)), n=50).arm == 0
        assert ZTest().table(50)[0, 0] == ZTest().table(50)[50, 50] == 0.0

    def test_status_quo_b(self):
        assert ztest_choose(TrialOutcome((90, 70)), n=145, status_quo=1).arm == 0
        assert ZTest(status_quo=1).table(145)[90, 70] == 0.0

    def test_exact_size_at_null_states(self):
        # exact rejection probability at p_a = p_b states, 0.05 grid, n = 145
        n = 145
        table = choice_table(DecisionRule("ztest", {"alpha": 0.05, "status_quo": 0}), n)
        for p in np.linspace(0, 1, 21):
            pmf = binom_pmf_vector(n, p)
            reject = float(pmf @ table @ pmf)
            assert reject <= 0.055

    def test_critical_value_accuracy(self):
        # spot values from high-precision tables, at alphas other than the pinned 0.05
        assert one_sided_critical_value(0.025) == pytest.approx(1.959963984540054, abs=1e-8)
        assert one_sided_critical_value(1 - 0.95) == pytest.approx(1.6448536269514722, abs=1e-8)
        assert one_sided_critical_value(0.5) == pytest.approx(0.0, abs=1e-12)
        assert one_sided_critical_value(0.999) == pytest.approx(-3.090232306167813, abs=1e-8)

    def test_finite_critical_value_down_to_the_smallest_alpha(self):
        # the smallest alpha with 1 - alpha < 1 has a finite critical value; below it
        # 1 - alpha rounds to 1 and the rule is rejected
        smallest = 2.0 ** -54 * (1 + 2.0 ** -52)
        assert np.isfinite(one_sided_critical_value(smallest))
        assert np.isfinite(choice_table(ZTest(alpha=smallest), 3)).all()
        for alpha in (2.0 ** -54, 1e-17, 5e-324):
            with pytest.raises(ValueError, match="no finite critical value"):
                one_sided_critical_value(alpha)
            with pytest.raises(PreconditionError, match="no finite critical value"):
                ZTest(alpha=alpha)


class TestScalarMatchesTable:
    """The scalar rules of tests/reference.py check the tables every scan uses."""

    @given(st.integers(1, 60), st.sampled_from([0.01, 0.05, 0.1]), st.sampled_from([0, 1]))
    @settings(max_examples=30, deadline=None)
    def test_every_outcome(self, n, alpha, status_quo):
        ztest = choice_table(DecisionRule("ztest", {"alpha": alpha, "status_quo": status_quo}), n)
        es = choice_table(DecisionRule("empirical_success"), n)
        for i in range(n + 1):
            for j in range(n + 1):
                outcome = TrialOutcome((i, j))
                assert ztest[i, j] == ztest_choose(outcome, n, alpha, status_quo).mass_on(1)
                assert es[i, j] == es_choose(outcome).mass_on(1)

    def test_non_trial_rule_rejected(self):
        with pytest.raises(PreconditionError):
            choice_table(DecisionRule("midpoint"), 3)


def test_removed_allocation_rule_kind_rejected():
    with pytest.raises(PreconditionError):
        DecisionRule("mmr_allocation_sample")


class TestRuleValues:
    def test_factory_builds_the_values(self):
        assert DecisionRule("empirical_success") == EmpiricalSuccess()
        assert DecisionRule("ztest", {"alpha": 0.01, "status_quo": 1}) == ZTest(0.01, 1)
        assert DecisionRule("ztest") == ZTest()
        assert DecisionRule("midpoint") is MIDPOINT
        assert DecisionRule("hodges_lehmann") is HODGES_LEHMANN
        assert DecisionRule("analog_predictor") is ANALOG_MEAN
        assert DecisionRule("analog_predictor", {"loss": "absolute"}) is ANALOG_MEDIAN
        table = DecisionRule("custom", {"trial_table": np.eye(3)})
        assert isinstance(table, TableRule) and table.table(2).tolist() == np.eye(3).tolist()
        assert isinstance(DecisionRule("custom", {"apply_trial": es_choose}), OutcomeRule)

    @pytest.mark.parametrize("kind,params", [
        ("ztest", {"alpha": 0.05, "status_qou": 1}),
        ("ztest", {"alpah": 0.05}),
        ("analog_predictor", {"los": "absolute"}),
        ("custom", {"mean_tabel": [(0, 0), (1, 1)]}),
        ("custom", {"predict_means": lambda m, p1: m}),
        ("empirical_success", {"alpha": 0.05}),
        ("midpoint", {"loss": "square"})])
    def test_unknown_parameter_name_rejected(self, kind, params):
        with pytest.raises(PreconditionError, match="has no parameter"):
            DecisionRule(kind, params)

    @pytest.mark.parametrize("params", [{}, None, {"mean_table": [(0, 0), (1, 1)],
                                                   "trial_table": np.zeros((2, 2))}])
    def test_custom_kind_needs_exactly_one_recognised_key(self, params):
        with pytest.raises(PreconditionError, match="exactly one of"):
            DecisionRule("custom", params)

    @pytest.mark.parametrize("build", [
        lambda: DecisionRule("ztest", {"alpha": 1.5}),
        lambda: ZTest(alpha=0.0),
        lambda: ZTest(status_quo=2),
        lambda: DecisionRule("analog_predictor", {"loss": "huber"}),
        lambda: Predictor("mode", lambda m, n_obs, p1, support: m),
        lambda: Predictor("mean", 0.5),
        lambda: TableRule([[0.5, 1.5], [0.0, 0.0]]),
        lambda: TableRule([[np.nan]]),
        lambda: OutcomeRule(None),
        lambda: mean_function_predictor(0.5),
        lambda: mean_table_predictor([]),
        lambda: mean_table_predictor([(0, np.nan), (1, 1)]),
        lambda: mean_table_predictor([(0, 0), (np.inf, 1)]),
        lambda: mean_table_predictor([(0, 0, 0), (1, 1, 1)]),
        lambda: mean_table_predictor([(0, 0), (1,)]),
        lambda: mean_table_predictor([0.5])])
    def test_bad_field_rejected_when_built(self, build):
        with pytest.raises(PreconditionError):
            build()

    def test_mean_table_rows_in_any_order(self):
        m = np.linspace(-0.5, 1.5, 9)
        shuffled = mean_table_predictor([(1, 0.9), (0, 0.2), (0.5, 0.4)])
        ordered = mean_table_predictor([(0, 0.2), (0.5, 0.4), (1, 0.9)])
        assert (shuffled.predict(m, 5, 0.8, (0.0, 1.0)).tolist()
                == ordered.predict(m, 5, 0.8, (0.0, 1.0)).tolist()
                == np.interp(m, [0, 0.5, 1], [0.2, 0.4, 0.9]).tolist())

    @pytest.mark.parametrize("rule", [
        EmpiricalSuccess(), ZTest(0.01, 1), MIDPOINT, HODGES_LEHMANN, ANALOG_MEAN,
        ANALOG_MEDIAN, mean_table_predictor([(0, 0.2), (1, 0.9)])],
        ids=["es", "ztest", "midpoint", "hodges_lehmann", "mean", "median", "table"])
    def test_rules_the_command_line_builds_pickle(self, rule):
        again = pickle.loads(pickle.dumps(rule))
        if isinstance(rule, Predictor):
            m = np.linspace(0, 1, 7)
            assert again.statistic == rule.statistic
            assert (again.predict(m, 4, 0.7, (0.0, 1.0)).tolist()
                    == rule.predict(m, 4, 0.7, (0.0, 1.0)).tolist())
        else:
            assert again == rule and again.table(5).tolist() == rule.table(5).tolist()

    def test_table_rule_holds_a_read_only_copy(self):
        given = np.zeros((3, 3))
        rule = TableRule(given)
        given[0, 0] = 1.0
        assert rule.table(2)[0, 0] == 0.0
        with pytest.raises(ValueError):
            rule.table(2)[0, 0] = 1.0


UNIT = (0.0, 1.0)


class TestHodgesLehmann:
    def test_fixed_point_half(self):
        for n in (1, 4, 100):
            assert HODGES_LEHMANN.predict(0.5, n, 1.0, UNIT) == pytest.approx(0.5)

    def test_m_one_n_four(self):
        assert HODGES_LEHMANN.predict(1.0, 4, 1.0, UNIT) == pytest.approx(5 / 6)

    def test_m_zero_n_one(self):
        assert HODGES_LEHMANN.predict(0.0, 1, 1.0, UNIT) == pytest.approx(0.25)

    @given(st.floats(0.0, 1.0), st.integers(1, 1000))
    @settings(max_examples=200, deadline=None)
    def test_shrinks_strictly_toward_half(self, m, n):
        pred = HODGES_LEHMANN.predict(m, n, 1.0, UNIT)
        if m < 0.5:
            assert m < pred < 0.5
        elif m > 0.5:
            assert 0.5 < pred < m
        else:
            assert pred == pytest.approx(0.5)


class TestMidpointPredict:
    def test_no_missing_returns_mean(self):
        assert MIDPOINT.predict(0.37, 5, 1.0, UNIT) == pytest.approx(0.37)

    def test_hand_value(self):
        # interval [0.45, 0.70], midpoint 0.575
        assert MIDPOINT.predict(0.6, 5, 0.75, UNIT) == pytest.approx(0.575)

    def test_fully_missing_returns_interval_midpoint(self):
        assert MIDPOINT.predict(0.9, 5, 0.0, UNIT) == pytest.approx(0.5)
        assert MIDPOINT.predict(1.5, 5, 0.0, (1.0, 2.0)) == pytest.approx(1.5)

    def test_agrees_with_analog_mean_when_all_observed(self):
        mean = _bernoulli_predictions(ANALOG_MEAN, 2, 3, 1.0, UNIT)
        assert mean == pytest.approx(2 / 3)
        assert MIDPOINT.predict(mean, 3, 1.0, UNIT) == pytest.approx(mean)


class TestAnalogPredict:
    """The analog predictors of a Bernoulli sample: k successes among n outcomes,
    each at one end of the support."""

    def test_mean(self):
        # outcomes 0.2 and 0.4
        assert _bernoulli_predictions(ANALOG_MEAN, 1, 2, 1.0, (0.2, 0.4)) == pytest.approx(0.3)

    def test_median_odd(self):
        # outcomes 0, 0 and 1
        assert _bernoulli_predictions(ANALOG_MEDIAN, 1, 3, 1.0, UNIT) == pytest.approx(0.0)

    def test_median_even_midpoint_convention(self):
        # outcomes 0.1 and 0.9
        assert _bernoulli_predictions(ANALOG_MEDIAN, 1, 2, 1.0, (0.1, 0.9)) == pytest.approx(0.5)


def _brute_force(problem, subset, criterion):
    idx = [problem.states.index(s) for s in subset]
    best_val, best_action = None, None
    for c in range(len(problem.actions)):
        if criterion == "maximin":
            val = min(problem.welfare[c, s] for s in idx)
            better = best_val is None or val > best_val
        elif criterion == "minimax_regret":
            val = max(max(problem.welfare[d, s] for d in range(len(problem.actions)))
                      - problem.welfare[c, s] for s in idx)
            better = best_val is None or val < best_val
        else:
            weights = [problem.prior[s] for s in idx]
            total = sum(weights)
            val = sum(problem.welfare[c, s] * wt / total for s, wt in zip(idx, weights))
            better = best_val is None or val > best_val
        if better:
            best_val, best_action = val, c
    return best_action, best_val


class TestAsIfDecide:
    @pytest.fixture
    def table(self):
        return FiniteDecisionProblem(
            ("a", "b"), ("s1", "s2"), [[1.0, 0.0], [0.5, 1.0]],
            prior=[0.5, 0.5])

    def test_singleton_degenerates_to_optimization(self, table):
        assert asif_decide(table, ["s1"], "minimax_regret").action == "a"
        assert asif_decide(table, ["s2"], "maximin").action == "b"

    def test_maximin_and_mmr_on_2x2(self, table):
        assert asif_decide(table, ["s1", "s2"], "maximin").action == "b"
        result = asif_decide(table, ["s1", "s2"], "minimax_regret")
        assert result.action == "b"
        assert result.value == pytest.approx(0.5)

    def test_bayes_uniform(self, table):
        result = asif_decide(table, ["s1", "s2"], "bayes")
        assert result.action == "b"
        assert result.value == pytest.approx(0.75)

    def test_empty_set_rejected(self, table):
        with pytest.raises(PreconditionError):
            asif_decide(table, [], "maximin")

    def test_bayes_without_prior_rejected(self):
        p = FiniteDecisionProblem(("a",), ("s1",), [[1.0]])
        with pytest.raises(PreconditionError):
            asif_decide(p, ["s1"], "bayes")

    def test_tie_reported(self):
        p = FiniteDecisionProblem(("a", "b"), ("s1",), [[1.0], [1.0]])
        result = asif_decide(p, ["s1"], "maximin")
        assert result.action == "a"
        assert result.is_tie and result.tied == ("a", "b")

    @given(st.integers(2, 6), st.integers(1, 8), st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["bayes", "maximin", "minimax_regret"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, n_actions, n_states, seed, criterion):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n_actions, n_states))
        pr = rng.dirichlet(np.ones(n_states))
        pr = pr / pr.sum()
        problem = FiniteDecisionProblem(
            tuple(f"c{i}" for i in range(n_actions)),
            tuple(f"s{i}" for i in range(n_states)),
            w, prior=pr)
        subset_size = int(rng.integers(1, n_states + 1))
        subset = [f"s{i}" for i in sorted(rng.choice(n_states, subset_size, replace=False))]
        got = asif_decide(problem, subset, criterion)
        _, expect_val = _brute_force(problem, subset, criterion)
        assert got.value == pytest.approx(expect_val, abs=1e-10)


class TestAsIfOptimize:
    def test_picks_best_in_state(self):
        p = FiniteDecisionProblem(("a", "b"), ("s1", "s2"), [[1.0, 0.0], [0.0, 1.0]])
        assert asif_optimize(p, "s2").action == "b"

    def test_unknown_state_rejected(self):
        p = FiniteDecisionProblem(("a",), ("s1",), [[1.0]])
        with pytest.raises(PreconditionError):
            asif_optimize(p, "nope")
