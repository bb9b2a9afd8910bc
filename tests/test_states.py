import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmregret import (
    BinaryTrialState,
    FiniteDecisionProblem,
    OutcomeDist,
    PredictionState,
    PreconditionError,
    StateGrid,
    build_binary_grid,
    build_prediction_grid,
    classify_dominance,
)


class TestBinaryGrid:
    def test_step_half_gives_nine_states(self):
        grid = build_binary_grid(0.5)
        assert len(grid) == 9
        assert {(s.p_a, s.p_b) for s in grid} == {
            (a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)}

    def test_step_001_gives_101_squared(self):
        assert len(build_binary_grid(0.01)) == 101 ** 2

    def test_non_dividing_step_rejected(self):
        with pytest.raises(PreconditionError):
            build_binary_grid(0.3)

    @pytest.mark.parametrize("step", [0.6, 0.0, -0.1])
    def test_out_of_range_step_rejected(self, step):
        with pytest.raises(PreconditionError):
            build_binary_grid(step)

    def test_rebuild_is_identical(self):
        a = build_binary_grid(0.1)
        b = build_binary_grid(0.1)
        assert a.states == b.states

    def test_row_major_order(self):
        grid = build_binary_grid(0.5)
        assert (grid.states[0].p_a, grid.states[0].p_b) == (0.0, 0.0)
        assert (grid.states[1].p_a, grid.states[1].p_b) == (0.0, 0.5)
        assert (grid.states[3].p_a, grid.states[3].p_b) == (0.5, 0.0)

    @given(st.sampled_from([0.5, 0.25, 0.2, 0.1, 0.05]))
    @settings(max_examples=10, deadline=None)
    def test_all_states_valid(self, step):
        for s in build_binary_grid(step):
            assert 0.0 <= s.p_a <= 1.0 and 0.0 <= s.p_b <= 1.0
        states = build_binary_grid(step).states
        assert len(set((s.p_a, s.p_b) for s in states)) == len(states)


class TestPredictionGrid:
    def test_tiny_product(self):
        grid = build_prediction_grid(
            "bernoulli", obs_params=[0.0, 1.0], miss_params=[0.0, 1.0],
            miss_rates=[0.0])
        assert len(grid) == 4

    def test_step_01_both_coordinates(self):
        thetas = list(np.linspace(0, 1, 11))
        grid = build_prediction_grid(
            "bernoulli", obs_params=thetas, miss_params=thetas, miss_rates=[0.2])
        assert len(grid) == 121

    def test_missing_mean_filter(self):
        grid = build_prediction_grid(
            "bernoulli", obs_params=[0.0, 0.5, 1.0], miss_params=[0.0, 0.5, 1.0],
            miss_rates=[0.1], min_missing_mean=0.5)
        miss_thetas = {s.dist_missing.theta for s in grid}
        assert miss_thetas == {0.5, 1.0}

    def test_empty_after_filter_rejected(self):
        with pytest.raises(PreconditionError):
            build_prediction_grid(
                "bernoulli", obs_params=[0.5], miss_params=[0.0],
                miss_rates=[0.1], min_missing_mean=0.5)

    @pytest.mark.parametrize("key", ["max_miss_rate", "min_missing_mean",
                                     "max_missing_mean", "max_mean_abs_diff"])
    def test_nan_restriction_rejected(self, key):
        with pytest.raises(PreconditionError, match="NaN"):
            build_prediction_grid(
                "bernoulli", obs_params=[0.5], miss_params=[0.0, 1.0],
                miss_rates=[0.1], **{key: float("nan")})

    def test_bad_beta_shapes_rejected(self):
        with pytest.raises(PreconditionError):
            build_prediction_grid(
                "beta", obs_params=[(0.0, 1.0)], miss_params=[(1.0, 1.0)],
                miss_rates=[0.1])

    def test_family_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            PredictionState(OutcomeDist("bernoulli", theta=0.5),
                            OutcomeDist("beta", alpha=1, beta=1), 0.1)


def _brute_force_dominated(w):
    n_actions = w.shape[0]
    out = []
    for i in range(n_actions):
        for j in range(n_actions):
            if i != j and all(w[j, s] >= w[i, s] for s in range(w.shape[1])) \
                    and any(w[j, s] > w[i, s] for s in range(w.shape[1])):
                out.append(i)
                break
    return out


class TestDominance:
    def test_simple_dominated(self):
        p = FiniteDecisionProblem(("a", "b"), ("s1", "s2"), [[1, 1], [1, 0]])
        assert classify_dominance(p) == {"dominated": ["b"], "undominated": ["a"]}

    def test_trade_off(self):
        p = FiniteDecisionProblem(("a", "b"), ("s1", "s2"), [[1, 0], [0, 1]])
        assert classify_dominance(p)["dominated"] == []

    def test_weak_dominance_needs_strict_part(self):
        p = FiniteDecisionProblem(("a", "b"), ("s1", "s2"), [[1, 1], [1, 1]])
        assert classify_dominance(p)["dominated"] == []

    @given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n_actions, n_states, seed):
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 3, size=(n_actions, n_states)).astype(float)
        actions = tuple(f"c{i}" for i in range(n_actions))
        p = FiniteDecisionProblem(actions, tuple(f"s{i}" for i in range(n_states)), w)
        expected = [actions[i] for i in _brute_force_dominated(w)]
        assert classify_dominance(p)["dominated"] == expected


class TestInvariants:
    def test_bad_prior_rejected(self):
        with pytest.raises(PreconditionError):
            FiniteDecisionProblem(("a",), ("s",), [[1.0]], prior=[0.5])

    def test_state_bounds_rejected(self):
        with pytest.raises(PreconditionError):
            BinaryTrialState(1.2, 0.5)


class TestColumnarBinaryGrid:
    def test_states_built_from_columns(self):
        grid = build_binary_grid(0.5)
        assert grid.points.tolist() == [0.0, 0.5, 1.0]
        assert list(zip(grid.p_a.tolist(), grid.p_b.tolist())) == \
            [(s.p_a, s.p_b) for s in grid.states]

    def test_single_state_is_the_cached_one(self):
        grid = build_binary_grid(0.25)
        s = grid.state(7)
        assert grid.states[7] is s
        assert grid.state(-1) is grid.states[-1]

    def test_grid_from_states_derives_columns(self):
        from mmregret import StateGrid
        lattice = build_binary_grid(0.5)
        grid = StateGrid("binary_trial", lattice.states)
        assert grid.points.tolist() == lattice.points.tolist()
        assert grid.index_a.tolist() == lattice.index_a.tolist()
        assert grid.index_b.tolist() == lattice.index_b.tolist()
        assert grid.states == lattice.states

    def test_grid_from_states_keeps_negative_zero(self):
        from mmregret import StateGrid
        grid = StateGrid("binary_trial", [BinaryTrialState(-0.0, 0.5),
                                          BinaryTrialState(0.0, -0.0)])
        assert [repr(p) for p in grid.p_a.tolist()] == ["-0.0", "0.0"]
        assert [repr(p) for p in grid.p_b.tolist()] == ["0.5", "-0.0"]


def _product_grid_states(family, obs, miss, rates, support, max_miss_rate=None,
                         min_missing_mean=None, max_missing_mean=None, max_mean_abs_diff=None):
    """The prediction grid's states as itertools.product plus predicate filters makes them."""
    def dist(p):
        if family == "bernoulli":
            return OutcomeDist("bernoulli", theta=float(p))
        return OutcomeDist("beta", alpha=float(p[0]), beta=float(p[1]))

    out = []
    for po, pm, mr in itertools.product(obs, miss, rates):
        s = PredictionState(dist(po), dist(pm), float(mr), support)
        if max_miss_rate is not None and s.miss_rate > max_miss_rate:
            continue
        if min_missing_mean is not None and s.missing_mean < min_missing_mean:
            continue
        if max_missing_mean is not None and s.missing_mean > max_missing_mean:
            continue
        if max_mean_abs_diff is not None and \
                abs(s.observed_mean - s.missing_mean) > max_mean_abs_diff:
            continue
        out.append(s)
    return out


_UNIT = st.sampled_from([0.0, -0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0])
_SHAPE = st.tuples(st.sampled_from([0.5, 1.0, 2.0, 5.0]), st.sampled_from([0.5, 1.0, 3.0]))
# restrictions on coordinate values themselves make the comparisons at the boundary
_BOUND = st.none() | st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0, 1.5]) | st.floats(-0.5, 3.0)


class TestColumnarPredictionGrid:
    @given(family=st.sampled_from(["bernoulli", "beta"]), data=st.data(),
           rates=st.lists(_UNIT, min_size=1, max_size=4),
           support=st.sampled_from([(0.0, 1.0), (-1.0, 2.5), (1, 3)]),
           max_miss_rate=_BOUND, min_missing_mean=_BOUND, max_missing_mean=_BOUND,
           max_mean_abs_diff=_BOUND)
    @settings(max_examples=200, deadline=None)
    def test_equals_product_and_filter(self, family, data, rates, support, **restrictions):
        param = _UNIT if family == "bernoulli" else _SHAPE
        obs = data.draw(st.lists(param, min_size=1, max_size=5), label="obs")
        miss = data.draw(st.lists(param, min_size=1, max_size=5), label="miss")
        want = _product_grid_states(family, obs, miss, rates, support, **restrictions)
        if not want:
            with pytest.raises(PreconditionError, match="empty after filtering"):
                build_prediction_grid(family, obs_params=obs, miss_params=miss,
                                      miss_rates=rates, support=support, **restrictions)
            return
        grid = build_prediction_grid(family, obs_params=obs, miss_params=miss,
                                     miss_rates=rates, support=support, **restrictions)
        assert len(grid) == len(want)
        # repr tells -0.0 from 0.0, so order, duplicates and signs are all kept
        assert [repr(grid.state(k)) for k in range(len(grid))] == [repr(s) for s in want]
        assert [repr(s) for s in grid.states] == [repr(s) for s in want]
        assert grid.population_mean.tolist() == [s.population_mean for s in want]
        # columns derived from the states hold the same coordinates, bit for bit
        derived = StateGrid("prediction", want)
        for values, index in (("obs_params", "index_obs"), ("miss_params", "index_miss"),
                              ("miss_rates", "index_rate")):
            got, built = (getattr(g, values)[getattr(g, index)] for g in (derived, grid))
            assert got.view(np.int64).tolist() == built.view(np.int64).tolist()

    def test_states_built_on_demand(self):
        grid = build_prediction_grid("bernoulli", obs_params=[0.1, 0.1, 0.9],
                                     miss_params=[0.5], miss_rates=[0.0, 0.2])
        assert grid.obs_params.tolist() == [0.1, 0.9]
        assert grid.index_obs.tolist() == [0, 0, 0, 0, 1, 1]
        s = grid.state(5)
        assert grid._states is None
        assert grid.states[5] is s
        assert s == PredictionState(OutcomeDist("bernoulli", theta=0.9),
                                    OutcomeDist("bernoulli", theta=0.5), 0.2)

    @pytest.mark.parametrize("empty", ["obs_params", "miss_params", "miss_rates"])
    def test_empty_coordinate_list_rejected_as_such(self, empty):
        coords = {**dict(obs_params=[0.5], miss_params=[0.5], miss_rates=[0.1]), empty: []}
        with pytest.raises(PreconditionError, match="must be non-empty"):
            build_prediction_grid("bernoulli", **coords)

    @pytest.mark.parametrize("support", [(0.0, float("inf")), (float("-inf"), 1.0)])
    def test_non_finite_support_rejected(self, support):
        with pytest.raises(PreconditionError, match="not finite"):
            build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                  miss_rates=[0.1], support=support)
        with pytest.raises(PreconditionError, match="not finite"):
            PredictionState(OutcomeDist("bernoulli", theta=0.5),
                            OutcomeDist("bernoulli", theta=0.5), 0.1, support)

    @pytest.mark.parametrize("kwargs", [
        dict(obs_params=[0.5, 1.5], miss_params=[0.5], miss_rates=[0.1]),
        dict(obs_params=[0.5], miss_params=[-0.1], miss_rates=[0.1]),
        dict(obs_params=[0.5], miss_params=[0.5], miss_rates=[0.1, 1.2]),
        dict(obs_params=[0.5], miss_params=[0.5], miss_rates=[0.1], support=(1.0, 1.0))])
    def test_bad_coordinate_rejected(self, kwargs):
        with pytest.raises(PreconditionError):
            build_prediction_grid("bernoulli", **kwargs)

    def test_unknown_family_rejected(self):
        with pytest.raises(PreconditionError, match="unknown family"):
            build_prediction_grid("gauss", obs_params=[0.5], miss_params=[0.5],
                                  miss_rates=[0.1])

    def test_mixed_grid_from_states_rejected(self):
        bern = PredictionState(OutcomeDist("bernoulli", theta=0.5),
                               OutcomeDist("bernoulli", theta=0.5), 0.1)
        beta = PredictionState(OutcomeDist("beta", alpha=1, beta=1),
                               OutcomeDist("beta", alpha=1, beta=1), 0.1)
        wide = PredictionState(bern.dist_observed, bern.dist_missing, 0.1, (0.0, 2.0))
        for mixed in ((bern, beta), (bern, wide)):
            with pytest.raises(PreconditionError, match="one outcome family and one support"):
                StateGrid("prediction", mixed)
