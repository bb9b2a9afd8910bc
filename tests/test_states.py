import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmregret import (
    FiniteDecisionProblem,
    PreconditionError,
    build_binary_grid,
    build_prediction_grid,
    build_product_grid,
    classify_dominance,
)
from mmregret import states
from reference import state_means


class TestBinaryGrid:
    def test_step_half_gives_nine_states(self):
        grid = build_binary_grid(0.5)
        assert len(grid) == 9
        assert set(_pairs(grid)) == {
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
        assert _pairs(a) == _pairs(b)

    def test_row_major_order(self):
        pairs = _pairs(build_binary_grid(0.5))
        assert pairs[0] == (0.0, 0.0)
        assert pairs[1] == (0.0, 0.5)
        assert pairs[3] == (0.5, 0.0)

    @given(st.sampled_from([0.5, 0.25, 0.2, 0.1, 0.05]))
    @settings(max_examples=10, deadline=None)
    def test_all_states_valid(self, step):
        pairs = _pairs(build_binary_grid(step))
        for p_a, p_b in pairs:
            assert 0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0
        assert len(set(pairs)) == len(pairs)


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
        miss_thetas = set(grid.miss_params[grid.index_miss].tolist())
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

    @pytest.mark.parametrize("shape", [float("nan"), float("inf")])
    def test_non_finite_beta_shapes_rejected(self, shape):
        # nan <= 0 is False, so a check for positive shapes alone let NaN through
        for obs, miss in (((shape, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, shape))):
            with pytest.raises(PreconditionError, match="must be finite and positive"):
                build_prediction_grid("beta", obs_params=[obs], miss_params=[miss],
                                      miss_rates=[0.1])

    @pytest.mark.parametrize("shapes", [(1e308, 1e308), (1.7e308, 1e307)])
    def test_beta_shapes_of_no_finite_sum_rejected(self, shapes):
        # a + b overflowed: the mean a / (a + b) read 0, not 0.5, and numpy's beta drew 0
        for obs, miss in ((shapes, (1.0, 1.0)), ((1.0, 1.0), shapes)):
            with pytest.raises(PreconditionError, match="with a finite sum"):
                build_prediction_grid("beta", obs_params=[obs], miss_params=[miss],
                                      miss_rates=[0.1])
        # the largest sum that is finite
        build_prediction_grid("beta", obs_params=[(8.9e307, 8.9e307)], miss_params=[(1.0, 1.0)],
                              miss_rates=[0.1])

    def test_family_mismatch_rejected(self):
        # thetas where Beta shapes are due, and shapes where thetas are
        with pytest.raises(PreconditionError, match="must be \\(alpha, beta\\) pairs"):
            build_prediction_grid("beta", obs_params=[(1.0, 1.0)], miss_params=[0.5],
                                  miss_rates=[0.1])
        with pytest.raises(PreconditionError, match="must be thetas"):
            build_prediction_grid("bernoulli", obs_params=[(1.0, 1.0)], miss_params=[0.5],
                                  miss_rates=[0.1])


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
        with pytest.raises(PreconditionError, match="p_a=1.2 outside"):
            build_product_grid([1.2], [0.5])
        with pytest.raises(PreconditionError, match="p_b=nan outside"):
            build_product_grid([0.5], [0.5, float("nan")])


class TestColumnarBinaryGrid:
    def test_states_built_from_columns(self):
        grid = build_binary_grid(0.5)
        assert grid.points_a is grid.points_b  # the lattice's axes are one array
        assert grid.points_a.tolist() == [0.0, 0.5, 1.0]
        assert _pairs(grid) == [(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]

    def test_grid_from_states_derives_columns(self):
        # the product grid of the lattice's axes is the lattice
        lattice = build_binary_grid(0.5)
        grid = build_product_grid(lattice.points_a.tolist(), lattice.points_b.tolist())
        assert grid.points_a.tolist() == grid.points_b.tolist() == lattice.points_a.tolist()
        assert _pairs(grid) == _pairs(lattice)

    def test_grid_from_states_keeps_negative_zero(self):
        # and duplicates: the axes are the values given, in order
        grid = build_product_grid([-0.0, 0.0, -0.0], [0.5, -0.0])
        assert [repr(p) for p in grid.points_a.tolist()] == ["-0.0", "0.0", "-0.0"]
        assert [repr(p) for p in grid.points_b.tolist()] == ["0.5", "-0.0"]
        assert len(grid) == 6

    @pytest.mark.parametrize("axes", [([], [0.5]), ([0.5], []), ([[0.5, 0.5]], [0.5])])
    def test_product_grid_needs_two_axes(self, axes):
        with pytest.raises(PreconditionError, match="one or more p_a and p_b values"):
            build_product_grid(*axes)

    def test_product_grid_copies_its_values(self):
        values = np.array([0.1, 0.2])
        grid = build_product_grid(values, values)
        values[0] = 0.9
        assert values.flags.writeable
        assert grid.points_a.tolist() == grid.points_b.tolist() == [0.1, 0.2]

    def test_lattice_grid_holds_only_its_axes(self):
        # 4,004,001 states in under 64 KB: no column has a row per state
        grid = build_binary_grid(0.0005)
        assert len(grid) == 2001 ** 2
        assert sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray)) < 1 << 16


def _pairs(grid) -> list[tuple[float, float]]:
    """The (p_a, p_b) pair of every state of a binary-trial grid, in order: state
    k is (points_a[k // B], points_b[k % B])."""
    b = len(grid.points_b)
    return [(grid.points_a[k // b].item(), grid.points_b[k % b].item())
            for k in range(len(grid))]


def _product_grid_states(family, obs, miss, rates, support, max_miss_rate=None,
                         min_missing_mean=None, max_missing_mean=None, max_mean_abs_diff=None):
    """The prediction grid's states, as (obs, miss, miss_rate) triples, as
    itertools.product plus predicate filters makes them."""
    out = []
    for po, pm, mr in itertools.product(obs, miss, rates):
        observed_mean, missing_mean, _ = state_means(family, po, pm, mr, support)
        if max_miss_rate is not None and mr > max_miss_rate:
            continue
        if min_missing_mean is not None and missing_mean < min_missing_mean:
            continue
        if max_missing_mean is not None and missing_mean > max_missing_mean:
            continue
        if max_mean_abs_diff is not None and \
                abs(observed_mean - missing_mean) > max_mean_abs_diff:
            continue
        out.append((po, pm, mr))
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
        # the columns read at each state hold its coordinates bit for bit, which
        # tells -0.0 from 0.0, so order, duplicates and signs are all kept
        for c, (values, index) in enumerate((("obs_params", "index_obs"),
                                             ("miss_params", "index_miss"),
                                             ("miss_rates", "index_rate"))):
            got = getattr(grid, values)[getattr(grid, index)]
            coordinate = np.array([s[c] for s in want], dtype=float)
            assert got.view(np.int64).tolist() == coordinate.view(np.int64).tolist()
        assert grid.population_mean.tolist() == [state_means(family, *s, support)[2]
                                                 for s in want]

    def test_states_built_on_demand(self):
        grid = build_prediction_grid("bernoulli", obs_params=[0.1, 0.1, 0.9],
                                     miss_params=[0.5], miss_rates=[0.0, 0.2])
        assert grid.obs_params.tolist() == [0.1, 0.9]
        assert grid.index_obs.tolist() == [0, 0, 0, 0, 1, 1]
        # state 5 is row 5 of the index columns
        assert (grid.obs_params[grid.index_obs[5]], grid.miss_params[grid.index_miss[5]],
                grid.miss_rates[grid.index_rate[5]]) == (0.9, 0.5, 0.2)

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

    @pytest.mark.parametrize("support", [(0.0, 1e200), (-1e308, 1e308), (-1e154, 1e154)])
    def test_support_of_no_finite_squared_width_rejected(self, support):
        # (y1 - y0) ** 2 raised OverflowError at 0,1e200, and -1e308,1e308 gave NaN MSEs
        with pytest.raises(PreconditionError, match="squared width is not finite"):
            build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                                  miss_rates=[0.1], support=support)
        build_prediction_grid("bernoulli", obs_params=[0.5], miss_params=[0.5],
                              miss_rates=[0.1], support=(0.0, 1e154))

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


class TestGridSizeBound:
    """A grid builder refuses a grid of more than _MAX_GRID_STATES states before
    it allocates one."""

    def test_the_bound_allows_step_0_0005(self):
        # 2,001 points a side: the 4,004,001 states of a binary grid of step 0.0005
        assert 2001 ** 2 <= states._MAX_GRID_STATES

    def test_lattice_points(self, monkeypatch):
        monkeypatch.setattr(states, "_MAX_GRID_STATES", 5)
        assert len(states._lattice(0.25)) == 5
        with pytest.raises(PreconditionError, match="gives 6 states"):
            states._lattice(0.2)
        with pytest.raises(PreconditionError, match="gives inf states"):
            states._lattice(5e-324)  # 1/step overflows to inf

    def test_binary_grid_states(self, monkeypatch):
        monkeypatch.setattr(states, "_MAX_GRID_STATES", 25)
        assert len(build_binary_grid(0.25)) == 25
        with pytest.raises(PreconditionError, match="gives 36 states"):
            build_binary_grid(0.2)

    def test_product_grid_states(self, monkeypatch):
        monkeypatch.setattr(states, "_MAX_GRID_STATES", 6)
        assert len(build_product_grid([0.1] * 2, [0.2] * 3)) == 6
        with pytest.raises(PreconditionError, match="gives 8 states"):
            build_product_grid([0.1] * 2, [0.2] * 4)

    def test_prediction_grid_counts_the_product_before_restrictions(self, monkeypatch):
        monkeypatch.setattr(states, "_MAX_GRID_STATES", 12)
        coords = dict(obs_params=[0.5, 0.5], miss_params=[0.1, 0.9])
        assert len(build_prediction_grid("bernoulli", miss_rates=[0.1, 0.2, 0.3],
                                         **coords)) == 12
        with pytest.raises(PreconditionError, match="gives 16 states"):
            build_prediction_grid("bernoulli", miss_rates=[0.1, 0.2, 0.3, 0.4],
                                  max_miss_rate=0.15, **coords)
