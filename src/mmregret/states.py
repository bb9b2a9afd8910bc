"""State-space families, welfare semantics, and grid discretizations.

Scans run over finite grids of states of two families:

* binary_trial  -- a pair of arm success probabilities (p_a, p_b), welfare of
  an arm its success probability; a grid is a p_a axis times a p_b axis.
* prediction    -- outcome distribution given observed, outcome distribution
  given missing, and a miss rate, on a bounded outcome support.

A state is one row of a grid's columns; no state object exists. Builders are
pure and deterministic and check every coordinate they are given. The state
the allocation rules take, ``MissingDataState``, lives beside them in
``missing``, and finite decision problems in ``asif``: no scan reads either.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import PreconditionError

__all__ = ["StateGrid", "build_binary_grid", "build_product_grid", "build_prediction_grid"]

# the most states a grid builder allocates; a binary grid of step 0.0005 has 4,004,001
_MAX_GRID_STATES = 1 << 22


class StateGrid:
    """A finite, ordered discretization of one state-space family.

    A grid is columnar. The builders make grids; the constructor takes the
    columns as they are, read-only.

    * binary_trial -- the product, row-major, of two axes: ``points_a`` and
      ``points_b``, arm a's and arm b's success probabilities as given. State k
      is (points_a[k // B], points_b[k % B]), B = len(points_b).
    * prediction -- a filtered product, with an index column per coordinate:
      one outcome family (``outcome``) and one ``support``; ``obs_params`` and
      ``miss_params`` hold the distinct parameters of the outcome given observed
      and given missing (thetas, or rows of Beta shapes), ``miss_rates`` the
      distinct miss rates, indexed by ``index_obs``, ``index_miss`` and
      ``index_rate``. State k is row k of the index columns.
    """

    def __init__(self, family: str, **columns):
        if family not in ("binary_trial", "prediction"):
            raise PreconditionError(f"unknown grid family {family!r}")
        self.family = family
        for name, col in columns.items():
            if isinstance(col, np.ndarray):
                col.flags.writeable = False
            setattr(self, name, col)

    @property
    def population_mean(self) -> np.ndarray:
        """Mean of the full outcome distribution, observed and missing mixed, of
        every state (prediction grids)."""
        rate = self.miss_rates[self.index_rate]
        observed = _outcome_mean(self.outcome, self.obs_params, self.support)[self.index_obs]
        missing = _outcome_mean(self.outcome, self.miss_params, self.support)[self.index_miss]
        return (1.0 - rate) * observed + rate * missing

    def __len__(self) -> int:
        binary = self.family == "binary_trial"
        return len(self.points_a) * len(self.points_b) if binary else len(self.index_obs)


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values (rows, for pairs) and each value's position among them.

    Values are told apart by their bits, so 0.0 and -0.0 stay apart and every
    state keeps the exact coordinates it was given.
    """
    values = np.asarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64), axis=0, return_inverse=True)
    return np.ascontiguousarray(bits).view(float), inverse.reshape(-1)


def _outcome_mean(family: str, params: np.ndarray, support) -> np.ndarray:
    """The mean, on the support, of the outcome of each parameter: a theta
    (Bernoulli) or a row of shapes (Beta)."""
    y0, y1 = support
    frac = params if family == "bernoulli" else params[:, 0] / (params[:, 0] + params[:, 1])
    return y0 + frac * (y1 - y0)


def _in_unit(values: np.ndarray) -> np.ndarray:
    """Whether each value lies in [0, 1]; NaN does not."""
    return (values >= 0.0) & (values <= 1.0)


def _reject_first(ok: np.ndarray, message) -> None:
    """Raise PreconditionError(message(k)) at the first flat position k where ok is False."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        raise PreconditionError(message(int(bad[0])))


def _check_prediction_coordinates(family: str, obs: np.ndarray, miss: np.ndarray,
                                  rates: np.ndarray, support: tuple) -> None:
    """Check the distinct outcome parameters, the distinct miss rates and the support."""
    shape = {"bernoulli": (), "beta": (2,)}.get(family)
    if shape is None:
        raise PreconditionError(f"unknown family {family!r}")
    if obs.shape[1:] != shape or miss.shape[1:] != shape:
        raise PreconditionError(f"{family} outcome parameters must be "
                                f"{'(alpha, beta) pairs' if shape else 'thetas'}")
    params = np.concatenate([obs, miss])
    if family == "bernoulli":
        _reject_first(_in_unit(params),
                      lambda k: f"bernoulli theta={params[k].item()} outside [0, 1]")
    else:
        # a finite sum bounds every Beta moment the scans compute
        with np.errstate(over="ignore"):
            total = params.sum(axis=1)
        _reject_first((params > 0).all(axis=1) & np.isfinite(total),
                      lambda k: "beta shapes ({}, {}) must be finite and positive, with a "
                                "finite sum".format(*params[k].tolist()))
    _reject_first(_in_unit(rates), lambda k: f"miss_rate={rates[k].item()} outside [0, 1]")
    y0, y1 = support
    if not y0 < y1:
        raise PreconditionError(f"support [{y0}, {y1}] is degenerate")
    if not (math.isfinite(y0) and math.isfinite(y1)):
        raise PreconditionError(f"support [{y0}, {y1}] is not finite")
    if not math.isfinite((y1 - y0) * (y1 - y0)):  # the scale of every squared error
        raise PreconditionError(f"support [{y0}, {y1}] is too wide: its squared width "
                                "is not finite")


def _check_grid_size(count: float, what: str) -> None:
    """Reject a grid of more than _MAX_GRID_STATES states, before it is allocated."""
    if count > _MAX_GRID_STATES:
        raise PreconditionError(
            f"{what} gives {count:.4g} states, above the {_MAX_GRID_STATES} a grid may hold")


def _lattice(step: float) -> np.ndarray:
    """Points {0, step, 2*step, ..., 1}; step must divide 1."""
    if not 0 < step <= 0.5:  # also rejects NaN
        raise PreconditionError(f"step {step} must lie in (0, 0.5]")
    _check_grid_size(1.0 / step + 1.0, f"step {step}")  # 1/step may be inf
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise PreconditionError(f"step {step} does not divide 1")
    return np.linspace(0.0, 1.0, n + 1)


def build_binary_grid(step: float) -> StateGrid:
    """All (p_a, p_b) pairs on the square lattice with the given step, row-major."""
    pts = _lattice(step)
    _check_grid_size(len(pts) ** 2, f"step {step}")
    return StateGrid("binary_trial", points_a=pts, points_b=pts)


def build_product_grid(p_a_values: Sequence[float], p_b_values: Sequence[float]) -> StateGrid:
    """Every (p_a, p_b) pair of the values given, row-major, duplicates and a -0.0
    kept; each must lie in [0, 1]. ``build_product_grid([a], [b])`` is one state."""
    axes = [np.array(values, dtype=float) for values in (p_a_values, p_b_values)]
    if any(axis.ndim != 1 or len(axis) == 0 for axis in axes):
        raise PreconditionError("a binary-trial grid needs one or more p_a and p_b values")
    _check_grid_size(len(axes[0]) * len(axes[1]), "the p_a and p_b values")
    for name, axis in zip(("p_a", "p_b"), axes):
        _reject_first(_in_unit(axis), lambda k: f"{name}={axis[k].item()} outside [0, 1]")
    return StateGrid("binary_trial", points_a=axes[0], points_b=axes[1])


def build_prediction_grid(
    family: str,
    *,
    obs_params: Sequence[float] | Sequence[tuple[float, float]] | None = None,
    miss_params: Sequence[float] | Sequence[tuple[float, float]] | None = None,
    miss_rates: Sequence[float],
    support: tuple[float, float] = (0.0, 1.0),
    max_miss_rate: float | None = None,
    min_missing_mean: float | None = None,
    max_missing_mean: float | None = None,
    max_mean_abs_diff: float | None = None,
) -> StateGrid:
    """Cartesian product of observed-, missing- and miss-rate grids, restricted.

    For the Bernoulli family the parameter grids are theta values; for Beta
    they are (alpha, beta) shape pairs supplied explicitly by the caller.
    States run in ``itertools.product(obs_params, miss_params, miss_rates)``
    order, duplicates kept. The grid is columnar: the optional restrictions
    are one boolean mask over the product of the coordinate lists, and no
    state is built.
    """
    coordinates = (obs_params, miss_params, miss_rates)
    if any(c is None or len(c) == 0 for c in coordinates):
        raise PreconditionError("all three coordinate grids must be non-empty")
    _check_grid_size(math.prod(map(len, coordinates)), "the product of the coordinate grids")
    if any(r != r for r in (max_miss_rate, min_missing_mean, max_missing_mean,
                            max_mean_abs_diff)):  # NaN would filter nothing
        raise PreconditionError("a state-space restriction is NaN")
    (obs, i_obs), (miss, i_miss), (rates, i_rate) = map(_distinct, coordinates)
    support = tuple(support)
    _check_prediction_coordinates(family, obs, miss, rates, support)

    # keep[o, m, r]: whether state (obs_params[o], miss_params[m], miss_rates[r]) stays
    obs_mean = _outcome_mean(family, obs, support)[i_obs]
    miss_mean = _outcome_mean(family, miss, support)[i_miss, None]
    keep = np.ones((len(i_obs), len(i_miss), len(i_rate)), dtype=bool)
    if max_miss_rate is not None:
        keep &= ~(rates[i_rate] > max_miss_rate)
    if min_missing_mean is not None:
        keep &= ~(miss_mean < min_missing_mean)
    if max_missing_mean is not None:
        keep &= ~(miss_mean > max_missing_mean)
    if max_mean_abs_diff is not None:
        keep &= ~(np.abs(obs_mean[:, None, None] - miss_mean) > max_mean_abs_diff)
    o, m, r = np.nonzero(keep)  # in row-major order, which is the product's
    if len(o) == 0:
        raise PreconditionError("prediction grid is empty after filtering")
    return StateGrid(
        "prediction", outcome=family, support=support, obs_params=obs, miss_params=miss,
        miss_rates=rates, index_obs=i_obs[o], index_miss=i_miss[m], index_rate=i_rate[r])
