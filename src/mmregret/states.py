"""State-space families, welfare semantics, and grid discretizations.

Scans run over finite grids of states of two families:

* binary_trial  -- a pair of arm success probabilities (p_a, p_b); welfare of
  an arm is its success probability.
* prediction    -- outcome distribution given observed, outcome distribution
  given missing, and a miss rate, on a bounded outcome support.

States are immutable value objects; builders are pure and deterministic.
The state the allocation rules take, ``MissingDataState``, lives beside them
in ``missing``, and finite decision problems in ``asif``: no scan reads
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError

__all__ = [
    "BinaryTrialState",
    "OutcomeDist",
    "PredictionState",
    "StateGrid",
    "build_binary_grid",
    "build_prediction_grid",
]

# the most states a grid builder allocates; a binary grid of step 0.0005 has 4,004,001
_MAX_GRID_STATES = 1 << 22


@dataclass(frozen=True)
class BinaryTrialState:
    """Success probabilities of two treatment arms; welfare w(t) = p_t."""

    p_a: float
    p_b: float

    def __post_init__(self):
        for name, v in (("p_a", self.p_a), ("p_b", self.p_b)):
            if not 0.0 <= v <= 1.0:
                raise PreconditionError(f"{name}={v} outside [0, 1]")

    @property
    def effect_size(self) -> float:
        return self.p_b - self.p_a


@dataclass(frozen=True)
class OutcomeDist:
    """Bernoulli(theta) or Beta(alpha, beta), rescaled to a bounded support.

    A Bernoulli outcome puts mass on the support endpoints; a Beta outcome is
    the standard Beta stretched onto [y0, y1].
    """

    family: str  # "bernoulli" | "beta"
    theta: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.family == "bernoulli":
            if self.theta is None or not 0.0 <= self.theta <= 1.0:
                raise PreconditionError(f"bernoulli theta={self.theta} outside [0, 1]")
        elif self.family == "beta":
            if self.alpha is None or self.beta is None or self.alpha <= 0 or self.beta <= 0:
                raise PreconditionError(
                    f"beta shapes ({self.alpha}, {self.beta}) must be positive")
        else:
            raise PreconditionError(f"unknown outcome family {self.family!r}")


@dataclass(frozen=True)
class PredictionState:
    """Outcome-given-observed, outcome-given-missing, and a miss rate."""

    dist_observed: OutcomeDist
    dist_missing: OutcomeDist
    miss_rate: float
    support: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not 0.0 <= self.miss_rate <= 1.0:
            raise PreconditionError(f"miss_rate={self.miss_rate} outside [0, 1]")
        y0, y1 = self.support
        if not y0 < y1:
            raise PreconditionError(f"support [{y0}, {y1}] is degenerate")
        if not (math.isfinite(y0) and math.isfinite(y1)):
            raise PreconditionError(f"support [{y0}, {y1}] is not finite")
        if self.dist_observed.family != self.dist_missing.family:
            raise PreconditionError("observed and missing outcome families must match")


class StateGrid:
    """A finite, ordered discretization of one state-space family.

    A grid is columnar: it holds the distinct values of each state coordinate
    and one index column per coordinate, giving each state's position among
    those values. Its ``states`` tuple is built on first access and cached;
    until then ``state(k)`` builds an equal state k alone.

    * binary_trial -- ``points``, the distinct success probabilities in
      increasing order, indexed by ``index_a`` and ``index_b``.
    * prediction -- one outcome family (``outcome``) and one ``support``;
      ``obs_params`` and ``miss_params`` hold the distinct parameters of the
      outcome given observed and given missing (thetas, or rows of Beta
      shapes), ``miss_rates`` the distinct miss rates, indexed by
      ``index_obs``, ``index_miss`` and ``index_rate``.
    """

    def __init__(self, family: str, states: Sequence):
        if family not in ("binary_trial", "prediction"):
            raise PreconditionError(f"unknown grid family {family!r}")
        if len(states) == 0:
            raise PreconditionError("empty state grid")
        self.family = family
        self._states = tuple(states)
        if family == "binary_trial":
            points, index = _distinct([s.p_a for s in self._states]
                                      + [s.p_b for s in self._states])
            n = len(self._states)
            self._set_columns(points=points, index_a=index[:n], index_b=index[n:])
        else:
            self._set_columns(**_prediction_columns(self._states))

    @classmethod
    def _from_columns(cls, family: str, **columns) -> StateGrid:
        """A grid whose states are built only when asked for."""
        grid = cls.__new__(cls)
        grid.family, grid._states = family, None
        grid._set_columns(**columns)
        return grid

    def _set_columns(self, **columns) -> None:
        for name, col in columns.items():
            if isinstance(col, np.ndarray):
                col.flags.writeable = False
            setattr(self, name, col)

    @property
    def p_a(self) -> np.ndarray:
        """Arm-a success probability of every state (binary-trial grids)."""
        return self.points[self.index_a]

    @property
    def p_b(self) -> np.ndarray:
        """Arm-b success probability of every state (binary-trial grids)."""
        return self.points[self.index_b]

    @property
    def population_mean(self) -> np.ndarray:
        """Mean of the full outcome distribution, observed and missing mixed, of
        every state (prediction grids)."""
        rate = self.miss_rates[self.index_rate]
        observed = _outcome_mean(self.outcome, self.obs_params, self.support)[self.index_obs]
        missing = _outcome_mean(self.outcome, self.miss_params, self.support)[self.index_miss]
        return (1.0 - rate) * observed + rate * missing

    def _build(self, rows) -> list:
        """The states at the given rows, built from the columns."""
        if self.family == "binary_trial":
            pts = self.points.tolist()
            return [BinaryTrialState(pts[i], pts[j])
                    for i, j in zip(self.index_a[rows].tolist(), self.index_b[rows].tolist())]
        return [PredictionState(_outcome(self.outcome, obs), _outcome(self.outcome, miss), rate,
                                self.support)
                for obs, miss, rate in zip(self.obs_params[self.index_obs[rows]].tolist(),
                                           self.miss_params[self.index_miss[rows]].tolist(),
                                           self.miss_rates[self.index_rate[rows]].tolist())]

    @property
    def states(self) -> tuple:
        if self._states is None:
            self._states = tuple(self._build(slice(None)))
        return self._states

    def state(self, k: int):
        """State k: ``states[k]`` once ``states`` is built; before, an equal state
        built from the columns, without building the others."""
        k = range(len(self))[k]
        if self._states is not None:
            return self._states[k]
        return self._build(slice(k, k + 1))[0]

    def __len__(self) -> int:
        return len(self.index_a if self.family == "binary_trial" else self.index_obs)


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values (rows, for pairs) and each value's position among them.

    Values are told apart by their bits, so 0.0 and -0.0 stay apart and every
    state keeps the exact coordinates it was given.
    """
    values = np.asarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64), axis=0, return_inverse=True)
    return np.ascontiguousarray(bits).view(float), inverse.reshape(-1)


def _outcome(family: str, param) -> OutcomeDist:
    """The outcome distribution of a theta (Bernoulli) or an (alpha, beta) pair (Beta)."""
    if family == "bernoulli":
        return OutcomeDist("bernoulli", theta=float(param))
    if family == "beta":
        a, b = param
        return OutcomeDist("beta", alpha=float(a), beta=float(b))
    raise PreconditionError(f"unknown family {family!r}")


def _params(dist: OutcomeDist):
    return dist.theta if dist.family == "bernoulli" else (dist.alpha, dist.beta)


def _outcome_mean(family: str, params: np.ndarray, support) -> np.ndarray:
    """The mean, on the support, of the outcome of each parameter: a theta
    (Bernoulli) or a row of shapes (Beta)."""
    y0, y1 = support
    frac = params if family == "bernoulli" else params[:, 0] / (params[:, 0] + params[:, 1])
    return y0 + frac * (y1 - y0)


def _prediction_columns(states: Sequence[PredictionState]) -> dict:
    """The columns of a prediction grid holding the given states, in their order."""
    outcome, support = states[0].dist_observed.family, states[0].support
    if any(s.dist_observed.family != outcome or s.support != support for s in states):
        raise PreconditionError("a prediction grid needs one outcome family and one support")
    obs, index_obs = _distinct([_params(s.dist_observed) for s in states])
    miss, index_miss = _distinct([_params(s.dist_missing) for s in states])
    rates, index_rate = _distinct([s.miss_rate for s in states])
    return dict(outcome=outcome, support=support, obs_params=obs, miss_params=miss,
                miss_rates=rates, index_obs=index_obs, index_miss=index_miss,
                index_rate=index_rate)


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
    idx = np.arange(len(pts))
    return StateGrid._from_columns("binary_trial", points=pts, index_a=np.repeat(idx, len(pts)),
                                   index_b=np.tile(idx, len(pts)))


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
    # one distribution per distinct parameter, and one state per distinct miss
    # rate, run the checks a state runs on its coordinates
    dists = [_outcome(family, p) for p in obs.tolist() + miss.tolist()]
    support = tuple(support)
    for rate in rates.tolist():
        PredictionState(dists[0], dists[-1], rate, support)

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
    return StateGrid._from_columns(
        "prediction", outcome=family, support=support, obs_params=obs, miss_params=miss,
        miss_rates=rates, index_obs=i_obs[o], index_miss=i_miss[m], index_rate=i_rate[r])
