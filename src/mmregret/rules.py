"""Decision rules: mappings from sample data to actions.

Covers treatment-choice rules for two-arm trials (empirical success, one-sided
z-test), point predictors for a bounded mean (Hodges-Lehmann shrinkage,
midpoint of the sample-analog identification interval, plain sample analogs),
and the generic criteria that decide as if a finite set estimate contained the
true state. Scans evaluate rules as values: a trial rule (``EmpiricalSuccess``,
``ZTest``, ``TableRule``, ``OutcomeRule``) through its choice table
``rule.table(n)``, and a ``Predictor`` through the sample statistic it reads
and its function of that statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .mathutil import one_sided_critical_value
from .sampling import TrialOutcome
from .states import FiniteDecisionProblem

__all__ = [
    "Action",
    "TrialRule",
    "EmpiricalSuccess",
    "ZTest",
    "TableRule",
    "OutcomeRule",
    "Predictor",
    "HODGES_LEHMANN",
    "MIDPOINT",
    "ANALOG_MEAN",
    "ANALOG_MEDIAN",
    "mean_table_predictor",
    "mean_function_predictor",
    "DecisionRule",
    "AsIfDecision",
    "asif_decide",
    "asif_optimize",
]


@dataclass(frozen=True)
class Action:
    """A chosen arm or a fractional allocation over arms."""

    arm: int | None = None
    allocation: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.arm is None) == (self.allocation is None):
            raise PreconditionError("exactly one of arm/allocation must be set")
        if self.allocation is not None:
            if any(not 0.0 <= z <= 1.0 for z in self.allocation):
                raise PreconditionError("allocation weights must lie in [0, 1]")
            if abs(sum(self.allocation) - 1.0) > 1e-12:
                raise PreconditionError("allocation weights must sum to 1")

    def mass_on(self, arm: int) -> float:
        """Probability mass this action puts on the given arm."""
        if self.arm is not None:
            return 1.0 if self.arm == arm else 0.0
        return self.allocation[arm]


# ---------------------------------------------------------------------------
# rules as values, the forms every scan evaluates: a trial rule is its choice
# table at each n, a predictor the sample statistic it reads and a function of it

class TrialRule:
    """A two-arm treatment-choice rule. ``table(n)`` is the probability mass it puts
    on arm b per outcome, shape (n+1, n+1) indexed by (successes_a, successes_b)."""


@dataclass(frozen=True)
class EmpiricalSuccess(TrialRule):
    """Choose the arm with more successes; a tie splits the mass equally."""

    def table(self, n: int) -> np.ndarray:
        i = np.arange(n + 1)[:, None]
        j = np.arange(n + 1)[None, :]
        return np.where(j > i, 1.0, np.where(j < i, 0.0, 0.5))


@dataclass(frozen=True)
class ZTest(TrialRule):
    """One-sided two-sample z-test with pooled variance: choose the innovation arm
    iff z exceeds the upper critical value. A zero pooled standard error (pooled
    rate 0 or 1) keeps the status quo."""

    alpha: float = 0.05
    status_quo: int = 0

    def __post_init__(self):
        try:
            one_sided_critical_value(self.alpha)
        except ValueError as exc:
            raise PreconditionError(f"ztest: {exc}") from None
        if self.status_quo not in (0, 1):
            raise PreconditionError("status_quo arm must be 0 or 1")

    def table(self, n: int) -> np.ndarray:
        i = np.arange(n + 1)[:, None]
        j = np.arange(n + 1)[None, :]
        pooled = (i + j) / (2.0 * n)
        se = np.sqrt(np.where((pooled > 0) & (pooled < 1),
                              pooled * (1.0 - pooled) * 2.0 / n, np.inf))
        crit = one_sided_critical_value(self.alpha)
        if self.status_quo == 0:
            z = (j - i) / n / se
            return np.where(z > crit, 1.0, 0.0)
        z = (i - j) / n / se
        return np.where(z > crit, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class TableRule(TrialRule):
    """A given table of the mass on arm b, for the one n its shape fits."""

    choices: np.ndarray

    def __post_init__(self):
        choices = np.array(self.choices, dtype=float)
        if not np.all((choices >= 0.0) & (choices <= 1.0)):
            raise PreconditionError("trial table entries must lie in [0, 1]")
        choices.flags.writeable = False
        object.__setattr__(self, "choices", choices)

    def table(self, n: int) -> np.ndarray:
        if self.choices.shape != (n + 1, n + 1):
            raise PreconditionError(f"trial table shape {self.choices.shape} != {(n + 1, n + 1)}")
        return self.choices


@dataclass(frozen=True)
class OutcomeRule(TrialRule):
    """A rule given as a function from a TrialOutcome to an Action."""

    apply: Callable[[TrialOutcome], Action]

    def __post_init__(self):
        if not callable(self.apply):
            raise PreconditionError("an outcome rule needs a callable")

    def table(self, n: int) -> np.ndarray:
        """The function evaluated on each of the (n+1)^2 outcomes."""
        out = np.empty((n + 1, n + 1))
        for a in range(n + 1):
            for b in range(n + 1):
                out[a, b] = self.apply(TrialOutcome((a, b))).mass_on(1)
        return out


@dataclass(frozen=True)
class Predictor:
    """A point predictor of the population mean: ``predict(statistic, n_obs, p1,
    support)`` of the sample ``statistic`` ("mean" or "median") of the observed
    outcomes, their count and fraction p1 (each may be an array). ``predict``
    may be any callable: a scan's worker processes are forked copies of the
    caller, so the predictor is never pickled."""

    statistic: str
    predict: Callable

    def __post_init__(self):
        if self.statistic not in ("mean", "median"):
            raise PreconditionError(f"unknown predictor statistic {self.statistic!r}")
        if not callable(self.predict):
            raise PreconditionError("a predictor needs a callable predict")


def _hodges_lehmann(m, n_obs, p1, support):
    """Shrinkage toward the support's midpoint, on the support rescaled to [0, 1]."""
    y0, y1 = support
    width = y1 - y0
    rn = np.sqrt(n_obs)
    return y0 + width * ((m - y0) / width * rn + 0.5) / (rn + 1.0)


def _midpoint(m, n_obs, p1, support):
    """Midpoint of the identification interval for the mean."""
    mid = 0.5 * (support[0] + support[1])
    return m * p1 + mid * (1.0 - p1)


def _sample_statistic(m, n_obs, p1, support):
    return m


def _interpolate(means, predictions, m, n_obs, p1, support):
    return np.interp(m, means, predictions)


def _of_mean_and_fraction(fn, m, n_obs, p1, support):
    return fn(m, p1)


HODGES_LEHMANN = Predictor("mean", _hodges_lehmann)
MIDPOINT = Predictor("mean", _midpoint)
ANALOG_MEAN = Predictor("mean", _sample_statistic)  # the sample analog under square loss
ANALOG_MEDIAN = Predictor("median", _sample_statistic)  # and under absolute loss


def mean_table_predictor(rows) -> Predictor:
    """Linear interpolation in (observed mean, prediction) rows given in any order,
    constant beyond the end rows."""
    try:
        points = np.array(sorted(tuple(map(float, row)) for row in rows))
    except (TypeError, ValueError):
        raise PreconditionError("mean table rows must be pairs of numbers") from None
    if points.ndim != 2 or points.shape[1] != 2 or not np.isfinite(points).all():
        raise PreconditionError("a mean table needs rows of two finite numbers")
    return Predictor("mean", partial(_interpolate, *points.T))


def mean_function_predictor(fn: Callable) -> Predictor:
    """The prediction fn(observed mean, observed fraction)."""
    if not callable(fn):
        raise PreconditionError("a mean predictor needs a callable")
    return Predictor("mean", partial(_of_mean_and_fraction, fn))


_CUSTOM = {"trial_table": TableRule, "apply_trial": OutcomeRule,
           "mean_table": mean_table_predictor, "predict_mean": mean_function_predictor}
_PARAMETERS = {"empirical_success": (), "ztest": ("alpha", "status_quo"), "hodges_lehmann": (),
               "midpoint": (), "analog_predictor": ("loss",), "custom": tuple(_CUSTOM)}


def DecisionRule(kind: str, params: dict | None = None) -> TrialRule | Predictor:
    """The rule a kind string and its parameters name (see ``_PARAMETERS``); the
    one map from kind strings to rules. Unknown kinds and parameter names raise
    PreconditionError."""
    if kind not in _PARAMETERS:
        raise PreconditionError(f"unknown rule kind {kind!r}")
    params = dict(params or {})
    unknown = sorted(set(params) - set(_PARAMETERS[kind]))
    if unknown:
        raise PreconditionError(f"rule kind {kind!r} has no parameter {unknown[0]!r}")
    if kind == "ztest":
        return ZTest(**params)
    if kind == "analog_predictor":
        loss = params.get("loss", "square")
        if loss not in ("square", "absolute"):
            raise PreconditionError("analog loss must be 'square' or 'absolute'")
        return ANALOG_MEAN if loss == "square" else ANALOG_MEDIAN
    if kind == "custom":
        if len(params) != 1:
            raise PreconditionError(f"a custom rule needs exactly one of {', '.join(_CUSTOM)}")
        (key, value), = params.items()
        return _CUSTOM[key](value)
    return {"empirical_success": EmpiricalSuccess(), "hodges_lehmann": HODGES_LEHMANN,
            "midpoint": MIDPOINT}[kind]


@dataclass(frozen=True)
class AsIfDecision:
    """Result of a criterion applied over a set estimate."""

    action: str
    index: int
    value: float
    tied: tuple[str, ...] = ()

    @property
    def is_tie(self) -> bool:
        return len(self.tied) > 1


def asif_decide(
    problem: FiniteDecisionProblem,
    set_estimate: Sequence[str],
    criterion: str,
) -> AsIfDecision:
    """Act as if the true state lies in the set estimate.

    bayes maximizes prior-weighted average welfare over the set, maximin the
    worst-case welfare, minimax_regret minimizes worst-case regret. Ties break
    to the lowest action index and are reported.
    """
    if len(set_estimate) == 0:
        raise PreconditionError("set estimate is empty")
    try:
        idx = [problem.states.index(s) for s in set_estimate]
    except ValueError as exc:
        raise PreconditionError(f"set estimate contains unknown state: {exc}") from exc
    w = problem.welfare[:, idx]

    if criterion == "bayes":
        if problem.prior is None:
            raise PreconditionError("bayes criterion needs prior weights")
        pr = problem.prior[idx]
        total = pr.sum()
        if total <= 0:
            raise PreconditionError("prior puts no mass on the set estimate")
        scores = w @ (pr / total)
        best = float(scores.max())
        tied = np.flatnonzero(np.isclose(scores, best, rtol=0, atol=1e-12))
    elif criterion == "maximin":
        scores = w.min(axis=1)
        best = float(scores.max())
        tied = np.flatnonzero(np.isclose(scores, best, rtol=0, atol=1e-12))
    elif criterion == "minimax_regret":
        regret = w.max(axis=0, keepdims=True) - w
        scores = regret.max(axis=1)
        best = float(scores.min())
        tied = np.flatnonzero(np.isclose(scores, best, rtol=0, atol=1e-12))
    else:
        raise PreconditionError(f"unknown criterion {criterion!r}")

    winner = int(tied[0])
    return AsIfDecision(
        action=problem.actions[winner],
        index=winner,
        value=best,
        tied=tuple(problem.actions[i] for i in tied),
    )


def asif_optimize(problem: FiniteDecisionProblem, point_estimate_state: str) -> AsIfDecision:
    """Optimize welfare as if the point estimate were the true state."""
    if point_estimate_state not in problem.states:
        raise PreconditionError(f"unknown state {point_estimate_state!r}")
    return asif_decide(problem, [point_estimate_state], "minimax_regret")
