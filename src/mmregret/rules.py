"""Decision rules: mappings from sample data to actions.

Covers treatment-choice rules for two-arm trials (empirical success, one-sided
z-test), point predictors for a bounded mean (Hodges-Lehmann shrinkage,
midpoint of the sample-analog identification interval, plain sample analogs).
Scans evaluate rules as values: a trial rule (``EmpiricalSuccess``, ``ZTest``,
``TableRule``) through its choice table ``rule.table(n)``, and a ``Predictor``
through the sample statistic it reads and its function of that statistic.
``DecisionRule`` looks a rule up by name in ``RULES``. The criteria that decide
as if a finite set estimate contained the true state are in ``asif``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .mathutil import one_sided_critical_value

__all__ = [
    "TrialRule",
    "EmpiricalSuccess",
    "ZTest",
    "TableRule",
    "Predictor",
    "HODGES_LEHMANN",
    "MIDPOINT",
    "ANALOG_MEAN",
    "ANALOG_MEDIAN",
    "mean_table_predictor",
    "mean_function_predictor",
    "RULES",
    "DecisionRule",
]


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
class Predictor:
    """A point predictor of the population mean: ``predict(statistic, n_obs, p1,
    support)`` of the sample ``statistic`` ("mean" or "median") of the observed
    outcomes, their count and fraction p1 (each may be an array). ``predict``
    may be any callable: a scan calls it in the calling process, so the
    predictor is never pickled."""

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
# the predictors affine in the observed mean at every count, fraction and support,
# whose survey MSE the engine takes in closed form
_AFFINE = (HODGES_LEHMANN, MIDPOINT, ANALOG_MEAN)


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


def _analog_predictor(loss: str = "square") -> Predictor:
    if loss not in ("square", "absolute"):
        raise PreconditionError("analog loss must be 'square' or 'absolute'")
    return ANALOG_MEAN if loss == "square" else ANALOG_MEDIAN


_CUSTOM = {"trial_table": TableRule, "mean_table": mean_table_predictor,
           "predict_mean": mean_function_predictor}


def _custom(**params) -> TrialRule | Predictor:
    if len(params) != 1:
        raise PreconditionError(f"a custom rule needs exactly one of {', '.join(_CUSTOM)}")
    (key, value), = params.items()
    return _CUSTOM[key](value)


# every rule name: (the factory of its rule, the names of the factory's parameters)
RULES = {
    "empirical_success": (EmpiricalSuccess, ()),
    "es": (EmpiricalSuccess, ()),
    "ztest": (ZTest, ("alpha", "status_quo")),
    "hodges_lehmann": (lambda: HODGES_LEHMANN, ()),
    "midpoint": (lambda: MIDPOINT, ()),
    "analog_mean": (lambda: ANALOG_MEAN, ()),
    "analog_median": (lambda: ANALOG_MEDIAN, ()),
    "analog_predictor": (_analog_predictor, ("loss",)),
    "custom": (_custom, tuple(_CUSTOM)),
}


def DecisionRule(kind: str, params: dict | None = None) -> TrialRule | Predictor:
    """The rule that ``RULES`` names ``kind``, built from its parameters. Unknown
    kinds and parameter names raise PreconditionError."""
    if kind not in RULES:
        raise PreconditionError(f"unknown rule kind {kind!r}")
    factory, names = RULES[kind]
    params = dict(params or {})
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise PreconditionError(f"rule kind {kind!r} has no parameter {unknown[0]!r}")
    return factory(**params)
