"""Closed-form minimax-regret treatment allocation with missing outcome data.

Implements the population allocation rule over all feasible missing-outcome
distributions, its specialization when the observability score is known, the
plug-in sample analogs of both, fractional-allocation welfare accounting, and
the asymptotic regret interval for the empirical success rule when random
treatment selection is only a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError
from .states import MissingDataState

__all__ = [
    "AllocationResult",
    "mmr_alloc_population",
    "mmr_alloc_known_p",
    "mmr_alloc_sample",
    "mmr_alloc_sample_known_p",
    "allocation_welfare",
    "allocation_regret",
    "es_asymptotic_interval",
]

_EQ_TOL = 1e-12


@dataclass(frozen=True)
class AllocationResult:
    """Fraction assigned to arm b, which branch produced it, and, when the sample
    formula had to be clamped into [0, 1], its value before clamping."""

    z_b: float
    regime: str  # "dominant_b" | "dominant_a" | "interior"
    z_raw: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.z_b <= 1.0:
            raise PreconditionError(f"allocation {self.z_b} outside [0, 1]")
        if self.regime not in ("dominant_b", "dominant_a", "interior"):
            raise PreconditionError(f"unknown regime {self.regime!r}")

    @property
    def clamped(self) -> bool:
        return self.z_raw is not None


def _alloc_general(e_a, e_b, p_a, p_b, bounds_a, bounds_b) -> AllocationResult:
    y0a, y1a = bounds_a
    y0b, y1b = bounds_b
    if y0a == y1a and y0b == y1b:
        raise PreconditionError("both outcome supports are degenerate")
    b_dominates = (e_a - y1a) * p_a + (y0b - e_b) * p_b + (y1a - y0b)
    a_dominates = (e_b - y1b) * p_b + (y0a - e_a) * p_a + (y1b - y0a)
    if b_dominates < 0:
        return AllocationResult(1.0, "dominant_b")
    if a_dominates < 0:
        return AllocationResult(0.0, "dominant_a")
    num = (e_b - y1b) * p_b + (y0a - e_a) * p_a + (y1b - y0a)
    den = (y0b - y1b) * p_b + (y0a - y1a) * p_a + (y1b - y0b) + (y1a - y0a)
    if den == 0.0:
        # knife edge: no dominance and no interior trade-off left
        raise PreconditionError("allocation denominator vanishes (degenerate state)")
    return AllocationResult(num / den, "interior")


def mmr_alloc_population(state: MissingDataState) -> AllocationResult:
    """Minimax-regret allocation over all feasible missing-outcome distributions.

    Assigns everyone to an arm exactly when it dominates under every feasible
    missing-data distribution; otherwise returns the interior fractional
    allocation.
    """
    return _alloc_general(state.e_a, state.e_b, state.p_a, state.p_b,
                          state.bounds_a, state.bounds_b)


def _known_score_ratio(state: MissingDataState, p: float) -> float:
    """The known-score allocation before any clamping, for an observability score
    p: it needs common, non-degenerate outcome bounds and p at most 1."""
    if state.bounds_a != state.bounds_b:
        raise PreconditionError("known-score form needs common outcome bounds")
    y0, y1 = state.bounds_a
    if y0 == y1:
        raise PreconditionError("degenerate outcome support")
    if p > 1.0 + _EQ_TOL:
        raise PreconditionError(f"observability score {p} exceeds 1")
    return (state.e_b * state.p_b + y1 * (1.0 - state.p_b)
            - state.e_a * state.p_a - y0 * (1.0 - state.p_a)) / ((y1 - y0) * (2.0 - p))


def mmr_alloc_known_p(state: MissingDataState) -> AllocationResult:
    """Specialized allocation when both arms share bounds and the observability
    score p = p_a + p_b is at most 1 (neither arm can dominate then)."""
    z = _known_score_ratio(state, state.p_a + state.p_b)
    # no-dominance guarantee keeps z in [0, 1]; absorb float round-off only
    return AllocationResult(min(1.0, max(0.0, float(z))), "interior")


def mmr_alloc_sample(
    e_na: float | None,
    e_nb: float | None,
    p_na: float,
    p_nb: float,
    bounds_a: tuple[float, float] = (0.0, 1.0),
    bounds_b: tuple[float, float] = (0.0, 1.0),
) -> AllocationResult:
    """The as-if allocation: the population rule at the sample analogs of
    (e_a, e_b, p_a, p_b), taken as if they were the population values.

    A conditional-mean estimate may be passed as None only when its arm had no
    observed outcomes; that case is rejected rather than imputed.
    """
    for arm, e in (("a", e_na), ("b", e_nb)):
        if e is None:
            raise PreconditionError(
                f"arm {arm} has no observed outcomes; its conditional mean is undefined")
    return mmr_alloc_population(MissingDataState(e_na, e_nb, p_na, p_nb, bounds_a, bounds_b))


def mmr_alloc_sample_known_p(
    e_na: float,
    e_nb: float,
    p_na: float,
    p_nb: float,
    known_p: float,
    bounds: tuple[float, float] = (0.0, 1.0),
) -> AllocationResult:
    """Sample-analog allocation with a known observability score.

    Sample noise can push the plug-in ratio outside [0, 1]; the value is then
    clamped to the boundary and flagged.
    """
    if not 0.0 < known_p <= 1.0 + _EQ_TOL:
        raise PreconditionError(f"known observability score {known_p} outside (0, 1]")
    raw = _known_score_ratio(MissingDataState(e_na, e_nb, p_na, p_nb, bounds, bounds),
                             known_p)
    if raw < 0.0:
        return AllocationResult(0.0, "interior", z_raw=float(raw))
    if raw > 1.0:
        return AllocationResult(1.0, "interior", z_raw=float(raw))
    return AllocationResult(float(raw), "interior")


def allocation_welfare(z_b: float, state: MissingDataState) -> float:
    """Welfare of the fractional allocation: (1 - z_b) E[y(a)] + z_b E[y(b)]."""
    if state.full_means is None:
        raise PreconditionError("welfare accounting needs full means")
    if not 0.0 <= z_b <= 1.0:
        raise PreconditionError(f"allocation {z_b} outside [0, 1]")
    mu_a, mu_b = state.full_means
    return (1.0 - z_b) * mu_a + z_b * mu_b


def allocation_regret(z_b: float, state: MissingDataState) -> float:
    """Best-arm welfare minus allocation welfare."""
    welfare = allocation_welfare(z_b, state)  # checks full_means first
    return max(state.full_means) - welfare


def es_asymptotic_interval(
    states: Sequence[MissingDataState],
) -> tuple[float, float]:
    """Asymptotic maximum-regret interval for the empirical success rule.

    States where the full means differ are classified by their conditional
    means: REVERSED when the conditional means are strictly ordered opposite
    to the full means (error probability converges to one there), EQUAL when
    the conditional means coincide (error probability need not converge).
    The lower bound is the largest full-mean gap over REVERSED states, the
    upper bound over REVERSED and EQUAL together; both are 0 when the
    respective sets are empty.
    """
    lower = 0.0
    upper = 0.0
    for s in states:
        if s.full_means is None:
            raise PreconditionError("classification needs full means for every state")
        mu_a, mu_b = s.full_means
        if mu_a == mu_b:
            continue
        gap = abs(mu_b - mu_a)
        if abs(s.e_a - s.e_b) <= _EQ_TOL:
            upper = max(upper, gap)
        elif (s.e_a - s.e_b) * (mu_a - mu_b) < 0:
            lower = max(lower, gap)
            upper = max(upper, gap)
    return lower, upper
