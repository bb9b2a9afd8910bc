"""As-if decisions over finite decision problems.

A ``FiniteDecisionProblem`` is finite actions by finite states with a welfare
matrix. The criteria here act as if the true state lay in a set estimate
(Bayes, maximin, minimax regret) or equalled a point estimate, and
``classify_dominance`` splits the actions into weakly dominated and
undominated ones. No scan reads this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError

__all__ = [
    "FiniteDecisionProblem",
    "classify_dominance",
    "AsIfDecision",
    "asif_decide",
    "asif_optimize",
]


@dataclass(frozen=True)
class FiniteDecisionProblem:
    """Finite actions x finite states with a welfare matrix w(action, state)."""

    actions: tuple[str, ...]
    states: tuple[str, ...]
    welfare: np.ndarray  # shape (|actions|, |states|)
    prior: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.welfare, dtype=float)
        object.__setattr__(self, "welfare", w)
        if w.shape != (len(self.actions), len(self.states)):
            raise PreconditionError(
                f"welfare shape {w.shape} != ({len(self.actions)}, {len(self.states)})")
        if self.prior is not None:
            pr = np.asarray(self.prior, dtype=float)
            object.__setattr__(self, "prior", pr)
            if pr.shape != (len(self.states),):
                raise PreconditionError("prior length must match number of states")
            if np.any(pr < 0):
                raise PreconditionError("prior weights must be nonnegative")
            if abs(pr.sum() - 1.0) > 1e-12:
                raise PreconditionError(f"prior sums to {pr.sum()}, not 1")


def classify_dominance(problem: FiniteDecisionProblem) -> dict[str, list[str]]:
    """Split actions into weakly dominated and undominated sets.

    Action c is weakly dominated iff some d is at least as good in every state
    and strictly better in at least one.
    """
    w = problem.welfare
    dominated = []
    for i in range(len(problem.actions)):
        for j in range(len(problem.actions)):
            if i == j:
                continue
            if np.all(w[j] >= w[i]) and np.any(w[j] > w[i]):
                dominated.append(problem.actions[i])
                break
    undominated = [a for a in problem.actions if a not in dominated]
    return {"dominated": dominated, "undominated": undominated}


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
    elif criterion == "maximin":
        scores = w.min(axis=1)
        best = float(scores.max())
    elif criterion == "minimax_regret":
        regret = w.max(axis=0, keepdims=True) - w
        scores = regret.max(axis=1)
        best = float(scores.min())
    else:
        raise PreconditionError(f"unknown criterion {criterion!r}")
    tied = np.flatnonzero(np.isclose(scores, best, rtol=0, atol=1e-12))
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
