"""Sampling processes: balanced trials and random-sample surveys with missingness.

Supports exact outcome enumeration for two-arm binary trials and seeded
simulation for everything else. Random streams are derived per
(master seed, state index, replication block), so grid scans are
reproducible independent of execution order and worker count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import PreconditionError
from .mathutil import binom_pmf_vector
from .states import BinaryTrialState, PredictionState

__all__ = [
    "TrialDesign",
    "TrialOutcome",
    "SurveyDesign",
    "SurveyDraw",
    "SeedSpec",
    "enumerate_trial",
    "draw_trial",
    "draw_survey",
    "survey_draw_to_csv",
]

_MAX_ENUM_N = 10000


@dataclass(frozen=True)
class TrialDesign:
    """Balanced K-arm trial, n subjects per arm, outcomes supported on [0, M]."""

    arms: int = 2
    per_arm_n: int = 1
    outcome_range: float = 1.0

    def __post_init__(self):
        if self.arms < 2:
            raise PreconditionError(f"need at least 2 arms, got {self.arms}")
        if self.per_arm_n < 1:
            raise PreconditionError(f"need at least 1 subject per arm, got {self.per_arm_n}")
        if self.outcome_range <= 0:
            raise PreconditionError("outcome range must be positive")


@dataclass(frozen=True)
class TrialOutcome:
    """Per-arm success counts from one trial realization."""

    successes: tuple[int, ...]


@dataclass(frozen=True)
class SurveyDesign:
    """Random-sample survey design.

    mode="fixed_n": exactly n_observed outcomes are observed (the number of
    observed outcomes is fixed by design and the miss rate enters only through
    estimation inputs). mode="random_miss": total_n records are drawn and each
    is independently missing with the state's miss rate.
    """

    mode: str = "fixed_n"  # "fixed_n" | "random_miss"
    n_observed: int | None = None
    total_n: int | None = None
    known_miss_rate: float | None = None

    def __post_init__(self):
        if self.mode == "fixed_n":
            if self.n_observed is None or self.n_observed < 1:
                raise PreconditionError("fixed_n mode needs n_observed >= 1")
        elif self.mode == "random_miss":
            if self.total_n is None or self.total_n < 1:
                raise PreconditionError("random_miss mode needs total_n >= 1")
        else:
            raise PreconditionError(f"unknown survey mode {self.mode!r}")
        if self.known_miss_rate is not None and not 0.0 <= self.known_miss_rate <= 1.0:
            raise PreconditionError("known miss rate outside [0, 1]")


@dataclass(frozen=True)
class SurveyDraw:
    """Realized survey records (y, delta); y is None exactly when delta = 0."""

    records: tuple[tuple[float | None, int], ...]

    def __post_init__(self):
        for y, d in self.records:
            if d not in (0, 1):
                raise PreconditionError("delta must be 0 or 1")
            if (y is None) != (d == 0):
                raise PreconditionError("y must be present iff delta = 1")

    @property
    def observed(self) -> tuple[float, ...]:
        return tuple(y for y, d in self.records if d == 1)

    @property
    def n_observed(self) -> int:
        return sum(d for _, d in self.records)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the substream derivation contract.

    Substreams are keyed on (master_seed, state_index, stream), so identical
    keys yield identical draws regardless of execution order or parallelism.
    """

    master_seed: int = 0

    def rng(self, state_index: int = 0, stream: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(state_index, stream))
        return np.random.Generator(np.random.Philox(ss))


def enumerate_trial(
    state: BinaryTrialState, design: TrialDesign
) -> Iterator[tuple[TrialOutcome, float]]:
    """All (n+1)^2 outcomes of a two-arm binary trial with their probabilities."""
    if design.arms != 2 or design.outcome_range != 1.0:
        raise PreconditionError("enumeration requires a two-arm binary design")
    n = design.per_arm_n
    if n > _MAX_ENUM_N:
        raise PreconditionError(f"per-arm n={n} too large to enumerate (max {_MAX_ENUM_N})")
    pmf_a = binom_pmf_vector(n, state.p_a)
    pmf_b = binom_pmf_vector(n, state.p_b)
    for i in range(n + 1):
        for j in range(n + 1):
            yield TrialOutcome((i, j)), float(pmf_a[i] * pmf_b[j])


def draw_trial(
    state: BinaryTrialState,
    design: TrialDesign,
    seed: SeedSpec,
    state_index: int = 0,
    stream: int = 0,
) -> TrialOutcome:
    """One simulated trial outcome: independent per-arm binomial counts."""
    rng = seed.rng(state_index, stream)
    n = design.per_arm_n
    return TrialOutcome((int(rng.binomial(n, state.p_a)), int(rng.binomial(n, state.p_b))))


def _draw_outcome(rng: np.random.Generator, dist, support) -> float:
    y0, y1 = support
    if dist.family == "bernoulli":
        return y1 if rng.random() < dist.theta else y0
    return y0 + (y1 - y0) * float(rng.beta(dist.alpha, dist.beta))


def draw_survey(
    state: PredictionState,
    design: SurveyDesign,
    seed: SeedSpec,
    state_index: int = 0,
    stream: int = 0,
) -> SurveyDraw:
    """One simulated survey draw under the design's missingness mode."""
    rng = seed.rng(state_index, stream)
    records = []
    if design.mode == "fixed_n":
        for _ in range(design.n_observed):
            y = _draw_outcome(rng, state.dist_observed, state.support)
            records.append((y, 1))
    else:
        for _ in range(design.total_n):
            if rng.random() < state.miss_rate:
                records.append((None, 0))
            else:
                y = _draw_outcome(rng, state.dist_observed, state.support)
                records.append((y, 1))
    return SurveyDraw(tuple(records))


def survey_draw_to_csv(draw: SurveyDraw, path) -> None:
    """Debug dump of a survey draw, columns (y, delta)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["y", "delta"])
        for y, d in draw.records:
            wr.writerow(["" if y is None else repr(y), d])
