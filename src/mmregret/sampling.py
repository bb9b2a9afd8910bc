"""Sampling designs and seeded random substreams.

Describes balanced two-arm binary trials and random-sample surveys with
missingness, and derives each random stream from (master seed, state index,
stream), so Monte Carlo scans are reproducible independent of execution order
and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "TrialDesign",
    "TrialOutcome",
    "SurveyDesign",
    "SeedSpec",
]


@dataclass(frozen=True)
class TrialDesign:
    """Balanced two-arm trial with binary outcomes, n subjects per arm. ``arms``
    names the arm count for callers that spell it out; it must be 2."""

    arms: int = 2
    per_arm_n: int = 1

    def __post_init__(self):
        if self.arms != 2:
            raise PreconditionError(f"a trial design has 2 arms, got {self.arms}")
        if self.per_arm_n < 1:
            raise PreconditionError(f"need at least 1 subject per arm, got {self.per_arm_n}")


@dataclass(frozen=True)
class TrialOutcome:
    """Per-arm success counts from one trial realization."""

    successes: tuple[int, ...]


@dataclass(frozen=True)
class SurveyDesign:
    """Random-sample survey design.

    mode="fixed_n": exactly n_observed outcomes are observed (the number of
    observed outcomes is fixed by design and the miss rate enters only through
    estimation inputs, known_miss_rate if given). mode="random_miss": total_n
    records are drawn and each is independently missing with the state's miss
    rate. A field the mode does not read must be left as None.
    """

    mode: str = "fixed_n"  # "fixed_n" | "random_miss"
    n_observed: int | None = None
    total_n: int | None = None
    known_miss_rate: float | None = None

    def __post_init__(self):
        if self.mode == "fixed_n":
            if self.n_observed is None or self.n_observed < 1:
                raise PreconditionError("fixed_n mode needs n_observed >= 1")
            unread = {"total_n": self.total_n}
        elif self.mode == "random_miss":
            if self.total_n is None or self.total_n < 1:
                raise PreconditionError("random_miss mode needs total_n >= 1")
            unread = {"n_observed": self.n_observed, "known_miss_rate": self.known_miss_rate}
        else:
            raise PreconditionError(f"unknown survey mode {self.mode!r}")
        for name, value in unread.items():
            if value is not None:
                raise PreconditionError(f"{self.mode} mode does not read {name}")
        if self.known_miss_rate is not None and not 0.0 <= self.known_miss_rate <= 1.0:
            raise PreconditionError("known miss rate outside [0, 1]")


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
