"""Sampling designs and seeded random substreams.

Describes balanced two-arm binary trials and random-sample surveys with
missingness, and derives each random stream from (master seed, index, stream),
so Monte Carlo scans are reproducible independent of execution order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "TrialDesign",
    "SurveyDesign",
    "SeedSpec",
]


def _check_integer(n, what: str, least: int = 1, most: int | None = None) -> None:
    """Reject a value that is not an integer of at least ``least`` and, if
    ``most`` is given, at most ``most``."""
    try:
        value = operator.index(n)
    except TypeError:  # a float, even 2.0, is no integer here
        value = None
    ok = value is not None and least <= value and (most is None or value <= most)
    if not ok:
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise PreconditionError(f"{what} must be an integer {bound}, got {n!r}")


@dataclass(frozen=True)
class TrialDesign:
    """Balanced two-arm trial with binary outcomes, n subjects per arm. ``arms``
    names the arm count for callers that spell it out; it must be 2."""

    arms: int = 2
    per_arm_n: int = 1

    def __post_init__(self):
        if self.arms != 2:
            raise PreconditionError(f"a trial design has 2 arms, got {self.arms}")
        _check_integer(self.per_arm_n, "a trial's per-arm n")


@dataclass(frozen=True)
class SurveyDesign:
    """Random-sample survey design with one sample size n; the mode says what n counts.

    mode="fixed_n": exactly n outcomes are observed, and the observed fraction a
    predictor reads is 1 minus the state's miss rate. mode="random_miss": n
    records are drawn and each is independently missing with the state's miss
    rate.
    """

    mode: str  # "fixed_n" | "random_miss"
    n: int

    def __post_init__(self):
        if self.mode not in ("fixed_n", "random_miss"):
            raise PreconditionError(f"unknown survey mode {self.mode!r}")
        _check_integer(self.n, "a survey's n")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the substream derivation contract.

    Substreams are keyed on (master_seed, state_index, stream), so identical keys
    yield identical draws in any order. A Beta survey scan keys on (observed shape
    index, observed count).
    """

    master_seed: int = 0

    def __post_init__(self):
        _check_integer(self.master_seed, "a seed", 0)

    def rng(self, state_index: int = 0, stream: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(state_index, stream))
        return np.random.Generator(np.random.Philox(ss))
