"""Independent scalar references for the choice tables the scans use.

Each function decides or weighs one outcome at a time, written without the
tables, so tests can check ``rule.table(n)`` and the exact scans against them.
"""

from typing import Iterator

import numpy as np

from mmregret import Action, BinaryTrialState, TrialDesign, TrialOutcome
from mmregret.mathutil import binom_pmf_vector, one_sided_critical_value


def es_choose(outcome: TrialOutcome) -> Action:
    """Empirical success: pick the arm with the highest count, splitting ties equally."""
    counts = outcome.successes
    top = max(counts)
    winners = [t for t, c in enumerate(counts) if c == top]
    if len(winners) == 1:
        return Action(arm=winners[0])
    share = 1.0 / len(winners)
    return Action(allocation=tuple(share if t in winners else 0.0 for t in range(len(counts))))


def ztest_choose(outcome: TrialOutcome, n: int, alpha: float = 0.05,
                 status_quo: int = 0) -> Action:
    """One-sided two-sample z-test with pooled variance.

    Picks the innovation arm iff z exceeds the upper critical value. A zero
    pooled standard error (pooled rate 0 or 1) keeps the status quo.
    """
    innovation = 1 - status_quo
    p_hat = [c / n for c in outcome.successes]
    pooled = (outcome.successes[0] + outcome.successes[1]) / (2.0 * n)
    if pooled <= 0.0 or pooled >= 1.0:
        return Action(arm=status_quo)
    z = (p_hat[innovation] - p_hat[status_quo]) / np.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
    return Action(arm=innovation if z > one_sided_critical_value(alpha) else status_quo)


def enumerate_trial(state: BinaryTrialState,
                    design: TrialDesign) -> Iterator[tuple[TrialOutcome, float]]:
    """All (n+1)^2 outcomes of a two-arm binary trial with their probabilities."""
    n = design.per_arm_n
    pmf_a = binom_pmf_vector(n, state.p_a)
    pmf_b = binom_pmf_vector(n, state.p_b)
    for i in range(n + 1):
        for j in range(n + 1):
            yield TrialOutcome((i, j)), float(pmf_a[i] * pmf_b[j])
