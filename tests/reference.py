"""Independent references for the scans, the binomial PMFs and the report CSV.

The choice functions decide or weigh one outcome at a time, written without
the tables, so tests can check ``rule.table(n)`` and the exact scans against
them. The PMF runs its recurrence for one probability at a time. The CSV
writer formats one cell at a time with ``format``.
"""

from typing import Iterator

import numpy as np

from mmregret import Action, BinaryTrialState, TrialDesign, TrialOutcome
from mmregret.mathutil import one_sided_critical_value


def binom_pmf_recurrence(n: int, p: float) -> np.ndarray:
    """The Binomial(n, p) PMF of one p, by the recurrence that
    ``binom_pmf_matrix`` runs over all its rows at once.

    pmf[k+1] = pmf[k] * (n-k)/(k+1) * p/(1-p), run from whichever end keeps the
    odds ratio below 1, then normalized. Where pmf[0] would underflow, the
    recurrence is summed in logs and scaled by its maximum before exponentiating.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    out = np.zeros(n + 1)
    if p == 0.0:
        out[0] = 1.0
        return out
    if p == 1.0:
        out[n] = 1.0
        return out
    if p > 0.5:
        return binom_pmf_recurrence(n, 1.0 - p)[::-1].copy()
    ratio = p / (1.0 - p)
    log0 = n * np.log1p(-p)
    k = np.arange(n)
    factors = (n - k) / (k + 1.0) * ratio
    if log0 > -700.0:
        out[0] = 1.0
        out[1:] = np.cumprod(factors)
        out *= np.exp(log0)
    else:
        out[1:] = np.cumsum(np.log(factors))
        out = np.exp(out - out.max())
    s = out.sum()
    if s > 0:
        out /= s
    return out


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
    pmf_a = binom_pmf_recurrence(n, state.p_a)
    pmf_b = binom_pmf_recurrence(n, state.p_b)
    for i in range(n + 1):
        for j in range(n + 1):
            yield TrialOutcome((i, j)), float(pmf_a[i] * pmf_b[j])


def _per_cell_report_to_csv(report, path):
    """Reference writer: every cell through format(v, ".17g"), one column at a
    time, with NaN left empty in the optional columns."""
    grid = report.grid
    if grid.family == "binary_trial":
        names = ["p_a", "p_b"]
        coords = [grid.points[grid.index_a], grid.points[grid.index_b]]
    elif grid.outcome == "bernoulli":
        names = ["theta_obs", "theta_miss", "miss_rate"]
        coords = [grid.obs_params[grid.index_obs], grid.miss_params[grid.index_miss],
                  grid.miss_rates[grid.index_rate]]
    else:
        names = ["alpha_obs", "beta_obs", "alpha_miss", "beta_miss", "miss_rate"]
        obs, miss = grid.obs_params[grid.index_obs], grid.miss_params[grid.index_miss]
        coords = [obs[:, 0], obs[:, 1], miss[:, 0], miss[:, 1], grid.miss_rates[grid.index_rate]]

    def cells(values, optional=False):
        return ["" if optional and v != v else format(v, ".17g") for v in values.tolist()]

    coords = [cells(c) for c in coords]
    results = [cells(report.error_prob, True), cells(report.expected_welfare, True),
               cells(report.regret), cells(report.mc_stderr)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names + ["error_prob", "expected_welfare", "regret",
                                   "mc_stderr"]) + "\r\n")
        for row in zip(*coords, *results):
            fh.write(",".join(row) + "\r\n")
        fh.write(",".join([
            "#summary", f"max_regret={format(report.max_regret, '.17g')}",
            "argmax=" + "|".join(c[report.argmax] for c in coords),
            f"method={report.method.mode}",
            f"reps={report.method.reps if report.method.mode == 'monte_carlo' else 0}",
            f"seed={report.seed.master_seed if report.seed else ''}"]) + "\r\n")
