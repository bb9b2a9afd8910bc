"""Independent references for the scans, the binomial PMFs, the state means and the
report CSV.

The choice functions give the mass a rule puts on each arm for one outcome,
its per-arm success counts. They are written without the tables, so tests can
check ``rule.table(n)`` and the exact scans against them. The PMF runs its
recurrence for one probability at a time. The trial MC draws both arms iid.
The CSV writer formats one cell at a time with ``format``.
"""

from typing import Iterator

import numpy as np

from mmregret import TrialDesign
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


def es_choose(successes: tuple[int, ...]) -> tuple[float, ...]:
    """Empirical success: the mass on each arm, all of it on the arm with the most
    successes, split equally among tied arms."""
    top = max(successes)
    winners = [t for t, c in enumerate(successes) if c == top]
    return tuple(1.0 / len(winners) if t in winners else 0.0 for t in range(len(successes)))


def ztest_choose(successes: tuple[int, int], n: int, alpha: float = 0.05,
                 status_quo: int = 0) -> tuple[float, float]:
    """One-sided two-sample z-test with pooled variance: the mass on each arm.

    Picks the innovation arm iff z exceeds the upper critical value. A zero
    pooled standard error (pooled rate 0 or 1) keeps the status quo.
    """
    innovation = 1 - status_quo
    p_hat = [c / n for c in successes]
    pooled = (successes[0] + successes[1]) / (2.0 * n)
    if pooled <= 0.0 or pooled >= 1.0:
        chosen = status_quo
    else:
        z = (p_hat[innovation] - p_hat[status_quo]) / np.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
        chosen = innovation if z > one_sided_critical_value(alpha) else status_quo
    return (1.0 - chosen, float(chosen))


def enumerate_trial(p_a: float, p_b: float,
                    design: TrialDesign) -> Iterator[tuple[tuple[int, int], float]]:
    """All (n+1)^2 outcomes (successes of arm a, of arm b) of a two-arm binary
    trial in state (p_a, p_b) with their probabilities."""
    n = design.per_arm_n
    pmf_a = binom_pmf_recurrence(n, p_a)
    pmf_b = binom_pmf_recurrence(n, p_b)
    for i in range(n + 1):
        for j in range(n + 1):
            yield (i, j), float(pmf_a[i] * pmf_b[j])


def iid_trial_mc(table: np.ndarray, n: int, p_a: float, p_b: float, reps: int,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Plain MC of the mass a trial rule puts on arm b in state (p_a, p_b), and its
    standard error (ddof=1): reps iid draws of both arms' success counts, each
    scored by the rule's table at n."""
    values = table[rng.binomial(n, p_a, size=reps), rng.binomial(n, p_b, size=reps)]
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(reps))


def state_means(family: str, obs, miss, miss_rate: float,
                support=(0.0, 1.0)) -> tuple[float, float, float]:
    """The observed, missing and population means of one prediction state, its
    outcome parameters a theta (Bernoulli) or an (alpha, beta) pair (Beta), each
    from its own scalars, in the arithmetic the grid's ``population_mean`` runs."""
    y0, y1 = support

    def mean(param):
        frac = param if family == "bernoulli" else param[0] / (param[0] + param[1])
        return y0 + frac * (y1 - y0)

    observed, missing = mean(obs), mean(miss)
    return observed, missing, (1.0 - miss_rate) * observed + miss_rate * missing


def _per_cell_report_to_csv(report, path):
    """Reference writer: every cell through format(v, ".17g"), one column at a
    time, with NaN left empty in the optional columns."""
    grid = report.grid
    if grid.family == "binary_trial":
        names = ["p_a", "p_b"]  # the product of the axes, row-major
        coords = [np.repeat(grid.points_a, len(grid.points_b)),
                  np.tile(grid.points_b, len(grid.points_a))]
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
