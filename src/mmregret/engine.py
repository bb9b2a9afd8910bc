"""Evaluation engine: state-dependent error probability, regret, and MSE.

Evaluates a rule exactly where the sample space is enumerable (two-arm binary
trials and Bernoulli surveys, under either survey design) or a closed form
exists (surveys read through a predictor affine in the observed mean), and by
seeded Monte Carlo otherwise: a Beta survey read through a nonlinear predictor
draws only the moments of its prediction, which the one survey sum reads. Each
grid family has one scan; one state is evaluated as a scan of a grid that holds
only it. Also provides analytic maximum-regret bounds for the empirical success
rule and an exhaustive oracle over deterministic rules on tiny trial designs.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .mathutil import FMT17_WIDTH, _fmt17_cells, binom_pmf_matrix, fmt17
from .rules import _AFFINE, Predictor, TrialRule
from .sampling import SeedSpec, SurveyDesign, TrialDesign, _check_integer
from .states import _MAX_GRID_STATES, StateGrid, _outcome_mean

__all__ = [
    "RegretBounds",
    "RegretReport",
    "StateRecord",
    "max_regret_scan",
    "regret_bounds",
    "max_mse_scan",
    "midpoint_max_regret_formula",
    "exhaustive_mmr_oracle",
    "report_to_csv",
]

_MAX_TRIAL_N = 10000
_MIN_MC_REPS = 1000
_MAX_MC_REPS = (1 << 63) - 1  # numpy's samplers take a count as a signed 64-bit integer
_ORACLE_CHUNK_RULES = 4096  # deterministic rules scored per chunk by the oracle


def _check_reps(reps) -> None:
    """Reject a Monte Carlo replication count outside [_MIN_MC_REPS, _MAX_MC_REPS]."""
    _check_integer(reps, "MC replications", _MIN_MC_REPS, _MAX_MC_REPS)


@dataclass(frozen=True)
class StateRecord:
    error_prob: float | None
    expected_welfare: float | None
    regret: float
    mc_stderr: float = 0.0


@dataclass(frozen=True, eq=False)
class RegretReport:
    """Per-state results of a scan, as columns aligned with the grid's rows.

    NaN in ``error_prob`` or ``expected_welfare`` marks a state without that
    value: tied arms, and every state of an MSE scan. Every regret and every
    standard error is finite.
    ``argmax`` is the index of the first state of largest regret, read from the
    regret column; its coordinates are the grid's columns read at that index.
    ``per_state`` builds one StateRecord per state on first access, and caches them.
    """

    grid: StateGrid
    error_prob: np.ndarray
    expected_welfare: np.ndarray
    regret: np.ndarray
    mc_stderr: np.ndarray
    reps: int = 0  # the reps of a survey scan that drew (see max_mse_scan); 0 when none drew
    seed: SeedSpec | None = None  # the seed of the draws; None when nothing was drawn

    def __post_init__(self):
        columns = (self.error_prob, self.expected_welfare, self.regret, self.mc_stderr)
        if any(len(c) != len(self.grid) for c in columns):
            raise PreconditionError("result columns do not match the grid")
        for name, column in (("regret", self.regret), ("mc_stderr", self.mc_stderr)):
            # NaN propagates to both ends, and neither holds a temporary of the column
            if not (np.isfinite(np.max(column)) and np.isfinite(np.min(column))):
                k = int(np.flatnonzero(~np.isfinite(column))[0])
                raise PreconditionError(f"the {name} of state {k} is {column[k]}, "
                                        "not a finite number")

    @property
    def method(self) -> str:
        """How the regrets were computed: "monte_carlo" if drawn, else "exact"."""
        return "monte_carlo" if self.reps else "exact"

    @cached_property
    def argmax(self) -> int:
        return int(np.argmax(self.regret))

    @property
    def max_regret(self) -> float:
        return float(self.regret[self.argmax])

    def record(self, k: int) -> StateRecord:
        """The StateRecord of state k, built without building the others."""
        err, welfare = float(self.error_prob[k]), float(self.expected_welfare[k])
        return StateRecord(None if err != err else err,  # NaN: no value
                           None if welfare != welfare else welfare,
                           float(self.regret[k]), float(self.mc_stderr[k]))

    @cached_property
    def per_state(self) -> tuple[StateRecord, ...]:
        return tuple(map(self.record, range(len(self.grid))))


def _cpus() -> int:
    """The CPUs this process may run on, on Linux; 1 elsewhere, where a CSV is
    written in one part, in this process (see _csv_parts)."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


# ---------------------------------------------------------------------------
# two-arm binary trials

def _check_trial_n(design: TrialDesign) -> None:
    """Reject a per-arm n whose (n+1) x (n+1) choice table, which the scan builds,
    is too large."""
    if design.per_arm_n > _MAX_TRIAL_N:
        raise PreconditionError(
            f"per-arm n={design.per_arm_n} above {_MAX_TRIAL_N}: the choice table is too large")


def choice_table(rule: TrialRule, n: int) -> np.ndarray:
    """Probability mass the trial rule puts on arm b, per outcome (i, j): its
    table at n, of shape (n+1, n+1) indexed by (successes_a, successes_b)."""
    if not isinstance(rule, TrialRule):
        raise PreconditionError(f"{type(rule).__name__} is not a trial-choice rule")
    return rule.table(n)


# ---------------------------------------------------------------------------
# grid scans

def max_regret_scan(rule: TrialRule, grid: StateGrid, design: TrialDesign) -> RegretReport:
    """Per-state regret of a trial-choice rule over a binary-trial grid, exact, worked
    out on the A x B product of its axes, whose views are the report's columns. One
    PMF per axis probability serves every state."""
    if grid.family != "binary_trial":
        raise PreconditionError("max_regret_scan needs a binary_trial grid")
    _check_trial_n(design)
    n = design.per_arm_n
    pmf_a, table = binom_pmf_matrix(n, grid.points_a), choice_table(rule, n)
    pmf_b = pmf_a if grid.points_b is grid.points_a else binom_pmf_matrix(n, grid.points_b)
    # prob of choosing b in state (points_a[i], points_b[j]), at [i, j]
    prob_b = pmf_a @ table @ pmf_b.T
    # the contraction's round-off can leave [0, 1] by ~1e-15
    np.clip(prob_b, 0.0, 1.0, out=prob_b)
    # each A x B array is computed in the buffer of one it replaces, so that at
    # most three coexist: prob_b becomes err, the gap reg
    pa, pb = grid.points_a[:, None], grid.points_b
    # the error is choosing b where a is better, and a elsewhere
    err = np.subtract(1.0, prob_b, out=prob_b, where=pa <= pb)
    gap = pa - pb
    np.abs(gap, out=gap)
    welfare = np.maximum(pa, pb)
    reg = np.multiply(err, gap, out=gap)
    tie = pa == pb
    err[tie] = np.nan
    reg[tie] = 0.0
    welfare -= reg
    return RegretReport(grid, err.ravel(), welfare.ravel(), reg.ravel(), np.zeros(len(grid)))


@dataclass(frozen=True)
class RegretBounds:
    bound_10: float
    bound_11: float
    tighter: int  # 10 or 11, decided numerically


def regret_bounds(k: int, m: float, n: int) -> RegretBounds:
    """Analytic upper bounds on the max regret of the empirical success rule.

    bound_10 = (2e)^(-1/2) * M * (K-1) / sqrt(n)
    bound_11 = M * sqrt(ln K) / sqrt(n)
    """
    if k < 2:
        raise PreconditionError("need at least two treatments")
    if n < 1 or not 0 < m < np.inf:  # also rejects NaN
        raise PreconditionError("need n >= 1 and a finite M > 0")
    try:  # numpy takes no int wider than 64 bits, so k and n reach it as floats
        k_float, n_float = float(k), float(n)
    except OverflowError:
        raise PreconditionError("need K and n below 2^1024, the float range") from None
    with np.errstate(over="ignore"):  # an overflow is reported below, in one line
        b10 = (2.0 * np.e) ** -0.5 * m * (k - 1) / np.sqrt(n_float)
        b11 = m * np.sqrt(np.log(k_float)) / np.sqrt(n_float)
    if not (np.isfinite(b10) and np.isfinite(b11)):
        raise PreconditionError("a bound overflows the float range")
    return RegretBounds(float(b10), float(b11), 10 if b10 <= b11 else 11)


def midpoint_max_regret_formula(p_obs: float, n: int) -> float:
    """Closed-form max regret of the midpoint predictor on [0, 1] support:
    1/4 * (P(delta=1)^2 / N + P(delta=0)^2)."""
    if not 0.0 <= p_obs <= 1.0:
        raise PreconditionError(f"p_obs={p_obs} outside [0, 1]")
    if n < 1:
        raise PreconditionError("N must be >= 1")
    return 0.25 * (p_obs ** 2 / n + (1.0 - p_obs) ** 2)


# ---------------------------------------------------------------------------
# predictor evaluation

def _bernoulli_predictions(rule: Predictor, k, n, p1, support):
    """Predictions from k successes among n >= 1 observed Bernoulli outcomes."""
    y0, y1 = support
    if rule.statistic == "median":
        stat = np.where(2 * k > n, y1, np.where(2 * k < n, y0, 0.5 * (y0 + y1)))
    else:
        stat = y0 + (k / n) * (y1 - y0)
    return rule.predict(stat, n, p1, support)


_CONTRACTION_CELLS = 1 << 18  # squared errors held per chunk of states
# the most PMF cells, #theta_obs N (N + 1) / 2, that an exact random_miss survey of a
# predictor not affine in the observed mean may enumerate, one Python step per
# observed count. On a 2-vCPU VM, 11 thetas took 0.17 s at N = 1,000 and 1.3 s at
# N = 3,000, and 2^27 cells (64 thetas, N = 2,047) took 3.0 s
_MAX_ENUMERATED_CELLS = 1 << 27


def _affine_terms(rule: Predictor, mean, var, n_obs, p1, support) -> tuple:
    """The prediction at the expected observed mean, and the variance of the
    prediction, b^2 var / n_obs: b is the predictor's slope in the observed mean
    and var the variance of one observed outcome."""
    y0, y1 = support
    rise = rule.predict(y1, n_obs, p1, support) - rule.predict(y0, n_obs, p1, support)
    return rule.predict(mean, n_obs, p1, support), (rise / (y1 - y0)) ** 2 * var / n_obs


def _prediction_moments(rule: Predictor, grid: StateGrid, n, p1, samples=None,
                        seed: SeedSpec | None = None) -> tuple:
    """Mean m, variance v, and third and fourth central moments c3 and c4 of the
    prediction from n >= 1 observed outcomes at observed fraction p1, one row per
    distinct observed parameter and one column per case (n, p1): drawn given
    ``samples`` (_drawn_moments); else exact, with c3 and c4 None. Exact m and v are
    _affine_terms for an affine predictor, on either outcome family, and otherwise,
    on Bernoulli outcomes, PMF-weighted sums over the success count k, one PMF
    matrix per distinct n, run in numpy, not BLAS."""
    if samples is not None:
        return _drawn_moments(rule, grid, n, p1, samples, seed)
    y0, y1 = support = grid.support
    if rule in _AFFINE:
        mean = _outcome_mean(grid.outcome, grid.obs_params, support)
        if grid.outcome == "bernoulli":
            var = grid.obs_params * (1.0 - grid.obs_params)
        else:
            a, b = grid.obs_params.T
            var = (a / (a + b)) * (b / (a + b)) / (a + b + 1.0)  # no overflow: a + b is finite
        var = var * (y1 - y0) ** 2
        return (*np.broadcast_arrays(*_affine_terms(rule, mean[:, None], var[:, None], n, p1,
                                                    support)), None, None)
    mean, var = np.empty((2, len(grid.obs_params), len(n)))
    pmf = None
    for c, (size, frac) in enumerate(zip(n.tolist(), p1.tolist())):
        if pmf is None or pmf.shape[1] != size + 1:
            pmf = binom_pmf_matrix(size, grid.obs_params)
        pred = _bernoulli_predictions(rule, np.arange(size + 1), size, frac, support)
        mean[:, c] = np.einsum("ik,k->i", pmf, pred)
        dev = pred - mean[:, c, None]
        var[:, c] = np.einsum("ik,ik->i", pmf, dev * dev)
    return mean, var, None, None


def _beta_statistic(rng, shape, count: int, m: int, median: bool):
    """Yield the median or mean of each of count samples of m Beta(alpha, beta)
    draws, shape the pair (alpha, beta), a block of 2^18 draws at a time. The
    median sorts each fresh block in place and averages its middle column or
    columns, which gives np.median's bits without its copy and partition of the
    block, and without the numpy.ma import of its first call."""
    per = max(1, (1 << 18) // m)
    for lo in range(0, count, per):
        b = rng.beta(*shape, size=(min(per, count - lo), m))
        if median:
            b.sort(axis=1)
            yield b[:, m // 2] if m % 2 else (b[:, m // 2 - 1] + b[:, m // 2]) / 2
        else:
            yield b.mean(axis=1)


def _central_moments(blocks) -> np.ndarray:
    """The mean and the second to fourth central moments (divisor: the count), as
    rows, of each column over all rows of the blocks, 2-D arrays of one width. Each
    block becomes power sums about the first block's means before the next is read."""
    count, shift, sums = 0, None, 0.0
    for block in blocks:
        shift = block.mean(axis=0) if shift is None else shift
        d = block - shift
        d2 = d * d
        sums = sums + np.array([d.sum(0), d2.sum(0), (d2 * d).sum(0), (d2 * d2).sum(0)])
        count += len(block)
    e1, e2, e3, e4 = sums / count
    return np.array([shift + e1, e2 - e1 * e1, e3 - e1 * (3.0 * e2 - 2.0 * e1 * e1),
                     e4 - e1 * (4.0 * e3 - e1 * (6.0 * e2 - 3.0 * e1 * e1))])


def _drawn_moments(rule: Predictor, grid: StateGrid, n, p1, samples, seed: SeedSpec) -> tuple:
    """_prediction_moments from Beta outcomes, estimated: per distinct n with samples
    and per observed shape s that a state uses, samples[c] statistics of n Beta draws
    (one count for every case c of that n) are drawn once, from ``seed.rng(s, n)``,
    and read at each case's p1. Cases without samples, and unused shapes, keep 0."""
    y0, y1 = support = grid.support
    moments = np.zeros((4, len(grid.obs_params), len(n)))
    # np.unique would import numpy.ma, which no other path needs
    shapes = np.flatnonzero(np.bincount(grid.index_obs, minlength=len(grid.obs_params)))
    for size in sorted(set(n[samples > 0].tolist())):
        cases = np.flatnonzero(n == size)
        for s in shapes.tolist():
            stats = _beta_statistic(seed.rng(s, size), grid.obs_params[s].tolist(),
                                    int(samples[cases[0]]), size, rule.statistic == "median")
            moments[:, s, cases] = _central_moments(np.column_stack([np.broadcast_to(
                rule.predict(y0 + (y1 - y0) * stat, size, frac, support), stat.shape)
                for frac in p1[cases].tolist()]) for stat in stats)
    return tuple(moments)


def _error_spread(dev, v, c3, c4):
    """Variance of (X - mu)^2, X of variance v, central moments c3, c4, mean mu + dev."""
    return c4 - v * v + 4.0 * dev * (c3 + dev * v)


def _survey_mse(rule: Predictor, grid: StateGrid, design: SurveyDesign, counts,
                reps: int | None = None, seed: SeedSpec | None = None) -> tuple:
    """Per-state MSE of a survey, the sum over the observed count n of its weight w
    times (m - mu)^2 + v, m and v given n (_prediction_moments) and mu the population
    mean, and its stderr. Under fixed_n a state's one case is n = N, p1 = 1 - its
    miss rate; under random_miss n = 1..N, p1 = n / N, weighted by ``counts``, the
    Bin(N, 1 - rate) PMF of n per distinct rate, and n = 0 predicts the midpoint.
    Without ``reps`` the terms are exact and the stderr 0. With it, n draws R_n
    statistics per shape: reps under fixed_n; under random_miss reps times the
    largest weight of n at the states' rates, rounded up, in [2, reps], or 0 if that
    is 0. The stderr is the root of the sum over n of w^2 (c4 - v^2 + 4 d c3 +
    4 d^2 v) / (R_n - 1), d = m - mu: each n's draws are independent (ddof=1)."""
    y0, y1 = grid.support
    obs, rate, mu, total = grid.index_obs, grid.index_rate, grid.population_mean, design.n
    stderr = np.zeros(len(grid))
    if design.mode == "fixed_n":
        n = np.full(len(grid.miss_rates), total)
        samples = None if reps is None else np.full(len(n), reps)
        m, v, c3, c4 = _prediction_moments(rule, grid, n, 1.0 - grid.miss_rates, samples, seed)
        dev, v = m[obs, rate] - mu, v[obs, rate]
        if c3 is not None:
            stderr = np.sqrt(_error_spread(dev, v, c3[obs, rate], c4[obs, rate]) / (reps - 1))
        return dev ** 2 + v, stderr
    n, samples = np.arange(1, total + 1), None
    if reps is not None:
        top = counts[np.bincount(rate, minlength=len(counts)) > 0, 1:].max(axis=0).tolist()
        samples = np.array([min(reps, max(2, math.ceil(reps * w))) if w else 0 for w in top])
    m, v, c3, c4 = _prediction_moments(rule, grid, n, n / total, samples, seed)
    mse = counts[rate, 0] * (0.5 * (y0 + y1) - mu) ** 2
    per = max(1, _CONTRACTION_CELLS // total)
    for lo in range(0, len(grid), per):
        rows = slice(lo, lo + per)
        dev = m[obs[rows]] - mu[rows, None]
        err2 = dev ** 2 + v[obs[rows]]
        mse[rows] += np.matmul(counts[rate[rows], None, 1:], err2[:, :, None])[:, 0, 0]
        if c3 is not None:
            spread = _error_spread(dev, v[obs[rows]], c3[obs[rows]], c4[obs[rows]])
            scale = counts[rate[rows], 1:] ** 2 / np.maximum(samples - 1, 1)
            stderr[rows] = np.sqrt(np.einsum("ij,ij->i", scale, spread))
    return mse, stderr


def max_mse_scan(rule: Predictor, grid: StateGrid, design: SurveyDesign,
                 reps: int | None = None, seed: SeedSpec | None = None) -> RegretReport:
    """MSE of a predictor in every state of a prediction grid (regret = MSE here),
    by one survey sum (_survey_mse), in this process.

    A Bernoulli survey and any survey read through an affine predictor are exact:
    the report's reps is 0, with no seed. A nonlinear predictor on Beta outcomes
    draws ``reps`` as _survey_mse counts them, from the seed's substreams (0 when
    None), which the report names; ``reps`` None rejects it. ``reps`` must lie in
    [_MIN_MC_REPS, _MAX_MC_REPS] on either path. A scan whose PMFs and predictions
    would exceed _MAX_GRID_STATES entries, or that would enumerate more than
    _MAX_ENUMERATED_CELLS PMF cells under random_miss, is rejected before any PMF.
    """
    if grid.family != "prediction":
        raise PreconditionError("max_mse_scan needs a prediction grid")
    if reps is not None:
        _check_reps(reps)
    # the scan's arrays of n+1 entries, one per distinct observed parameter and one
    # per distinct miss rate (PMFs, predictions), hold at most 32 MB of floats
    entries = (design.n + 1) * (len(grid.obs_params) + len(grid.miss_rates))
    if entries > _MAX_GRID_STATES:
        raise PreconditionError(f"survey n={design.n} gives {entries:.4g} PMF and prediction "
                                f"entries, above the {_MAX_GRID_STATES} a scan may hold")
    if not isinstance(rule, Predictor):
        raise PreconditionError(f"{type(rule).__name__} is not a predictor")
    affine, random_miss, total = rule in _AFFINE, design.mode == "random_miss", design.n
    exact = affine or grid.outcome == "bernoulli"
    cells = len(grid.obs_params) * total * (total + 1) // 2
    if exact and not affine and random_miss and cells > _MAX_ENUMERATED_CELLS:
        raise PreconditionError(f"survey n={total} under random_miss gives {cells:.4g} PMF "
                                f"cells to enumerate, above the {_MAX_ENUMERATED_CELLS} a "
                                "scan may visit")
    if not exact and reps is None:
        raise PreconditionError("exact MSE needs Bernoulli outcomes or a predictor affine "
                                "in the observed mean")
    counts = binom_pmf_matrix(total, 1.0 - grid.miss_rates) if random_miss else None
    reps, seed = (None, None) if exact else (reps, seed or SeedSpec())
    with np.errstate(all="ignore"):  # a huge prediction's inf or NaN: RegretReport rejects it
        mse, stderr = _survey_mse(rule, grid, design, counts, reps, seed)
    no_value = np.full(len(grid), np.nan)  # an MSE scan has no error prob or welfare
    return RegretReport(grid, no_value, no_value, mse, stderr, reps or 0, seed)


# ---------------------------------------------------------------------------
# exhaustive oracle over deterministic rules

def exhaustive_mmr_oracle(
    design: TrialDesign,
    grid: StateGrid,
) -> tuple[np.ndarray, float]:
    """Best deterministic outcome->arm table by exact max regret, for tiny n.

    Enumerates all 2^((n+1)^2) deterministic two-arm rules, so the per-arm
    sample size is capped at 3.
    """
    if design.per_arm_n > 3:
        raise PreconditionError("oracle limited to two arms and n <= 3 per arm")
    if grid.family != "binary_trial":
        raise PreconditionError("oracle needs a binary_trial grid")
    n = design.per_arm_n
    m = (n + 1) ** 2

    # outcome probabilities, states x outcomes: the outer product of the axes' PMFs
    pmf_a, pmf_b = binom_pmf_matrix(n, grid.points_a), binom_pmf_matrix(n, grid.points_b)
    probs = (pmf_a[:, None, :, None] * pmf_b[None, :, None, :]).reshape(-1, m)
    pa, pb = grid.points_a[:, None], grid.points_b
    a_better, gap = (pa > pb).ravel(), np.abs(pa - pb).ravel()

    # rules are scored a chunk at a time, so no states x rules array holds them all
    max_reg = np.empty(1 << m)
    for lo in range(0, len(max_reg), _ORACLE_CHUNK_RULES):
        hi = min(lo + _ORACLE_CHUNK_RULES, len(max_reg))
        # rule r chooses arm b on outcome o iff bit o of r is set
        bits = ((np.arange(lo, hi)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
        prob_b = probs @ bits.T  # states x rules
        err = np.where(a_better[:, None], prob_b, 1.0 - prob_b)
        err[gap == 0] = 0.0
        max_reg[lo:hi] = (err * gap[:, None]).max(axis=0)
    best = int(np.argmin(max_reg))
    table = ((best >> np.arange(m)) & 1).astype(float).reshape(n + 1, n + 1)
    return table, float(max_reg[best])


# ---------------------------------------------------------------------------
# CSV serialization

_CSV_BLOCK_ROWS = 4096  # rows formatted per block; bounds the memory a block holds
# fewest rows in a part of a CSV written by its own process. On 2 CPUs a second
# part paid from about 13,000 rows of a trial report and 20,000 of a survey one;
# the first split, at twice this, is past both
_CSV_PART_ROWS = 16_384
# each field's separator goes in the free bytes 29-30 of its template (word 3)
_COMMA, _CRLF = np.uint64(ord(",") << 40), np.uint64((ord("\r") | ord("\n") << 8) << 40)


def _coordinate_columns(grid: StateGrid) -> tuple[list[str], list[tuple]]:
    """The report CSV's state coordinate names and, per coordinate, its values with
    a function from row numbers (an int or an array) to the rows' positions in them."""
    if grid.family == "binary_trial":
        b = len(grid.points_b)  # state k is (points_a[k // b], points_b[k % b])
        return ["p_a", "p_b"], [(grid.points_a, lambda k: k // b),
                                (grid.points_b, lambda k: k % b)]
    at_obs, at_miss = grid.index_obs.__getitem__, grid.index_miss.__getitem__
    rate = (grid.miss_rates, grid.index_rate.__getitem__)
    obs, miss = grid.obs_params, grid.miss_params
    if grid.outcome == "bernoulli":
        return ["theta_obs", "theta_miss", "miss_rate"], [(obs, at_obs), (miss, at_miss), rate]
    return (["alpha_obs", "beta_obs", "alpha_miss", "beta_miss", "miss_rate"],
            [(obs[:, 0], at_obs), (obs[:, 1], at_obs), (miss[:, 0], at_miss),
             (miss[:, 1], at_miss), rate])


def _format_block(fields: np.ndarray) -> bytes:
    """The CSV lines of a block of rows, each ended by CRLF, as bytes.

    ``fields`` holds one row of templates per CSV row, one template per column,
    as mathutil._fmt17_cells writes them: a field's text is the bytes of its
    template other than NUL. The separators go into the templates' free bytes,
    and one deletion of every NUL gives the block's bytes.
    """
    fields[:, :-1, -1] |= _COMMA
    fields[:, -1, -1] |= _CRLF
    return fields.tobytes().translate(None, b"\0")


def _csv_rows(texts, results, fh, lo: int, hi: int) -> None:
    """Write the CSV lines of rows lo..hi-1 into fh, a block of _CSV_BLOCK_ROWS
    rows at a time, and flush fh.

    ``texts`` holds, per state coordinate, the templates of its values and the
    function that gives each row's position among them; ``results`` holds, per
    result column, its values and whether NaN there is an empty field. It runs in a
    forked child for every part after the first (see _write_parts), so it calls
    no BLAS: only elementwise numpy and file writes.
    """
    fields = np.empty((min(hi - lo, _CSV_BLOCK_ROWS), len(texts) + len(results),
                       FMT17_WIDTH // 8), "<u8")
    for start in range(lo, hi, _CSV_BLOCK_ROWS):
        block = fields[:min(_CSV_BLOCK_ROWS, hi - start)]
        stop = start + len(block)
        for c, (chars, position) in enumerate(texts):
            block[:, c] = chars[position(np.arange(start, stop))]
        for c, (values, optional) in enumerate(results, len(texts)):
            _fmt17_cells(values[start:stop], block[:, c])
            if optional:  # NaN marks no value: an empty field
                block[np.isnan(values[start:stop]), c] = 0
        fh.write(_format_block(block))
    fh.flush()


def _csv_parts(rows: int) -> int:
    """The number of contiguous parts a CSV of this many rows is written in: at
    most one per CPU (see _cpus), each of at least _CSV_PART_ROWS rows."""
    return max(1, min(_cpus(), rows // _CSV_PART_ROWS))


def _write_parts(texts, results, fh, bounds) -> None:
    """Write the CSV lines of each part of rows bounds[k]..bounds[k+1]-1 into fh,
    in order: the first in this process, each other one in a child forked for it.

    A child writes its part into an anonymous file in fh's directory and leaves
    with exit status 0, or 1 on any exception. Once every child is reaped, this
    process appends the file of each child that exited 0 and writes every other
    part again itself, so those bytes, or the exception that stops them, come
    from this process. A child starts as a copy of this process, so nothing is
    sent to it or back. Forking is sound here because _csv_rows calls no BLAS,
    whose threads this process may hold. A child also inherits the heap as this
    process froze it (``cli.main`` freezes it as the process entry point), so its
    collections skip the frozen objects. Every file is closed and every child
    reaped before this returns or raises.
    """
    # here: tempfile and shutil would cost every CLI start ~5 ms, and only a
    # split report needs them
    import shutil
    import tempfile
    from contextlib import ExitStack
    fh.flush()  # no byte of fh stays in the buffer the children copy
    folder = os.path.dirname(os.path.abspath(fh.name))
    with ExitStack() as spills:
        children = []  # (pid, its file, its part's bounds)
        try:
            for lo, hi in zip(bounds[1:], bounds[2:]):
                spill = spills.enter_context(tempfile.TemporaryFile(dir=folder))
                pid = os.fork()
                if pid == 0:
                    try:
                        _csv_rows(texts, results, spill, lo, hi)
                        os._exit(0)
                    finally:  # reached on an exception only: os._exit does not return
                        os._exit(1)
                children.append((pid, spill, lo, hi))
            _csv_rows(texts, results, fh, bounds[0], bounds[1])
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid, *_ in children]
        for status, (_, spill, lo, hi) in zip(statuses, children):
            if status == 0:
                spill.seek(0)
                shutil.copyfileobj(spill, fh, 1 << 20)
            else:  # the child failed or was killed
                _csv_rows(texts, results, fh, lo, hi)


def report_to_csv(report: RegretReport, path) -> None:
    """One row per state plus a summary footer row, written a block of rows at a time.

    Each number is ``format(v, ".17g")``, byte for byte: mathutil._fmt17_cells
    formats a block's result columns with numpy operations, and falls back to
    ``format`` for the rare values whose rounding it cannot certify. Each
    coordinate's values are formatted once, not once per row. Lines end in
    CRLF, as the csv module writes them. No field needs CSV quoting: each is a
    number, an empty value or a fixed word.

    A report of many rows on a machine of several CPUs is written in
    _csv_parts contiguous parts of rows by _write_parts: this process writes
    the first, and a child forked for each other part writes it into an
    anonymous file, which this process appends. A part whose child failed or
    was killed is written again in this process. A row's text does not depend
    on the part it is in, so the bytes are the same on any number of CPUs.
    """
    state_names, coordinates = _coordinate_columns(report.grid)
    texts = [(_fmt17_cells(values), position) for values, position in coordinates]
    results = [(report.error_prob, True), (report.expected_welfare, True),
               (report.regret, False), (report.mc_stderr, False)]
    header = state_names + ["error_prob", "expected_welfare", "regret", "mc_stderr"]
    summary = ["#summary", f"max_regret={fmt17(report.max_regret)}",
               "argmax=" + "|".join(fmt17(values[position(report.argmax)])
                                    for values, position in coordinates),
               f"method={report.method}", f"reps={report.reps}",
               f"seed={report.seed.master_seed if report.seed else ''}"]
    n = len(report.grid)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        # a file that is not a regular one (a pipe, a device) gets no spill files
        parts = _csv_parts(n) if os.path.isfile(path) else 1
        if parts == 1:
            _csv_rows(texts, results, fh, 0, n)
        else:
            _write_parts(texts, results, fh, [n * k // parts for k in range(parts + 1)])
        fh.write((",".join(summary) + "\r\n").encode())
