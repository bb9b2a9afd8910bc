"""Evaluation engine: state-dependent error probability, regret, and MSE.

Evaluates a rule exactly where the sample space is enumerable (two-arm binary
trials, Bernoulli surveys with a fixed observed count) and by seeded Monte
Carlo otherwise. Each grid family has one evaluation path, a report builder
over a grid; the scans call it on their grid and the scalar functions on a
grid of one state. Also provides analytic maximum-regret bounds for the
empirical success rule and an exhaustive oracle over deterministic rules on
tiny trial designs.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import PreconditionError
from .mathutil import FMT17, binom_pmf_matrix, binom_pmf_vector, fmt17
from .rules import Predictor, TrialRule
from .sampling import SeedSpec, SurveyDesign, TrialDesign
from .states import BinaryTrialState, PredictionState, StateGrid

__all__ = [
    "EvalMethod",
    "RegretBounds",
    "RegretReport",
    "StateRecord",
    "error_probability",
    "binary_regret",
    "expected_welfare",
    "max_regret_scan",
    "regret_bounds",
    "predictor_mse",
    "max_mse_scan",
    "midpoint_max_regret_formula",
    "exhaustive_mmr_oracle",
    "choice_table",
    "report_to_csv",
]

_MAX_EXACT_TRIAL_N = 10000
_MIN_MC_REPS = 1000


@dataclass(frozen=True)
class EvalMethod:
    """Exact enumeration or Monte Carlo with a replication count."""

    mode: str = "exact"  # "exact" | "monte_carlo"
    reps: int = 100_000

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise PreconditionError(f"unknown evaluation mode {self.mode!r}")
        if self.mode == "monte_carlo" and self.reps < _MIN_MC_REPS:
            raise PreconditionError(f"need at least {_MIN_MC_REPS} MC replications")


@dataclass(frozen=True)
class StateRecord:
    state: object
    error_prob: float | None
    expected_welfare: float | None
    regret: float
    mc_stderr: float = 0.0


@dataclass(frozen=True, eq=False)
class RegretReport:
    """Per-state results of a scan, as columns aligned with the grid's states.

    NaN in ``error_prob`` or ``expected_welfare`` marks a state without that
    value: tied arms, and every state of an MSE scan. ``argmax`` is the index
    of the first state of largest regret. ``per_state`` builds one
    StateRecord per state on first access and caches them.
    """

    grid: StateGrid
    error_prob: np.ndarray
    expected_welfare: np.ndarray
    regret: np.ndarray
    mc_stderr: np.ndarray
    argmax: int
    method: EvalMethod
    seed: SeedSpec | None = None
    _records: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        columns = (self.error_prob, self.expected_welfare, self.regret, self.mc_stderr)
        if any(len(c) != len(self.grid) for c in columns):
            raise PreconditionError("result columns do not match the grid")
        if abs(self.max_regret - float(np.max(self.regret))) > 1e-12:
            raise PreconditionError("max_regret does not match per-state records")

    @property
    def max_regret(self) -> float:
        return float(self.regret[self.argmax])

    @property
    def argmax_state(self):
        return self.grid.state(self.argmax)

    def record(self, k: int) -> StateRecord:
        """The StateRecord of state k, built without building the others."""
        return self._record(k, self.grid.state(k))

    @property
    def per_state(self) -> tuple[StateRecord, ...]:
        if self._records is None:
            records = tuple(map(self._record, range(len(self.grid)), self.grid.states))
            object.__setattr__(self, "_records", records)
        return self._records

    def _record(self, k: int, state) -> StateRecord:
        err, welfare = float(self.error_prob[k]), float(self.expected_welfare[k])
        return StateRecord(state, None if err != err else err,  # NaN: no value
                           None if welfare != welfare else welfare,
                           float(self.regret[k]), float(self.mc_stderr[k]))


def _report(grid, regret, method, seed, error_prob=None, expected_welfare=None,
            mc_stderr=None) -> RegretReport:
    """A report over the grid; columns left out hold no value (NaN) or zero stderr."""
    missing = np.full(len(grid), np.nan)
    return RegretReport(
        grid, missing if error_prob is None else error_prob,
        missing if expected_welfare is None else expected_welfare, regret,
        np.zeros(len(grid)) if mc_stderr is None else mc_stderr,
        int(np.argmax(regret)), method, seed)


def _map_chunks(fn, items, workers: int, first: int) -> np.ndarray:
    """``fn(chunk, index of its first item)`` over contiguous chunks of items, one
    chunk per worker process; the chunks' result columns, concatenated."""
    if workers == 1:
        return fn(items, first)
    # imported here: loading the pool machinery costs every CLI start ~20 ms
    from concurrent.futures import ProcessPoolExecutor
    size = -(-len(items) // workers)
    starts = range(0, len(items), size)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(fn, [items[lo:lo + size] for lo in starts], [first + lo for lo in starts])
        return np.concatenate(list(parts), axis=-1)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise PreconditionError(f"workers={workers} must be at least 1")


# ---------------------------------------------------------------------------
# two-arm binary trials

def _check_exact_trial(design: TrialDesign) -> None:
    if design.arms != 2 or design.outcome_range != 1.0:
        raise PreconditionError("exact mode requires a two-arm binary design")
    if design.per_arm_n > _MAX_EXACT_TRIAL_N:
        raise PreconditionError("per-arm n too large for exact enumeration")


# The MC kernel draws a state's reps iid samples as a histogram of their
# sufficient statistic (counts over its finite support, which have the iid
# sample's law) and scores each support point once.

def _draw_histogram(rng, reps: int, pmf_a: np.ndarray, pmf_b: np.ndarray):
    """Counts of reps iid draws of independent (i, j), i ~ pmf_a and j ~ pmf_b: the
    occupied values ``rows`` of i, and one row of counts of j per occupied i."""
    h = rng.multinomial(reps, pmf_a)
    rows = np.flatnonzero(h)
    return rows, rng.multinomial(h[rows], pmf_b)


def _binomial_counts(rng, count: int, m: int, theta: float) -> np.ndarray:
    """Counts of k = 0..m among count iid Binomial(m, theta) draws: one multinomial
    draw when count exceeds the support, count binomial draws otherwise."""
    if count > m:
        return rng.multinomial(count, binom_pmf_vector(m, theta))
    return np.bincount(rng.binomial(m, theta, size=count), minlength=m + 1)


def _mean_stderr(values, counts, reps: int) -> tuple[float, float]:
    """Mean and standard error (ddof=1) of reps draws given as values and their counts."""
    est = float(np.sum(counts * values) / reps)
    var = np.sum(counts * (values - est) ** 2) / (reps - 1)
    return est, float(np.sqrt(var / reps))


def _mc_choose_b(table, pmf, reps: int, seed: SeedSpec, pairs, first: int) -> np.ndarray:
    """MC probability of choosing b and its standard error, one column per (row of
    arm a, row of arm b) pair of pmf rows. Pair k draws from substream first + k;
    a tied pair (the same row twice) is not drawn and gets zeros."""
    out = np.zeros((2, len(pairs)))
    for k, (i, j) in enumerate(pairs.tolist()):
        if i != j:
            rows, counts = _draw_histogram(seed.rng(first + k, 0), reps, pmf[i], pmf[j])
            out[:, k] = _mean_stderr(table[rows], counts, reps)
    return out


def choice_table(rule: TrialRule, n: int) -> np.ndarray:
    """Probability mass the trial rule puts on arm b, per outcome (i, j): its
    table at n, of shape (n+1, n+1) indexed by (successes_a, successes_b)."""
    if not isinstance(rule, TrialRule):
        raise PreconditionError(f"{type(rule).__name__} is not a trial-choice rule")
    return rule.table(n)


def _trial_report(rule, grid, design, method, seed, workers: int, first: int) -> RegretReport:
    """Regret of a trial-choice rule in every state of a binary-trial grid. One PMF
    per grid probability serves every state; MC state k draws from substream
    first + k."""
    n = design.per_arm_n
    if method.mode == "exact":
        _check_exact_trial(design)
    pmf, table = binom_pmf_matrix(n, grid.points), choice_table(rule, n)
    if method.mode == "exact":
        # prob of choosing b for every (p_a, p_b) pair of grid probabilities
        prob_b = (pmf @ table @ pmf.T)[grid.index_a, grid.index_b]
        se_b = np.zeros(len(grid))
    else:
        # workers get the table, not the rule: an OutcomeRule's callable need not pickle
        kernel = partial(_mc_choose_b, table, pmf, method.reps, seed or SeedSpec())
        prob_b, se_b = _map_chunks(kernel, np.column_stack([grid.index_a, grid.index_b]),
                                   workers, first)
    pa, pb = grid.p_a, grid.p_b
    tie, gap = pa == pb, np.abs(pa - pb)
    err = np.where(pa > pb, prob_b, 1.0 - prob_b)
    reg = err * gap
    err[tie] = np.nan
    reg[tie] = 0.0
    return _report(grid, reg, method, seed, err, np.maximum(pa, pb) - reg, se_b * gap)


def _one_state(rule, state, design, method, seed, state_index) -> StateRecord:
    grid = StateGrid("binary_trial", (state,))
    return _trial_report(rule, grid, design, method, seed, 1, state_index).record(0)


def error_probability(
    rule: TrialRule,
    state: BinaryTrialState,
    design: TrialDesign,
    method: EvalMethod = EvalMethod(),
    seed: SeedSpec | None = None,
    state_index: int = 0,
) -> float | None:
    """Probability the rule selects the inferior arm; None when the arms tie.

    Fractional allocations contribute their mass on the inferior arm.
    """
    return _one_state(rule, state, design, method, seed, state_index).error_prob


def binary_regret(
    rule: TrialRule,
    state: BinaryTrialState,
    design: TrialDesign,
    method: EvalMethod = EvalMethod(),
    seed: SeedSpec | None = None,
    state_index: int = 0,
) -> float:
    """Error probability times the welfare gap |p_a - p_b|."""
    return _one_state(rule, state, design, method, seed, state_index).regret


def expected_welfare(
    rule: TrialRule,
    state: BinaryTrialState,
    design: TrialDesign,
    method: EvalMethod = EvalMethod(),
    seed: SeedSpec | None = None,
    state_index: int = 0,
) -> float:
    """Best attainable welfare in the state minus the rule's regret."""
    return _one_state(rule, state, design, method, seed, state_index).expected_welfare


# ---------------------------------------------------------------------------
# grid scans

def max_regret_scan(
    rule: TrialRule,
    grid: StateGrid,
    design: TrialDesign,
    method: EvalMethod = EvalMethod(),
    seed: SeedSpec | None = None,
    workers: int = 1,
) -> RegretReport:
    """Per-state regret of a trial-choice rule over a binary-trial grid."""
    if grid.family != "binary_trial":
        raise PreconditionError("max_regret_scan needs a binary_trial grid")
    _check_workers(workers)
    return _trial_report(rule, grid, design, method, seed, workers, 0)


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
    if n < 1 or m <= 0:
        raise PreconditionError("need n >= 1 and M > 0")
    b10 = (2.0 * np.e) ** -0.5 * m * (k - 1) / np.sqrt(n)
    b11 = m * np.sqrt(np.log(k)) / np.sqrt(n)
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


def _known_p1(state: PredictionState, design: SurveyDesign) -> float:
    if design.known_miss_rate is not None:
        return 1.0 - design.known_miss_rate
    return 1.0 - state.miss_rate


_CONTRACTION_CELLS = 1 << 18  # squared errors held per chunk of states


def _exact_bernoulli_mse(rule, grid: StateGrid, design) -> np.ndarray:
    """Per-state MSE of a fixed-N Bernoulli survey, enumerating the success count:
    one PMF per distinct theta_obs, one prediction vector per distinct observed
    fraction p1, and one PMF-weighted sum of squared errors per state."""
    if design.mode != "fixed_n" or grid.outcome != "bernoulli":
        raise PreconditionError(
            "exact MSE needs a fixed-N design with Bernoulli observed outcomes")
    n = design.n_observed
    if design.known_miss_rate is None:
        p1, index_p1 = 1.0 - grid.miss_rates, grid.index_rate
    else:
        p1, index_p1 = np.array([1.0 - design.known_miss_rate]), np.zeros(len(grid), int)
    k = np.arange(n + 1)
    preds = np.array([_bernoulli_predictions(rule, k, n, p, grid.support)
                      for p in p1.tolist()])
    pmf, pop = binom_pmf_matrix(n, grid.obs_params), grid.population_mean
    mse = np.empty(len(grid))
    per = max(1, _CONTRACTION_CELLS // (n + 1))
    for lo in range(0, len(grid), per):
        rows = slice(lo, lo + per)
        err2 = (preds[index_p1[rows]] - pop[rows, None]) ** 2
        # a stack of (1 x n+1) @ (n+1 x 1) products: the same bits as one pmf @ err2 each
        mse[rows] = np.matmul(pmf[grid.index_obs[rows], None, :], err2[:, :, None])[:, 0, 0]
    return mse


def _beta_statistic(rng, dist, count: int, m: int, median: bool) -> np.ndarray:
    """Median or mean of each of count samples of m Beta draws, 2^18 draws at a time."""
    per, out = max(1, (1 << 18) // m), []
    for lo in range(0, count, per):
        b = rng.beta(dist.alpha, dist.beta, size=(min(per, count - lo), m))
        out.append(np.median(b, axis=1) if median else b.mean(axis=1))
    return np.concatenate(out)


def _mc_mse(rule, state: PredictionState, design: SurveyDesign, reps: int,
            rng) -> tuple[float, float]:
    """MC MSE of a predictor in one state and its standard error. Per occupied n_obs,
    a histogram of the successes for Bernoulli outcomes and blocks of Beta samples
    otherwise. No observation predicts the support midpoint."""
    y0, y1 = state.support
    dist, mid = state.dist_observed, 0.5 * (y0 + y1)
    if design.mode == "fixed_n":
        n_obs, pmf_n = np.array([design.n_observed]), np.ones(1)
        p1 = np.array([_known_p1(state, design)])
    else:
        n_obs = np.arange(design.total_n + 1)
        pmf_n = binom_pmf_vector(design.total_n, 1.0 - state.miss_rate)
        p1 = n_obs / design.total_n
    median = rule.statistic == "median"
    h = rng.multinomial(reps, pmf_n)
    preds, counts = [], []
    for i in np.flatnonzero(h):
        m = n_obs[i]
        if m == 0:  # the midpoint predictor lands there anyway
            pred, count = mid, h[i:i + 1]
        elif dist.family == "bernoulli":
            c = _binomial_counts(rng, h[i], m, dist.theta)
            k = np.flatnonzero(c)  # only successes that occur reach the predictor
            pred, count = _bernoulli_predictions(rule, k, m, p1[i], state.support), c[k]
        else:
            stat = y0 + (y1 - y0) * _beta_statistic(rng, dist, h[i], m, median)
            pred = rule.predict(stat, m, p1[i], state.support)
            count = np.ones(h[i])
        preds.append(np.broadcast_to(pred, count.shape))
        counts.append(count)
    return _mean_stderr((np.concatenate(preds) - state.population_mean) ** 2,
                        np.concatenate(counts), reps)


def _mc_mse_states(rule, design, reps: int, seed: SeedSpec, states, first: int) -> np.ndarray:
    """MC MSE and its standard error, one column per state; state k draws from
    substream first + k."""
    return np.array([_mc_mse(rule, s, design, reps, seed.rng(first + k, 0))
                     for k, s in enumerate(states)]).T


def _mse_report(rule, grid, design, method, seed, workers: int, first: int) -> RegretReport:
    """MSE of a predictor in every state of a prediction grid (regret = MSE here);
    MC state k draws from substream first + k."""
    if not isinstance(rule, Predictor):
        raise PreconditionError(f"{type(rule).__name__} is not a predictor")
    if method.mode == "exact":
        return _report(grid, _exact_bernoulli_mse(rule, grid, design), method, seed)
    if workers > 1:
        try:  # workers get the predictor: fail here, not in a worker
            pickle.dumps(rule)
        except (pickle.PicklingError, AttributeError, TypeError):
            raise PreconditionError("the predictor does not pickle, so it cannot be sent to "
                                    "worker processes; use one worker") from None
    kernel = partial(_mc_mse_states, rule, design, method.reps, seed or SeedSpec())
    mse, stderr = _map_chunks(kernel, grid.states, workers, first)
    return _report(grid, mse, method, seed, mc_stderr=stderr)


def predictor_mse(
    rule: Predictor,
    state: PredictionState,
    design: SurveyDesign,
    method: EvalMethod = EvalMethod(),
    seed: SeedSpec | None = None,
    state_index: int = 0,
) -> float:
    """MSE of a predictor as an estimate of the population mean.

    A one-state ``max_mse_scan``: exact mode enumerates the observed success
    count and requires Bernoulli observed outcomes and a fixed-N design, at any
    N; Monte Carlo handles the rest, drawing from substream ``state_index``.
    """
    grid = StateGrid("prediction", (state,))
    return _mse_report(rule, grid, design, method, seed, 1, state_index).record(0).regret


def max_mse_scan(
    rule: Predictor,
    grid: StateGrid,
    design: SurveyDesign,
    method: EvalMethod = EvalMethod(),
    seed: SeedSpec | None = None,
    workers: int = 1,
) -> RegretReport:
    """Maximize predictor MSE over a prediction grid (regret = MSE here)."""
    if grid.family != "prediction":
        raise PreconditionError("max_mse_scan needs a prediction grid")
    _check_workers(workers)
    return _mse_report(rule, grid, design, method, seed, workers, 0)


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
    if design.arms != 2 or design.per_arm_n > 3:
        raise PreconditionError("oracle limited to two arms and n <= 3 per arm")
    if grid.family != "binary_trial":
        raise PreconditionError("oracle needs a binary_trial grid")
    n = design.per_arm_n
    m = (n + 1) ** 2
    n_rules = 1 << m

    # outcome probabilities, states x outcomes
    pmf = binom_pmf_matrix(n, grid.points)
    probs = (pmf[grid.index_a][:, :, None] * pmf[grid.index_b][:, None, :]).reshape(-1, m)

    # rule r chooses arm b on outcome o iff bit o of r is set
    bits = ((np.arange(n_rules)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)

    prob_b = probs @ bits.T  # states x rules
    pa, pb = grid.p_a, grid.p_b
    gap = np.abs(pa - pb)
    err = np.where(pa[:, None] > pb[:, None], prob_b, 1.0 - prob_b)
    err[gap == 0] = 0.0
    max_reg = (err * gap[:, None]).max(axis=0)
    best = int(np.argmin(max_reg))
    table = bits[best].reshape(n + 1, n + 1)
    return table, float(max_reg[best])


# ---------------------------------------------------------------------------
# CSV serialization

_CSV_CHUNK_ROWS = 4096  # rows formatted per write; bounds the memory held by cells


def _cells(values: np.ndarray, optional: bool = False) -> list[str]:
    """Each value as fmt17 formats it; an optional column leaves NaN empty."""
    if optional:
        return ["" if v != v else format(v, FMT17) for v in values.tolist()]
    return [format(v, FMT17) for v in values.tolist()]


def _coordinate_columns(grid: StateGrid) -> tuple[list[str], list[tuple[list[str], np.ndarray]]]:
    """The report CSV's state coordinate names and, per coordinate, its distinct
    values formatted once with the index column that picks each state's value."""
    if grid.family == "binary_trial":
        points = _cells(grid.points)
        return ["p_a", "p_b"], [(points, grid.index_a), (points, grid.index_b)]
    if grid.family != "prediction":
        raise PreconditionError(f"cannot serialize a {grid.family} grid")
    rate = (_cells(grid.miss_rates), grid.index_rate)
    obs, miss = grid.obs_params, grid.miss_params
    if grid.outcome == "bernoulli":
        return (["theta_obs", "theta_miss", "miss_rate"],
                [(_cells(obs), grid.index_obs), (_cells(miss), grid.index_miss), rate])
    return (["alpha_obs", "beta_obs", "alpha_miss", "beta_miss", "miss_rate"],
            [(_cells(obs[:, 0]), grid.index_obs), (_cells(obs[:, 1]), grid.index_obs),
             (_cells(miss[:, 0]), grid.index_miss), (_cells(miss[:, 1]), grid.index_miss),
             rate])


def report_to_csv(report: RegretReport, path) -> None:
    """One row per state plus a summary footer row, written a chunk of rows at a time.

    Lines end in CRLF, as the csv module writes them. No field needs CSV
    quoting: each is a number, an empty value or a fixed word.
    """
    state_names, columns = _coordinate_columns(report.grid)
    summary = ["#summary", f"max_regret={fmt17(report.max_regret)}",
               "argmax=" + "|".join(values[index[report.argmax]] for values, index in columns),
               f"method={report.method.mode}",
               f"reps={report.method.reps if report.method.mode == 'monte_carlo' else 0}",
               f"seed={report.seed.master_seed if report.seed else ''}"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(state_names + ["error_prob", "expected_welfare", "regret",
                                         "mc_stderr"]) + "\r\n")
        for lo in range(0, len(report.grid), _CSV_CHUNK_ROWS):
            rows = slice(lo, lo + _CSV_CHUNK_ROWS)
            coords = [[values[i] for i in index[rows].tolist()] for values, index in columns]
            lines = map(",".join, zip(*coords,
                                      _cells(report.error_prob[rows], optional=True),
                                      _cells(report.expected_welfare[rows], optional=True),
                                      _cells(report.regret[rows]),
                                      _cells(report.mc_stderr[rows])))
            fh.write("\r\n".join(lines) + "\r\n")
        fh.write(",".join(summary) + "\r\n")
