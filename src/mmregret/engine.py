"""Evaluation engine: state-dependent error probability, regret, and MSE.

Evaluates a rule exactly where the sample space is enumerable (two-arm binary
trials, Bernoulli surveys with a fixed observed count) and by seeded Monte
Carlo otherwise. Each grid family has one evaluation path, a report builder
over a grid, which its scan calls; one state is evaluated as a scan of a grid
that holds only it. Also provides analytic maximum-regret bounds for the
empirical success rule and an exhaustive oracle over deterministic rules on
tiny trial designs.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .errors import PreconditionError
from .mathutil import (FMT17_WIDTH, _fmt17_cells, binom_pmf_matrix, binom_pmf_vector,
                       fmt17)
from .rules import Predictor, TrialRule
from .sampling import SeedSpec, SurveyDesign, TrialDesign, _check_integer
from .states import _MAX_GRID_STATES, StateGrid

__all__ = [
    "EvalMethod",
    "RegretBounds",
    "RegretReport",
    "StateRecord",
    "max_regret_scan",
    "regret_bounds",
    "max_mse_scan",
    "midpoint_max_regret_formula",
    "exhaustive_mmr_oracle",
    "choice_table",
    "report_to_csv",
]

_MAX_TRIAL_N = 10000
_MIN_MC_REPS = 1000
_MAX_MC_REPS = (1 << 63) - 1  # numpy's samplers take a count as a signed 64-bit integer
_ORACLE_CHUNK_RULES = 4096  # deterministic rules scored per chunk by the oracle


@dataclass(frozen=True)
class EvalMethod:
    """Exact enumeration or Monte Carlo with a replication count."""

    mode: str = "exact"  # "exact" | "monte_carlo"
    reps: int = 100_000

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise PreconditionError(f"unknown evaluation mode {self.mode!r}")
        if self.mode == "monte_carlo":
            _check_integer(self.reps, "MC replications", _MIN_MC_REPS, _MAX_MC_REPS)


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
    value: tied arms, and every state of an MSE scan. ``argmax`` is the index
    of the first state of largest regret; its coordinates are the grid's
    columns read at that index. ``per_state`` builds one StateRecord per state
    on first access, and caches them.
    """

    grid: StateGrid
    error_prob: np.ndarray
    expected_welfare: np.ndarray
    regret: np.ndarray
    mc_stderr: np.ndarray
    argmax: int
    method: EvalMethod
    seed: SeedSpec | None = None

    def __post_init__(self):
        columns = (self.error_prob, self.expected_welfare, self.regret, self.mc_stderr)
        if any(len(c) != len(self.grid) for c in columns):
            raise PreconditionError("result columns do not match the grid")
        if abs(self.max_regret - float(np.max(self.regret))) > 1e-12:
            raise PreconditionError("max_regret does not match per-state records")

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


def _run_child(fn, task, fd: int, inherited) -> None:
    """In a forked child: close the inherited pipe ends, pickle ``(True,
    fn(*task))``, or ``(False, exception)``, to the pipe fd, and leave without
    running the parent's exit handlers."""
    try:
        import pickle  # here and in _child_result: only a forked map needs it
        for other in inherited:
            os.close(other)
        try:
            payload = pickle.dumps((True, fn(*task)))
        except BaseException as exc:  # interrupts too: the parent re-raises it
            try:
                payload = pickle.dumps((False, exc))
            except Exception:  # an exception that does not pickle: its type and text
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _child_result(pid: int, fd: int):
    """The result a child sent on the pipe fd; its exception is raised here."""
    import pickle
    with os.fdopen(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    if not data:
        raise RuntimeError(f"worker process {pid} ended without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _ordered_map(fn, tasks) -> list:
    """``fn(*task)`` for each task, in order. With more than one task on Linux,
    every task after the first runs in a child forked for it, and the first in
    this process; elsewhere all run in this process.

    A child starts as a copy of this process, ``fn`` included, so nothing is
    sent to it, and it pickles its result or exception back through a pipe.
    Forking is sound here because no child calls BLAS, whose threads this
    process may hold: the functions mapped here, the MC kernels and _csv_rows,
    use numpy without matmul, random draws and file writes only. A child also
    inherits the heap as this process froze it (``cli.main`` freezes it as the
    process entry point), so its collections skip the frozen objects. Every
    child is reaped before this returns or raises.
    """
    if len(tasks) < 2 or sys.platform != "linux":
        return [fn(*task) for task in tasks]
    children = []  # (pid, the read end of its pipe)
    try:
        for task in tasks[1:]:
            fd_read, fd_write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the earlier children's pipes are not this child's
                _run_child(fn, task, fd_write, [fd_read] + [fd for _, fd in children])
            os.close(fd_write)
            children.append((pid, fd_read))
        first = fn(*tasks[0])
        return [first] + [_child_result(pid, fd) for pid, fd in children]
    except BaseException:
        import signal  # here: the module costs every CLI start ~2 ms
        for pid, _ in children:  # their results are lost: stop them rather than wait
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)


def _cpus() -> int:
    """The CPUs this process may run on, on Linux; 1 elsewhere, where
    _ordered_map runs every task in this process."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _map_chunks(fn, states: int, workers: int | None) -> np.ndarray:
    """``fn(its state indices)`` over K chunks of the states 0..states-1, K the
    least of the workers (every CPU when None), the CPUs and the states; the
    result columns in state order. State k goes to chunk k mod K, which spreads
    a run of costly neighbouring states over the chunks. One process per chunk:
    this one runs the first, a forked child each other."""
    cpus = _cpus()
    count = min(cpus if workers is None else workers, cpus, states)
    tasks = [(range(c, states, count),) for c in range(count)]
    columns = _ordered_map(fn, tasks)
    out = np.empty((len(columns[0]), states))
    for c, column in enumerate(columns):
        out[:, c::count] = column
    return out


def _check_workers(workers: int | None) -> None:
    if workers is not None:
        _check_integer(workers, "workers", 1)


# ---------------------------------------------------------------------------
# two-arm binary trials

def _check_trial_n(design: TrialDesign) -> None:
    """Reject a per-arm n whose (n+1) x (n+1) choice table, which both methods
    build, is too large."""
    if design.per_arm_n > _MAX_TRIAL_N:
        raise PreconditionError(
            f"per-arm n={design.per_arm_n} above {_MAX_TRIAL_N}: the choice table is too large")


def _binomial_counts(rng, count: int, m: int, theta: float, pmf) -> np.ndarray:
    """Counts of k = 0..m among count iid Binomial(m, theta) draws: one multinomial
    draw over ``pmf(m, theta)`` when count exceeds the support, count binomial
    draws otherwise."""
    if count > m:
        return rng.multinomial(count, pmf(m, theta))
    return np.bincount(rng.binomial(m, theta, size=count), minlength=m + 1)


def _moments(values, counts, n: int) -> tuple:
    """Count, mean and sum of squared deviations of n draws given as values and counts."""
    mean = np.sum(counts * values) / n
    return n, mean, np.sum(counts * (values - mean) ** 2)


def _merge(a, b) -> tuple:
    """The moments of a's and b's draws together (Chan et al., 1979); a may be None."""
    if a is None:
        return b
    n, delta = a[0] + b[0], b[1] - a[1]
    return n, a[1] + delta * (b[0] / n), a[2] + b[2] + delta * delta * (a[0] * b[0] / n)


def _estimate(moments) -> tuple[float, float]:
    """Mean and standard error (ddof=1) of the draws of the moments."""
    n, mean, m2 = moments
    return float(mean), float(np.sqrt(m2 / (n - 1) / n))


def _mc_choose_b(half, pmf_b, reps: int, seed: SeedSpec, grid: StateGrid, index) -> np.ndarray:
    """MC probability of choosing b and its standard error, one column per state
    index of the binary-trial grid. State k, (i, j) = divmod(k, B) on the grid's
    axes, draws arm b's count reps times from substream k and scores count c by
    ``half[i, c]``, arm a summed out; a tied state (p_a == p_b) is not drawn and
    gets zeros."""
    out = np.zeros((2, len(index)))
    p_a, p_b = grid.points_a.tolist(), grid.points_b.tolist()
    for c, k in enumerate(index):
        i, j = divmod(k, len(p_b))
        if p_a[i] != p_b[j]:
            h = seed.rng(k, 0).multinomial(reps, pmf_b[j])
            rows = np.flatnonzero(h)
            out[:, c] = _estimate(_moments(half[i, rows], h[rows], reps))
    return out


def choice_table(rule: TrialRule, n: int) -> np.ndarray:
    """Probability mass the trial rule puts on arm b, per outcome (i, j): its
    table at n, of shape (n+1, n+1) indexed by (successes_a, successes_b)."""
    if not isinstance(rule, TrialRule):
        raise PreconditionError(f"{type(rule).__name__} is not a trial-choice rule")
    return rule.table(n)


def _trial_report(rule, grid, design, method, seed, workers: int | None) -> RegretReport:
    """Regret of a trial-choice rule in every state of a binary-trial grid, worked out
    on the A x B product of its axes, whose views are the report's columns. One PMF
    per axis probability serves every state; MC state k draws from substream k."""
    _check_trial_n(design)
    n = design.per_arm_n
    pmf_a, table = binom_pmf_matrix(n, grid.points_a), choice_table(rule, n)
    pmf_b = pmf_a if grid.points_b is grid.points_a else binom_pmf_matrix(n, grid.points_b)
    if method.mode == "exact":
        # prob of choosing b in state (points_a[i], points_b[j]), at [i, j]
        prob_b = pmf_a @ table @ pmf_b.T
        se_b = None  # zero stderr, and zero times any gap
    else:
        # the mass on b at (p_a, j), built once, before any worker forks, by einsum:
        # a fixed summation order, not BLAS, so the scores do not follow the thread count
        half = np.einsum("pi,ij->pj", pmf_a, table)
        kernel = partial(_mc_choose_b, half, pmf_b, method.reps, seed or SeedSpec(), grid)
        prob_b, se_b = _map_chunks(kernel, len(grid), workers).reshape(2, len(pmf_a), len(pmf_b))
    # the contraction's round-off, or a sum of PMF mass, can leave [0, 1] by ~1e-15
    np.clip(prob_b, 0.0, 1.0, out=prob_b)
    # each A x B array is computed in the buffer of one it replaces, so that at
    # most three coexist: prob_b becomes err, the gap reg
    pa, pb = grid.points_a[:, None], grid.points_b
    # the error is choosing b where a is better, and a elsewhere
    err = np.subtract(1.0, prob_b, out=prob_b, where=pa <= pb)
    gap = pa - pb
    np.abs(gap, out=gap)
    welfare = np.maximum(pa, pb)
    if se_b is not None:
        se_b *= gap
    reg = np.multiply(err, gap, out=gap)
    tie = pa == pb
    err[tie] = np.nan
    reg[tie] = 0.0
    welfare -= reg
    se = np.zeros(len(grid)) if se_b is None else se_b.ravel()
    return RegretReport(grid, err.ravel(), welfare.ravel(), reg.ravel(), se,
                        int(np.argmax(reg)), method, seed)


# ---------------------------------------------------------------------------
# grid scans

def max_regret_scan(
    rule: TrialRule,
    grid: StateGrid,
    design: TrialDesign,
    method: EvalMethod = EvalMethod(),
    seed: SeedSpec | None = None,
    workers: int | None = None,
) -> RegretReport:
    """Per-state regret of a trial-choice rule over a binary-trial grid. A Monte
    Carlo scan runs on at most ``workers`` processes and CPUs, on every CPU the
    process may use when ``workers`` is None; the result does not depend on it."""
    if grid.family != "binary_trial":
        raise PreconditionError("max_regret_scan needs a binary_trial grid")
    _check_workers(workers)
    return _trial_report(rule, grid, design, method, seed, workers)


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


_CONTRACTION_CELLS = 1 << 18  # squared errors held per chunk of states


def _exact_bernoulli_mse(rule, grid: StateGrid, design) -> np.ndarray:
    """Per-state MSE of a fixed-N Bernoulli survey, enumerating the success count:
    one PMF per distinct theta_obs, one prediction vector per distinct miss rate
    (the observed fraction p1 is 1 minus it), and one PMF-weighted sum of squared
    errors per state."""
    if design.mode != "fixed_n" or grid.outcome != "bernoulli":
        raise PreconditionError(
            "exact MSE needs a fixed-N design with Bernoulli observed outcomes")
    n, k = design.n, np.arange(design.n + 1)
    preds = np.array([_bernoulli_predictions(rule, k, n, p1, grid.support)
                      for p1 in (1.0 - grid.miss_rates).tolist()])
    pmf, pop = binom_pmf_matrix(n, grid.obs_params), grid.population_mean
    mse = np.empty(len(grid))
    per = max(1, _CONTRACTION_CELLS // (n + 1))
    for lo in range(0, len(grid), per):
        rows = slice(lo, lo + per)
        err2 = (preds[grid.index_rate[rows]] - pop[rows, None]) ** 2
        # a stack of (1 x n+1) @ (n+1 x 1) products: the same bits as one pmf @ err2 each
        mse[rows] = np.matmul(pmf[grid.index_obs[rows], None, :], err2[:, :, None])[:, 0, 0]
    return mse


def _beta_statistic(rng, shape, count: int, m: int, median: bool):
    """Yield the median or mean of each of count samples of m Beta(alpha, beta)
    draws, shape the pair (alpha, beta), a block of 2^18 draws at a time.

    The median sorts each fresh block in place and averages its middle column or
    columns as np.median does, so the bits are np.median's; np.median would copy
    and partition the block, and its first call imports numpy.ma.
    """
    per = max(1, (1 << 18) // m)
    for lo in range(0, count, per):
        b = rng.beta(*shape, size=(min(per, count - lo), m))
        if median:
            b.sort(axis=1)
            yield b[:, m // 2] if m % 2 else (b[:, m // 2 - 1] + b[:, m // 2]) / 2
        else:
            yield b.mean(axis=1)


def _mc_mse(rule, grid: StateGrid, row: int, mu: float, design: SurveyDesign, reps: int,
            rng, pmf) -> tuple[float, float]:
    """MC MSE of a predictor in state ``row`` of a prediction grid, whose population mean
    is mu, and its standard error. Per occupied n_obs, a histogram of the successes
    for Bernoulli outcomes and blocks of Beta samples otherwise. No observation
    predicts the support midpoint. ``pmf(n, p)`` is the Binomial(n, p) PMF. Each
    block of Beta samples, then the histogram, is reduced to _moments of its squared
    errors, merged in that order, so memory does not grow with reps."""
    y0, y1 = support = grid.support
    mid = 0.5 * (y0 + y1)
    param = grid.obs_params[grid.index_obs[row]].tolist()  # a theta, or (alpha, beta)
    miss_rate = grid.miss_rates[grid.index_rate[row]].tolist()
    if design.mode == "fixed_n":
        n_obs, pmf_n = np.array([design.n]), np.ones(1)
        p1 = np.array([1.0 - miss_rate])
    else:
        n_obs = np.arange(design.n + 1)
        pmf_n = pmf(design.n, 1.0 - miss_rate)
        p1 = n_obs / design.n
    median = rule.statistic == "median"
    h = rng.multinomial(reps, pmf_n)
    preds, counts, moments = [], [], None
    for i in np.flatnonzero(h):
        m = n_obs[i]
        if m == 0:  # the midpoint predictor lands there anyway
            pred, count = mid, h[i:i + 1]
        elif grid.outcome == "bernoulli":
            c = _binomial_counts(rng, h[i], m, param, pmf)
            k = np.flatnonzero(c)  # only successes that occur reach the predictor
            pred, count = _bernoulli_predictions(rule, k, m, p1[i], support), c[k]
        else:
            for stat in _beta_statistic(rng, param, h[i], m, median):
                pred = rule.predict(y0 + (y1 - y0) * stat, m, p1[i], support)
                err2 = np.broadcast_to((pred - mu) ** 2, stat.shape)
                moments = _merge(moments, _moments(err2, 1, len(stat)))
            continue
        preds.append(np.broadcast_to(pred, count.shape))
        counts.append(count)
    if preds:
        counts = np.concatenate(counts)
        moments = _merge(moments, _moments((np.concatenate(preds) - mu) ** 2, counts, counts.sum()))
    return _estimate(moments)


def _mc_mse_states(rule, design, reps: int, seed: SeedSpec, grid: StateGrid,
                   index) -> np.ndarray:
    """MC MSE and its standard error, one column per state index of the prediction
    grid; state k draws from substream k. Each distinct binomial PMF is computed
    once per chunk."""
    pmf, mu = cache(binom_pmf_vector), grid.population_mean
    return np.array([_mc_mse(rule, grid, k, mu[k], design, reps, seed.rng(k, 0), pmf)
                     for k in index]).T


def _mse_report(rule, grid, design, method, seed, workers: int | None) -> RegretReport:
    """MSE of a predictor in every state of a prediction grid (regret = MSE here);
    MC state k draws from substream k."""
    if not isinstance(rule, Predictor):
        raise PreconditionError(f"{type(rule).__name__} is not a predictor")
    if method.mode == "exact":
        mse, stderr = _exact_bernoulli_mse(rule, grid, design), np.zeros(len(grid))
    else:
        kernel = partial(_mc_mse_states, rule, design, method.reps, seed or SeedSpec(), grid)
        mse, stderr = _map_chunks(kernel, len(grid), workers)
    no_value = np.full(len(grid), np.nan)  # an MSE scan has no error prob or welfare
    return RegretReport(grid, no_value, no_value, mse, stderr, int(np.argmax(mse)), method, seed)


def max_mse_scan(
    rule: Predictor,
    grid: StateGrid,
    design: SurveyDesign,
    method: EvalMethod = EvalMethod(),
    seed: SeedSpec | None = None,
    workers: int | None = None,
) -> RegretReport:
    """Maximize predictor MSE over a prediction grid (regret = MSE here). A Monte
    Carlo scan runs on at most ``workers`` processes and CPUs, on every CPU the
    process may use when ``workers`` is None; the result does not depend on it."""
    if grid.family != "prediction":
        raise PreconditionError("max_mse_scan needs a prediction grid")
    _check_workers(workers)
    # the scan's arrays of n+1 entries, one per distinct observed parameter and one
    # per distinct miss rate (PMFs, predictions), hold at most 32 MB of floats
    entries = (design.n + 1) * (len(grid.obs_params) + len(grid.miss_rates))
    if entries > _MAX_GRID_STATES:
        raise PreconditionError(f"survey n={design.n} gives {entries:.4g} PMF and prediction "
                                f"entries, above the {_MAX_GRID_STATES} a scan may hold")
    return _mse_report(rule, grid, design, method, seed, workers)


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
    forked child for every part after the first, so, as _ordered_map requires,
    it calls no BLAS: only elementwise numpy and file writes.
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


def report_to_csv(report: RegretReport, path) -> None:
    """One row per state plus a summary footer row, written a block of rows at a time.

    Each number is ``format(v, ".17g")``, byte for byte: mathutil._fmt17_cells
    formats a block's result columns with numpy operations, and falls back to
    ``format`` for the rare values whose rounding it cannot certify. Each
    coordinate's values are formatted once, not once per row. Lines end in
    CRLF, as the csv module writes them. No field needs CSV quoting: each is a
    number, an empty value or a fixed word.

    A report of many rows on a machine of several CPUs is written in
    _csv_parts contiguous parts of rows. This process writes the first into
    the file; a child forked for each other part writes it into an anonymous
    file in the same directory, which this process appends, in order, once
    every child is reaped. A row's text does not depend on the part it is in,
    so the bytes are the same on any number of CPUs.
    """
    state_names, coordinates = _coordinate_columns(report.grid)
    texts = [(_fmt17_cells(values), position) for values, position in coordinates]
    results = [(report.error_prob, True), (report.expected_welfare, True),
               (report.regret, False), (report.mc_stderr, False)]
    header = state_names + ["error_prob", "expected_welfare", "regret", "mc_stderr"]
    summary = ["#summary", f"max_regret={fmt17(report.max_regret)}",
               "argmax=" + "|".join(fmt17(values[position(report.argmax)])
                                    for values, position in coordinates),
               f"method={report.method.mode}",
               f"reps={report.method.reps if report.method.mode == 'monte_carlo' else 0}",
               f"seed={report.seed.master_seed if report.seed else ''}"]
    n = len(report.grid)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        # a file that is not a regular one (a pipe, a device) gets no spill files
        parts = _csv_parts(n) if os.path.isfile(path) else 1
        if parts == 1:
            _csv_rows(texts, results, fh, 0, n)
        else:
            # here, as signal in _ordered_map: tempfile and shutil would cost every
            # CLI start ~5 ms, and only a split report needs them
            import shutil
            import tempfile
            from contextlib import ExitStack
            fh.flush()  # no byte of this file stays in the buffer the children copy
            with ExitStack() as spills:
                folder = os.path.dirname(os.path.abspath(path))
                files = [fh] + [spills.enter_context(tempfile.TemporaryFile(dir=folder))
                                for _ in range(parts - 1)]
                bounds = [n * k // parts for k in range(parts + 1)]
                _ordered_map(_csv_rows, [(texts, results, f, lo, hi) for f, lo, hi
                                         in zip(files, bounds, bounds[1:])])
                for spill in files[1:]:
                    spill.seek(0)
                    shutil.copyfileobj(spill, fh, 1 << 20)
        fh.write((",".join(summary) + "\r\n").encode())
