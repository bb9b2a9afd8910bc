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

import os
import pickle
import sys
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .errors import PreconditionError
from .mathutil import (FMT17_WIDTH, _fmt17_cells, binom_pmf_matrix, binom_pmf_vector,
                       fmt17)
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
_ORACLE_CHUNK_RULES = 4096  # deterministic rules scored per chunk by the oracle


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

    @cached_property
    def per_state(self) -> tuple[StateRecord, ...]:
        return tuple(map(self._record, range(len(self.grid)), self.grid.states))

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


def _run_child(fn, task, fd: int, inherited) -> None:
    """In a forked child: close the inherited pipe ends, pickle ``(True,
    fn(*task))``, or ``(False, exception)``, to the pipe fd, and leave without
    running the parent's exit handlers."""
    try:
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


def _map_chunks(fn, items, workers: int, first: int) -> np.ndarray:
    """``fn(chunk, index of its first item)`` over contiguous chunks of items, at
    most one chunk per worker process; the chunks' result columns, concatenated.
    One process per chunk: this one runs the first, a forked child each other."""
    size = -(-len(items) // workers)
    tasks = [(items[lo:lo + size], first + lo) for lo in range(0, len(items), size)]
    return np.concatenate(_ordered_map(fn, tasks), axis=-1)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise PreconditionError(f"workers={workers} must be at least 1")


# ---------------------------------------------------------------------------
# two-arm binary trials

def _check_exact_trial(design: TrialDesign) -> None:
    if design.per_arm_n > _MAX_EXACT_TRIAL_N:
        raise PreconditionError("per-arm n too large for exact enumeration")


# The MC kernel draws a state's reps iid samples as a histogram of their
# sufficient statistic (counts over its finite support, which have the iid
# sample's law) and scores each support point once. For a trial that statistic
# is arm a's count i and the value of the table at (i, j): the draws of arm b
# are counted by the value they give, not by j.

_CLASS_BLOCK_CELLS = 1 << 16  # table cells per block of rows when classes are built
_MAX_VALUE_CLASSES = 32  # more distinct values in a row: each outcome is its own class


def _value_classes(table: np.ndarray, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, classes) of a choice table under the rows of pmf, the PMFs of arm b.

    ``values[i, c]`` is the c-th smallest distinct value of table row i, padded
    with the row's largest; ``classes[p, i, c]`` is the mass pmf[p] puts on the
    outcomes j with ``table[i, j] == values[i, c]``, zero on a pad. Both are
    built a block of rows at a time, so beyond them no array of the table's size
    is made. A table with a row of more than _MAX_VALUE_CLASSES distinct values
    gets one class per outcome instead: values is the table and classes a view
    of pmf.
    """
    size = table.shape[0]
    per = max(1, _CLASS_BLOCK_CELLS // size)
    blocks = []  # per block of rows: their distinct values, padded, and how many
    for lo in range(0, size, per):
        s = np.sort(table[lo:lo + per], axis=1)
        new = np.ones(s.shape, bool)
        np.not_equal(s[:, 1:], s[:, :-1], out=new[:, 1:])
        count = new.sum(axis=1)
        if count.max() > _MAX_VALUE_CLASSES:
            return table, np.broadcast_to(pmf[:, None, :], (len(pmf), size, size))
        distinct = s[new]  # row after row
        rank = np.arange(len(distinct)) - np.repeat(np.cumsum(count) - count, count)
        values = np.repeat(s[:, -1:], count.max(), axis=1)
        values[np.repeat(np.arange(len(s)), count), rank] = distinct
        blocks.append((values, count))
    values = np.empty((size, max(v.shape[1] for v, _ in blocks)))
    classes = np.zeros((len(pmf), *values.shape))
    for lo, (v, count) in zip(range(0, size, per), blocks):
        rows = slice(lo, lo + len(v))
        values[rows] = v[:, -1:]
        values[rows, :v.shape[1]] = v
        for c in range(v.shape[1]):
            # einsum, not matmul: BLAS would add its buffers to a small scan's peak
            # RSS, and einsum casts the boolean operand in buffers, not as a whole
            mass = np.einsum("pj,ij->pi", pmf, table[rows] == v[:, c:c + 1])
            mass[:, count <= c] = 0.0  # a pad, which repeats the row's largest value
            # a class holding all of a row's mass can sum to 1 + 2^-52, and the
            # sampler rejects a probability above 1
            np.minimum(mass, 1.0, out=classes[:, rows, c])
    return values, classes


def _draw_histogram(rng, reps: int, pmf_a: np.ndarray, classes: np.ndarray):
    """Counts of reps iid draws of (i, c), i ~ pmf_a and then c ~ classes[i]: the
    occupied values ``rows`` of i, and one row of counts of c per occupied i."""
    h = rng.multinomial(reps, pmf_a)
    rows = np.flatnonzero(h)
    return rows, rng.multinomial(h[rows], classes[rows])


def _binomial_counts(rng, count: int, m: int, theta: float, pmf) -> np.ndarray:
    """Counts of k = 0..m among count iid Binomial(m, theta) draws: one multinomial
    draw over ``pmf(m, theta)`` when count exceeds the support, count binomial
    draws otherwise."""
    if count > m:
        return rng.multinomial(count, pmf(m, theta))
    return np.bincount(rng.binomial(m, theta, size=count), minlength=m + 1)


def _mean_stderr(values, counts, reps: int) -> tuple[float, float]:
    """Mean and standard error (ddof=1) of reps draws given as values and their counts."""
    est = float(np.sum(counts * values) / reps)
    var = np.sum(counts * (values - est) ** 2) / (reps - 1)
    return est, float(np.sqrt(var / reps))


def _mc_choose_b(values, classes, pmf, reps: int, seed: SeedSpec, pairs,
                 first: int) -> np.ndarray:
    """MC probability of choosing b and its standard error, one column per (row of
    arm a, row of arm b) pair of pmf rows, from _value_classes' values and
    classes. Pair k draws from substream first + k; a tied pair (the same row
    twice) is not drawn and gets zeros."""
    out = np.zeros((2, len(pairs)))
    for k, (i, j) in enumerate(pairs.tolist()):
        if i != j:
            rows, counts = _draw_histogram(seed.rng(first + k, 0), reps, pmf[i], classes[j])
            out[:, k] = _mean_stderr(values[rows], counts, reps)
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
        # prob of choosing b for every (p_a, p_b) pair of grid probabilities; the
        # contraction's round-off can leave [0, 1] by ~1e-15, so it is clipped back
        prob_b = np.clip((pmf @ table @ pmf.T)[grid.index_a, grid.index_b], 0.0, 1.0)
        se_b = np.zeros(len(grid))
    else:
        # built once, before any worker forks
        values, classes = _value_classes(table, pmf)
        kernel = partial(_mc_choose_b, values, classes, pmf, method.reps, seed or SeedSpec())
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


def _beta_statistic(rng, dist, count: int, m: int, median: bool) -> np.ndarray:
    """Median or mean of each of count samples of m Beta draws, 2^18 draws at a time."""
    per, out = max(1, (1 << 18) // m), []
    for lo in range(0, count, per):
        b = rng.beta(dist.alpha, dist.beta, size=(min(per, count - lo), m))
        out.append(np.median(b, axis=1) if median else b.mean(axis=1))
    return np.concatenate(out)


def _mc_mse(rule, state: PredictionState, design: SurveyDesign, reps: int,
            rng, pmf) -> tuple[float, float]:
    """MC MSE of a predictor in one state and its standard error. Per occupied n_obs,
    a histogram of the successes for Bernoulli outcomes and blocks of Beta samples
    otherwise. No observation predicts the support midpoint. ``pmf(n, p)`` is the
    Binomial(n, p) PMF."""
    y0, y1 = state.support
    dist, mid = state.dist_observed, 0.5 * (y0 + y1)
    if design.mode == "fixed_n":
        n_obs, pmf_n = np.array([design.n]), np.ones(1)
        p1 = np.array([1.0 - state.miss_rate])
    else:
        n_obs = np.arange(design.n + 1)
        pmf_n = pmf(design.n, 1.0 - state.miss_rate)
        p1 = n_obs / design.n
    median = rule.statistic == "median"
    h = rng.multinomial(reps, pmf_n)
    preds, counts = [], []
    for i in np.flatnonzero(h):
        m = n_obs[i]
        if m == 0:  # the midpoint predictor lands there anyway
            pred, count = mid, h[i:i + 1]
        elif dist.family == "bernoulli":
            c = _binomial_counts(rng, h[i], m, dist.theta, pmf)
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
    substream first + k. Each distinct binomial PMF is computed once per chunk."""
    pmf = cache(binom_pmf_vector)
    return np.array([_mc_mse(rule, s, design, reps, seed.rng(first + k, 0), pmf)
                     for k, s in enumerate(states)]).T


def _mse_report(rule, grid, design, method, seed, workers: int, first: int) -> RegretReport:
    """MSE of a predictor in every state of a prediction grid (regret = MSE here);
    MC state k draws from substream first + k."""
    if not isinstance(rule, Predictor):
        raise PreconditionError(f"{type(rule).__name__} is not a predictor")
    if method.mode == "exact":
        return _report(grid, _exact_bernoulli_mse(rule, grid, design), method, seed)
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
    if design.per_arm_n > 3:
        raise PreconditionError("oracle limited to two arms and n <= 3 per arm")
    if grid.family != "binary_trial":
        raise PreconditionError("oracle needs a binary_trial grid")
    n = design.per_arm_n
    m = (n + 1) ** 2

    # outcome probabilities, states x outcomes
    pmf = binom_pmf_matrix(n, grid.points)
    probs = (pmf[grid.index_a][:, :, None] * pmf[grid.index_b][:, None, :]).reshape(-1, m)
    pa, pb = grid.p_a, grid.p_b
    gap = np.abs(pa - pb)

    # rules are scored a chunk at a time, so no states x rules array holds them all
    max_reg = np.empty(1 << m)
    for lo in range(0, len(max_reg), _ORACLE_CHUNK_RULES):
        hi = min(lo + _ORACLE_CHUNK_RULES, len(max_reg))
        # rule r chooses arm b on outcome o iff bit o of r is set
        bits = ((np.arange(lo, hi)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
        prob_b = probs @ bits.T  # states x rules
        err = np.where(pa[:, None] > pb[:, None], prob_b, 1.0 - prob_b)
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


def _coordinate_columns(grid: StateGrid) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray]]]:
    """The report CSV's state coordinate names and, per coordinate, its distinct
    values with the index column that picks each state's value."""
    if grid.family == "binary_trial":
        return ["p_a", "p_b"], [(grid.points, grid.index_a), (grid.points, grid.index_b)]
    rate = (grid.miss_rates, grid.index_rate)
    obs, miss = grid.obs_params, grid.miss_params
    if grid.outcome == "bernoulli":
        return (["theta_obs", "theta_miss", "miss_rate"],
                [(obs, grid.index_obs), (miss, grid.index_miss), rate])
    return (["alpha_obs", "beta_obs", "alpha_miss", "beta_miss", "miss_rate"],
            [(obs[:, 0], grid.index_obs), (obs[:, 1], grid.index_obs),
             (miss[:, 0], grid.index_miss), (miss[:, 1], grid.index_miss), rate])


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

    ``texts`` holds, per state coordinate, the templates of its distinct values
    and the index column that picks each state's; ``results`` holds, per result
    column, its values and whether NaN there is an empty field. It runs in a
    forked child for every part after the first, so, as _ordered_map requires,
    it calls no BLAS: only elementwise numpy and file writes.
    """
    fields = np.empty((min(hi - lo, _CSV_BLOCK_ROWS), len(texts) + len(results),
                       FMT17_WIDTH // 8), "<u8")
    for start in range(lo, hi, _CSV_BLOCK_ROWS):
        block = fields[:min(_CSV_BLOCK_ROWS, hi - start)]
        rows = slice(start, start + len(block))
        for c, (chars, index) in enumerate(texts):
            block[:, c] = chars[index[rows]]
        for c, (values, optional) in enumerate(results, len(texts)):
            _fmt17_cells(values[rows], block[:, c])
            if optional:  # NaN marks no value: an empty field
                block[np.isnan(values[rows]), c] = 0
        fh.write(_format_block(block))
    fh.flush()


def _csv_parts(rows: int) -> int:
    """The number of contiguous parts a CSV of this many rows is written in: one
    per CPU this process may run on, each of at least _CSV_PART_ROWS rows, and
    one off Linux."""
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _CSV_PART_ROWS))


def report_to_csv(report: RegretReport, path) -> None:
    """One row per state plus a summary footer row, written a block of rows at a time.

    Each number is ``format(v, ".17g")``, byte for byte: mathutil._fmt17_cells
    formats a block's result columns with numpy operations, and falls back to
    ``format`` for the rare values whose rounding it cannot certify. Distinct
    state coordinates are formatted once. Lines end in CRLF, as the csv module
    writes them. No field needs CSV quoting: each is a number, an empty value
    or a fixed word.

    A report of many rows on a machine of several CPUs is written in
    _csv_parts contiguous parts of rows. This process writes the first into
    the file; a child forked for each other part writes it into an anonymous
    file in the same directory, which this process appends, in order, once
    every child is reaped. A row's text does not depend on the part it is in,
    so the bytes are the same on any number of CPUs.
    """
    state_names, coordinates = _coordinate_columns(report.grid)
    texts = [(_fmt17_cells(values), index) for values, index in coordinates]
    results = [(report.error_prob, True), (report.expected_welfare, True),
               (report.regret, False), (report.mc_stderr, False)]
    header = state_names + ["error_prob", "expected_welfare", "regret", "mc_stderr"]
    summary = ["#summary", f"max_regret={fmt17(report.max_regret)}",
               "argmax=" + "|".join(fmt17(values[index[report.argmax]])
                                    for values, index in coordinates),
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
