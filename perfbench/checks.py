"""Output checks for the benchmark's CLI invocations, and their self-test.

Every check returns a list of problems; an empty list means the output is
correct. The checks use only the standard library and recompute what they
can from first principles (``math.comb`` sums), so a defect in the package's
own PMF or table code cannot hide behind itself.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

# one-sided 5% critical value as the package documents it
Z_CRIT_05 = 1.6449


@dataclass(frozen=True)
class Report:
    """What the checks need from one report CSV."""

    digest: str
    size: int
    rows: int
    column_max: float
    argmax_row: dict[str, str]
    summary: dict[str, str]

    @property
    def summary_max(self) -> float:
        return float(self.summary["max_regret"])

    @property
    def argmax_regret(self) -> float:
        return float(self.argmax_row["regret"])

    @property
    def argmax_stderr(self) -> float:
        return float(self.argmax_row["mc_stderr"])


def read_report(path: Path) -> Report:
    """Parse a report CSV: state rows, then one '#summary' footer row."""
    data = path.read_bytes()
    lines = data.decode().splitlines()
    reader = csv.reader(lines)
    header = next(reader)
    k = header.index("regret")
    rows, best, best_row, summary = 0, -math.inf, None, {}
    for rec in reader:
        if rec and rec[0] == "#summary":
            summary = dict(item.split("=", 1) for item in rec[1:])
            continue
        rows += 1
        value = float(rec[k])
        if value > best:
            best, best_row = value, rec
    return Report(hashlib.sha256(data).hexdigest(), len(data), rows, best,
                  dict(zip(header, best_row or [])), summary)


def parse_stdout(text: str) -> dict[str, str]:
    """The CLI's 'key=value' stdout lines as a dict."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


# ---------------------------------------------------------------------------
# independent reference computations

def _pmf(n: int, p: float) -> list[float]:
    return [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]


def es_choose_b(i: int, j: int, n: int) -> float:
    """Empirical success: the arm with more successes; a tie splits evenly."""
    return 1.0 if j > i else 0.5 if j == i else 0.0


def ztest_choose_b(i: int, j: int, n: int) -> float:
    """One-sided pooled z-test at level 0.05 with arm a as the status quo."""
    pooled = (i + j) / (2.0 * n)
    if pooled <= 0.0 or pooled >= 1.0:
        return 0.0
    z = (j - i) / n / math.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
    return 1.0 if z > Z_CRIT_05 else 0.0


def trial_regret(choose_b, n: int, p_a: float, p_b: float) -> float:
    """Regret of a two-arm rule at one state, by a direct double sum."""
    if p_a == p_b:
        return 0.0
    pa, pb = _pmf(n, p_a), _pmf(n, p_b)
    prob_b = math.fsum(pa[i] * pb[j] * choose_b(i, j, n)
                       for i in range(n + 1) for j in range(n + 1))
    err = prob_b if p_a > p_b else 1.0 - prob_b
    return err * abs(p_a - p_b)


def midpoint_beta_mse(a_obs, b_obs, a_miss, b_miss, miss_rate, n) -> float:
    """MSE of the midpoint predictor for Beta outcomes on [0, 1], N known:
    p1^2 Var(Y)/N + (1-p1)^2 (1/2 - E_miss)^2."""
    p1 = 1.0 - miss_rate
    var = a_obs * b_obs / ((a_obs + b_obs) ** 2 * (a_obs + b_obs + 1.0))
    e_miss = a_miss / (a_miss + b_miss)
    return p1 ** 2 * var / n + (1.0 - p1) ** 2 * (0.5 - e_miss) ** 2


# ---------------------------------------------------------------------------
# checks

def check_report(rep: Report, states: int) -> list[str]:
    """Row count matches the grid, and the summary max is the column max."""
    problems = []
    if rep.rows != states:
        problems.append(f"{rep.rows} rows, expected {states}")
    if "max_regret" not in rep.summary:
        problems.append("no #summary max_regret")
    elif rep.summary_max != rep.column_max:
        problems.append(f"summary max {rep.summary_max!r} != column max {rep.column_max!r}")
    return problems


def check_exact_trial(rep: Report, choose_b, n: int) -> list[str]:
    """The argmax regret agrees with a direct recomputation within 1e-12."""
    p_a, p_b = float(rep.argmax_row["p_a"]), float(rep.argmax_row["p_b"])
    ref = trial_regret(choose_b, n, p_a, p_b)
    if abs(rep.argmax_regret - ref) > 1e-12:
        return [f"argmax regret {rep.argmax_regret!r} != recomputed {ref!r}"]
    return []


def check_within_stderr(value: float, stderr: float, ref: float, what: str) -> list[str]:
    if abs(value - ref) > 4.0 * stderr + 1e-12:
        return [f"{what} {value!r} is more than 4 stderr ({stderr!r}) from {ref!r}"]
    return []


def check_mc_trial(rep_w1: Report, rep_w2: Report, n: int) -> list[str]:
    """Worker counts give byte-identical CSVs; the MC max is near the exact regret."""
    problems = []
    if rep_w1.digest != rep_w2.digest:
        problems.append("CSVs from 1 and 2 workers differ")
    p_a, p_b = float(rep_w2.argmax_row["p_a"]), float(rep_w2.argmax_row["p_b"])
    ref = trial_regret(es_choose_b, n, p_a, p_b)
    problems += check_within_stderr(rep_w2.argmax_regret, rep_w2.argmax_stderr, ref,
                                    "MC max regret")
    return problems


def check_midpoint_exact(rep: Report, n: int, miss_rates: list[float], formula) -> list[str]:
    """The exact midpoint max MSE equals the closed form maximized over miss rates."""
    ref = max(formula(1.0 - m, n) for m in miss_rates)
    if abs(rep.summary_max - ref) > 1e-9:
        return [f"exact midpoint max MSE {rep.summary_max!r} != formula {ref!r}"]
    return []


def check_midpoint_beta(rep: Report, n: int) -> list[str]:
    """The Beta midpoint MC max is near the closed-form MSE of its state."""
    r = rep.argmax_row
    ref = midpoint_beta_mse(float(r["alpha_obs"]), float(r["beta_obs"]),
                            float(r["alpha_miss"]), float(r["beta_miss"]),
                            float(r["miss_rate"]), n)
    return check_within_stderr(rep.argmax_regret, rep.argmax_stderr, ref,
                               "Beta midpoint MC max MSE")


# ---------------------------------------------------------------------------
# corruptions for the self-test: each returns a damaged copy of an output

def bump_summary(rep: Report) -> Report:
    """The '#summary' max moved by 1e-6."""
    return replace(rep, summary=dict(rep.summary, max_regret=repr(rep.summary_max + 1e-6)))


def drop_row(rep: Report) -> Report:
    """One state row missing."""
    return replace(rep, rows=rep.rows - 1)


def bump_argmax(rep: Report, stderrs: float = 0.0) -> Report:
    """The argmax regret moved by 1e-9 plus the given number of its stderrs."""
    row = dict(rep.argmax_row)
    row["regret"] = repr(rep.argmax_regret + 1e-9 + stderrs * rep.argmax_stderr)
    return replace(rep, argmax_row=row)


def other_bytes(rep: Report) -> Report:
    """A CSV whose bytes differ."""
    return replace(rep, digest="0" * 64)
