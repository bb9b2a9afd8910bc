"""The benchmark's workloads: which CLI invocations make one pass, and how
their outputs are checked.

Every workload runs real ``mmregret`` subcommands. Sizes are fixed; the
workload seed goes to every invocation's ``--seed`` and changes only the
Monte Carlo draws, so every seed does the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from checks import (Report, bump_argmax, bump_summary, check_exact_trial, check_mc_trial,
                    check_midpoint_beta, check_midpoint_exact, check_report,
                    drop_row, es_choose_b, other_bytes, parse_stdout, read_report,
                    ztest_choose_b)

NAMES = ("trial_exact", "trial_mc", "survey_mse")


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]        # arguments after the program name
    states: int                  # grid states evaluated (computed from the grid)
    draws: int = 0               # states x reps simulated (computed from the grid)
    csv: Path | None = None      # the report CSV it writes


@dataclass(frozen=True)
class Output:
    stdout: dict[str, str]
    report: Report | None = None
    error: str = ""


Outputs = dict[str, Output]
Corruption = tuple[str, str, Callable[[Output], Output]]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    check: Callable[[Outputs], dict[str, list[str]]]
    corruptions: tuple[Corruption, ...] = ()


def collect(inv: Invocation, rc: int, stdout: str, stderr: str) -> Output:
    """Parse an invocation's output; the CSV is removed once read."""
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return Output({}, None, f"exit code {rc}: {tail[0]}")
    report = None
    if inv.csv is not None:
        if not inv.csv.is_file():
            return Output({}, None, f"no CSV written at {inv.csv.name}")
        try:
            report = read_report(inv.csv)
        except (ValueError, KeyError, StopIteration) as exc:
            return Output({}, None, f"unreadable CSV: {exc!r}")
        finally:
            inv.csv.unlink()
    return Output(parse_stdout(stdout), report)


def problems(wl: Workload, out: Outputs) -> dict[str, list[str]]:
    """Problems per invocation; an invocation with none succeeded."""
    found = {}
    for inv in wl.invocations:
        o = out[inv.name]
        found[inv.name] = [o.error] if o.error else []
        if not o.error and inv.csv is not None:
            found[inv.name] += check_report(o.report, inv.states)
    if not any(found.values()):
        try:
            for name, extra in wl.check(out).items():
                found[name] += extra
        except (KeyError, ValueError) as exc:  # an output lacks what a check reads
            for name in found:
                found[name].append(f"unreadable output: {exc!r}")
    return found


def self_test(wl: Workload, out: Outputs) -> list[str]:
    """Corruptions of real outputs that the checks failed to flag."""
    cases = list(wl.corruptions)
    for inv in wl.invocations:
        if inv.csv is not None:
            cases.append((f"{inv.name}: summary max perturbed", inv.name, _on_report(bump_summary)))
            cases.append((f"{inv.name}: row dropped", inv.name, _on_report(drop_row)))
    missed = []
    for what, name, corrupt in cases:
        if not any(problems(wl, {**out, name: corrupt(out[name])}).values()):
            missed.append(what)
    return missed


def _on_report(fn) -> Callable[[Output], Output]:
    return lambda o: replace(o, report=fn(o.report))


def _lattice(step: float) -> list[float]:
    k = round(1.0 / step)
    return [i / k for i in range(k + 1)]


def _write_config(path: Path, **keys) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


# ---------------------------------------------------------------------------

def trial_exact(work: Path, seed: int) -> Workload:
    n, step = 145, "0.002"
    states = len(_lattice(float(step))) ** 2
    invs = tuple(
        Invocation(name, ("scan", *rule, "--n", str(n), "--step", step, "--seed", str(seed),
                          "--out", str(work / f"{name}.csv")), states, 0, work / f"{name}.csv")
        for name, rule in (("exact_es", ("--rule", "es")),
                           ("exact_ztest", ("--rule", "ztest", "--alpha", "0.05"))))

    def check(out: Outputs) -> dict[str, list[str]]:
        return {"exact_es": check_exact_trial(out["exact_es"].report, es_choose_b, n),
                "exact_ztest": check_exact_trial(out["exact_ztest"].report, ztest_choose_b, n)}

    return Workload("trial_exact", invs, check, (
        ("exact_es: argmax regret perturbed", "exact_es", _on_report(bump_argmax)),
        ("exact_ztest: argmax regret perturbed", "exact_ztest", _on_report(bump_argmax)),
    ))


def trial_mc(work: Path, seed: int) -> Workload:
    n, step, reps = 145, "0.05", 20000
    grid = _lattice(float(step))
    states = len(grid) ** 2
    simulated = sum(pa != pb for pa in grid for pb in grid) * reps  # ties are not simulated
    invs = tuple(
        Invocation(f"mc_w{w}", ("scan", "--rule", "es", "--n", str(n), "--step", step,
                                "--method", "mc", "--reps", str(reps), "--seed", str(seed),
                                "--workers", str(w), "--out", str(work / f"mc_w{w}.csv")),
                   states, simulated, work / f"mc_w{w}.csv")
        for w in (1, 2))

    def check(out: Outputs) -> dict[str, list[str]]:
        return {"mc_w2": check_mc_trial(out["mc_w1"].report, out["mc_w2"].report, n)}

    return Workload("trial_mc", invs, check, (
        ("MC CSVs from 1 and 2 workers differ", "mc_w1", _on_report(other_bytes)),
        ("MC max 10 stderr off the exact regret", "mc_w2",
         _on_report(lambda r: bump_argmax(r, 10.0))),
    ))


def survey_mse(work: Path, seed: int) -> Workload:
    beta_obs, beta_miss = "0.5,0.5; 1,1; 2,5; 5,2", "0.5,2; 2,0.5"
    exact_miss = _lattice(0.1)
    configs = {
        "mse_exact": (len(_lattice(0.02)) ** 2 * len(exact_miss), 0, dict(
            predictor="midpoint", family="bernoulli", theta_obs_step=0.02,
            theta_miss_step=0.02, miss_step=0.1, n=25, method="exact")),
        "mse_mc_bernoulli": (121, 20000, dict(
            predictor="midpoint", family="bernoulli", theta_obs_step=0.1,
            theta_miss_step=0.1, miss_values=0.2, n=10, miss_known="false",
            method="mc", reps=20000)),
        "mse_mc_beta_midpoint": (8, 10000, dict(
            predictor="midpoint", family="beta", beta_obs_shapes=beta_obs,
            beta_miss_shapes=beta_miss, miss_values=0.2, n=10, method="mc", reps=10000)),
        "mse_mc_beta_median": (8, 10000, dict(
            predictor="analog_median", family="beta", beta_obs_shapes=beta_obs,
            beta_miss_shapes=beta_miss, miss_values=0.2, n=10, method="mc", reps=10000)),
    }
    invs = tuple(
        Invocation(name, ("wald-mse", "--config", str(_write_config(work / f"{name}.cfg", **cfg)),
                          "--seed", str(seed), "--out", str(work / f"{name}.csv")),
                   states, states * reps, work / f"{name}.csv")
        for name, (states, reps, cfg) in configs.items())

    def check(out: Outputs) -> dict[str, list[str]]:
        # imported here so that the untraced run needs the package only for this formula
        from mmregret.engine import midpoint_max_regret_formula
        return {"mse_exact": check_midpoint_exact(out["mse_exact"].report, 25, exact_miss,
                                                  midpoint_max_regret_formula),
                "mse_mc_beta_midpoint": check_midpoint_beta(
                    out["mse_mc_beta_midpoint"].report, 10)}

    return Workload("survey_mse", invs, check, (
        ("exact midpoint max MSE perturbed", "mse_exact", _on_report(bump_summary)),
        ("Beta midpoint MC max 10 stderr off the closed form", "mse_mc_beta_midpoint",
         _on_report(lambda r: bump_argmax(r, 10.0))),
    ))


BUILDERS = {"trial_exact": trial_exact, "trial_mc": trial_mc, "survey_mse": survey_mse}
