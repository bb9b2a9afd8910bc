"""Acceptance gate: every headline quantitative claim, one pass/fail line each.

Each test prints "[PASS]" or "[FAIL]" with the criterion number before
asserting, so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist. Tolerances are fixed here and must not be loosened to make a
criterion pass.
"""

import numpy as np
import pytest

from mmregret import (
    DecisionRule,
    FiniteDecisionProblem,
    MissingDataState,
    SeedSpec,
    SurveyDesign,
    TrialDesign,
    asif_decide,
    build_binary_grid,
    build_prediction_grid,
    es_asymptotic_interval,
    exhaustive_mmr_oracle,
    max_mse_scan,
    max_regret_scan,
    midpoint_max_regret_formula,
    regret_bounds,
)
from mmregret.cli import medical_regrets
from test_missing import _expected_sample_z
from test_rules import _brute_force
from mmregret.missing import mmr_alloc_known_p

ES = DecisionRule("empirical_success")
ZTEST = DecisionRule("ztest", {"alpha": 0.05, "status_quo": 0})


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {desc}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_two_hypothesis_regret_table():
    conv, rev = medical_regrets(1.0, 1 / 3, 5.0, 0.05, 0.20)
    checks = [
        (conv[0], 1 / 30), (conv[1], 4 / 5),
        (rev[0], 2 / 15), (rev[1], 1 / 5),
        (max(conv), 4 / 5), (max(rev), 1 / 5),
    ]
    failures = [f"got {got}, want {want}"
                for got, want in checks if abs(got - want) > 1e-12]
    _report(1, "regret table 1/30, 4/5, 2/15, 1/5 with maxima 4/5 and 1/5",
            failures)


def _argmax_effect(report) -> float:
    """|p_b - p_a| at the argmax state of a binary-trial report."""
    i, j = divmod(report.argmax, len(report.grid.points_b))
    return abs(report.grid.points_b[j] - report.grid.points_a[i])


def test_criterion_2_es_vs_ztest_n145():
    design = TrialDesign(per_arm_n=145)
    grid = build_binary_grid(0.01)
    failures = []

    es = max_regret_scan(ES, grid, design)
    if not abs(es.max_regret - 0.010) <= 0.002:
        failures.append(f"ES max regret {es.max_regret:.6f} not 0.010+-0.002")
    es_rec = es.record(es.argmax)
    es_eff = _argmax_effect(es)
    if not abs(es_eff - 0.03) <= 0.01 + 1e-12:
        failures.append(f"ES argmax |effect| {es_eff:.4f} not 0.03+-0.01")
    if not abs(es_rec.error_prob - 0.35) <= 0.05:
        failures.append(
            f"ES argmax error prob {es_rec.error_prob:.4f} not 0.35+-0.05")

    zt = max_regret_scan(ZTEST, grid, design)
    if not abs(zt.max_regret - 0.050) <= 0.005:
        failures.append(f"z-test max regret {zt.max_regret:.6f} not 0.050+-0.005")
    zt_rec = zt.record(zt.argmax)
    zt_eff = _argmax_effect(zt)
    if not abs(zt_eff - 0.08) <= 0.01 + 1e-12:
        failures.append(f"z-test argmax |effect| {zt_eff:.4f} not 0.08+-0.01")
    if not abs(zt_rec.error_prob - 0.60) <= 0.05:
        failures.append(
            f"z-test argmax error prob {zt_rec.error_prob:.4f} not 0.60+-0.05")

    _report(2, "exact 0.01-grid scans at n=145: max regrets, argmax effect "
               "sizes, and error probabilities", failures)


def test_criterion_3_bound_dominance():
    failures = []
    grid = build_binary_grid(0.01)
    for n in (10, 50, 145):
        exact = max_regret_scan(ES, grid, TrialDesign(per_arm_n=n)).max_regret
        bound = regret_bounds(2, 1.0, n).bound_10
        if not exact <= bound:
            failures.append(f"n={n}: exact {exact:.5f} > bound {bound:.5f}")
    for k in (2, 3):
        b = regret_bounds(k, 1.0, 100)
        if not b.bound_10 < b.bound_11:
            failures.append(f"K={k}: first bound not tighter")
    for k in (4, 10):
        b = regret_bounds(k, 1.0, 100)
        if not b.bound_11 < b.bound_10:
            failures.append(f"K={k}: second bound not tighter")
    _report(3, "analytic bounds dominate the exact ES max regret; tighter "
               "bound flips between K=3 and K=4", failures)


def test_criterion_4_shrinkage_predictor_constant_risk():
    failures = []
    thetas = np.linspace(0.0, 1.0, 101)
    rule = DecisionRule("hodges_lehmann")
    for n in (1, 4, 16):
        design = SurveyDesign("fixed_n", n)
        target = 1.0 / (4.0 * (np.sqrt(n) + 1.0) ** 2)
        mses = []
        for theta in thetas:
            grid = build_prediction_grid("bernoulli", obs_params=[theta],
                                         miss_params=[theta], miss_rates=[0.0])
            mses.append(max_mse_scan(rule, grid, design).record(0).regret)
        if max(mses) - min(mses) > 1e-9:
            failures.append(f"N={n}: risk varies by {max(mses) - min(mses):.2e}")
        if abs(max(mses) - target) > 1e-9:
            failures.append(f"N={n}: risk {max(mses):.10f} != {target:.10f}")
    _report(4, "shrinkage predictor has constant risk 1/(4(sqrt(N)+1)^2) over "
               "the full theta grid", failures)


def test_criterion_5_midpoint_analytic_match():
    failures = []
    rule = DecisionRule("midpoint")
    thetas = list(np.linspace(0.0, 1.0, 11))
    for miss in (0.0, 0.2, 0.5, 1.0):
        grid = build_prediction_grid("bernoulli", obs_params=thetas,
                                     miss_params=thetas, miss_rates=[miss])
        for n in (10, 100):
            design = SurveyDesign("fixed_n", n)
            target = midpoint_max_regret_formula(1.0 - miss, n)
            report = max_mse_scan(rule, grid, design,
                                  100_000, SeedSpec(31))
            rec = report.record(report.argmax)
            tol = 4.0 * rec.mc_stderr + 1e-12
            if abs(report.max_regret - target) > tol:
                failures.append(
                    f"MC miss={miss}, N={n}: {report.max_regret:.6f} vs "
                    f"{target:.6f} (tol {tol:.2e})")
            if n <= 25:
                exact = max_mse_scan(rule, grid, design)
                if abs(exact.max_regret - target) > 1e-9:
                    failures.append(
                        f"exact miss={miss}, N={n}: {exact.max_regret:.10f} "
                        f"vs {target:.10f}")
    _report(5, "midpoint predictor max MSE matches the closed form in MC "
               "(4 stderr) and exact (1e-9) modes", failures)


def test_criterion_6_oracle_certifies_es_rule():
    failures = []
    grid = build_binary_grid(0.05)
    for n in (1, 2):
        design = TrialDesign(per_arm_n=n)
        _, oracle_max = exhaustive_mmr_oracle(design, grid)
        es_max = max_regret_scan(ES, grid, design).max_regret
        if oracle_max < es_max - 1e-12:
            failures.append(
                f"n={n}: a deterministic rule reaches {oracle_max:.6f} < "
                f"ES {es_max:.6f}")
    _report(6, "no deterministic rule beats the tie-splitting empirical "
               "success rule at n in {1, 2}", failures)


def test_criterion_7_plugin_allocation_unbiased():
    rng = np.random.default_rng(41)
    failures = []
    for i in range(100):
        e_a, e_b = rng.random(2)
        p_a, p_b = rng.dirichlet([1.0, 1.0]) * rng.uniform(0.05, 1.0)
        star = mmr_alloc_known_p(
            MissingDataState(e_a=e_a, e_b=e_b, p_a=p_a, p_b=p_b)).z_b
        n = int(rng.integers(1, 5))
        expect = _expected_sample_z(e_a, e_b, p_a, p_b, n)
        if abs(expect - star) > 1e-12:
            failures.append(f"state {i} (N={n}): E[z_N]={expect!r} != {star!r}")
    _report(7, "plug-in allocation is exactly unbiased for the population "
               "value on 100 random states, N <= 4", failures)


def test_criterion_8_asif_solver_matches_brute_force():
    rng = np.random.default_rng(43)
    failures = []
    for i in range(1000):
        n_actions = int(rng.integers(2, 7))
        n_states = int(rng.integers(1, 9))
        problem = FiniteDecisionProblem(
            tuple(f"c{j}" for j in range(n_actions)),
            tuple(f"s{j}" for j in range(n_states)),
            rng.normal(size=(n_actions, n_states)),
            prior=rng.dirichlet(np.ones(n_states)))
        size = int(rng.integers(1, n_states + 1))
        subset = [f"s{j}" for j in sorted(rng.choice(n_states, size, replace=False))]
        for criterion in ("bayes", "maximin", "minimax_regret"):
            got = asif_decide(problem, subset, criterion)
            _, want = _brute_force(problem, subset, criterion)
            if abs(got.value - want) > 1e-10:
                failures.append(f"problem {i}, {criterion}: {got.value} != {want}")
    _report(8, "set-estimate solver agrees with brute force on 1000 random "
               "problems for all three criteria", failures)


def test_criterion_9_asymptotic_interval():
    failures = []
    # dyadic rationals so the hand-computed gaps are exact in floating point
    reversed_s = MissingDataState(e_a=0.25, e_b=0.75, p_a=0.25, p_b=0.25,
                                  full_means=(0.75, 0.25))
    equal_s = MissingDataState(e_a=0.5, e_b=0.5, p_a=0.25, p_b=0.25,
                               full_means=(0.125, 0.875))
    same_s = MissingDataState(e_a=0.25, e_b=0.75, p_a=0.25, p_b=0.25,
                              full_means=(0.25, 0.75))
    got = es_asymptotic_interval([reversed_s, equal_s, same_s])
    if got != (0.5, 0.75):
        failures.append(f"three-state input: {got} != (0.5, 0.75)")
    if es_asymptotic_interval([same_s]) != (0.0, 0.0):
        failures.append("input with only agreeing states is not (0, 0)")
    if es_asymptotic_interval([]) != (0.0, 0.0):
        failures.append("empty input is not (0, 0)")
    _report(9, "asymptotic max-regret interval matches the hand "
               "classification and degenerates to (0, 0)", failures)
