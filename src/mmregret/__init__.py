"""Finite-sample regret evaluation of statistical decision rules.

Evaluates treatment-choice rules and point predictors by their state-dependent
regret over finite grids, exactly where the sample space is enumerable and by
seeded Monte Carlo otherwise, and provides closed-form minimax-regret
allocations for treatment choice with missing outcome data.

The package namespace is lazy: ``mmregret.X`` imports the submodule that
defines ``X`` on first use, so a command line process loads only the modules
its command runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name, by the submodule that defines it
_SUBMODULE_OF = {name: module for module, names in (
    ("asif", ("AsIfDecision", "FiniteDecisionProblem", "asif_decide", "asif_optimize",
              "classify_dominance")),
    ("engine", ("EvalMethod", "RegretBounds", "RegretReport", "StateRecord",
                "exhaustive_mmr_oracle", "max_mse_scan", "max_regret_scan",
                "midpoint_max_regret_formula", "regret_bounds", "report_to_csv")),
    ("errors", ("ConfigError", "PreconditionError")),
    ("missing", ("AllocationResult", "MissingDataState", "allocation_regret",
                 "allocation_welfare", "es_asymptotic_interval", "mmr_alloc_known_p",
                 "mmr_alloc_population", "mmr_alloc_sample", "mmr_alloc_sample_known_p")),
    ("rules", ("ANALOG_MEAN", "ANALOG_MEDIAN", "HODGES_LEHMANN", "MIDPOINT", "DecisionRule",
               "EmpiricalSuccess", "Predictor", "TableRule", "TrialRule", "ZTest",
               "mean_function_predictor", "mean_table_predictor")),
    ("sampling", ("SeedSpec", "SurveyDesign", "TrialDesign")),
    ("states", ("StateGrid", "build_binary_grid", "build_product_grid", "build_prediction_grid")),
) for name in names}
_SUBMODULES = frozenset(_SUBMODULE_OF.values()) | {"cli", "mathutil"}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    """A public name or a submodule, imported on first use and then kept here."""
    if name in _SUBMODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)


def _script() -> int:
    """The ``mmregret`` console script: cli.main() with the collector off while the
    cli imports, so no collection walks the import graph that main() freezes."""
    import gc
    gc.disable()
    from .cli import main
    return main()
