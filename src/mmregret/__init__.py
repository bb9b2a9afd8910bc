"""Finite-sample regret evaluation of statistical decision rules.

Evaluates treatment-choice rules and point predictors by their state-dependent
regret over finite grids, exactly where the sample space is enumerable and by
seeded Monte Carlo otherwise, and provides closed-form minimax-regret
allocations for treatment choice with missing outcome data.
"""

from .engine import (
    EvalMethod,
    RegretBounds,
    RegretReport,
    StateRecord,
    binary_regret,
    error_probability,
    exhaustive_mmr_oracle,
    expected_welfare,
    max_mse_scan,
    max_regret_scan,
    midpoint_max_regret_formula,
    predictor_mse,
    regret_bounds,
    report_to_csv,
)
from .errors import ConfigError, PreconditionError
from .missing import (
    AllocationResult,
    allocation_regret,
    allocation_welfare,
    es_asymptotic_interval,
    mmr_alloc_known_p,
    mmr_alloc_population,
    mmr_alloc_sample,
    mmr_alloc_sample_known_p,
)
from .rules import (
    ANALOG_MEAN,
    ANALOG_MEDIAN,
    HODGES_LEHMANN,
    MIDPOINT,
    Action,
    AsIfDecision,
    DecisionRule,
    EmpiricalSuccess,
    OutcomeRule,
    Predictor,
    TableRule,
    TrialRule,
    ZTest,
    asif_decide,
    asif_optimize,
    mean_function_predictor,
    mean_table_predictor,
)
from .sampling import (
    SeedSpec,
    SurveyDesign,
    TrialDesign,
    TrialOutcome,
)
from .states import (
    BinaryTrialState,
    FiniteDecisionProblem,
    MissingDataState,
    OutcomeDist,
    PredictionState,
    StateGrid,
    build_binary_grid,
    build_prediction_grid,
    classify_dominance,
)

__version__ = "0.1.0"
