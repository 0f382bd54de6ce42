"""Retargeted policy learning and causal prediction regressions."""

from .data import Dataset, FoldAssignment, load_dataset, make_folds, save_dataset
from .errors import EstimationError, ValidationError
from .nuisance import (
    NuisanceConfig,
    NuisanceSet,
    cross_fit,
    fit_outcome_regression,
    fit_propensity,
    load_oracle_nuisances,
)
from .policy import (
    ConstantPolicy,
    LearnResult,
    LinearPolicy,
    Policy,
    PolicyClass,
    learn_finite,
    learn_linear,
    load_policy_class,
    search_linear,
    true_regret,
    weighted_value,
)
from .pseudo import PseudoOutcomes, dr_pseudo_outcomes, effect_pseudo_outcome
from .regression import (
    FeatureMap,
    RegressionFit,
    fit_best_fit,
    fit_cate,
    fit_dv_overlap,
    fit_on_arm_precision,
)
from .simulation import (
    BenchmarkReport,
    BenchmarkRow,
    ScenarioSpec,
    default_scenarios,
    generate,
    load_report,
    load_scenarios,
    render_report,
    run_benchmark,
)
from .weights import (
    WeightScheme,
    curvature_scaled_weights,
    gap_statistics,
    homoskedastic_weights,
    make_weights,
    selection_ratio,
    uniform_weights,
    variance_proxy,
)

__version__ = "0.1.0"
