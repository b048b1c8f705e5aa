"""Paired fuel-economy gap estimation.

A library for modeling the two gap ratios of two-vehicle garages jointly:
data preparation and outlier trimming, fixed-parameter seemingly unrelated
regression by feasible GLS, random-parameter estimation by maximum simulated
likelihood over Halton draws, information-criteria model selection, and
synthetic-data oracles that validate the whole stack.
"""

__version__ = "0.1.0"

from .criteria import (
    CriteriaInput,
    CriteriaScores,
    RpEffectSummary,
    effect_summary,
    rank_models,
    score_criteria,
)
from .data import (
    DesignMatrices,
    GapTable,
    GarageTable,
    TrimReport,
    compute_gaps,
    encode_design,
    gap_correlation,
    group_summary,
    parse_raw,
    responses,
    trim_outliers,
)
from .errors import (
    DegenerateDataError,
    EstimationError,
    FuelGapError,
    ParseError,
    SpecError,
)
from .halton import (
    DrawStore,
    HaltonConfig,
    build_draw_store,
    first_primes,
    radical_inverse,
)
from .modelspec import EquationSpec, ModelSpec, Term, load_model_spec, model_spec_from_dict
from .msl import fit_rp_sure, rp_retention_test, simulated_loglik
from .sure import (
    ErrorCovariance,
    RandomEffect,
    RpParameters,
    SureFit,
    fgls_fit,
    loglik_fixed,
    ols_system_fit,
    residual_covariance,
)
from .synthetic import (
    TruthSpec,
    exact_marginal_loglik,
    quadrature_loglik,
    simulate_dataset,
    truth_from_dict,
)
