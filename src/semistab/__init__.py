"""Entry-time analysis of operator-semigroup norm trajectories.

Given a norm curve t -> ||T(t)|| (from a closed form, a matrix generator, or
a discretized integral operator), this package computes the entry times t_r
into the exp(-r) balls, the relative entry times u_r = t_{r+1} - t_r,
classifies the decay as unstable / stable / superstable / finite-time
extinction, estimates the exponential growth rate by three routes, and
evaluates the integral criteria sufficient for each class.
"""

from .errors import (
    InvalidArgument,
    InvalidModel,
    NumericsFailure,
    SemistabError,
    SpecError,
)
from .numerics import (
    DIVERGENT,
    INCONCLUSIVE,
    VALUE,
    IntegralResult,
    QuadratureSpec,
    integrate_adaptive,
    matrix_exponential,
    operator_norm,
)
from .models import (
    DampedNilpotent,
    FractionalIntegration,
    GaussianShift,
    MatrixSemigroup,
    NilpotentShift,
    NormTrajectory,
    ScalarDecay,
    WeightedShift,
    build_model_from_spec,
    fractional_reference,
)
from .entrytime import (
    EntryTime,
    EntryTimeTable,
    SearchConfig,
    entry_time_table,
    final_entry_time,
)
from .classify import (
    Classification,
    ClassifyThresholds,
    GrowthEstimate,
    IndexEstimates,
    VERDICT_EXTINCTION,
    VERDICT_ORDER,
    VERDICT_STABLE,
    VERDICT_SUPERSTABLE,
    VERDICT_UNSTABLE,
    classify,
    default_growth_grid,
    gelfand_spectral_radius,
    growth_characteristic,
    spectral_radius_estimate,
    stability_and_extinction_indices,
    tail_statistics,
)
from .pazy import (
    InverseLogPower,
    NormPower,
    PazyReport,
    SandwichResult,
    ftrick_sandwich,
    pazy_criteria,
    pazy_integral,
)

__version__ = "0.1.0"

__all__ = [
    "Classification", "ClassifyThresholds", "DampedNilpotent", "DIVERGENT",
    "EntryTime", "EntryTimeTable", "FractionalIntegration", "GaussianShift",
    "GrowthEstimate", "INCONCLUSIVE", "IndexEstimates", "IntegralResult",
    "InvalidArgument", "InvalidModel", "InverseLogPower", "MatrixSemigroup",
    "NilpotentShift", "NormPower", "NormTrajectory", "NumericsFailure",
    "PazyReport", "QuadratureSpec", "SandwichResult", "ScalarDecay",
    "SearchConfig", "SemistabError", "SpecError", "VALUE",
    "VERDICT_EXTINCTION", "VERDICT_ORDER", "VERDICT_STABLE", "VERDICT_SUPERSTABLE",
    "VERDICT_UNSTABLE", "WeightedShift", "build_model_from_spec", "classify",
    "default_growth_grid", "entry_time_table", "final_entry_time",
    "fractional_reference", "ftrick_sandwich",
    "gelfand_spectral_radius", "growth_characteristic",
    "integrate_adaptive", "matrix_exponential", "operator_norm",
    "pazy_criteria", "pazy_integral", "spectral_radius_estimate",
    "stability_and_extinction_indices", "tail_statistics",
]
