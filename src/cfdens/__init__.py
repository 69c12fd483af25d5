"""Counterfactual outcome density estimation.

Projects counterfactual densities onto finite-dimensional families under
generalized distances, estimates distances between counterfactual densities,
and provides model selection, linear aggregation, and a simulation harness.
All estimators are one-step bias-corrected with cross-fit nuisances.
"""

__version__ = "0.1.0"

from .data import (
    EvalGrid,
    FoldPlan,
    ObservationTable,
    from_raw,
    load_csv,
    make_folds,
    make_grid,
)
from .distances import DistanceSpec, divergence, parse_distance
from .effects import EffectEstimate, effect_fixed_candidate, effect_onestep
from .models import (
    CosineBasis,
    ExponentialFamily,
    GaussianMixture,
    TruncatedSeries,
    clip_to_density,
    log_partition,
    parse_model,
)
from .nuisance import (
    NuisanceConfig,
    cross_fit,
    fit_cond_density,
    tabulate_nuisances,
)
from .oracle import Experiment, SyntheticDGP, dgp_library, mc_run, oracle_projection
from .projection import ProjectionEstimate, moment, solve_onestep
from .selection import aggregate_linear, select_model

__all__ = [
    "CosineBasis",
    "DistanceSpec",
    "EffectEstimate",
    "EvalGrid",
    "Experiment",
    "ExponentialFamily",
    "FoldPlan",
    "GaussianMixture",
    "NuisanceConfig",
    "ObservationTable",
    "ProjectionEstimate",
    "SyntheticDGP",
    "TruncatedSeries",
    "aggregate_linear",
    "clip_to_density",
    "cross_fit",
    "dgp_library",
    "divergence",
    "effect_fixed_candidate",
    "effect_onestep",
    "fit_cond_density",
    "from_raw",
    "load_csv",
    "log_partition",
    "make_folds",
    "make_grid",
    "mc_run",
    "moment",
    "oracle_projection",
    "parse_distance",
    "parse_model",
    "select_model",
    "solve_onestep",
    "tabulate_nuisances",
]
