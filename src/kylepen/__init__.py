"""Equilibria, regulator metrics and efficient frontiers for a one-period
insider-trading game with trade penalties under uniform noise."""

from .errors import DomainError, InfeasibleError
from .penalties import (
    ConstantAbovePenalty,
    ConstantNonzeroPenalty,
    LinearPenalty,
    OptimalCanonicalPenalty,
    Penalty,
    QuadraticPenalty,
    SurfaceOptimalPenalty,
    TabulatedPenalty,
    ZeroPenalty,
    is_in_optimal_class,
    penalty_from_json,
    validate,
)
from .schedules import DemandSchedule
from .equilibrium import (
    EquilibriumSolution,
    PriceFunction,
    psi,
    solve_demand,
    solve_equilibrium,
    verify_equilibrium,
)
from .metrics import (
    Metrics,
    MonteCarloMetrics,
    compute_metrics,
    monte_carlo_metrics,
    repartition_transform,
    shading_moments,
)
from .frontier import (
    FrontierPoint,
    SurfacePoint,
    fmin_efficient_frontier,
    frontier_point,
    gmin_nonpecuniary,
    max_fine_over_optimal_class,
    quadratic_upper_boundary,
    sample_surface,
    surface_point,
    surface_schedule,
    x_alpha_schedule,
)
from .supports import (
    DenormalizedSolution,
    SupportSpec,
    normalize_penalty,
    threshold_cutoffs,
)
from .gaussian import (
    GaussianGrid,
    GaussianSolution,
    gaussian_best_response,
    gaussian_fixed_point,
    gaussian_price_update,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "InfeasibleError",
    "Penalty",
    "ZeroPenalty",
    "ConstantNonzeroPenalty",
    "ConstantAbovePenalty",
    "LinearPenalty",
    "QuadraticPenalty",
    "OptimalCanonicalPenalty",
    "SurfaceOptimalPenalty",
    "TabulatedPenalty",
    "penalty_from_json",
    "validate",
    "is_in_optimal_class",
    "DemandSchedule",
    "EquilibriumSolution",
    "PriceFunction",
    "psi",
    "solve_demand",
    "solve_equilibrium",
    "verify_equilibrium",
    "Metrics",
    "MonteCarloMetrics",
    "compute_metrics",
    "monte_carlo_metrics",
    "repartition_transform",
    "shading_moments",
    "FrontierPoint",
    "SurfacePoint",
    "frontier_point",
    "gmin_nonpecuniary",
    "x_alpha_schedule",
    "surface_point",
    "surface_schedule",
    "sample_surface",
    "max_fine_over_optimal_class",
    "fmin_efficient_frontier",
    "quadratic_upper_boundary",
    "SupportSpec",
    "normalize_penalty",
    "DenormalizedSolution",
    "threshold_cutoffs",
    "GaussianGrid",
    "GaussianSolution",
    "gaussian_price_update",
    "gaussian_best_response",
    "gaussian_fixed_point",
]
