"""Optimal polynomial prediction measures on [-1, 1] for exterior points."""

from .design import (
    Certificate,
    Design,
    DiscreteMeasure,
    design_from_support,
    extremal_signed_poly,
    hoel_levine_weights,
    optimize_support,
    require_exterior,
)
from .imaginary import (
    closed_form_design,
    companion_zeros,
    growth_gap,
    growth_poly,
    growth_value,
    pell_companion,
    pell_residual,
)
from .polynomial import ChebPoly, as_nodes, lagrange_values
from .regression import (
    RankDeficiencyError,
    RegressionPlan,
    VarianceEstimate,
    least_squares_fit,
    mc_predictor_variance,
    vandermonde,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChebPoly",
    "Design",
    "DiscreteMeasure",
    "RankDeficiencyError",
    "RegressionPlan",
    "VarianceEstimate",
    "as_nodes",
    "closed_form_design",
    "companion_zeros",
    "design_from_support",
    "extremal_signed_poly",
    "growth_gap",
    "growth_poly",
    "growth_value",
    "hoel_levine_weights",
    "lagrange_values",
    "least_squares_fit",
    "mc_predictor_variance",
    "optimize_support",
    "pell_companion",
    "pell_residual",
    "require_exterior",
    "vandermonde",
]
