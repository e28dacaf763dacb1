"""Optimal polynomial prediction measures on [-1, 1] for exterior points."""

from .design import (
    Certificate,
    Design,
    certify,
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
from .measure import (
    DiscreteMeasure,
    RankDeficiencyError,
    christoffel,
    christoffel_lagrange,
    directional_derivative,
    gram,
    kernel_poly,
)
from .polynomial import (
    ChebPoly,
    SupNormEstimate,
    as_nodes,
    from_lagrange_combination,
    lagrange_values,
    sup_norm_interval,
)
from .regression import (
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
    "SupNormEstimate",
    "VarianceEstimate",
    "as_nodes",
    "certify",
    "christoffel",
    "christoffel_lagrange",
    "closed_form_design",
    "companion_zeros",
    "design_from_support",
    "directional_derivative",
    "extremal_signed_poly",
    "from_lagrange_combination",
    "gram",
    "growth_gap",
    "growth_poly",
    "growth_value",
    "hoel_levine_weights",
    "kernel_poly",
    "lagrange_values",
    "least_squares_fit",
    "mc_predictor_variance",
    "optimize_support",
    "pell_companion",
    "pell_residual",
    "require_exterior",
    "sup_norm_interval",
    "vandermonde",
]
