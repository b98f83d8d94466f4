"""Conformable Laguerre polynomials over exact rationals.

The package is organized around the reduced variable u = x**alpha / alpha:

* :mod:`claguerre.alpha_calc` holds the exact polynomial and
  exp-polynomial algebra and the conformable derivative,
* :mod:`claguerre.laguerre` builds the plain and associated polynomials
  along several independent routes, and evaluates them in floats by the
  three-term recurrence,
* :mod:`claguerre.laplace` is the transform calculus used to solve the
  defining differential equation,
* :mod:`claguerre.integrate` integrates against the conformable measure,
  exactly and by Gauss-Laguerre quadrature,
* :mod:`claguerre.verify` re-checks every identity and backs the
  ``claguerre verify`` subcommand.
"""

from .alpha_calc import (
    AlgebraError,
    ExpPoly,
    ReducedPoly,
    XViewTerm,
    as_alpha,
    d_alpha,
    d_alpha_n,
    d_alpha_numeric,
    from_x_view,
    x_view,
    x_view_str,
)
from .integrate import (
    DivergenceError,
    QuadratureRule,
    RootFindingError,
    gauss_laguerre,
    moment_exact,
    orthonormality,
    quad_dalpha,
    quad_transform,
)
from .laguerre import (
    GeneratingExpansion,
    assoc_closed,
    assoc_from_derivative,
    assoc_rodrigues,
    generating_series,
    laguerre_closed,
    laguerre_column,
    laguerre_pair,
    laguerre_rodrigues,
    ode_residual,
    values_at_zero,
)
from .laplace import (
    ConvergenceError,
    NamedSignal,
    NonInvertibleError,
    TransformExpr,
    derivative_rule,
    inverse,
    laguerre_transform,
    s_domain_residual,
    solve_laguerre_ode,
    transform,
    transform_named,
)
from .tables import SampleTable, build_table

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "ConvergenceError",
    "DivergenceError",
    "ExpPoly",
    "GeneratingExpansion",
    "NamedSignal",
    "NonInvertibleError",
    "QuadratureRule",
    "ReducedPoly",
    "RootFindingError",
    "SampleTable",
    "TransformExpr",
    "XViewTerm",
    "as_alpha",
    "assoc_closed",
    "assoc_from_derivative",
    "assoc_rodrigues",
    "build_table",
    "d_alpha",
    "d_alpha_n",
    "d_alpha_numeric",
    "derivative_rule",
    "from_x_view",
    "gauss_laguerre",
    "generating_series",
    "inverse",
    "laguerre_closed",
    "laguerre_column",
    "laguerre_pair",
    "laguerre_rodrigues",
    "laguerre_transform",
    "moment_exact",
    "ode_residual",
    "orthonormality",
    "quad_dalpha",
    "quad_transform",
    "s_domain_residual",
    "solve_laguerre_ode",
    "transform",
    "transform_named",
    "values_at_zero",
    "x_view",
    "x_view_str",
]
