"""Conformable Laguerre polynomials over exact rationals.

The package is organized around the reduced variable u = x**alpha / alpha:

* :mod:`claguerre.recurrence` is the float layer: argument rules and recurrence,
* :mod:`claguerre.alpha_calc` holds the exact polynomial and
  exp-polynomial algebra and the conformable derivative,
* :mod:`claguerre.laguerre` builds the plain and associated polynomials
  along several independent routes,
* :mod:`claguerre.laplace` is the transform calculus used to solve the
  defining differential equation,
* :mod:`claguerre.integrate` integrates against the conformable measure,
  exactly and by Gauss-Laguerre quadrature, and holds the named
  transform pairs that its quadrature checks,
* :mod:`claguerre.tables` samples the recurrence into CSV tables,
* :mod:`claguerre.verify` re-checks every identity and backs the
  ``claguerre verify`` subcommand.

Importing the package loads none of them.  A submodule loads the first time
it, or one of the names in ``__all__``, is read from the package (PEP 562),
so a ``claguerre`` command compiles only the modules it runs.  Each name
resolves through the module that defines it: the float-layer names through
``recurrence`` and the named pairs through ``integrate``, so reading one of
them compiles no exact algebra.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "alpha_calc": (
        "AlgebraError",
        "ExpPoly",
        "ReducedPoly",
        "d_alpha",
        "d_alpha_n",
        "d_alpha_numeric",
        "x_view_str",
    ),
    "integrate": (
        "DivergenceError",
        "NamedSignal",
        "QuadratureRule",
        "RootFindingError",
        "gauss_laguerre",
        "moment_exact",
        "orthonormality",
        "quad_dalpha",
        "quad_transform",
        "transform_named",
    ),
    "laguerre": (
        "GeneratingExpansion",
        "assoc_closed",
        "assoc_from_derivative",
        "assoc_rodrigues",
        "generating_series",
        "laguerre_closed",
        "laguerre_rodrigues",
        "ode_residual",
        "values_at_zero",
    ),
    "laplace": (
        "NonInvertibleError",
        "TransformExpr",
        "derivative_rule",
        "inverse",
        "laguerre_transform",
        "s_domain_residual",
        "solve_laguerre_ode",
        "transform",
    ),
    "recurrence": ("as_alpha", "laguerre_column", "laguerre_pair"),
    "tables": ("SampleTable", "build_table"),
}
_SUBMODULES = ("alpha_calc", "cli", "integrate", "laguerre", "laplace", "recurrence",
               "tables", "verify")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
