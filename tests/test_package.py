"""The package namespace: its public names, and submodules loaded on first use."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import claguerre

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Each public name and the submodule that defines it.
PUBLIC = {
    "alpha_calc": "AlgebraError ExpPoly ReducedPoly d_alpha d_alpha_n "
                  "d_alpha_numeric x_view_str",
    "integrate": "DivergenceError NamedSignal QuadratureRule RootFindingError "
                 "gauss_laguerre moment_exact orthonormality quad_dalpha quad_transform "
                 "transform_named",
    "laguerre": "GeneratingExpansion assoc_closed assoc_from_derivative assoc_rodrigues "
                "generating_series laguerre_closed laguerre_rodrigues ode_residual "
                "values_at_zero",
    "laplace": "NonInvertibleError TransformExpr "
               "derivative_rule inverse laguerre_transform s_domain_residual "
               "solve_laguerre_ode transform",
    "recurrence": "as_alpha laguerre_column laguerre_pair",
    "tables": "SampleTable build_table",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_all_lists_the_public_names_in_order():
    assert len(HOME) == 39
    assert claguerre.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_its_submodules_object(name):
    module = importlib.import_module(f"claguerre.{HOME[name]}")
    assert getattr(claguerre, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from claguerre import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(HOME)


@pytest.mark.parametrize(
    "name", ["alpha_calc", "cli", "integrate", "laguerre", "laplace", "recurrence",
             "tables", "verify"],
)
def test_submodules_are_attributes(name):
    assert getattr(claguerre, name) is importlib.import_module(f"claguerre.{name}")
    assert name in dir(claguerre)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        claguerre.nope
    assert not hasattr(claguerre, "dataclass")


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys, claguerre; "
        "print(sorted(m for m in sys.modules if m.startswith('claguerre.')), "
        "claguerre.__version__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.stdout == "[] 0.1.0\n"

