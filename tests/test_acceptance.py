"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

``claguerre.verify.SUITES`` is the one place where the criteria are coded.
This module only maps each criterion onto suites there and holds its time
budget, so ``claguerre verify --scope all`` checks every criterion too.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned in the suites; nothing is calibrated at
runtime.
"""

import time

from claguerre import verify

# (test name, criterion, suites as "module/name", time budget in seconds)
CRITERIA = (
    ("test_c01_triple_construction_identity", "1",
     ("laguerre/triple-construction",), 1.0),
    ("test_c02_associated_identity", "2", ("laguerre/assoc-triple",), 2.0),
    ("test_c03_ode_annihilation", "3", ("laguerre/ode-annihilation",), 1.0),
    ("test_c04_orthonormality_matrix", "4",
     ("integrate/orthogonality-identity-11x11",), 1.0),
    ("test_c05_values_at_zero", "5", ("laguerre/zero-values",), 1.0),
    ("test_c06_generating_functions", "6",
     ("laguerre/generating-coefficients", "laguerre/generating-numeric-sum"), 2.0),
    ("test_c07_laplace_pair_table", "7", ("laplace/named-pair-quadrature",), 5.0),
    ("test_c08_transform_property_suite", "8",
     ("laplace/linearity", "laplace/shift", "laplace/u-multiplication",
      "laplace/derivative-rule"), 5.0),
    ("test_c09_s_domain_residual", "9", ("laplace/s-domain-residual",), 1.0),
    ("test_c10_classical_oracle", "10", ("laguerre/classical-oracle-alpha1",), 1.0),
    ("test_c11_derivative_convergence_order", "11",
     ("alpha_calc/numeric-derivative-order",), 2.0),
    ("test_c12_figure_reproduction", "12a", ("cli/figure-fixtures",), 2.0),
    ("test_c12_alpha_approach_bounds", "12b", ("cli/alpha-approach",), 2.0),
)


def _report(num, ok, detail):
    print(f"criterion {num:>3}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run_suite(qualified):
    module, name = qualified.split("/")
    try:
        return True, f"{qualified}: {dict(verify.SUITES[module])[name]()}"
    except AssertionError as exc:
        return False, f"{qualified}: {exc}"


def _criterion_test(num, suites, budget):
    def test():
        start = time.time()
        results = [_run_suite(qualified) for qualified in suites]
        elapsed = time.time() - start
        detail = "; ".join(text for _, text in results)
        ok = _report(num, all(passed for passed, _ in results),
                     f"{detail} ({elapsed:.2f}s)")
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
        assert ok, detail

    return test


# One test per row, bound to the row's own name so each criterion keeps
# its test id.
for _name, *_row in CRITERIA:
    globals()[_name] = _criterion_test(*_row)


def test_full_verification_sweep_under_budget():
    start = time.time()
    results = verify.run_suites("all")
    elapsed = time.time() - start
    failing = [e.name for e in results if not e.passed]
    ok = _report(
        "all", not failing and elapsed < 60.0,
        f"{len(results)} verification suites in {elapsed:.2f}s "
        f"(budget 60s)",
    )
    assert ok, f"failing suites: {failing}; elapsed {elapsed:.2f}s"
