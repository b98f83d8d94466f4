"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.

Criterion 12b (the approach to the alpha=1 column at x=1) was first stated
with bounds of 1e-2 at alpha=0.9 and 1e-4 at alpha=0.99.  Those bounds are
(1-alpha)**2, but the approach is first order in (1-alpha): at x=1 the value
is L(u) at u = 1/alpha, so the deviation is L'(1)*h + O(h**2) with
h = (1-alpha)/alpha, and L'(1) != 0 for every captioned polynomial (the
degree-1 deviation is exactly 1/9 and 1/99).  The criterion now checks the
first-order term exactly and bounds what is left by the Taylor tail, which
keeps the (1-alpha)**2 scaling on the quantity that can meet it.
"""

import math
import random
import time
from fractions import Fraction as F

from claguerre import integrate, laplace
from claguerre.alpha_calc import ExpPoly, ReducedPoly, d_alpha_numeric
from claguerre.figures import FIGURES
from claguerre.laguerre import (
    assoc_closed,
    assoc_from_derivative,
    assoc_rodrigues,
    generating_series,
    laguerre_closed,
    laguerre_pair,
    laguerre_rodrigues,
    ode_residual,
    values_at_zero,
)
from claguerre.tables import build_table
from claguerre.verify import random_exppoly, run_suites


def _report(num, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:>3}: {state} - {detail}")
    return ok


def _budget(num, start, limit):
    elapsed = time.time() - start
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, budget {limit}s"


def test_c01_triple_construction_identity():
    start = time.time()
    bad = [
        n
        for n in range(13)
        if not (
            laguerre_closed(n).coeffs
            == laguerre_rodrigues(n).coeffs
            == laplace.solve_laguerre_ode(n).coeffs
        )
    ]
    ok = _report(
        1, not bad, f"closed = Rodrigues = transform replay, n <= 12, exact "
        f"({time.time() - start:.2f}s)"
    )
    _budget(1, start, 1.0)
    assert ok, f"mismatch at n in {bad}"


def test_c02_associated_identity():
    start = time.time()
    bad = [
        (n, m)
        for n in range(9)
        for m in range(5)
        if not (
            assoc_closed(n, m).coeffs
            == assoc_from_derivative(n, m).coeffs
            == assoc_rodrigues(n, m).coeffs
        )
    ]
    ok = _report(
        2, not bad, f"assoc closed = derivative = Rodrigues, n <= 8, m <= 4, "
        f"exact ({time.time() - start:.2f}s)"
    )
    _budget(2, start, 2.0)
    assert ok, f"mismatch at {bad}"


def test_c03_ode_annihilation():
    start = time.time()
    bad = [
        (n, m)
        for n in range(11)
        for m in range(5)
        if not ode_residual(assoc_closed(n, m), n, m).is_zero
    ]
    ok = _report(
        3, not bad, f"residual zero for n <= 10, m <= 4, exact "
        f"({time.time() - start:.2f}s)"
    )
    _budget(3, start, 1.0)
    assert ok, f"nonzero residual at {bad}"


def test_c04_orthonormality_matrix():
    start = time.time()
    bad = [
        (i, j)
        for i in range(11)
        for j in range(11)
        if integrate.orthonormality(i, j) != (1 if i == j else 0)
    ]
    ok = _report(
        4, not bad, f"11x11 weighted product matrix is the identity, exact "
        f"({time.time() - start:.2f}s)"
    )
    _budget(4, start, 1.0)
    assert ok, f"wrong entries at {bad}"


def test_c05_values_at_zero():
    start = time.time()
    bad = [
        n
        for n in range(13)
        if values_at_zero(n) != (F(1), F(-n), F(n * (n - 1), 2))
    ]
    ok = _report(
        5, not bad, f"(1, -n, n(n-1)/2) for n <= 12, exact "
        f"({time.time() - start:.2f}s)"
    )
    _budget(5, start, 1.0)
    assert ok, f"wrong values at n in {bad}"


def test_c06_generating_functions():
    start = time.time()
    exact_bad = []
    for m in range(4):
        expansion = generating_series(m, 10)
        for n in range(11):
            if expansion[n] != assoc_closed(n, m):
                exact_bad.append((n, m))
    numeric_bad = []
    t = 0.3
    for m in range(4):
        for alpha in (0.5, 1.0):
            for x in (0.5, 1.0):
                u = x**alpha / alpha
                total = math.fsum(
                    assoc_closed(n, m).eval(x, alpha) * t**n for n in range(26)
                )
                closed = math.exp(-u * t / (1 - t)) / (1 - t) ** (m + 1)
                if abs(total - closed) > 1e-8:
                    numeric_bad.append((m, alpha, x, abs(total - closed)))
    ok = _report(
        6, not exact_bad and not numeric_bad,
        f"series coefficients exact to t^10 for m <= 3; partial sums at "
        f"t=0.3 within 1e-8 ({time.time() - start:.2f}s)",
    )
    _budget(6, start, 2.0)
    assert ok, f"exact mismatches {exact_bad}, numeric misses {numeric_bad}"


def test_c07_laplace_pair_table():
    start = time.time()
    rule = integrate.gauss_laguerre(48)
    cases = [(laplace.NamedSignal("one"), 0.75, (0.5, 1.0, 2.0, 4.0, 8.0))]
    for alpha in (0.5, 1.0):
        for k in range(6):
            cases.append(
                (laplace.NamedSignal("power_p", p=k * alpha), alpha,
                 (1.0, 2.0, 3.0, 5.0, 8.0))
            )
    cases.append((laplace.NamedSignal("exp_u"), 0.5, (1.5, 2.0, 3.0, 5.0, 8.0)))
    cases.append(
        (laplace.NamedSignal("sin_wu", omega=1.0), 0.5, (1.0, 1.5, 2.0, 4.0, 8.0))
    )
    cases.append(
        (laplace.NamedSignal("cos_wu", omega=1.0), 0.5, (1.0, 1.5, 2.0, 4.0, 8.0))
    )
    misses = []
    for sig, alpha, grid in cases:
        F_s = laplace.transform_named(sig, alpha)
        g = sig.reduced(alpha)
        for s in grid:
            numeric = integrate.quad_transform(g, s, rule)
            if abs(numeric - F_s(s)) > 1e-6:
                misses.append((sig.kind, sig.p, s, abs(numeric - F_s(s))))
    ok = _report(
        7, not misses,
        f"{len(cases)} named pairs x 5-point s-grids, quadrature within 1e-6 "
        f"({time.time() - start:.2f}s)",
    )
    _budget(7, start, 5.0)
    assert ok, f"quadrature misses: {misses}"


def test_c08_transform_property_suite():
    start = time.time()
    rng = random.Random(2024)
    shifts = (F(1), F(2), F(1, 2))
    failures = []
    for i in range(100):
        p = random_exppoly(rng, rates=(F(-3), F(-2), F(-1), F(0), F(1, 2)),
                           max_degree=8)
        q = random_exppoly(rng)
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        b = F(rng.randint(-4, 4), rng.randint(1, 3))
        if laplace.transform(a * p + b * q) != a * laplace.transform(p) + b * laplace.transform(q):
            failures.append((i, "linearity"))
        shift = shifts[i % 3]
        if laplace.transform(ExpPoly.exp(-shift) * p) != laplace.transform(p).shifted(shift):
            failures.append((i, "shift"))
        n = i % 5
        if laplace.transform(ExpPoly.from_poly(ReducedPoly.monomial(n)) * p) != (
            (-1) ** n * laplace.transform(p).d_ds(n)
        ):
            failures.append((i, "u-multiplication"))
        if laplace.transform(p.d_alpha()) != laplace.derivative_rule(
            laplace.transform(p), p.value_at_zero()
        ):
            failures.append((i, "derivative-rule"))
    ok = _report(
        8, not failures,
        f"linearity, shift, u-multiplication, derivative rule exact on "
        f"100 random instances ({time.time() - start:.2f}s)",
    )
    _budget(8, start, 5.0)
    assert ok, f"property failures: {failures}"


def test_c09_s_domain_residual():
    start = time.time()
    bad = [
        n
        for n in range(13)
        if not laplace.s_domain_residual(laplace.laguerre_transform(n), n).is_zero
    ]
    ok = _report(
        9, not bad, f"(s-1)^n/s^(n+1) annihilates the s-domain operator, "
        f"n <= 12, exact ({time.time() - start:.2f}s)"
    )
    _budget(9, start, 1.0)
    assert ok, f"nonzero residual at n in {bad}"


def test_c10_classical_oracle():
    start = time.time()
    misses = []
    for n in range(13):
        poly = laguerre_closed(n)
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            diff = abs(poly.eval(x, 1.0) - laguerre_pair(n, 0, x)[0])
            if diff > 1e-10:
                misses.append((n, x, diff))
    ok = _report(
        10, not misses, f"alpha=1 values vs three-term recurrence at 5 "
        f"x-points, n <= 12, 1e-10 ({time.time() - start:.2f}s)"
    )
    _budget(10, start, 1.0)
    assert ok, f"oracle misses: {misses}"


def test_c11_derivative_convergence_order():
    start = time.time()
    slow = []
    for n in range(6):
        poly = laguerre_closed(n)
        exact = poly.deriv()
        for alpha in (0.25, 0.5, 0.75, 1.0):
            for x in (0.5, 1.0, 2.0):
                want = exact.eval(x, alpha)
                f = lambda t: poly.eval(t, alpha)
                e1 = abs(d_alpha_numeric(f, x, alpha, h=0.05) - want)
                e2 = abs(d_alpha_numeric(f, x, alpha, h=0.025) - want)
                if e1 <= 1e-12 and e2 <= 1e-12:
                    continue  # differences at the roundoff floor
                order = math.log2(e1 / e2)
                if order < 1.9:
                    slow.append((n, alpha, x, order))
    ok = _report(
        11, not slow, f"central differences of the limit definition converge "
        f"at order >= 1.9, L0..L5 ({time.time() - start:.2f}s)"
    )
    _budget(11, start, 2.0)
    assert ok, f"slow convergence at: {slow}"


_FIXTURE_ALPHAS = (0.5, 0.75, 1.0)


def _table_rows(n, m, alphas):
    table = build_table(n, m, alphas, 0.0, 4.0, 5)
    return [
        [float(cell) for cell in line.split(",")]
        for line in table.to_csv().strip().splitlines()[1:]
    ]


def test_c12_figure_reproduction():
    start = time.time()
    formula_misses = []
    exact_misses = []
    for fig in FIGURES:
        poly = assoc_closed(fig.n, fig.m)
        for row in _table_rows(fig.n, fig.m, _FIXTURE_ALPHAS):
            x = row[0]
            for column, alpha in enumerate(_FIXTURE_ALPHAS, start=1):
                diff = abs(row[column] - fig.formula(x, alpha))
                if diff > 1e-12:
                    formula_misses.append((fig.number, x, alpha, diff))
            # the table runs the recurrence; the alpha=1 oracle is exact
            # Horner at Fraction(x), rounded once
            diff = abs(row[-1] - float(poly(F(x))))
            if diff > 1e-10:
                exact_misses.append((fig.number, x, diff))
    ok = _report(
        "12a", not formula_misses and not exact_misses,
        f"table output vs caption formulas (1e-12) and vs exact values "
        f"at alpha=1 (1e-10), 11 figures ({time.time() - start:.2f}s)",
    )
    _budget("12a", start, 2.0)
    assert ok, (
        f"caption mismatches: {formula_misses}; exact mismatches: "
        f"{exact_misses}"
    )


def test_c12_alpha_approach_bounds():
    """Approach to alpha=1 at x=1: monotone, first order, Taylor-tail bound.

    For the alpha in {0.9, 0.99} columns, the deviation from the alpha=1
    column at x=1 must shrink as alpha -> 1, and it must equal the exact
    first-order term L'(1)*h, h = (1-alpha)/alpha, up to the Taylor tail
    sum_{k>=2} |L^(k)(1)| * h**k / k! plus the 1e-12 float allowance of 12a.
    The tail is exact since L is a polynomial in u, and the value at x=1 is
    L(1/alpha) = L(1 + h).  The check fails for a column built at the wrong
    alpha, for a first-order term of the wrong sign, and for u = x**alpha
    (zero deviation).

    The criterion was first stated as |deviation| <= 1e-2 at alpha=0.9 and
    1e-4 at alpha=0.99.  Those are (1-alpha)**2, the size of the tail, not of
    the deviation: L'(1) is nonzero for all 11 figures, so the deviation is
    first order (3.3e-2 to 1.02 at alpha=0.9, 1.8e-3 to 9.6e-2 at 0.99) and
    no polynomial that agrees with the paper can meet them.
    """
    start = time.time()
    not_monotone = []
    cases = []
    for fig in FIGURES:
        poly = assoc_closed(fig.n, fig.m)
        rows = _table_rows(fig.n, fig.m, (0.9, 0.99, 1.0))
        row = next(r for r in rows if r[0] == 1.0)
        dev_09 = row[1] - row[3]
        dev_099 = row[2] - row[3]
        if not abs(dev_099) < abs(dev_09):
            not_monotone.append(fig.number)
        for alpha, dev in ((0.9, dev_09), (0.99, dev_099)):
            h = (1 - F(alpha)) / F(alpha)
            linear = float(poly.deriv()(1) * h)
            tail = float(sum(
                abs(poly.deriv(k)(1)) * h**k / math.factorial(k)
                for k in range(2, poly.degree + 1)
            ))
            cases.append((fig.number, alpha, dev, linear, dev - linear, tail))
    margin = lambda case: abs(case[4]) / (case[5] + 1e-12)
    over_bound = [case for case in cases if abs(case[4]) > case[5] + 1e-12]
    worst = max(cases, key=margin)
    ok = _report(
        "12b", not not_monotone and not over_bound,
        f"alpha -> 1 approach at x=1 monotone, first order L'(1)*h within the "
        f"Taylor tail + 1e-12; worst |remainder|/(tail + 1e-12) = "
        f"{margin(worst):.4f} (figure {worst[0]}, alpha={worst[1]}) "
        f"({time.time() - start:.2f}s)",
    )
    _budget("12b", start, 2.0)
    assert ok, (
        f"monotonicity violations: {not_monotone}; "
        f"(figure, alpha, deviation, L'(1)*h, remainder, bound) over the "
        f"Taylor-tail bound + 1e-12: {over_bound}"
    )


def test_full_verification_sweep_under_budget():
    start = time.time()
    report = run_suites("all")
    elapsed = time.time() - start
    failing = [e.name for e in report.entries if not e.passed]
    ok = _report(
        "all", report.all_passed and elapsed < 60.0,
        f"{len(report.entries)} verification suites in {elapsed:.2f}s "
        f"(budget 60s)",
    )
    assert ok, f"failing suites: {failing}; elapsed {elapsed:.2f}s"
