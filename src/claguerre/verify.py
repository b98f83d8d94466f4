"""The check registry: every self-check suite, behind ``claguerre verify``.

Every suite re-derives an identity along an independent route and compares.
This is the one place where the paper's acceptance criteria are coded;
``tests/test_acceptance.py`` only maps each criterion onto suites here.
Randomized suites draw from a fixed seed so repeated runs are identical.
A failing or crashing suite comes back as a SuiteResult with ``passed``
false rather than as an exception; ``claguerre verify`` exits 1 when any
suite failed.
"""

from __future__ import annotations

import math
import random
import re
from collections import namedtuple
from fractions import Fraction

from . import integrate, laplace
from .alpha_calc import (
    ExpPoly,
    ReducedPoly,
    d_alpha_n,
    d_alpha_numeric,
    x_view_str,
)
from .laguerre import (
    assoc_closed,
    assoc_from_derivative,
    assoc_rodrigues,
    generating_series,
    laguerre_closed,
    laguerre_ode,
    ode_residual,
    values_at_zero,
)
from .recurrence import laguerre_pair
from .tables import build_table

__all__ = [
    "ROUTES",
    "SUITES",
    "SuiteResult",
    "check_routes",
    "random_exppoly",
    "run_suites",
    "scope_names",
]

_SEED = 0x1A9


def _ensure(condition: bool, message) -> None:
    """Raise AssertionError unless ``condition`` holds.  ``message`` is the
    failure text, or a callable that builds it: a message that formats
    values (an ExpPoly's str costs tens of microseconds) is only built for
    a failing check."""
    if not condition:
        raise AssertionError(message() if callable(message) else message)


def _close(got: float, want: float, tol: float, where) -> float:
    """The one tolerance comparison: |got - want| / tol, or AssertionError
    when |got - want| exceeds ``tol``.  The failure text starts with
    ``where()``, which is only called on failure, and gives both values,
    |diff| and the bound."""
    diff = abs(got - want)
    if not diff <= tol:
        raise AssertionError(
            f"{where()}: {got!r} vs {want!r}, |diff| = {diff:.3e} > {tol:.3g}"
        )
    return diff / tol


class SuiteResult(namedtuple("SuiteResult", "name passed detail")):
    """One suite's outcome: ``module/suite`` name, pass flag and a one-line detail."""

    __slots__ = ()


def random_exppoly(
    rng: random.Random,
    rates=(Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)),
    max_degree: int = 6,
    max_terms: int = 3,
) -> ExpPoly:
    """Up to ``max_terms`` of the distinct exact ``rates``, each times a
    polynomial of degree at most ``max_degree`` with coefficients p/q,
    p in [-4, 4] and q in [1, 3], built on integers over the lcm of the
    drawn q."""
    drawn = []
    for rate in rng.sample(list(rates), k=rng.randint(1, min(max_terms, len(rates)))):
        drawn.append((rate, _draw_coeffs(rng, rng.randint(0, max_degree))))
    den = math.lcm(*(q for _, cs in drawn for _, q in cs))
    drawn.sort(key=lambda t: t[0])
    if any(r == s for (r, _), (s, _) in zip(drawn, drawn[1:])):
        raise ValueError("rates must be distinct")
    return ExpPoly._from_block(
        [(r.numerator, r.denominator) for r, _ in drawn],
        [[p * (den // q) for p, q in cs] for _, cs in drawn],
        den,
    )


def _random_poly(rng: random.Random, max_degree: int = 6) -> ReducedPoly:
    cs = _draw_coeffs(rng, rng.randint(0, max_degree))
    den = math.lcm(*(q for _, q in cs))
    return ReducedPoly._from_ints([p * (den // q) for p, q in cs], den)


def _draw_coeffs(rng: random.Random, degree: int) -> list[tuple[int, int]]:
    """degree + 1 coefficients as (p, q) pairs, p drawn before q."""
    return [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)]


# -- alpha_calc ---------------------------------------------------------------


def _suite_product_rule() -> str:
    rng = random.Random(_SEED)
    for _ in range(40):
        p, q = random_exppoly(rng), random_exppoly(rng)
        lhs = (p * q).d_alpha()
        rhs = p.d_alpha() * q + p * q.d_alpha()
        _ensure(lhs == rhs, lambda: f"product rule broken for {p} and {q}")
    return "40 random pairs, exact"


def _suite_leibniz() -> str:
    rng = random.Random(_SEED + 1)
    checks = 0
    for _ in range(12):
        f = random_exppoly(rng, max_degree=3, max_terms=2)
        g = random_exppoly(rng, max_degree=3, max_terms=2)
        fg = f * g
        for n in range(6):
            lhs = d_alpha_n(fg, n)
            rhs = ExpPoly()
            for k in range(n + 1):
                rhs = rhs + math.comb(n, k) * (
                    d_alpha_n(f, n - k) * d_alpha_n(g, k)
                )
            _ensure(lhs == rhs, lambda: f"binomial expansion broken at n={n}")
            checks += 1
    return f"{checks} expansions up to order 5, exact"


def _suite_numeric_derivative() -> str:
    checks = 0
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
                    checks += 1
                    continue
                _ensure(
                    math.log2(e1 / e2) >= 1.9,
                    lambda: f"halving h only cut the error {e1:.3e} -> {e2:.3e} "
                    f"(n={n}, alpha={alpha}, x={x})",
                )
                checks += 1
    return f"{checks} points, observed order log2(e1/e2) >= 1.9 under halving"


def _suite_canonical_idempotence() -> str:
    rng = random.Random(_SEED + 2)
    for _ in range(60):
        p = _random_poly(rng)
        _ensure(ReducedPoly(p.coeffs) == p, "polynomial re-canonicalization moved")
        e = random_exppoly(rng)
        _ensure(ExpPoly(e.terms) == e, "exp-polynomial re-canonicalization moved")
    return "60 random values, rebuild is the identity"


# One term of the printed x-view: c, or c * a^(-k) * x^(k*a).
_X_TERM = re.compile(r"(-?\d+(?:/\d+)?)(?: \* a\^\((-?\d+)\) \* x\^\((\d+)\*a\))?")


def _suite_x_view_round_trip() -> str:
    # Read back at alpha = 1/2 and x = 4, where a^(-k) * x^(k*a) = 4**k, the
    # printed x-view must give p(4) exactly.
    rng = random.Random(_SEED + 3)
    for _ in range(60):
        p = _random_poly(rng, max_degree=8)
        text, total = x_view_str(p), Fraction(0)
        for term in text.replace(" - ", " + -").split(" + "):
            c, power, k = _X_TERM.fullmatch(term).groups()
            total += Fraction(c) * (Fraction(1, 2) ** int(power) * 2 ** int(k) if k else 1)
        _ensure(total == p(4), lambda: f"x-view {text} misreads {p}")
    return "60 random polynomials, printed x-view read back exactly"


# -- laguerre -----------------------------------------------------------------


# Every construction of L_n^m, read by each agreement check: name -> (column,
# max_m); column(top, m) builds L_0^m ... L_top^m along that route alone, for
# m <= max_m when that is set.  Columns call builders by name, so tracing sees them.
ROUTES = {
    "closed form": (lambda top, m: [assoc_closed(n, m) for n in range(top + 1)], None),
    "Rodrigues": (lambda top, m: [assoc_rodrigues(n, m) for n in range(top + 1)], None),
    "m-fold derivative": (
        lambda top, m: [assoc_from_derivative(n, m) for n in range(top + 1)], None),
    "generating series": (lambda top, m: generating_series(m, max(top, 1))[:top + 1], None),
    "Laplace solve": (lambda top, m: [laplace.solve_laguerre_ode(n) for n in range(top + 1)], 0),
}


def check_routes(top: int, orders, names=None) -> int:
    """Check that each route of ``names`` (default: every row but the first,
    the closed form) that covers m builds the closed form's column, for each m
    of ``orders``; the number of (route, n, m) comparisons."""
    count = 0
    for m in orders:
        closed = ROUTES["closed form"][0](top, m)
        for name in names or list(ROUTES)[1:]:
            column, max_m = ROUTES[name]
            if max_m is None or m <= max_m:
                for n, (got, want) in enumerate(zip(column(top, m), closed, strict=True)):
                    _ensure(got == want, lambda: f"{name} route differs from the closed "
                            f"form at (n={n}, m={m})")
                count += top + 1
    return count


def _agreement(top: int, orders, names, detail: str):
    """A suite that is one :func:`check_routes` call of ``names``."""
    def suite() -> str:
        check_routes(top, orders, names)
        return detail
    return suite


def _suite_ode_annihilation() -> str:
    for n in range(11):
        for m in range(5):
            residual = ode_residual(assoc_closed(n, m), n, m)
            _ensure(residual.is_zero, lambda: f"residual {residual} at (n={n}, m={m})")
    return "n <= 10, m <= 4, residual identically zero"


def _suite_zero_values() -> str:
    for n in range(13):
        got = values_at_zero(n)
        want = (Fraction(1), Fraction(-n), Fraction(n * (n - 1), 2))
        _ensure(got == want, lambda: f"values at zero {got} != {want} for n={n}")
    return "n <= 12, (1, -n, n(n-1)/2) exact"


def _suite_classical_oracle() -> str:
    for n in range(13):
        for m in range(5):
            poly = assoc_closed(n, m)
            for x in (0.1, 0.5, 1.0, 2.0, 5.0):
                _close(poly.eval(x, 1.0), laguerre_pair(n, m, x)[0], 1e-10,
                       lambda: f"alpha=1 value vs recurrence at (n={n}, m={m}, x={x})")
    return "n <= 12, m <= 4 against the three-term recurrence, 1e-10"


def _suite_generating_numeric() -> str:
    t = 0.3
    for m in range(4):
        polys = [assoc_closed(n, m) for n in range(26)]
        for alpha in (0.5, 1.0):
            for x in (0.5, 1.0):
                u = x**alpha / alpha
                total = math.fsum(
                    poly.eval(x, alpha) * t**n for n, poly in enumerate(polys)
                )
                closed = math.exp(-u * t / (1 - t)) / (1 - t) ** (m + 1)
                _close(total, closed, 1e-8, lambda: "partial sum vs closed form "
                       f"at (m={m}, alpha={alpha}, x={x})")
    return "orders m <= 3, partial sums to t^25 at t=0.3 within 1e-8"


# -- laplace ------------------------------------------------------------------

_ROUND_TRIP_RATES = (
    Fraction(-3),
    Fraction(-2),
    Fraction(-1),
    Fraction(0),
    Fraction(1, 2),
)


def _suite_round_trip() -> str:
    rng = random.Random(_SEED + 4)
    for _ in range(40):
        p = random_exppoly(rng, rates=_ROUND_TRIP_RATES, max_degree=8)
        _ensure(
            laplace.inverse(laplace.transform(p)) == p,
            lambda: f"round trip moved {p}",
        )
    return "40 random exp-polynomials, inverse(transform) exact"


# The four transform-rule suites draw from the round-trip rates at degree
# <= 8 and from rate 1, a growing exponential.
_PROPERTY_RATES = _ROUND_TRIP_RATES + (Fraction(1),)
_PROPERTY_DRAWS = 100


def _property_draw(rng: random.Random) -> ExpPoly:
    return random_exppoly(rng, rates=_PROPERTY_RATES, max_degree=8)


def _suite_linearity() -> str:
    rng = random.Random(_SEED + 5)
    for _ in range(_PROPERTY_DRAWS):
        p, q = _property_draw(rng), _property_draw(rng)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = laplace.transform(a * p + b * q)
        rhs = a * laplace.transform(p) + b * laplace.transform(q)
        _ensure(lhs == rhs, "linearity broken")
    return f"{_PROPERTY_DRAWS} random rational combinations, exact"


def _suite_shift() -> str:
    rng = random.Random(_SEED + 6)
    shifts = (Fraction(1), Fraction(2), Fraction(1, 2))
    for i in range(_PROPERTY_DRAWS):
        a, p = shifts[i % 3], _property_draw(rng)
        T = laplace.transform(p)
        S = T.shifted(a)
        ok = laplace.transform(ExpPoly.exp(-a) * p) == S
        if i % 15 == 2:  # s^2 F(s) has a polynomial part, shifted too
            sS = S.mul_s()
            ok &= T.mul_s().mul_s().shifted(a) == sS.mul_s() + 2 * a * sS + a * a * S
        _ensure(ok, lambda: f"shift by {a} broken for {p}")
    return (f"{_PROPERTY_DRAWS} draws, a in {{1, 2, 1/2}}, exact partial-fraction "
            "identity, 7 also on s^2 F(s)")


def _suite_u_multiplication() -> str:
    rng = random.Random(_SEED + 7)
    for i in range(_PROPERTY_DRAWS):
        n, p = i % 5, _property_draw(rng)
        lhs = laplace.transform(ExpPoly.from_poly(ReducedPoly.monomial(n)) * p)
        rhs = (-1) ** n * laplace.transform(p).d_ds(n)
        _ensure(lhs == rhs, lambda: f"u^{n} multiplication rule broken")
    return f"{_PROPERTY_DRAWS} draws, orders n <= 4, (-1)^n d^n/ds^n exact"


def _suite_derivative_rule() -> str:
    rng = random.Random(_SEED + 8)
    for _ in range(_PROPERTY_DRAWS):
        p = _property_draw(rng)
        lhs = laplace.transform(p.d_alpha())
        rhs = laplace.derivative_rule(laplace.transform(p), p.value_at_zero())
        _ensure(lhs == rhs, lambda: f"derivative rule broken for {p}")
    return f"{_PROPERTY_DRAWS} random exp-polynomials, s*F - f(0) exact"


def _named_pair_cases():
    """(signal, alpha, s grid, tolerance of the quadrature check) per pair."""
    grid = (1.0, 2.0, 3.0, 5.0, 8.0)
    powers = tuple(
        (integrate.NamedSignal("power_p", p=k * alpha), alpha, grid, 1e-8)
        for alpha in (0.5, 1.0)
        for k in range(6)
    )
    return (
        (integrate.NamedSignal("one"), 0.75, (0.5, 1.0, 2.0, 4.0, 8.0), 1e-8),
        *powers,
        (integrate.NamedSignal("exp_u"), 0.5, (1.5, 2.0, 3.0, 5.0, 8.0), 1e-8),
        (integrate.NamedSignal("sin_wu", omega=1.0), 0.5, (1.0, 1.5, 2.0, 4.0, 8.0), 1e-6),
        (integrate.NamedSignal("cos_wu", omega=1.0), 0.5, (1.0, 1.5, 2.0, 4.0, 8.0), 1e-6),
        # w^2 + s^2 overflows, so these take the scaled branch of the image
        (integrate.NamedSignal("sin_wu", omega=1e200), 0.5, (1e200,), 1e-6),
        (integrate.NamedSignal("cos_wu", omega=1e200), 0.5, (1e200,), 1e-6),
    )


def _suite_named_pairs() -> str:
    # the check is the one ``transform --s`` prints
    checks = 0
    for sig, alpha, grid, tol in _named_pair_cases():
        F = integrate.transform_named(sig, alpha)
        g = sig.reduced(alpha)
        for s in grid:
            closed, numeric = integrate.transform_check(F, g, s)
            _close(numeric, closed, tol, lambda: f"{sig!r} at s={s}: quadrature vs closed")
            checks += 1
    return (f"{checks} (signal, s) pairs against the "
            f"{integrate.TRANSFORM_CHECK_ORDER}-point rule")


def _suite_s_domain_residual() -> str:
    for n in range(13):
        # a Y solved from a wrong operator still has a zero residual
        Y = laplace.laguerre_transform(n)
        _ensure(Y == laplace.transform(laguerre_closed(n)),
                lambda: f"solved image {Y} is not the transform of L_{n}")
        residual = laplace.s_domain_residual(Y, n)
        _ensure(residual.is_zero, lambda: f"nonzero residual {residual} at n={n}")
    rng = random.Random(_SEED + 10)  # L{sum_j P_j y^(j)} is the residual of L{y}
    for i in range(26):
        n, y = i // 2, random_exppoly(rng, max_degree=4, max_terms=2)
        lhs = sum(ReducedPoly(P) * d_alpha_n(y, j) for j, P in enumerate(laguerre_ode(n)))
        _ensure(laplace.transform(lhs) == laplace.s_domain_residual(laplace.transform(y), n),
                lambda: f"residual is not the transformed equation at n={n} for {y}")
    return ("n <= 12, the solved image is the transform of the closed form and "
            "annihilates the operator; on 26 random exp-polynomials it is the "
            "transformed equation, exact")


# -- integrate ----------------------------------------------------------------


def _suite_exact_vs_quadrature() -> str:
    rng = random.Random(_SEED + 9)
    # order 20 truncates at 1.3e-8 relative on u^10 * exp(-u/2), the slowest
    # admissible decay at the highest admissible degree, and signed
    # coefficients can cancel the exact moment far below the per-term error
    # floor; order 32 holds the 1e-8 budget with a 47x margin over 800
    # measured draw/alpha combinations
    rule = integrate.gauss_laguerre(32)
    decaying = (Fraction(-1, 2), Fraction(-1), Fraction(-2), Fraction(-3))
    for _ in range(10):
        p = random_exppoly(rng, rates=decaying, max_degree=10)
        want = float(integrate.moment_exact(p))
        for alpha in (0.25, 0.5, 0.75, 1.0):
            f = lambda x: p.eval(x, alpha)
            got = integrate.quad_dalpha(f, alpha, rule)
            _close(got, want, 1e-8 * (1 + abs(want)),
                   lambda: f"quadrature vs exact at alpha={alpha} for {p}")
    return "10 random integrands x 4 orders, 1e-8 relative"


def _suite_alpha_independence() -> str:
    rule = integrate.gauss_laguerre(20)
    integrands = (
        ExpPoly.exp(-1, laguerre_closed(2) * laguerre_closed(2)),
        ExpPoly.exp(-1, ReducedPoly((1, 1, Fraction(1, 2)))),
        ExpPoly.exp(-2, ReducedPoly.monomial(3)),
    )
    for p in integrands:
        values = []
        for alpha in (0.25, 0.5, 0.75, 1.0):
            f = lambda x: p.eval(x, alpha)
            values.append(integrate.quad_dalpha(f, alpha, rule))
        _close(max(values), min(values), 1e-8 * (1 + max(abs(v) for v in values)),
               lambda: f"largest vs smallest over alpha for {p}")
    return "3 integrands x 4 orders, spread below 1e-8"


def _suite_orthogonality_matrix() -> str:
    for i in range(11):
        for j in range(11):
            value = integrate.orthonormality(i, j)
            want = Fraction(1 if i == j else 0)
            _ensure(value == want, lambda: f"entry ({i},{j}) = {value}")
    return "11x11 weighted product matrix is exactly the identity"


def _suite_gauss_exactness() -> str:
    for order in (5, 10, 20):
        rule = integrate.gauss_laguerre(order)
        for k in range(2 * order):
            got = math.fsum(
                w * u**k for u, w in zip(rule.nodes, rule.weights)
            )
            want = float(math.factorial(k))
            _close(got, want, 1e-10 * want, lambda: f"moment u^{k} at order {order}")
    return "orders 5, 10, 20 reproduce k! for k <= 2N-1 at 1e-10 relative"


# -- cli ----------------------------------------------------------------------

# The eleven plotted polynomials, each display formula written directly in x
# and alpha with the original arrangement of powers and denominators.  They
# never touch the reduced-variable coefficient path: an oracle for ``table``.
class FigureFixture(namedtuple("FigureFixture", "number n m formula")):
    """Figure ``number`` plots L_n^m; ``formula(x, alpha)`` is its display form."""

    __slots__ = ()


FIGURES: tuple[FigureFixture, ...] = (
    FigureFixture(1, 1, 0, lambda x, a: 1 - x**a / a),
    FigureFixture(2, 2, 0, lambda x, a: 1 + x ** (2 * a) / (2 * a**2) - 2 * x**a / a),
    FigureFixture(
        3, 3, 0,
        lambda x, a: -(x ** (3 * a) - 9 * a * x ** (2 * a) + 18 * a**2 * x**a - 6 * a**3)
        / (6 * a**3),
    ),
    FigureFixture(
        4, 4, 0,
        lambda x, a: 1
        + x ** (4 * a) / (24 * a**4)
        - 2 * x ** (3 * a) / (3 * a**3)
        + 3 * x ** (2 * a) / a**2
        - 4 * x**a / a,
    ),
    FigureFixture(
        5, 5, 0,
        lambda x, a: 1
        - x ** (5 * a) / (120 * a**5)
        + 5 * x ** (4 * a) / (24 * a**4)
        - 5 * x ** (3 * a) / (3 * a**3)
        + 5 * x ** (2 * a) / a**2
        - 5 * x**a / a,
    ),
    FigureFixture(6, 1, 1, lambda x, a: 2 - x**a / a),
    FigureFixture(
        7, 2, 1, lambda x, a: x ** (2 * a) / (2 * a**2) - 3 * x**a / a + 3
    ),
    FigureFixture(
        8, 2, 2, lambda x, a: x ** (2 * a) / (2 * a**2) - 4 * x**a / a + 6
    ),
    FigureFixture(
        9, 3, 1,
        lambda x, a: -x ** (3 * a) / (6 * a**3)
        + 2 * x ** (2 * a) / a**2
        - 6 * x**a / a
        + 4,
    ),
    FigureFixture(
        10, 3, 2,
        lambda x, a: -x ** (3 * a) / (6 * a**3)
        + 15 * x ** (2 * a) / (6 * a**2)
        - 10 * x**a / a
        + 10,
    ),
    FigureFixture(
        11, 3, 3,
        lambda x, a: -x ** (3 * a) / (6 * a**3)
        + 3 * x ** (2 * a) / a**2
        - 15 * x**a / a
        + 20,
    ),
)


_FIXTURE_ALPHAS = (0.5, 0.75, 1.0)


def _table_rows(fig, alphas):
    """The rendered CSV of figure ``fig`` on x = 0..4, parsed back to floats."""
    table = build_table(fig.n, fig.m, alphas, 0.0, 4.0, 5)
    return [
        [float(cell) for cell in line.split(",")]
        for line in table.to_csv().strip().split("\n")[1:]
    ]


def _suite_figure_fixtures() -> str:
    checks = 0
    for fig in FIGURES:
        for row in _table_rows(fig, _FIXTURE_ALPHAS):
            x = row[0]
            for column, alpha in enumerate(_FIXTURE_ALPHAS, start=1):
                _close(row[column], fig.formula(x, alpha), 1e-12,
                       lambda: f"figure {fig.number} at (x={x}, alpha={alpha}): "
                       "table vs formula")
                checks += 1
            # the table runs the recurrence, so its alpha = 1 column is
            # checked against exact Horner at Fraction(x), rounded once
            _close(row[-1], float(assoc_closed(fig.n, fig.m)(Fraction(x))), 1e-10,
                   lambda: f"figure {fig.number} at x={x}: alpha=1 column vs exact")
    return f"{checks} fixture points across 11 figures, 1e-12"


def _suite_alpha_approach() -> str:
    # At x = 1 the value is L(u) at u = 1/alpha = 1 + h, h = (1-alpha)/alpha,
    # so the deviation from the alpha = 1 column is L'(1)*h plus the Taylor
    # tail sum_{k>=2} |L^(k)(1)| * h**k / k!, exact since L is a polynomial
    # in u.  The approach was first stated with bounds of 1e-2 at alpha = 0.9
    # and 1e-4 at 0.99.  Those are (1-alpha)**2, the size of the tail, not of
    # the deviation: L'(1) is nonzero for all 11 figures, so the deviation is
    # first order (3.3e-2 to 1.02 at alpha = 0.9, 1.8e-3 to 9.6e-2 at 0.99)
    # and no polynomial that agrees with the paper can meet them.  The check
    # fails for a column built at the wrong alpha, for a first-order term of
    # the wrong sign and for u = x**alpha (zero deviation).
    worst = 0.0
    for fig in FIGURES:
        poly = assoc_closed(fig.n, fig.m)
        row = next(r for r in _table_rows(fig, (0.9, 0.99, 1.0)) if r[0] == 1.0)
        deviations = (row[1] - row[3], row[2] - row[3])
        _ensure(
            abs(deviations[1]) < abs(deviations[0]),
            lambda: f"figure {fig.number}: deviation at x=1 does not shrink as alpha -> 1",
        )
        for alpha, deviation in zip((0.9, 0.99), deviations):
            h = (1 - Fraction(alpha)) / Fraction(alpha)
            tail = float(sum(
                abs(poly.deriv(k)(1)) * h**k / math.factorial(k)
                for k in range(2, poly.degree + 1)
            ))
            ratio = _close(deviation, float(poly.deriv()(1) * h), tail + 1e-12,
                           lambda: f"figure {fig.number} at alpha={alpha}: deviation "
                           "vs L'(1)*h, bound the Taylor tail + 1e-12")
            worst = max(worst, ratio)
    return (
        f"11 figures, x=1 deviation at alpha in {{0.9, 0.99}} shrinks and is "
        f"L'(1)*h within the Taylor tail + 1e-12 (worst ratio {worst:.4f})"
    )


def _suite_csv_determinism() -> str:
    first = build_table(3, 1, (0.5, 1.0), 0.0, 6.0, 40).to_csv()
    second = build_table(3, 1, (0.5, 1.0), 0.0, 6.0, 40).to_csv()
    _ensure(first == second, "repeated renders differ")
    _ensure("\r" not in first, "carriage return in output")
    _ensure(first.endswith("\n"), "missing trailing newline")
    # L_0^m = 1 exactly, and no figure fixture has n = 0.
    constant = build_table(0, 1, (0.5, 1.0), 0.0, 6.0, 40)
    _ensure(
        all(v == 1.0 for column in constant.values[1:] for v in column),
        "an n = 0 value column is not exactly 1.0",
    )
    return "byte-identical renders, LF line endings, n = 0 columns exactly 1.0"


SUITES: dict[str, tuple[tuple[str, object], ...]] = {
    "alpha_calc": (
        ("product-rule", _suite_product_rule),
        ("leibniz-rule", _suite_leibniz),
        ("numeric-derivative-order", _suite_numeric_derivative),
        ("canonical-idempotence", _suite_canonical_idempotence),
        ("x-view-round-trip", _suite_x_view_round_trip),
    ),
    "laguerre": (
        ("triple-construction", _agreement(12, (0,), ("Rodrigues", "Laplace solve"),
                                           "n <= 12, three construction routes identical")),
        ("assoc-triple", _agreement(8, range(5), ("m-fold derivative", "Rodrigues"),
                                    "n <= 8, m <= 4, three construction routes identical")),
        ("ode-annihilation", _suite_ode_annihilation),
        ("generating-coefficients", _agreement(10, range(4), ("generating series",),
                                               "orders m <= 3 to t^10, coefficients exact")),
        ("zero-values", _suite_zero_values),
        ("classical-oracle-alpha1", _suite_classical_oracle),
        ("generating-numeric-sum", _suite_generating_numeric),
    ),
    "laplace": (
        ("round-trip", _suite_round_trip),
        ("linearity", _suite_linearity),
        ("shift", _suite_shift),
        ("u-multiplication", _suite_u_multiplication),
        ("derivative-rule", _suite_derivative_rule),
        ("named-pair-quadrature", _suite_named_pairs),
        ("s-domain-residual", _suite_s_domain_residual),
    ),
    "integrate": (
        ("exact-vs-quadrature", _suite_exact_vs_quadrature),
        ("alpha-independence", _suite_alpha_independence),
        ("orthogonality-identity-11x11", _suite_orthogonality_matrix),
        ("gauss-laguerre-exactness", _suite_gauss_exactness),
    ),
    "cli": (
        ("figure-fixtures", _suite_figure_fixtures),
        ("csv-determinism", _suite_csv_determinism),
        ("alpha-approach", _suite_alpha_approach),
    ),
}


def scope_names() -> tuple[str, ...]:
    return ("all",) + tuple(SUITES)


def run_suites(scope: str = "all") -> tuple[SuiteResult, ...]:
    """Run one module's suites, or everything, in registry order; a failing
    suite becomes a result, never an exception."""
    if scope == "all":
        modules = tuple(SUITES)
    elif scope in SUITES:
        modules = (scope,)
    else:
        raise ValueError(f"unknown scope {scope!r}; use one of {scope_names()}")
    entries = []
    for module in modules:
        for name, runner in SUITES[module]:
            try:
                detail = runner()
                entries.append(SuiteResult(f"{module}/{name}", True, detail))
            except AssertionError as exc:
                entries.append(SuiteResult(f"{module}/{name}", False, str(exc)))
            except Exception as exc:  # report, never crash the driver
                entries.append(
                    SuiteResult(f"{module}/{name}", False, f"{type(exc).__name__}: {exc}")
                )
    return tuple(entries)
