"""Integration against the conformable measure x**(alpha-1) dx on [0, inf).

After the substitution u = x**alpha / alpha the measure is exactly du, so
everything integrates in u-space.  This is the one numerically load-bearing
choice in the package: the x-space weight is singular at 0 for alpha < 1,
while the u-space integrand is smooth, so quadrature never sees the branch
point.  Exact rational moments are the primary oracle; a Gauss-Laguerre rule
built here from scratch is the independent numeric one.  Its nodes come from
Newton on the three-term recurrence of :func:`claguerre.recurrence.laguerre_pair`,
started at the classical asymptotic guesses, and each finished rule is
memoised per order on first use.

The transcendental pairs are here too, each written once in ``_PAIRS``: the
integrand, the closed image, the printed label, the signal field the pair
reads and its convergence edge.  ``NamedSignal``, ``transform_named`` and the
``transform`` command only read that table, and ``transform_check`` checks
each image against its integrand.

The module is float work: at import it loads only ``math``, ``collections``
and the float layer :mod:`claguerre.recurrence`, so ``claguerre transform
<signal> --s`` compiles no exact algebra.  The two exact functions,
``moment_exact`` and ``orthonormality``, import ``fractions`` and the exact
modules on their first call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .recurrence import _check_real, as_alpha, laguerre_pair

__all__ = [
    "DivergenceError",
    "NamedSignal",
    "QuadratureRule",
    "RootFindingError",
    "TRANSFORM_CHECK_ORDER",
    "gauss_laguerre",
    "moment_exact",
    "orthonormality",
    "quad_dalpha",
    "quad_transform",
    "transform_check",
    "transform_named",
]


class DivergenceError(ValueError):
    """The integrand does not decay, so the integral diverges."""


class RootFindingError(RuntimeError):
    """Newton missed a node of a rule (indicates an implementation bug)."""


# The exact names that moment_exact and orthonormality read, bound by their
# first call rather than at import.  An import statement on every call cost
# about 5 us per orthonormality op, 3% of the exact-core benchmark's median
# op (2-vCPU Linux host, Python 3.11.7).
Fraction = ExpPoly = laguerre_closed = None


def _import_exact() -> None:
    global Fraction, ExpPoly, laguerre_closed
    from fractions import Fraction

    from .alpha_calc import ExpPoly
    from .laguerre import laguerre_closed


def moment_exact(f: ExpPoly) -> Fraction:
    """Exact integral of an exp-polynomial over [0, inf) in u-space.

    Termwise, integral of u**k * exp(r*u) du is k!/(-r)**(k+1), valid only
    for r < 0.  The value is the conformable integral of the rendered
    function for every order alpha at once; the substitution absorbs alpha.
    """
    if ExpPoly is None:
        _import_exact()
    f = ExpPoly._coerce(f)
    if f is None:
        raise TypeError("ExpPoly expected")
    top, bottom = 0, 1
    for (a, b), num in zip(f._keys, f._nums):
        if a >= 0:
            raise DivergenceError(f"rate {Fraction(a, b)} >= 0, integral diverges")
        # With -rate = a/b and K = deg, the term sum is
        # b * sum_k num[k] * k! * b**k * a**(K-k) / (den * a**(K+1)),
        # accumulated by Horner in a over the integer numerators.
        a = -a
        acc, weight = 0, 1
        for k, c in enumerate(num):
            if k:
                weight *= k * b
            acc = acc * a + c * weight
        d = a ** len(num)
        top, bottom = top * d + b * acc * bottom, bottom * d
    return Fraction(top, bottom * f._den)


def orthonormality(n: int, m_index: int) -> Fraction:
    """Exact value of the weighted product integral; 1 on the diagonal, else 0."""
    if ExpPoly is None:
        _import_exact()
    product = laguerre_closed(n) * laguerre_closed(m_index)
    return moment_exact(ExpPoly.exp(-1, product))


class QuadratureRule(namedtuple("QuadratureRule", "nodes weights order")):
    """Nodes and weights for integral_0^inf exp(-u) g(u) du.

    Nodes are strictly increasing, weights positive and summing to 1 within
    1e-12 (the zeroth moment); a rule of order N reproduces the moments of
    u**k for k <= 2N-1.
    """

    __slots__ = ()

    def __new__(
        cls, nodes: tuple[float, ...], weights: tuple[float, ...], order: int
    ) -> QuadratureRule:
        if len(nodes) != order or len(weights) != order:
            raise ValueError("rule must hold exactly `order` nodes and weights")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        if any(w <= 0.0 for w in weights):
            raise ValueError("weights must be positive")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (zeroth moment)")
        return super().__new__(cls, nodes, weights, order)


_RULES: dict[int, QuadratureRule] = {}


def _newton_root(n: int, x: float) -> float:
    """Zero of the classical degree-n polynomial reached by Newton from x.

    The derivative comes from x*L' = n*(L - L_prev).  The recurrence
    evaluates with ~1e-15 noise near a root, so a step at that scale means
    the iterate sits on the noise floor and the root is found.
    """
    for _ in range(30):
        value, prev = laguerre_pair(n, 0, x)
        step = value / (n * (value - prev) / x)
        x -= step
        if abs(step) <= 1e-14 * (1.0 + abs(x)):
            return x
    raise RootFindingError(f"Newton stalled near {x} for order {n}")


# The order of the fixed rule of :func:`transform_check`; it is exact up to
# degree 2 * order - 1.
TRANSFORM_CHECK_ORDER = 48


def gauss_laguerre(order: int) -> QuadratureRule:
    """Gauss-Laguerre rule of the given order, built once and then memoised.

    Each zero of L_N is found by Newton from the classical asymptotic
    initial guesses (Stroud & Secrest 1966, as in Numerical Recipes'
    gaulag for the plain weight): 3/(1+2.4N) for the first zero, plus
    15/(1+2.5N) for the second, and for the i-th an extrapolation from the
    two zeros before it.  A zero that does not converge, or zeros that are
    not strictly increasing, raise RootFindingError; N distinct zeros of a
    degree-N polynomial are all of its zeros.  Weights use the standard
    formula x / ((N+1) * L_{N+1}(x))**2.  Every value of L_N, L_{N-1} and
    L_{N+1} comes from :func:`claguerre.recurrence.laguerre_pair`, the
    library's one float evaluator.  The rule is frozen, so every call with
    the same order returns the same shared object.
    """
    if isinstance(order, bool) or not (isinstance(order, int) and 1 <= order <= 64):
        raise ValueError("order must be an integer in [1, 64]")
    rule = _RULES.get(order)
    if rule is not None:
        return rule
    roots: list[float] = []
    for i in range(order):
        if i == 0:
            guess = 3.0 / (1.0 + 2.4 * order)
        elif i == 1:
            guess = roots[0] + 15.0 / (1.0 + 2.5 * order)
        else:
            ratio = (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1))
            guess = roots[-1] + ratio * (roots[-1] - roots[-2])
        roots.append(_newton_root(order, guess))
    if any(b <= a for a, b in zip(roots, roots[1:])):
        raise RootFindingError(f"zeros of order {order} are not strictly increasing")
    weights = []
    for x in roots:
        value = laguerre_pair(order + 1, 0, x)[0]
        weights.append(x / ((order + 1) * value) ** 2)
    rule = _RULES[order] = QuadratureRule(tuple(roots), tuple(weights), order)
    return rule


def quad_dalpha(
    f: Callable[[float], float], alpha, rule: QuadratureRule
) -> float:
    """Estimate integral_0^inf f(x) x**(alpha-1) dx by quadrature in u-space.

    Substituting x = (alpha*u)**(1/alpha) leaves integral_0^inf f(x(u)) du;
    the implicit exp(-u) weight of the rule is compensated by exp(+u), folded
    into the weight on a log scale to keep large nodes in range.  The caller
    must supply f that decays like exp(-c*u) with c > 0 in u-space.
    """
    a = as_alpha(alpha)
    total = 0.0
    for u, w in zip(rule.nodes, rule.weights):
        x = (a * u) ** (1.0 / a)
        total += math.exp(u + math.log(w)) * f(x)
    return total


def quad_transform(
    g: Callable[[float], float], s: float, rule: QuadratureRule
) -> float:
    """Numeric forward transform integral_0^inf exp(-s*u) g(u) du.

    The substitution v = s*u maps onto the rule's native weight, giving
    (1/s) * sum_i w_i g(u_i / s).
    """
    if not s > 0.0:  # nan included
        raise ValueError("s must be positive")
    _check_real(s, "s")
    return math.fsum(w * g(u / s) for u, w in zip(rule.nodes, rule.weights)) / s


def transform_check(F, g, s: float, degree: int | None = None) -> tuple[float, float]:
    """The closed image F(s) and its quadrature check, the transform of g at s
    by the fixed rule of order TRANSFORM_CHECK_ORDER.

    This is the one check that ``claguerre transform ... --s`` prints and
    verify's named-pair suite bounds.  A non-finite s (the real rule, first),
    a g of ``degree`` past the rule's exactness, s <= 0 once F(s) is tried (F's
    region check speaks first) and a non-finite value raise ValueError, no nan.
    """
    _check_real(s, "s")
    exact_max = 2 * TRANSFORM_CHECK_ORDER - 1
    if degree is not None and degree > exact_max:
        raise ValueError(f"the quadrature check needs n <= {exact_max}, got {degree}")
    try:
        closed = F(s)
    except ArithmeticError:
        closed = math.nan
    if s <= 0:
        raise ValueError("s must be positive for the numeric check")
    if not math.isfinite(closed):
        raise ValueError(f"the transform at s={s!r} is not a finite float")
    try:
        numeric = quad_transform(g, s, gauss_laguerre(TRANSFORM_CHECK_ORDER))
    except (ArithmeticError, ValueError):
        numeric = math.nan
    if not math.isfinite(numeric):
        raise ValueError(f"the quadrature check at s={s!r} is not a finite float")
    return closed, numeric


def _over_squares(top: float, w: float, s: float) -> float:
    """top / (w^2 + s^2).  Where the sum of squares overflows, w and s are
    first scaled by max(|w|, |s|), so an image in the float range survives;
    elsewhere the expression is the plain one."""
    d = w * w + s * s
    if math.isfinite(d):
        return top / d
    c = max(abs(w), abs(s))
    w, s = w / c, s / c
    return top / c / (w * w + s * s) / c


# A named pair, read with a = alpha and v = the value of its NamedSignal
# ``field``: integrand(a, v) is g(u), image(a, v, s) is F(s) with no region
# check, label(a, v) prints F, and s_min is the edge of the region s > s_min.
# Gamma comes from math.gamma, below 1e-12 relative error on [1, 30].  The
# sine image w/(w^2 + s^2) is what the defining integral gives; at w = 1 it
# is the tabulated 1/(w^2 + s^2).
_Pair = namedtuple("_Pair", "integrand image label field s_min", defaults=(None, 0.0))
_PAIRS = {
    "one": _Pair(lambda a, v: lambda u: 1.0, lambda a, v, s: 1.0 / s, lambda a, v: "1/s"),
    "power_p": _Pair(
        lambda a, p: lambda u: (a * u) ** (p / a),
        lambda a, p, s: a ** (p / a) * math.gamma(1.0 + p / a) / s ** (1.0 + p / a),
        lambda a, p: f"a^(p/a) * Gamma(1 + p/a) / s^(1 + p/a)  [p = {p}, a = {a}]",
        field="p",
    ),
    "exp_u": _Pair(lambda a, v: math.exp, lambda a, v, s: 1.0 / (s - 1.0),
                   lambda a, v: "1/(s - 1)", s_min=1.0),
    "sin_wu": _Pair(
        lambda a, w: lambda u: math.sin(w * u),
        lambda a, w, s: _over_squares(w, w, s),
        lambda a, w: f"w/(w^2 + s^2)  [w = {w}]",
        field="omega",
    ),
    "cos_wu": _Pair(
        lambda a, w: lambda u: math.cos(w * u),
        lambda a, w, s: _over_squares(s, w, s),
        lambda a, w: f"s/(w^2 + s^2)  [w = {w}]",
        field="omega",
    ),
}


class NamedSignal(namedtuple("NamedSignal", "kind p omega")):
    """A transcendental signal with a closed-form transform.

    Kinds: ``one``, ``power_p`` (x**p with p >= 0), ``exp_u``, ``sin_wu``
    and ``cos_wu`` (sine and cosine of omega*u), each defined once in
    ``_PAIRS``.  The trigonometric pair is kept out of the exact core on
    purpose; it would need complex rates.
    """

    __slots__ = ()

    def __new__(cls, kind: str, p: float = 0.0, omega: float = 1.0) -> NamedSignal:
        if kind not in _PAIRS:
            raise ValueError(f"unknown signal kind {kind!r}")
        # + 0.0 turns a -0.0 into 0.0, so a zero parameter prints unsigned
        p = _check_real(p, "power", low=0) + 0.0
        omega = _check_real(omega, "omega") + 0.0
        return super().__new__(cls, kind, p, omega)

    @property
    def s_min(self) -> float:
        """Lower edge of the convergence region."""
        return _PAIRS[self.kind].s_min

    def _args(self, alpha) -> tuple:
        """(a, v) for the kind's pair: alpha, checked, and its field's value."""
        field = _PAIRS[self.kind].field
        return as_alpha(alpha), getattr(self, field) if field else None

    def reduced(self, alpha) -> Callable[[float], float]:
        """The signal as a function of u (the defining integrand ingredient)."""
        return _PAIRS[self.kind].integrand(*self._args(alpha))

    def describe(self, alpha) -> str:
        return _PAIRS[self.kind].label(*self._args(alpha))


def transform_named(sig: NamedSignal, alpha) -> Callable[[float], float]:
    """Closed-form transform of a named signal, as a numeric function of s.

    Nothing is evaluated before a call, so an image too large for a float
    raises at the s it is called with; a nan or infinite s raises
    ValueError, as for :class:`claguerre.laplace.TransformExpr`."""
    image, args, s_min = _PAIRS[sig.kind].image, sig._args(alpha), sig.s_min

    def F(s: float) -> float:
        _check_real(s, "s")
        if s <= s_min:
            raise ValueError(
                f"s = {s} outside the convergence region s > {s_min} for {sig.kind}"
            )
        return image(*args, s)

    return F
