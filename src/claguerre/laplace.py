"""Conformable Laplace transform calculus over the exp-polynomial class.

The transform used here is F(s) = integral_0^inf exp(-s*u) f(u) du in the
reduced variable, which is the conformable transform with base point 0 after
the substitution u = x**alpha / alpha (the measure x**(alpha-1) dx turns into
du exactly).  On the exp-polynomial class the image is a rational function of
s; it is stored in expanded partial-fraction form, pole terms c/(s-l)**m plus
an explicit polynomial part, which keeps every manipulation exact.

Two conventions are supported at transform time.  Formal mode (the default)
treats every pair as formal algebra regardless of convergence, which is how
identities like exp(u) <-> 1/(s-1) are used in practice.  Strict mode rejects
rates with divergent integrals over the s-range of interest; numeric
verification uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .alpha_calc import (
    AlgebraError,
    ExpPoly,
    ReducedPoly,
    _as_fraction,
    _join_signed,
    as_alpha,
)

__all__ = [
    "ConvergenceError",
    "NamedSignal",
    "NonInvertibleError",
    "PoleTerm",
    "TransformExpr",
    "derivative_rule",
    "inverse",
    "laguerre_transform",
    "s_domain_residual",
    "solve_laguerre_ode",
    "transform",
    "transform_named",
]


class ConvergenceError(ValueError):
    """A rate lies outside the admissible convergence region (strict mode)."""


class NonInvertibleError(ValueError):
    """The expression has a polynomial part, so no function inverse exists."""


class PoleTerm(NamedTuple):
    """coeff / (s - rate)**order with exact rational coeff and rate."""

    coeff: Fraction
    rate: Fraction
    order: int


class TransformExpr:
    """Exact rational function of s in expanded partial-fraction form.

    Pole terms with equal (rate, order) are merged and zero coefficients are
    dropped, so equality is structural.  ``poly_part`` is a polynomial in s
    (a :class:`ReducedPoly` read with variable s); it is nonzero only for
    distributional images, which have no inverse in the function class.
    """

    __slots__ = ("_poles", "_poly")

    def __init__(
        self,
        poles: Iterable[tuple] = (),
        poly_part: "ReducedPoly | int | Fraction" = 0,
    ):
        merged: dict[tuple[Fraction, int], Fraction] = {}
        for coeff, rate, order in poles:
            if not (isinstance(order, int) and order >= 1):
                raise ValueError(f"pole order must be a positive integer, got {order!r}")
            key = (_as_fraction(rate), order)
            c = _as_fraction(coeff)
            merged[key] = merged[key] + c if key in merged else c
        self._poles = tuple(
            PoleTerm(merged[key], key[0], key[1])
            for key in sorted(merged)
            if merged[key] != 0
        )
        p = ReducedPoly._coerce(poly_part)
        if p is None:
            raise TypeError("poly_part must be exact")
        self._poly = p

    @property
    def poles(self) -> tuple[PoleTerm, ...]:
        return self._poles

    @property
    def poly_part(self) -> ReducedPoly:
        return self._poly

    @property
    def is_zero(self) -> bool:
        return not self._poles and self._poly.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TransformExpr((), other)
        if not isinstance(other, TransformExpr):
            return NotImplemented
        return self._poles == other._poles and self._poly == other._poly

    def __hash__(self):
        if not self._poles:
            # A pole-free expression equals (and hashes like) its polynomial.
            return hash(self._poly)
        return hash(("TransformExpr", self._poles, self._poly))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TransformExpr((), other)
        if not isinstance(other, TransformExpr):
            return NotImplemented
        return TransformExpr(
            self._poles + other._poles, self._poly + other._poly
        )

    __radd__ = __add__

    def __neg__(self):
        return TransformExpr(
            tuple((-c, r, m) for c, r, m in self._poles), -self._poly
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TransformExpr((), other)
        if not isinstance(other, TransformExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return TransformExpr(
            tuple((c * scalar, r, m) for c, r, m in self._poles),
            self._poly * scalar,
        )

    __rmul__ = __mul__

    def d_ds(self, n: int = 1) -> "TransformExpr":
        """Exact n-th derivative in s."""
        if not (isinstance(n, int) and n >= 0):
            raise ValueError("derivative order must be a nonnegative integer")
        poles = []
        for c, r, m in self._poles:
            rising = 1
            for j in range(n):
                rising *= m + j
            poles.append((c * (-1) ** n * rising, r, m + n))
        return TransformExpr(poles, self._poly.deriv(n))

    def mul_s(self) -> "TransformExpr":
        """Exact product by s, re-expanded into partial fractions.

        s * c/(s-l)**m = c/(s-l)**(m-1) + c*l/(s-l)**m, with the m = 1 case
        sending c to the polynomial part.
        """
        poles = []
        extra = ReducedPoly()
        for c, r, m in self._poles:
            poles.append((c * r, r, m))
            if m == 1:
                extra = extra + c
            else:
                poles.append((c, r, m - 1))
        shifted = ReducedPoly((Fraction(0),) + self._poly.coeffs)
        return TransformExpr(poles, shifted + extra)

    def shifted(self, a) -> "TransformExpr":
        """Substitute s -> s + a exactly."""
        a = _as_fraction(a)
        return TransformExpr(
            tuple((c, r - a, m) for c, r, m in self._poles),
            self._poly.taylor_shift(a),
        )

    def __call__(self, s: float) -> float:
        """Numeric value away from the poles, rounded once.

        The sum is formed exactly at Fraction(s): the pole terms of an image
        like (s-1)**n / s**(n+1) cancel to many orders of magnitude below
        their size, so a float sum would keep none of the value's digits.
        """
        s = Fraction(s)
        total = self._poly(s)
        for c, r, m in self._poles:
            total += c / (s - r) ** m
        return float(total)

    def __str__(self):
        pieces = []
        for c, r, m in self._poles:
            if r == 0:
                den = "s" if m == 1 else f"s^{m}"
            else:
                sign = "-" if r > 0 else "+"
                base = f"(s{sign}{abs(r)})"
                den = base if m == 1 else f"{base}^{m}"
            pieces.append((c < 0, f"{abs(c)}/{den}"))
        return _join_signed(pieces + self._poly._signed_terms("s"))

    def __repr__(self):
        return f"TransformExpr({self})"


def transform(f: ExpPoly, strict: bool = False) -> TransformExpr:
    """Forward transform: u**k * exp(r*u) maps to k!/(s-r)**(k+1).

    In strict mode rates r >= 1 are rejected, since exp(r*u) then diverges
    against exp(-s*u) over part of the unit s-range used for numeric checks.
    Formal mode admits every rational rate and treats the pair table as
    algebra, matching how the identities are actually applied.
    """
    f = ExpPoly._coerce(f)
    if f is None:
        raise TypeError("ExpPoly expected")
    poles = []
    for rate, poly in f.terms:
        if strict and rate >= 1:
            raise ConvergenceError(
                f"rate {rate} is outside the strict convergence region (rate < 1)"
            )
        for k, c in enumerate(poly.coeffs):
            if c:
                poles.append((c * math.factorial(k), rate, k + 1))
    return TransformExpr(poles)


def inverse(T: TransformExpr) -> ExpPoly:
    """Termwise inverse: c/(s-r)**m maps to c * u**(m-1) * exp(r*u) / (m-1)!."""
    if not T.poly_part.is_zero:
        raise NonInvertibleError(
            "polynomial part present; no inverse within the function class"
        )
    by_rate: dict[Fraction, list[Fraction]] = {}
    for c, r, m in T.poles:
        coeffs = by_rate.setdefault(r, [])
        coeffs.extend([Fraction(0)] * (m - len(coeffs)))
        coeffs[m - 1] = c / math.factorial(m - 1)
    return ExpPoly((r, ReducedPoly(coeffs)) for r, coeffs in by_rate.items())


def derivative_rule(T: TransformExpr, f0) -> TransformExpr:
    """Image of the conformable derivative: s*F(s) - f(0)."""
    return T.mul_s() - _as_fraction(f0)


@dataclass(frozen=True)
class NamedSignal:
    """A transcendental signal with a closed-form transform.

    Kinds: ``one``, ``power_p`` (x**p with p >= 0), ``exp_u``, ``sin_wu``
    and ``cos_wu`` (sine and cosine of omega*u).  The trigonometric pair is
    kept out of the exact core on purpose; it would need complex rates.
    """

    kind: str
    p: float = 0.0
    omega: float = 1.0

    _KINDS = ("one", "power_p", "exp_u", "sin_wu", "cos_wu")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.p < 0:
            raise ValueError("power must be nonnegative")
        if not math.isfinite(self.p):
            raise ValueError("power must be finite")
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")

    @property
    def s_min(self) -> float:
        """Lower edge of the convergence region."""
        return 1.0 if self.kind == "exp_u" else 0.0

    def reduced(self, alpha) -> Callable[[float], float]:
        """The signal as a function of u (the defining integrand ingredient)."""
        a = as_alpha(alpha)
        if self.kind == "one":
            return lambda u: 1.0
        if self.kind == "power_p":
            exponent = self.p / a
            return lambda u: (a * u) ** exponent
        if self.kind == "exp_u":
            return math.exp
        if self.kind == "sin_wu":
            w = self.omega
            return lambda u: math.sin(w * u)
        w = self.omega
        return lambda u: math.cos(w * u)

    def describe(self, alpha) -> str:
        a = as_alpha(alpha)
        if self.kind == "one":
            return "1/s"
        if self.kind == "power_p":
            return (
                f"a^(p/a) * Gamma(1 + p/a) / s^(1 + p/a)  [p = {self.p}, a = {a}]"
            )
        if self.kind == "exp_u":
            return "1/(s - 1)"
        if self.kind == "sin_wu":
            return f"w/(w^2 + s^2)  [w = {self.omega}]"
        return f"s/(w^2 + s^2)  [w = {self.omega}]"


def transform_named(sig: NamedSignal, alpha) -> Callable[[float], float]:
    """Closed-form transform of a named signal, as a numeric function of s.

    The power pair is a**(p/a) * Gamma(1 + p/a) / s**(1 + p/a).  The sine
    pair evaluates to w/(w^2 + s^2), which is what the defining integral
    gives (and what the cosine pair's s/(w^2 + s^2) pairs with); at w = 1 it
    agrees with the tabulated 1/(w^2 + s^2) form.  Gamma comes from
    math.gamma, comfortably below 1e-12 relative error on [1, 30].
    """
    a = as_alpha(alpha)
    s_min = sig.s_min

    def check(s: float) -> None:
        if s <= s_min:
            raise ValueError(
                f"s = {s} outside the convergence region s > {s_min} for {sig.kind}"
            )

    if sig.kind == "one":
        def F(s: float) -> float:
            check(s)
            return 1.0 / s
    elif sig.kind == "power_p":
        ratio = sig.p / a
        scale = a ** ratio * math.gamma(1.0 + ratio)

        def F(s: float) -> float:
            check(s)
            return scale / s ** (1.0 + ratio)
    elif sig.kind == "exp_u":
        def F(s: float) -> float:
            check(s)
            return 1.0 / (s - 1.0)
    elif sig.kind == "sin_wu":
        w = sig.omega

        def F(s: float) -> float:
            check(s)
            return w / (w * w + s * s)
    else:
        w = sig.omega

        def F(s: float) -> float:
            check(s)
            return s / (w * w + s * s)

    return F


def laguerre_transform(n: int) -> TransformExpr:
    """(s-1)**n / s**(n+1), expanded exactly into sum_k (-1)**k C(n,k)/s**(k+1)."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError("n must be a nonnegative integer")
    return TransformExpr(
        ((-1) ** k * math.comb(n, k), Fraction(0), k + 1) for k in range(n + 1)
    )


def s_domain_residual(Y: TransformExpr, n: int) -> TransformExpr:
    """Residual of the first-order s-domain equation
    -s(s-1) Y'(s) + (n+1-s) Y(s), with the global alpha factor divided out."""
    dY = Y.d_ds(1)
    s_dY = dY.mul_s()
    return -(s_dY.mul_s() - s_dY) + (n + 1) * Y - Y.mul_s()


def solve_laguerre_ode(n: int) -> ReducedPoly:
    """Replay of the transform-domain solution of the defining equation.

    Builds Y(s) = (s-1)**n / s**(n+1) by exact binomial expansion, checks
    that it annihilates the s-domain operator, and inverts termwise to the
    reduced polynomial sum_k (-1)**k C(n,k) u**k / k!.
    """
    Y = laguerre_transform(n)
    residual = s_domain_residual(Y, n)
    if not residual.is_zero:
        raise AlgebraError(f"s-domain residual is nonzero: {residual}")
    return inverse(Y).as_poly()
