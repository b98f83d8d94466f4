"""Conformable Laguerre and associated Laguerre polynomials.

Each polynomial is built along independent routes, kept apart so that they
check one another exactly: the explicit rational coefficients
(``laguerre_closed`` / ``assoc_closed``), the Rodrigues formula (iterated
conformable derivatives of u**n * exp(-u)), the m-fold derivative relation
and a truncated generating-function expansion in an auxiliary variable t.
With the Laplace solve of :mod:`claguerre.laplace` they are the rows of
``claguerre.verify.ROUTES``, the one table that every agreement check reads.

Fast float values, ``laguerre_pair`` and ``laguerre_column``, come from the
three-term recurrence of :mod:`claguerre.recurrence`, which never reads the
monomial coefficients, so the two check each other.

With constant term 1 for the plain family, the polynomials solve the one
copy of the defining equation, ``laguerre_ode``, and are orthonormal against
exp(-u) du on [0, inf); see :mod:`claguerre.integrate`.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import factorial, perm

from .alpha_calc import AlgebraError, ExpPoly, ReducedPoly, _add_ints, d_alpha_n
from .recurrence import _check_count, _check_index, _closed_form

__all__ = [
    "GeneratingExpansion",
    "assoc_closed",
    "assoc_from_derivative",
    "assoc_rodrigues",
    "generating_series",
    "laguerre_closed",
    "laguerre_ode",
    "laguerre_rodrigues",
    "ode_residual",
    "values_at_zero",
]


def laguerre_closed(n: int) -> ReducedPoly:
    """Degree-n polynomial with coefficient of u**k equal to
    (-1)**k * n! / ((n-k)! * (k!)**2): :func:`assoc_closed` at m = 0."""
    return assoc_closed(n, 0)


def laguerre_rodrigues(n: int) -> ReducedPoly:
    """Rodrigues construction, exp(u)/n! times the n-fold conformable
    derivative of u**n * exp(-u): :func:`assoc_rodrigues` at m = 0."""
    return assoc_rodrigues(n, 0)


def assoc_closed(n: int, m: int) -> ReducedPoly:
    """Associated polynomial with coefficient of u**r equal to
    (-1)**r * (n+m)! / ((n-r)! * (r+m)! * r!)."""
    _check_index(n, m)
    return ReducedPoly._make(*_closed_form(n, m))


def assoc_from_derivative(n: int, m: int) -> ReducedPoly:
    """(-1)**m times the m-fold conformable derivative of the plain
    polynomial of degree n + m."""
    _check_index(n, m)
    p = laguerre_closed(n + m).deriv(m)
    return p if m % 2 == 0 else -p


def assoc_rodrigues(n: int, m: int) -> ReducedPoly:
    """Associated Rodrigues construction.

    Computes the n-fold conformable derivative of u**(n+m) * exp(-u),
    strips the weight, and divides by u**m and n!.  The alpha prefactors
    (alpha**(n+m) from the monomial against alpha**(-n-m) from the stated
    prefactor) cancel exactly.  The derivative is divisible by u**m as a
    polynomial identity; failure of that division signals an algebra bug.
    """
    _check_index(n, m)
    seed = ExpPoly.exp(-1, ReducedPoly.monomial(n + m))
    flattened = d_alpha_n(seed, n).shift_rate(1).as_poly()
    return flattened.divide_by_u(m) * Fraction(1, factorial(n))


def laguerre_ode(n: int, m: int = 0) -> tuple[tuple[int, ...], ...]:
    """The defining equation u*p'' + (1 + m - u)*p' + n*p = 0, its one copy,
    as the integer coefficients in u of each P_j in sum_j P_j * p^(j)."""
    _check_index(n, m)
    return (n,), (1 + m, -1), (0, 1)


def ode_residual(p: ReducedPoly, n: int, m: int = 0) -> ReducedPoly:
    """sum_j P_j * p^(j) over :func:`laguerre_ode`, on p's numerators.  The
    conformable operator in u is alpha times this residual, so with the
    nonzero alpha divided out it is zero exactly when p solves the equation."""
    num, out = p._num, [0] * (len(p._num) + 1)
    for j, P in enumerate(laguerre_ode(n, m)):
        for k, c in enumerate(P):
            for r in range(j, len(num)):
                out[r - j + k] += c * perm(r, j) * num[r]
    return ReducedPoly._from_ints(out, p._den)


class GeneratingExpansion(tuple):
    """Truncated expansion in t: a tuple whose entry n is the coefficient
    polynomial of t**n, of degree at most n.  The repr also shows the
    truncation order, len - 1."""

    __slots__ = ()

    def __new__(cls, coefficient_polys: Iterable[ReducedPoly]):
        self = super().__new__(cls, coefficient_polys)
        for k, p in enumerate(self):
            if p.degree > k:
                raise ValueError(f"coefficient of t^{k} has degree {p.degree}")
        return self

    @property
    def coefficient_polys(self) -> tuple[ReducedPoly, ...]:
        return tuple(self)

    def __repr__(self):
        return (f"GeneratingExpansion(order={len(self) - 1}, "
                f"coefficient_polys={self.coefficient_polys!r})")


def generating_series(m: int, order: int) -> GeneratingExpansion:
    """Expand exp(-u*t/(1-t)) / (1-t)**(m+1) as a power series in t.

    The exponential E = exp(A) of A = -u*(t + t^2 + ...) follows the
    standard power-series recurrence (Knuth, *TAOCP* vol. 2, sec. 4.7)
    n*E_n = sum_k k*a_k*E_{n-k} = -u*S_n with S_n = sum_{j<n} (n-j)*E_j,
    kept up to date by running prefix sums (S_{n+1} = S_n + E_0 + ... + E_n).
    Multiplying by the geometric factor 1/(1-t)**(m+1) is m+1 prefix sums
    over the t-coefficients.

    Entry k of each t-coefficient list holds k! times its u**k coefficient,
    so every entry is a small integer: for E_n it is (-1)**k * C(n-1, k-1).
    The step becomes entry k of E_n = -k * S_n[k-1] / n, and scaling a
    column commutes with the sums, which stay plain integer additions.  Row
    n is built over the denominator n!, with numerator k = entry k * n!/k!.
    Two checks guard the route and raise AlgebraError: a step whose division
    by n leaves a remainder, rather than truncate; and a top entry of row n
    other than (-1)**n, the scaled u**n entry of E_n, from which alone it
    comes, as the lower rows are shorter.  Being +-1, that entry makes
    gcd(n!, numerators) = 1, so each row is canonical as built, with no gcd
    pass.

    The coefficient of t**n equals the associated polynomial of index
    (n, m); this route never touches the closed-form coefficients, so the
    two act as independent checks.
    """
    _check_count(m, "order")
    _check_count(order, "series order", low=1)
    coeffs = [[1]]
    prefix = s_n = coeffs[0]
    for n in range(1, order + 1):
        # n*E_n = -u*S_n: entry k of E_n is -k*S_n[k-1]/n, exactly.
        e_n = [0]
        for k, c in enumerate(s_n, 1):
            q, r = divmod(-k * c, n)
            if r:
                raise AlgebraError(f"{n} does not divide {k}*S_{n}[{k - 1}]")
            e_n.append(q)
        coeffs.append(e_n)
        prefix = _add_ints(prefix, e_n)
        s_n = _add_ints(s_n, prefix)
    for _ in range(m + 1):
        for n in range(1, order + 1):
            coeffs[n] = _add_ints(coeffs[n - 1], coeffs[n])
    for n, row in enumerate(coeffs):
        if row[-1] != (-1) ** n:
            raise AlgebraError(f"top entry of t^{n} is {row[-1]}, not {(-1) ** n}")
        # Scale entry k-1 by n!/(k-1)!, from the top down; f ends at n!.
        f = 1
        for k in range(n, 0, -1):
            f *= k
            row[k - 1] *= f
        coeffs[n] = ReducedPoly._make(tuple(row), f)
    return GeneratingExpansion(coeffs)


def values_at_zero(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(p(0), p'(0), p''(0)) for the degree-n polynomial, exactly.

    These are the conformable values at x = 0 as well, since the conformable
    derivative equals d/du on this class; they equal (1, -n, n*(n-1)/2).
    """
    p = laguerre_closed(n)
    zero = Fraction(0)
    return p(zero), p.deriv()(zero), p.deriv(2)(zero)
