"""Conformable Laplace transform calculus over the exp-polynomial class.

The transform used here is F(s) = integral_0^inf exp(-s*u) f(u) du in the
reduced variable, which is the conformable transform with base point 0 after
the substitution u = x**alpha / alpha (the measure x**(alpha-1) dx turns into
du exactly).  On the exp-polynomial class the image is a rational function of
s; it is stored in expanded partial-fraction form, pole terms c/(s-l)**m plus
an explicit polynomial part, which keeps every manipulation exact.  The poles
are one ExpPoly integer block read in w = 1/(s-l), the functions' own
rate-keyed form, so the calculus on images is integer work on one block.

The transform is formal: every pair is algebra regardless of convergence,
which is how identities like exp(u) <-> 1/(s-1) are used in practice.  The
Laguerre image is solved from ``s_domain_operator``, the transformed equation.

The transcendental pairs (``NamedSignal``, ``transform_named``) are float
work with no exact image, so they live in :mod:`claguerre.integrate` beside
the quadrature that checks them; they are re-exported here as the same
objects.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .alpha_calc import (
    AlgebraError,
    ExpPoly,
    ReducedPoly,
    _EMPTY,
    _ZERO,
    _as_fraction,
    _merged,
    _rsub,
    _sub,
)
from .integrate import NamedSignal, transform_named
from .laguerre import laguerre_ode
from .recurrence import _check_count, _check_real, _join_signed, _powers, _ratio, _terms

__all__ = [
    "NamedSignal",
    "NonInvertibleError",
    "TransformExpr",
    "derivative_rule",
    "inverse",
    "laguerre_transform",
    "s_domain_equation",
    "s_domain_operator",
    "s_domain_residual",
    "solve_laguerre_ode",
    "transform",
    "transform_named",
]


class NonInvertibleError(ValueError):
    """The expression has a polynomial part, so no function inverse exists."""


class TransformExpr:
    """Exact rational function of s in expanded partial-fraction form.

    The poles are one :class:`ExpPoly` integer block read in
    w = 1/(s - rate): per rate, entry k of its integer list is the numerator
    of the pole c/(s - rate)**(k+1), all over the block's one denominator.
    The block is canonical, so equality is structural, and sums, negation,
    scalar products and shifts are the block's own operations.  The public
    constructor takes (coeff, rate, order) triples, one per pole
    coeff/(s - rate)**order, and merges like poles.  ``poly_part`` is a
    polynomial in s (a :class:`ReducedPoly` read with variable s); it is
    nonzero only for distributional images, which have no inverse in the
    function class.
    """

    __slots__ = ("_block", "_poly")

    def __init__(
        self,
        poles: Iterable[tuple] = (),
        poly_part: "ReducedPoly | int | Fraction" = 0,
    ):
        terms = []
        for coeff, rate, order in poles:
            _check_count(order, "pole order", low=1)
            terms.append((rate, ReducedPoly.monomial(order - 1, coeff)))
        p = ReducedPoly._coerce(poly_part)
        if p is None:
            raise TypeError("poly_part must be exact")
        # ExpPoly checks each rate and merges like rates.
        self._block = ExpPoly(terms)
        self._poly = p

    @classmethod
    def _make(cls, block: ExpPoly, poly: ReducedPoly) -> "TransformExpr":
        """Internal constructor: a canonical block and polynomial, no validation."""
        T = cls.__new__(cls)
        T._block = block
        T._poly = poly
        return T

    @staticmethod
    def _coerce(value) -> "TransformExpr | None":
        if isinstance(value, TransformExpr):
            return value
        if isinstance(value, (int, Fraction)):
            return TransformExpr._make(_EMPTY, ReducedPoly._coerce(value))
        return None

    @property
    def poly_part(self) -> ReducedPoly:
        return self._poly

    @property
    def is_zero(self) -> bool:
        return self._block.is_zero and self._poly.is_zero

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._block == other._block and self._poly == other._poly

    def __hash__(self):
        if self._block.is_zero:
            # A pole-free expression equals (and hashes like) its polynomial.
            return hash(self._poly)
        return hash(("TransformExpr", self._block, self._poly))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TransformExpr._make(
            _merged((self._block, other._block)), self._poly + other._poly
        )

    __radd__ = __add__

    def __neg__(self):
        return TransformExpr._make(-self._block, -self._poly)

    __sub__, __rsub__ = _sub, _rsub

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return TransformExpr._make(self._block * scalar, self._poly * scalar)

    __rmul__ = __mul__

    def d_ds(self, n: int = 1) -> "TransformExpr":
        """Exact n-th derivative in s.

        d/ds sends w**m to m * w**(m+1) with the sign of -1, so n steps send
        it to (-1)**n * m(m+1)...(m+n-1) * w**(m+n); entry k, the pole of
        order m = k+1, moves to entry k+n.
        """
        _check_count(n, "derivative order")
        if n == 0:
            return self
        sign = -1 if n % 2 else 1
        block = self._block
        nums = [
            [0] * n + [sign * math.perm(k + n, n) * c for k, c in enumerate(num)]
            for num in block._nums
        ]
        return TransformExpr._make(
            ExpPoly._from_block(block._keys, nums, block._den), self._poly.deriv(n)
        )

    def mul_s(self) -> "TransformExpr":
        """Exact product by s, re-expanded into partial fractions.

        With s = rate + 1/w, s * W(w) = rate*W(w) + W(w)/w.  Over the common
        Q of the rate denominators, rate = a/Q and entry k becomes
        a*c[k] + Q*c[k+1] over one more factor Q; the w**1 entries, the
        block's value at zero, land on w**0 and join the polynomial part.
        """
        block = self._block
        Q = math.lcm(*(q for _, q in block._keys))
        nums = []
        for (p, q), num in zip(block._keys, block._nums):
            a = p * (Q // q)
            out = [a * c + Q * d for c, d in zip(num, num[1:])]
            out.append(a * num[-1])
            nums.append(out)
        poly = self._poly
        shifted = ReducedPoly._from_ints([0, *poly._num], poly._den)
        return TransformExpr._make(
            ExpPoly._from_block(block._keys, nums, block._den * Q),
            shifted + block.value_at_zero(),
        )

    def shifted(self, a) -> "TransformExpr":
        """Substitute s -> s + a exactly: every rate moves by -a."""
        a = _as_fraction(a)
        return TransformExpr._make(
            self._block.shift_rate(-a), self._poly.taylor_shift(a)
        )

    def __call__(self, s: float) -> float:
        """Numeric value away from the poles, rounded once.

        The sum is formed exactly at Fraction(s), each rate's terms summed
        as w * P(w) at w = 1/(s - rate): the pole terms of an image like
        (s-1)**n / s**(n+1) cancel to many orders of magnitude below their
        size, so a float sum would keep none of the value's digits.  A nan or
        infinite float s is a ValueError; an int or Fraction s is taken exactly."""
        s = Fraction(_check_real(s, "s") if isinstance(s, float) else s)
        total, block = self._poly(s), self._block
        for (a, b), num in zip(block._keys, block._nums):
            w = 1 / (s - Fraction(a, b))
            total += w * ReducedPoly._from_ints(list(num), block._den)(w)
        return float(total)

    def __str__(self):
        block, pieces = self._block, []
        for (a, b), num in zip(block._keys, block._nums):
            pole = f"(s{'-' if a > 0 else '+'}{_ratio(a, b)})" if a else "s"
            pieces += _terms(
                num, block._den, lambda k, c: f"{c}/{pole}^{k + 1}" if k else f"{c}/{pole}"
            )
        return _join_signed(pieces + _terms(self._poly._num, self._poly._den, _powers("s")))

    def __repr__(self):
        return f"TransformExpr({self})"


def transform(f: ExpPoly) -> TransformExpr:
    """Forward transform: u**k * exp(r*u) maps to k!/(s-r)**(k+1).

    Every rational rate is admitted and the pair table is treated as
    algebra, matching how the identities are actually applied.
    """
    f = ExpPoly._coerce(f)
    if f is None:
        raise TypeError("ExpPoly expected")
    # The coefficient of u**k becomes entry k, the pole of order k+1, times k!.
    nums = []
    for num in f._nums:
        out, fact = [], 1
        for k, c in enumerate(num):
            if k:
                fact *= k
            out.append(c * fact)
        nums.append(out)
    return TransformExpr._make(ExpPoly._from_block(f._keys, nums, f._den), _ZERO)


def inverse(T: TransformExpr) -> ExpPoly:
    """Termwise inverse: c/(s-r)**m maps to c * u**(m-1) * exp(r*u) / (m-1)!."""
    if not T.poly_part.is_zero:
        raise NonInvertibleError(
            "polynomial part present; no inverse within the function class"
        )
    # Over the denominator den * top!, with top the highest entry index of
    # any rate, the coefficient of u**k is entry k times top!/k!.
    block = T._block
    top = max(map(len, block._nums), default=1) - 1
    nums = []
    for num in block._nums:
        out, scale = list(num), math.perm(top, top - len(num) + 1)
        for k in range(len(num) - 1, -1, -1):
            out[k] *= scale
            scale *= k
        nums.append(out)
    return ExpPoly._from_block(block._keys, nums, block._den * math.factorial(top))


def derivative_rule(T: TransformExpr, f0) -> TransformExpr:
    """Image of the conformable derivative: s*F(s) - f(0)."""
    return T.mul_s() - _as_fraction(f0)


def laguerre_transform(n: int) -> TransformExpr:
    """Y(s) = sum_k a_k / s**(k+1) solved from Q_0*Y + Q_1*Y' = 0, the
    :func:`s_domain_operator` equation; it is (s-1)**n / s**(n+1).

    a_0 = y(0) = 1 is the paper's normalisation, an input.  With q1[0] = 0,
    s**-k gives (q0[1] - (k+1)*q1[2])*a_k + (q0[0] - k*q1[1])*a_(k-1) = 0 and
    s**0 asks q0[1] = q1[2].  The sum ends at the pole order q0[0]/q1[1], the
    indicial root at s = 0 (Ince, *Ordinary Differential Equations*, 1926);
    each a_k is an exact division.  Any other operator is an AlgebraError."""
    Q = [q + (0,) * (3 - len(q)) for q in s_domain_operator(n)]
    if len(Q) != 2 or Q[0][2:] != (0,) or Q[1][3:] or Q[1][0]:
        raise AlgebraError(f"not a first-order s-domain equation: {s_domain_equation(n)}")
    (b0, b1, _), (_, c1, c2) = Q
    poles = b0 // c1 if c1 and c2 and not b0 % c1 else 0
    if b1 != c2 or poles < 1:
        raise AlgebraError(f"no expansion with y(0) = 1 solves {s_domain_equation(n)}")
    a = [1]
    for k in range(1, poles):
        a_k, rest = divmod((b0 - k * c1) * a[-1], k * c2)
        if rest:
            raise AlgebraError(f"a_{k} is not an integer for {s_domain_equation(n)}")
        a.append(a_k)
    return TransformExpr._make(ExpPoly._from_block(((0, 1),), (a,), 1), _ZERO)


def s_domain_operator(n: int) -> tuple[tuple[int, ...], ...]:
    """(Q_0, Q_1, ...) in s: sum_l Q_l * Y^(l) is the transform of the
    equation of :func:`~claguerre.laguerre.laguerre_ode` by two rules,
    L{y^(j)} = s**j * Y - (initial values) and L{u**k * g} = (-d/ds)**k G.
    By Leibniz, c * u**k * y^(j) adds c * (-1)**k * C(k, i) * j!/(j-i)! *
    s**(j-i) to Q_(k-i) for i <= min(j, k).  The initial values cancel at
    m = 0; at m > 0 they would leave m * y(0)."""
    table = laguerre_ode(n)
    Q = [[0] * len(table) for _ in range(max(map(len, table)))]
    for j, P in enumerate(table):
        for k, c in enumerate(P):
            for i in range(min(j, k) + 1):
                Q[k - i][j - i] += (-1) ** k * c * math.comb(k, i) * math.perm(j, i)
    return tuple(ReducedPoly._from_ints(q)._num for q in Q)  # trailing 0s drop


def s_domain_residual(Y: TransformExpr, n: int) -> TransformExpr:
    """sum_l Q_l(s) * Y^(l)(s) over :func:`s_domain_operator`, by Horner in
    s, with the global alpha factor divided out."""
    Q = s_domain_operator(n)
    derivs = [Y.d_ds(l) for l in range(len(Q))]
    residual = 0
    for i in reversed(range(max(map(len, Q)))):
        residual = sum((q[i] * d for q, d in zip(Q, derivs) if i < len(q) and q[i]), residual)
        residual = residual.mul_s() if i else residual
    return residual


def s_domain_equation(n: int) -> str:
    """:func:`s_domain_operator` as text, highest derivative first."""
    terms = []
    for l, q in enumerate(s_domain_operator(n)):
        Q_l = _join_signed(_terms(q, 1, _powers("s")))
        terms.insert(0, f"({Q_l})*Y" + "'" * l + "(s)")
    return " + ".join(terms) + " = 0"


def solve_laguerre_ode(n: int) -> ReducedPoly:
    """y(u) with y(0) = 1, the termwise inverse of :func:`laguerre_transform`."""
    return inverse(laguerre_transform(n)).as_poly()
