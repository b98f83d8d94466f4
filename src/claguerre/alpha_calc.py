"""Exact algebra for the conformable derivative in the reduced variable.

Everything in the core works over the substitution u = x**alpha / alpha.
Each power x**(k*alpha) carries exactly alpha**(-k) in the formulas of
interest, so a polynomial in u with plain rational coefficients captures
the whole alpha dependence, and the order-alpha derivative acts on this
class as d/du.  The upshot is that every symbolic identity can be checked
with exact rational arithmetic, with alpha entering only at evaluation or
rendering time.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.  All three
exact types, these two and ``laplace.TransformExpr``, store integers only,
in a canonical content/primitive-part form.  ``ReducedPoly._set`` and
``ExpPoly._from_block`` are the one normaliser of each type, for results
whose common factor can change (sums, products of two exact values,
derivatives, transforms).  Results that are canonical by construction go
through ``_make`` without the gcd pass: negation, rate shifts, a rate put on
a canonical polynomial, division by u**m, and scalar products, which
divide out only the factors the scalar can share with the block.  Outside
this module, ``laguerre.assoc_closed`` (through ``recurrence._closed_form``)
and ``laguerre.generating_series`` build each degree-n polynomial over n!
with top numerator +-1, so they use ``_make`` too.
The printers read the integer blocks.  ``ReducedPoly.coeffs`` and
``ExpPoly.terms`` fill their Fraction views on first use, for API readers and
``ExpPoly.eval_u``, and :func:`d_alpha_n` keeps the derivatives it has built
on each ExpPoly; threads that race to fill one compute equal values.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import accumulate
from operator import add, floordiv, mul, neg, sub

from .recurrence import (
    _beyond,
    _check_count,
    _check_real,
    _join_signed,
    _powers,
    _reduced_u,
    _terms,
    _x_view,
    as_alpha,
)

__all__ = [
    "AlgebraError",
    "ExpPoly",
    "ReducedPoly",
    "d_alpha",
    "d_alpha_n",
    "d_alpha_numeric",
    "x_view_str",
]

Rational = int | Fraction


class AlgebraError(RuntimeError):
    """An internal exact-algebra consistency check failed."""


def _as_fraction(value) -> Fraction:
    # The core is float-free by construction; reject floats loudly instead
    # of silently converting their binary expansions.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"exact coefficient expected (int or Fraction), got {type(value).__name__}"
    )


def _add_ints(a, b) -> list[int]:
    """Coefficientwise sum of two integer sequences of any lengths."""
    if len(a) > len(b):
        a, b = b, a
    return [*map(add, a, b), *b[len(a):]]


# The one subtraction of the exact types (ReducedPoly, ExpPoly and
# laplace.TransformExpr): coerce the other operand, then add its negation.
def _sub(self, other):
    q = self._coerce(other)
    if q is None:
        return NotImplemented
    return self + (-q)


def _rsub(self, other):
    q = self._coerce(other)
    if q is None:
        return NotImplemented
    return q + (-self)


class ReducedPoly:
    """Polynomial in u = x**alpha / alpha with exact rational coefficients.

    ``coeffs[k]`` multiplies u**k.  The polynomial is stored in
    content/primitive-part form: a tuple of integer numerators over one
    positive common denominator, normalised so that the denominator and the
    numerators share no factor and the highest stored numerator is nonzero.
    The zero polynomial stores ``((), 1)``.  The form is canonical, so
    equality and hashing are structural, and all arithmetic runs on Python
    integers; ``coeffs`` builds the tuple of Fractions on first use.  A
    constant polynomial compares and hashes equal to its scalar value.
    """

    __slots__ = ("_num", "_den", "_fractions")

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs)) if cs else 1
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list[int], den: int) -> None:
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        else:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self._num = tuple(num)
        self._den = den
        self._fractions = None

    @classmethod
    def _from_ints(cls, num: list[int], den: int = 1) -> "ReducedPoly":
        """Internal constructor: integer numerators over a positive integer
        denominator, normalised here; skips the public per-coefficient check."""
        p = cls.__new__(cls)
        p._set(num, den)
        return p

    @classmethod
    def _make(cls, num: tuple[int, ...], den: int) -> "ReducedPoly":
        """Internal constructor for numerators already in canonical form;
        nothing is checked or normalised."""
        p = cls.__new__(cls)
        p._num, p._den, p._fractions = num, den, None
        return p

    @classmethod
    def one(cls) -> "ReducedPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, coeff: Rational = 1) -> "ReducedPoly":
        """coeff * u**k."""
        _check_count(k, "exponent")
        c = _as_fraction(coeff)
        if not c:
            return _ZERO
        return cls._make((0,) * k + (c.numerator,), c.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._fractions is None:
            den = self._den
            self._fractions = tuple(Fraction(c, den) for c in self._num)
        return self._fractions

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "ReducedPoly | None":
        if isinstance(value, ReducedPoly):
            return value
        if isinstance(value, (int, Fraction)):
            # A Fraction is in lowest terms with a positive denominator.
            if not value:
                return _ZERO
            return ReducedPoly._make((value.numerator,), value.denominator)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, da, b, db = self._num, self._den, q._num, q._den
        if da != db:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            a = [c * fa for c in a]
            b = [c * fb for c in b]
            da *= fa
        return ReducedPoly._from_ints(_add_ints(a, b), da)

    __radd__ = __add__

    def __neg__(self):
        return ReducedPoly._make(tuple(map(neg, self._num)), self._den)

    __sub__, __rsub__ = _sub, _rsub

    def __mul__(self, other):
        # The cheap type tests come first: a Fraction test goes through the
        # ABC machinery, so it would tax every polynomial product.
        if isinstance(other, ReducedPoly):
            a, b = self._num, other._num
            if not a or not b:
                return _ZERO
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return ReducedPoly._from_ints(out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int) -> "ReducedPoly":
        """The product by p/q in lowest terms with q > 0, see :func:`_scale`."""
        if not p or not self._num:
            return _ZERO
        (num,), den = _scale((self._num,), self._den, p, q)
        return ReducedPoly._make(num, den)

    def __pow__(self, n: int):
        _check_count(n, "exponent")
        out = ReducedPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def deriv(self, order: int = 1) -> "ReducedPoly":
        """Derivative d/du, applied ``order`` times."""
        _check_count(order, "derivative order")
        if order == 0:
            return self
        num = self._num
        return ReducedPoly._from_ints(
            [math.perm(k, order) * num[k] for k in range(order, len(num))],
            self._den,
        )

    def divide_by_u(self, m: int) -> "ReducedPoly":
        """Exact division by u**m; the low coefficients must vanish."""
        _check_count(m, "power")
        if any(self._num[:m]):
            raise AlgebraError(f"u^{m} does not divide {self}")
        # Only zeros leave, so the content and the top entry stay.
        return ReducedPoly._make(self._num[m:], self._den)

    def taylor_shift(self, a: Rational) -> "ReducedPoly":
        """Coefficients of p(u + a)."""
        a = _as_fraction(a)
        d = self.degree
        if d < 1:
            return self
        p, q = a.numerator, a.denominator
        # With a = p/q, den * q**d * f(u + a) = g(q*u) where g(w) is the
        # integer polynomial sum_k num[k] * q**(d-k) * (w + p)**k; shift by
        # the integer p with the classical synthetic-division scheme.
        g = [c * q ** (d - k) for k, c in enumerate(self._num)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                g[j] += p * g[j + 1]
        return ReducedPoly._from_ints(
            [c * q**k for k, c in enumerate(g)], self._den * q**d
        )

    # -- evaluation ----------------------------------------------------------

    def __call__(self, u):
        """Horner on integers at the exact value of u.

        An int or Fraction u gives the exact Fraction.  A float u enters as
        its exact ratio and the sum is rounded once (CPython's int/int
        division is correctly rounded), so ``p(u) == float(p(Fraction(u)))``
        bit for bit; float Horner would err by about sum |c_k u**k| (Higham
        2002, sec. 5.1), far above the value for alternating coefficients.
        A nan or infinite u raises ValueError, a value beyond the float
        range OverflowError.  A value that :meth:`_overflows` proves too
        large raises before the sum is formed.

        A float call costs time in proportion to the degree times the
        float's binary exponent, since the scale is q**d for the power of two
        q = 2**e in u's exact ratio: at degree 1500 it takes seconds near
        u = 1e-300.  For Laguerre values,
        :func:`claguerre.recurrence.laguerre_pair` takes n float steps.
        """
        if isinstance(u, float):
            p, q = _check_real(u, "u").as_integer_ratio()
        else:
            u = _as_fraction(u)
            p, q = u.numerator, u.denominator
        num = self._num
        if not num:
            return 0 * u
        if isinstance(u, float) and self._overflows(p, q):
            raise OverflowError(_beyond(u))
        # Horner on integers: sum num[k] * p**k * q**(d-k) / (den * q**d).
        acc, scale = num[-1], 1
        for c in reversed(num[:-1]):
            scale *= q
            acc = acc * p + c * scale
        if isinstance(u, float):
            return acc / (self._den * scale)
        return Fraction(acc, self._den * scale)

    def _overflows(self, p: int, q: int) -> bool:
        """Whether |self(u)| > 2**1025 is proved at u = p/q, q a power of two.

        If |c_k| <= |c_d| * (|u|/3)**(d-k) for every k < d (the Fujiwara
        form of the root bound), the lower terms sum to less than
        |c_d| * |u|**d * (1/3 + 1/9 + ...), so |p(u)| > |c_d| * |u|**d / 2.
        Both steps are checked on bit lengths, as 2**(b-1) <= |x| < 2**b for
        an x of bit length b; each only ever errs towards no proof.
        """
        num = self._num
        d = len(num) - 1
        if d < 1 or not p:
            return False
        top = num[-1].bit_length() - 1  # |c_d| >= 2**top
        e = p.bit_length() - q.bit_length() - 2  # |u|/3 > 2**e
        if top - 1 - self._den.bit_length() + d * (e + 2) < 1025:
            return False
        return all(e * (d - k) >= c.bit_length() - top for k, c in enumerate(num[:-1]))

    def eval(self, x: float, alpha) -> float:
        """Numeric value at x >= 0 for a given order (u = x**alpha / alpha).
        A negative or non-finite x, or an infinite u, raises ValueError, as
        in :meth:`ExpPoly.eval`."""
        return float(self(_reduced_u(x, alpha)))

    # -- structure -----------------------------------------------------------

    def __eq__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._num == q._num and self._den == q._den

    def __hash__(self):
        if len(self._num) <= 1:
            # Constants hash like the scalar they compare equal to.
            return hash(Fraction(self._num[0], self._den)) if self._num else 0
        return hash(("ReducedPoly", self._num, self._den))

    def __bool__(self):
        return bool(self._num)

    def __str__(self):
        return _join_signed(_terms(self._num, self._den, _powers("u")))

    def __repr__(self):
        u = _powers("u")  # each coefficient prints as a constant polynomial
        return f"ReducedPoly({[_join_signed(_terms((c,), self._den, u)) for c in self._num]})"


# The shared zero polynomial; every value here is immutable.
_ZERO = ReducedPoly._make((), 1)


def _scale(nums, den: int, p: int, q: int):
    """The canonical block (nums, den) times p/q, for p/q != 0 in lowest
    terms with q > 0: the new numerator tuples and denominator, canonical.

    The content c of the numerators is coprime to den, and p to q, so the
    common factor of p*nums and q*den is exactly gcd(p, den) * gcd(q, c)
    (the content/primitive-part split, Knuth, TAOCP vol. 2, sec. 4.6.1).
    An int scalar needs only the first gcd, and no pass over the block.
    """
    g = math.gcd(p, den)
    if g != 1:
        p //= g
        den //= g
    if q != 1:
        h = q
        for num in nums:
            h = math.gcd(h, *num)
            if h == 1:
                break
        den *= q // h
        if h != 1:
            return tuple(tuple([c // h * p for c in num]) for num in nums), den
    if p == 1:
        return nums, den
    return tuple(tuple([c * p for c in num]) for num in nums), den


class ExpPoly:
    """Finite sum of poly(u) * exp(rate * u) terms with rational rates.

    The :class:`ReducedPoly` form one level up: the distinct rates as
    reduced ``(numerator, denominator)`` int keys in increasing order, one
    tuple of integer numerators per rate, ending in a nonzero entry, and one
    positive denominator shared by every term and coprime to the numerators
    together.  The form is canonical, so equality and hashing are
    structural.  Sums, products and derivatives normalise their result
    once; negation, ``shift_rate``, ``exp`` and scalar products keep the
    form by construction and skip the pass.  ``terms``
    builds the ``(Fraction, ReducedPoly)`` view on first use, and
    ``_derivs`` maps each order n >= 1 that :func:`d_alpha_n` has built to
    its result, for as long as this ExpPoly lives; neither enters equality,
    hashing or the printed forms.  A pickle or deep copy carries both, and a
    shallow copy shares them with an equal ExpPoly.  A plain
    polynomial (rate 0 only) compares and hashes equal to its ReducedPoly.
    """

    __slots__ = ("_keys", "_nums", "_den", "_terms", "_derivs")

    def __init__(self, terms: Iterable[tuple[Rational, "ReducedPoly | Rational"]] = ()):
        # exp() checks each term.
        e = _merged([ExpPoly.exp(rate, poly) for rate, poly in terms])
        self._keys, self._nums, self._den = e._keys, e._nums, e._den
        self._terms = self._derivs = None

    @classmethod
    def _from_block(cls, keys, nums, den: int) -> "ExpPoly":
        """Internal constructor: increasing rate keys, one integer list
        each, over the positive ``den``; trailing zeros, empty rates and the
        common factor are removed here."""
        ks, ns, g = [], [], den
        for key, num in zip(keys, nums):
            if num and not num[-1]:
                num = list(num)
                while num and not num[-1]:
                    num.pop()
            if num:
                ks.append(key)
                ns.append(num)
                if g != 1:
                    g = math.gcd(g, *num)
        if not ns:
            den = 1
        elif g != 1:
            ns = [[c // g for c in num] for num in ns]
            den //= g
        return cls._make(tuple(ks), tuple(map(tuple, ns)), den)

    @classmethod
    def _make(cls, keys: tuple, nums: tuple, den: int) -> "ExpPoly":
        """Internal constructor for a block already in canonical form:
        nothing is checked or normalised."""
        e = cls.__new__(cls)
        e._keys, e._nums, e._den = keys, nums, den
        e._terms = e._derivs = None
        return e

    @classmethod
    def from_poly(cls, poly) -> "ExpPoly":
        return cls.exp(0, poly)

    @classmethod
    def exp(cls, rate: Rational, poly: "ReducedPoly | Rational" = 1) -> "ExpPoly":
        """poly(u) * exp(rate * u)."""
        r = rate if isinstance(rate, int) else _as_fraction(rate)
        p = ReducedPoly._coerce(poly)
        if p is None:
            raise TypeError(f"polynomial part expected, got {type(poly).__name__}")
        if not p._num:
            return _EMPTY
        # A canonical polynomial under one reduced rate key is a canonical block.
        return cls._make(((r.numerator, r.denominator),), (p._num,), p._den)

    @property
    def terms(self) -> tuple[tuple[Fraction, ReducedPoly], ...]:
        """The ``(rate, polynomial)`` pairs in rate order, built on first use."""
        if self._terms is None:
            den = self._den
            self._terms = tuple(
                (Fraction(*key), ReducedPoly._from_ints(list(num), den))
                for key, num in zip(self._keys, self._nums)
            )
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._keys

    @staticmethod
    def _coerce(value) -> "ExpPoly | None":
        if isinstance(value, ExpPoly):
            return value
        p = ReducedPoly._coerce(value)
        if p is not None:
            return ExpPoly.from_poly(p)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return _merged((self, q))

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly._make(
            self._keys, tuple(tuple(map(neg, num)) for num in self._nums), self._den
        )

    __sub__, __rsub__ = _sub, _rsub

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            q = other
        elif isinstance(other, (int, Fraction)):
            if not other or not self._keys:
                return _EMPTY
            nums, den = _scale(self._nums, self._den, other.numerator, other.denominator)
            return ExpPoly._make(self._keys, nums, den)
        else:
            q = self._coerce(other)
            if q is None:
                return NotImplemented
        # exp(a*u) * exp(b*u) = exp((a+b)*u): each pair of terms convolves
        # straight into the integer accumulator of its rate sum, over the
        # product of the two denominators.
        merged: dict[tuple[int, int], list[int]] = {}
        right = tuple(zip(q._keys, q._nums))
        for ka, x in zip(self._keys, self._nums):
            for kb, y in right:
                out = merged.setdefault(_rate_sum(ka, kb), [])
                size = len(x) + len(y) - 1
                if len(out) < size:
                    out.extend([0] * (size - len(out)))
                for i, c in enumerate(x):
                    if c:
                        for k, v in enumerate(y, i):
                            out[k] += c * v
        keys = _rate_order(merged)
        return ExpPoly._from_block(keys, [merged[k] for k in keys], self._den * q._den)

    __rmul__ = __mul__

    def shift_rate(self, a: Rational) -> "ExpPoly":
        """The product by exp(a*u): every rate moves by a, so the rate order
        and the integer block carry over unchanged."""
        a = _as_fraction(a)
        step = (a.numerator, a.denominator)
        keys = tuple([_rate_sum(key, step) for key in self._keys])
        return ExpPoly._make(keys, self._nums, self._den)

    def d_alpha(self) -> "ExpPoly":
        """Conformable derivative, :func:`d_alpha_n` with n = 1: on a rate-r
        term it is (p' + r*p)*exp(r*u)."""
        return d_alpha_n(self, 1)

    def value_at_zero(self) -> Fraction:
        """Exact value at u = 0 (exponentials all equal 1 there)."""
        return Fraction(sum(num[0] for num in self._nums), self._den)

    def as_poly(self) -> ReducedPoly:
        """The rate-0 polynomial, provided no exponential term survives."""
        if not self._keys:
            return _ZERO
        if self._keys == ((0, 1),):
            # One rate-0 term in block form is already a canonical ReducedPoly.
            return ReducedPoly._make(self._nums[0], self._den)
        raise AlgebraError(f"exponential terms survive in {self}")

    def eval_u(self, u: float) -> float:
        """Numeric value at u.  A nan or infinite u raises ValueError, also
        on the zero ExpPoly, which is 0.0 at finite u; a term or a sum
        beyond the float range raises OverflowError."""
        u = _check_real(u, "u")
        try:
            total = sum((p(u) * math.exp(float(r) * u) for r, p in self.terms), 0.0)
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise OverflowError(_beyond(u))
        return total

    def eval(self, x: float, alpha) -> float:
        """Numeric value at x >= 0; by continuity u = 0 at x = 0."""
        return self.eval_u(_reduced_u(x, alpha))

    def __eq__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._keys == q._keys and self._nums == q._nums and self._den == q._den

    def __hash__(self):
        if not self._keys:
            return 0
        if self._keys == ((0, 1),):
            # A plain polynomial equals (and hashes like) its ReducedPoly.
            return hash(self.as_poly())
        return hash(("ExpPoly", self._keys, self._nums, self._den))

    def __bool__(self):
        return bool(self._keys)

    def __str__(self):
        pieces, u = [], _powers("u")
        for (a, b), num in zip(self._keys, self._nums):
            signed = _terms(num, self._den, u)
            if a:
                # The rate a/b prints as the one-term polynomial a/b * u.
                rate = _join_signed(_terms((0, a), b, u))
                neg, body = (False, f"({_join_signed(signed)})") if signed[1:] else signed[0]
                signed = [(neg, f"{'' if body == '1' else body + '*'}exp({rate})")]
            pieces += signed
        return _join_signed(pieces)

    def __repr__(self):
        u, den = _powers("u"), self._den  # a rate prints as a constant polynomial
        pairs = [(_join_signed(_terms((a,), b, u)), _join_signed(_terms(num, den, u)))
                 for (a, b), num in zip(self._keys, self._nums)]
        return f"ExpPoly({pairs})"


# The shared empty block: the zero ExpPoly.
_EMPTY = ExpPoly._make((), (), 1)


def _merged(blocks) -> ExpPoly:
    """The sum of ExpPolys: each block is rescaled once to the lcm of the
    denominators, and like rates are added on their integer lists."""
    # Every ExpPoly is canonical: zero blocks drop out, a lone block is the sum.
    blocks = [e for e in blocks if e._keys]
    if len(blocks) < 2:
        return blocks[0] if blocks else _EMPTY
    den = math.lcm(*(e._den for e in blocks))
    merged: dict[tuple[int, int], list[int]] = {}
    for e in blocks:
        scale = den // e._den
        for key, num in zip(e._keys, e._nums):
            if scale != 1:
                num = [c * scale for c in num]
            old = merged.get(key)
            merged[key] = num if old is None else _add_ints(old, num)
    keys = _rate_order(merged)
    return ExpPoly._from_block(keys, [merged[k] for k in keys], den)


def _rate_sum(ka: tuple[int, int], kb: tuple[int, int]) -> tuple[int, int]:
    """The reduced key of the sum of two reduced rate keys."""
    (a, b), (c, d) = ka, kb
    if b == d == 1:
        return (a + c, 1)
    num, den = a * d + c * b, b * d
    g = math.gcd(num, den)
    return (num // g, den // g)


def _rate_order(keys) -> list[tuple[int, int]]:
    """Distinct reduced rate keys in increasing order.

    Integer rates sort as their key tuples.  Otherwise, sorting on the
    correctly rounded float of each rate is exact unless two rates round to
    one float or overflow; a cross-multiplied check of neighbours catches
    that, and the keys are then sorted as Fractions.
    """
    if len(keys) < 2:
        return list(keys)
    if all(b == 1 for _, b in keys):
        return sorted(keys)
    try:
        keys = sorted(keys, key=lambda key: key[0] / key[1])
        if all(a * d < c * b for (a, b), (c, d) in zip(keys, keys[1:])):
            return keys
    except OverflowError:
        pass
    return sorted(keys, key=lambda key: Fraction(*key))


def d_alpha(f):
    """Exact conformable derivative of a ReducedPoly or ExpPoly:
    :func:`d_alpha_n` with n = 1.

    On functions of u the conformable derivative reduces to d/du, because
    applying x**(1-alpha) * d/dx to u = x**alpha / alpha gives exactly 1.
    """
    return d_alpha_n(f, 1)


def d_alpha_n(f, n: int):
    """n-fold conformable derivative.

    On an ExpPoly the factor of a rate-r term is stepped n times through
    p <- p' + r*p, on the integer numerators of the whole block, and the
    result is normalised once.  Over 8 or more steps, the Rodrigues weight
    exp(-u) is stepped on numerators scaled once by k! (:func:`_stepped`),
    where p' - p costs one subtraction per entry, and divided back exactly,
    as the stepped numerators are integers.  The route stays the iterated
    derivative and never expands (d/du + r)**n binomially: that expansion
    on u**N * exp(-u) would recompute the closed-form Laguerre
    coefficients, and the Rodrigues check would lose its independence.

    A nonzero ExpPoly memoises each order n >= 1 asked of it, for as long
    as it lives: a repeated order returns the stored object, and a new one
    steps on from the highest stored order below it, so that the Leibniz
    rule's D^k f for k = 0..n costs n steps, not n(n+1)/2.  n = 0 and the
    zero ExpPoly return f and store nothing.
    """
    _check_count(n, "n")
    if isinstance(f, ReducedPoly):
        return f.deriv(n)
    if not isinstance(f, ExpPoly):
        raise TypeError(f"ReducedPoly or ExpPoly expected, got {type(f).__name__}")
    if n == 0 or not f._keys:
        return f
    memo = f._derivs
    if memo is None:
        out = _stepped(f, n)
        f._derivs = {n: out}
        return out
    out = memo.get(n)
    if out is None:
        # Step on from the highest stored order below n, read from a
        # snapshot of the orders, as other threads may add some.
        k = max(filter(n.__gt__, list(memo)), default=0)
        memo[n] = out = _stepped(memo[k] if k else f, n - k)
    return out


def _stepped(f: ExpPoly, n: int) -> ExpPoly:
    """D^n f for n >= 1, stepped on the integer block and normalised once.

    Each rate is written a/B over the common B of the rate denominators.  A
    step sends numerators c[k] to a*c[k] + B*(k+1)*c[k+1], with a*c[d] on
    top, over one more factor B of the denominator; at rate 0 the n steps
    are the plain n-th derivative times B**n.  At a = -1 (the Rodrigues
    weight exp(-u) when B = 1) and n >= 8 the term is rescaled once to
    e[k] = k! * B**k * c[k], in which a step is e[k] <- e[k+1] - e[k] with
    -e[d] on top: subtractions only.  The stepped c[k] are integers, as the
    step has integer coefficients, so dividing each e[k] by k! * B**k after
    the n steps is exact.  Either way the n steps stay n derivatives;
    (d/du + r)**n is never expanded.

    The rescale and the division back cost about as much as 4 to 10 plain
    steps over degrees 4-84, more at the higher degrees, where k! is long,
    so shorter runs, such as the Leibniz rule's orders up to 5, step c
    directly.
    """
    B = math.lcm(*(b for _, b in f._keys))
    nums = []
    for (a, b), num in zip(f._keys, f._nums):
        a *= B // b
        if a == -1 and n >= 8:
            scale = list(accumulate(range(B, B * len(num), B), mul, initial=1))
            num = list(map(mul, num, scale))
            for _ in range(n):
                num.append(0)  # e[d+1] = 0 puts -e[d] on top
                num = list(map(sub, num[1:], num))
            num = list(map(floordiv, num, scale))
        elif a:
            bk = range(B, B * len(num), B)
            for _ in range(n):
                nxt = [a * c + e * d for c, d, e in zip(num, num[1:], bk)]
                nxt.append(a * num[-1])
                num = nxt
        else:
            scale = B**n
            num = [scale * math.perm(k, n) * num[k] for k in range(n, len(num))]
        nums.append(num)
    return ExpPoly._from_block(f._keys, nums, f._den * B**n)


def d_alpha_numeric(
    f: Callable[[float], float], x: float, alpha, h: float = 1e-5
) -> float:
    """Central-difference estimate of the conformable derivative at finite x > 0.

    Uses the limit definition directly: the increment is h * x**(1-alpha),
    so the estimate is [f(x + h*x**(1-alpha)) - f(x - h*x**(1-alpha))] / (2h)
    with error O(h**2) for smooth f.
    """
    a = as_alpha(alpha)
    if not 0 < x < math.inf:  # x**(1-alpha) branches at 0
        raise ValueError(f"x must be positive and finite, got {x!r}")
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    step = h * x ** (1.0 - a)
    return (f(x + step) - f(x - step)) / (2.0 * h)


def x_view_str(p: ReducedPoly) -> str:
    """Text form of p in x-space, e.g. ``1 - 2 * a^(-1) * x^(1*a)``: the
    fraction-free :func:`claguerre.recurrence._x_view` of p's numerators."""
    return _x_view(p._num, p._den)
