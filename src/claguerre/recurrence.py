"""The fraction-free layer: the argument rules, the three-term recurrence,
and the integer pieces of the closed form and its text.

``laguerre_pair`` (one point) and ``laguerre_column`` (a grid) take n float
steps per point, where :meth:`claguerre.alpha_calc.ReducedPoly.eval` rounds
the exact value once at big-integer cost.  The conformable polynomial is the
classical L_n^m at u = x**alpha / alpha, so one recurrence serves every alpha.
``_closed_form`` gives the closed-form numerators of L_n^m over n!, and
``_x_view`` the x-space text of numerators over one denominator, joined by
``_join_signed``, the one signed-term renderer.  Only ``math`` and
``collections.abc`` are imported, so ``claguerre table`` and ``claguerre
eval`` load no exact algebra; the exact modules take their argument rules,
the closed form and the renderers from here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import comb, factorial, gcd, inf, isfinite, perm

__all__ = ["as_alpha", "laguerre_column", "laguerre_pair"]


def _check_count(value, what: str, low: int = 0) -> None:
    """The one integer rule: refuse a value that is not an int (a bool is
    not one) or lies below ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        rule = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        raise ValueError(f"{what} must be {rule}, got {value!r}")


def _check_real(value, what: str, low: float | None = None) -> float:
    """The one real rule: value as a float, refused when it is nan,
    infinite or below ``low``."""
    value = float(value)
    if not -inf < value < inf or (low is not None and value < low):
        rule = "a finite number" if low is None else f"a finite number >= {low}"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return value


def as_alpha(alpha) -> float:
    """The derivative order as a float, checked to lie in (0, 1]."""
    value = float(alpha)
    if not (0.0 < value <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {value!r}")
    return value


def _reduced_u(x, alpha) -> float:
    """u = x**alpha / alpha, with alpha checked by :func:`as_alpha` and both
    x >= 0 and u by :func:`_check_real`."""
    a = as_alpha(alpha)
    return _check_real(_check_real(x, "x", low=0) ** a / a, "u")


def _beyond(u: float) -> str:
    """The one overflow rule's wording: a finite u whose value leaves the
    float range raises OverflowError with this message."""
    return f"the value at u = {u!r} is beyond the float range"


def _check_index(n: int, m: int = 0) -> None:
    """Reject a degree n or an order m that is not a nonnegative integer."""
    _check_count(n, "degree")
    _check_count(m, "order")


def _closed_form(n: int, m: int) -> tuple[tuple[int, ...], int]:
    """(numerators, n!): the coefficient of u**r in L_n^m is
    (-1)**r * (n+m)! / ((n-r)! * (r+m)! * r!) = numerator r / n!.

    Numerator r is (-1)**r * C(n+m, n-r) * n!/r!.  The top one (r = n) is
    (-1)**n, so the pair is in :class:`claguerre.alpha_calc.ReducedPoly`'s
    canonical form as built.  The caller checks n and m.
    """
    num = tuple([(-1) ** r * comb(n + m, n - r) * perm(n, n - r) for r in range(n + 1)])
    return num, factorial(n)


def _join_signed(pieces: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, magnitude text) pieces as ``a - b + c``; "0" if none."""
    text = ""
    for neg, body in pieces:
        if text:
            text += (" - " if neg else " + ") + body
        else:
            text = ("-" if neg else "") + body
    return text or "0"


def _ratio(c: int, den: int) -> str:
    """|c| / den in lowest terms, as ``str`` of the Fraction prints it."""
    g = gcd(c, den)
    c, den = abs(c) // g, den // g
    return str(c) if den == 1 else f"{c}/{den}"


def _x_view(num: Sequence[int], den: int) -> str:
    """Text form in x-space of the polynomial with coefficient num[k] / den
    of u**k, den > 0, e.g. ``1 - 2 * a^(-1) * x^(1*a)``.

    Term k reads coeff * a^(-k) * x^(k*a), since u**k expands to
    x**(k*alpha) / alpha**k.  Zero coefficients are skipped.
    """
    return _join_signed(
        (c < 0, f"{_ratio(c, den)} * a^({-k}) * x^({k}*a)" if k else _ratio(c, den))
        for k, c in enumerate(num)
        if c
    )


def laguerre_pair(n: int, m: int, u: float) -> tuple[float, float]:
    """(L_n^m(u), L_{n-1}^m(u)) in floats, by the three-term recurrence.

    (k+1) L_{k+1} = (2k+1+m-u) L_k - (k+m) L_{k-1}, started from L_0 = 1
    and L_1 = 1 + m - u (Abramowitz & Stegun 22.7.12); at n = 0 the pair is
    (1, 0).  The forward recurrence is stable for u >= 0 (Gautschi,
    *Orthogonal Polynomials: Computation and Approximation*, 2004): the
    error stays within a few ulps of the A&S 22.14.13 envelope
    C(n+m, n) exp(u/2).  It is chosen for speed (n float steps, where
    :meth:`ReducedPoly.eval` works on big integers) and for independence
    from the monomial coefficients, which it never reads.  The value at
    u = x**alpha / alpha is the conformable polynomial of order alpha.  The
    second value feeds the derivative u L' = n (L - L_{n-1}) (m = 0) that
    Newton uses in :func:`claguerre.integrate.gauss_laguerre`.  A nan or
    infinite u raises ValueError, as in :meth:`ReducedPoly.eval`; at
    u = inf the recurrence would form inf - inf.  A pair that leaves the
    float range raises OverflowError, as :meth:`ReducedPoly.__call__` does.
    """
    _check_index(n, m)
    if not -inf < u < inf:
        _check_real(u, "u")
    if n == 0:
        return 1.0, 0.0
    # Step k uses a = 2k+1+m, c = k+m and d = k+1 as floats, stepped by
    # exact additions (integers below 2**53), so every operation is float by
    # float and the bits equal those of the int-constant form.
    prev, cur = 1.0, 1.0 + m - u
    a, c = 1.0 + m, float(m)
    for d in map(float, range(2, n + 1)):
        a += 2.0
        c += 1.0
        prev, cur = cur, ((a - u) * cur - c * prev) / d
    if not (-inf < cur < inf and -inf < prev < inf):
        raise OverflowError(_beyond(u))
    return cur, prev


def laguerre_column(n: int, m: int, us: Sequence[float]) -> list[float]:
    """[L_n^m(u) for u in us], one recurrence step over the whole column
    per pass.

    Each step is the expression of :func:`laguerre_pair`, term for term, so
    every entry equals ``laguerre_pair(n, m, u)[0]`` bit for bit.  On a grid
    this is faster than one scalar call per point: on 40 table-sweep-like
    grids (n <= 8, 200-2000 points, 1-4 alphas) it took 49 ms against
    125 ms (best of 25, Python 3.11.7).  On one point the scalar form is
    faster, as it builds no lists.  A nan or infinite u in ``us`` raises
    ValueError, and a value that leaves the float range OverflowError,
    naming the first such u.
    """
    _check_index(n, m)
    # A non-finite u makes the sum non-finite, so a column without one costs
    # one C-level pass (a third of the time of a per-point check); only a
    # sum that fails, which finite u can also overflow, is scanned.
    if not isfinite(sum(us)):
        for u in us:
            _check_real(u, "u")
    if n == 0:
        return [1.0] * len(us)
    prev, cur = [1.0] * len(us), [1.0 + m - u for u in us]
    a, c = 1.0 + m, float(m)
    for d in map(float, range(2, n + 1)):
        a += 2.0
        c += 1.0
        prev, cur = cur, [((a - u) * y - c * p) / d for u, y, p in zip(us, cur, prev)]
    # As for u above: only a column whose sum fails is scanned.
    if not isfinite(sum(cur)):
        for u, y in zip(us, cur):
            if not -inf < y < inf:
                raise OverflowError(_beyond(u))
    return cur
