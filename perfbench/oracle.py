"""Independent oracles for the benchmark's correctness checks.

Nothing here calls into claguerre: every expected value is rebuilt from the
textbook formulas with exact rationals, so the checks stay valid while the
library's internals change, and so a traced run does not count oracle work
as library work.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The value checks print-parse floats that the CLI renders with "%.12g";
# half a unit in the 12th significant digit is at most this share of the
# printed value.
PRINT_12G_ROUNDING = 5e-12


def closed_coeffs(n: int, m: int = 0) -> tuple[Fraction, ...]:
    """Coefficients of u**r in L_n^m(u): (-1)**r (n+m)! / ((n-r)! (r+m)! r!)."""
    f = math.factorial
    return tuple(
        Fraction((-1) ** r * f(n + m), f(n - r) * f(r + m) * f(r))
        for r in range(n + 1)
    )


def reduced_u(x: float, alpha: float) -> float:
    """u = x**alpha / alpha, with the same float operations as the library."""
    return float(x) ** alpha / alpha


def exact_value(n: int, m: int, u: float) -> float:
    """L_n^m at the float u, by Horner over Fraction(u), rounded once."""
    cs = closed_coeffs(n, m)
    U = Fraction(u)
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * U + c
    return float(acc)


def envelope(n: int, m: int, u: float) -> float:
    """A&S 22.14.13 bound on |L_n^m(u)| for u >= 0: C(n+m, n) exp(u/2)."""
    return math.comb(n + m, n) * math.exp(u / 2.0)


def point_ok(n: int, m: int, x: float, alpha: float, got: float,
             printed_digits: bool = False) -> bool:
    """Does ``got`` match L_n^m(x**alpha/alpha) within 1e-12 of the envelope?

    ``printed_digits`` adds the rounding of a value printed with 12
    significant digits, which the CLI ``eval`` output carries.
    """
    if not math.isfinite(got):
        return False
    u = reduced_u(x, alpha)
    tol = 1e-12 * envelope(n, m, u)
    if printed_digits:
        tol += PRINT_12G_ROUNDING * abs(got)
    return abs(got - exact_value(n, m, u)) <= tol


def laguerre_transform_value(n: int, s: float) -> float:
    """(s-1)**n / s**(n+1), exactly at the float s, rounded once."""
    S = Fraction(s)
    return float((S - 1) ** n / S ** (n + 1))


def named_transform_value(kind: str, s: float, alpha: float,
                          p: float = 0.0, omega: float = 1.0) -> float:
    """Closed-form transform of a named signal of u at s."""
    if kind == "one":
        return 1.0 / s
    if kind == "power_p":
        r = p / alpha
        return alpha ** r * math.gamma(1.0 + r) / s ** (1.0 + r)
    if kind == "exp_u":
        return 1.0 / (s - 1.0)
    if kind == "sin_wu":
        return omega / (omega * omega + s * s)
    if kind == "cos_wu":
        return s / (omega * omega + s * s)
    raise ValueError(f"unknown signal kind {kind!r}")


def closed_value_ok(got: float, want: float) -> bool:
    """A closed form printed with 12 digits: 1e-10 relative plus print rounding."""
    if not math.isfinite(got):
        return False
    return abs(got - want) <= 1e-10 * abs(want) + PRINT_12G_ROUNDING * abs(got)
