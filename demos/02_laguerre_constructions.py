#!/usr/bin/env python3
"""The polynomial family, built four independent ways.

The explicit coefficients, the Rodrigues derivative construction, the
m-fold derivative relation and the generating-function expansion all
produce the same exact rational coefficients; the defining differential
equation annihilates each result.
"""

from claguerre import (
    assoc_closed,
    assoc_from_derivative,
    assoc_rodrigues,
    generating_series,
    laguerre_closed,
    laguerre_rodrigues,
    ode_residual,
    solve_laguerre_ode,
    values_at_zero,
    x_view_str,
)

print("== the first few polynomials ==")
for n in range(6):
    print(f"L_{n}(u) = {laguerre_closed(n)}")

print()
print("== four routes, one answer ==")
n = 5
routes = {
    "closed coefficients": laguerre_closed(n),
    "Rodrigues formula": laguerre_rodrigues(n),
    "Laplace solution": solve_laguerre_ode(n),
    "generating series": generating_series(0, n)[n],
}
for name, poly in routes.items():
    print(f"{name:>22}: {poly}")
assert len({poly.coeffs for poly in routes.values()}) == 1

print()
print("== associated family ==")
for n, m in ((1, 1), (2, 1), (3, 2)):
    closed = assoc_closed(n, m)
    assert closed == assoc_from_derivative(n, m) == assoc_rodrigues(n, m)
    print(f"L_{n}^{m}(u) = {closed}")
    print(f"        x-view: {x_view_str(closed)}")

print()
print("== the differential equation is satisfied exactly ==")
for n, m in ((4, 0), (6, 2), (10, 4)):
    residual = ode_residual(assoc_closed(n, m), n, m)
    print(f"residual for (n={n}, m={m}): {residual}")

print()
print("== values at the origin ==")
print(f"{'n':>2} {'L_n(0)':>7} {'dL_n(0)':>8} {'d2L_n(0)':>9}")
for n in range(7):
    v, d1, d2 = values_at_zero(n)
    print(f"{n:>2} {str(v):>7} {str(d1):>8} {str(d2):>9}")
