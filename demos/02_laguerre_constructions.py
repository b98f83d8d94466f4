#!/usr/bin/env python3
"""The polynomial family, built along every route of ``verify.ROUTES``.

The explicit coefficients, the Rodrigues derivative construction, the
m-fold derivative relation, the generating-function expansion and the
Laplace solve (of the m = 0 equation) all produce the same exact rational
coefficients; the defining differential equation annihilates each result.
"""

from claguerre import assoc_closed, laguerre_closed, ode_residual, values_at_zero, x_view_str
from claguerre.verify import ROUTES, check_routes

print("== the first few polynomials ==")
for n in range(6):
    print(f"L_{n}(u) = {laguerre_closed(n)}")

print()
print("== every route, one answer ==")
for n, m in ((5, 0), (3, 2)):
    for name, (column, max_m) in ROUTES.items():
        built = column(n, m)[n] if max_m is None or m <= max_m else f"not built for m > {max_m}"
        print(f"{f'{name}, L_{n}^{m}':>26}: {built}")
print(f"{check_routes(12, range(5))} (route, n, m) comparisons agree for n <= 12, m <= 4")

print()
print("== associated family ==")
for n, m in ((1, 1), (2, 1), (3, 2)):
    closed = assoc_closed(n, m)
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
