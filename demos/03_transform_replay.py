#!/usr/bin/env python3
"""The conformable Laplace calculus, and the differential equation solved by it.

The transform sends u**k * exp(r*u) to k!/(s-r)**(k+1) and stays exact in
partial-fraction form, so the whole s-domain derivation (first-order ODE in
s, derived from the u-domain equation's coefficient table, its solution as
a series in 1/s with y(0) = 1, termwise inversion) runs and is checked step
by step.
"""

from fractions import Fraction as F

from claguerre import (
    ExpPoly,
    NamedSignal,
    ReducedPoly,
    derivative_rule,
    inverse,
    laguerre_closed,
    laguerre_transform,
    s_domain_residual,
    solve_laguerre_ode,
    transform,
    transform_named,
)
from claguerre.integrate import transform_check
from claguerre.laplace import s_domain_equation

u = ReducedPoly((0, 1))

print("== a few exact pairs ==")
for signal, label in (
    (ExpPoly.from_poly(1), "1"),
    (ExpPoly.from_poly(u), "u"),
    (ExpPoly.exp(-1, u), "u exp(-u)"),
    (ExpPoly.exp(1), "exp(u)"),
):
    print(f"L[{label:>10}] = {transform(signal)}")

print()
print("== transform properties in action ==")
p = ExpPoly.exp(-1, ReducedPoly((2, 0, 3)))
T = transform(p)
print(f"F(s)                 = {T}")
print(f"s F(s) - f(0)        = {derivative_rule(T, p.value_at_zero())}")
print(f"L[d f]               = {transform(p.d_alpha())}")
print(f"-d/ds F              = {T.d_ds(1) * F(-1)}")
print(f"L[u f]               = {transform(ExpPoly.from_poly(u) * p)}")

print()
print("== named pairs against quadrature ==")
for sig in (
    NamedSignal("one"),
    NamedSignal("power_p", p=1.5),
    NamedSignal("exp_u"),
    NamedSignal("sin_wu", omega=2.0),
    NamedSignal("cos_wu"),
):
    alpha = 0.5
    s = 2.0
    closed, numeric = transform_check(transform_named(sig, alpha), sig.reduced(alpha), s)
    print(f"{sig.kind:>8} at s={s}: closed {closed:.10f}  quadrature {numeric:.10f}")

print()
print("== the s-domain solution ==")
n = 4
print(f"derived s-domain equation: {s_domain_equation(n)}")
Y = laguerre_transform(n)
print(f"its solution with y(0) = 1: Y(s) = {Y}")
print(f"s-domain residual: {s_domain_residual(Y, n)}")
y = inverse(Y).as_poly()
print(f"inverse transform: {y}")
print(f"matches the closed form: {y == laguerre_closed(n)}")
assert solve_laguerre_ode(n) == laguerre_closed(n)
