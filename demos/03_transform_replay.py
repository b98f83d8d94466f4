#!/usr/bin/env python3
"""The conformable Laplace calculus and the differential-equation replay.

The transform sends u**k * exp(r*u) to k!/(s-r)**(k+1) and stays exact in
partial-fraction form, so the whole s-domain derivation (first-order ODE in
s, derived from the u-domain equation's coefficient table, binomial
expansion, termwise inversion) can be replayed and checked step by step.
"""

from fractions import Fraction as F

from claguerre import (
    ExpPoly,
    NamedSignal,
    ReducedPoly,
    derivative_rule,
    laguerre_closed,
    solve_laguerre_ode,
    transform,
    transform_named,
)
from claguerre.integrate import transform_check
from claguerre.laplace import replay_laguerre_ode, s_domain_equation

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
print("== the s-domain replay ==")
n = 4
Y, residual, y = replay_laguerre_ode(n)
print(f"Y(s) = (s-1)^{n}/s^{n + 1} = {Y}")
print(f"derived s-domain equation: {s_domain_equation(n)}")
print(f"s-domain residual: {residual}")
print(f"inverse transform: {y}")
print(f"matches the closed form: {y == laguerre_closed(n)}")
assert solve_laguerre_ode(n) == laguerre_closed(n)
