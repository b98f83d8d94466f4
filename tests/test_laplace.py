import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claguerre import cli, integrate, laplace, verify
from claguerre.alpha_calc import AlgebraError, ExpPoly, ReducedPoly
from claguerre.integrate import gauss_laguerre, quad_transform
from claguerre.laguerre import laguerre_closed
from claguerre.laplace import (
    NamedSignal,
    NonInvertibleError,
    PoleTerm,
    TransformExpr,
    derivative_rule,
    inverse,
    laguerre_transform,
    s_domain_equation,
    s_domain_operator,
    s_domain_residual,
    solve_laguerre_ode,
    transform,
    transform_named,
)
from claguerre.verify import random_exppoly

U = ReducedPoly((0, 1))

fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
polys = st.builds(ReducedPoly, st.lists(fractions, max_size=8))
rates = st.sampled_from([F(-3), F(-2), F(-1), F(0), F(1, 2)])
exppolys = st.builds(
    ExpPoly, st.lists(st.tuples(rates, polys), min_size=1, max_size=3)
)
images = st.builds(
    TransformExpr,
    st.lists(st.tuples(fractions, rates, st.integers(1, 4)), max_size=4),
    polys,
)


class TestForwardTransform:
    def test_unit_signal(self):
        assert transform(ExpPoly.from_poly(1)) == TransformExpr([(1, 0, 1)])

    def test_weighted_monomial(self):
        got = transform(ExpPoly.exp(-1, U))
        assert got == TransformExpr([(1, -1, 2)])

    def test_formal_mode_admits_unit_rate(self):
        assert transform(ExpPoly.exp(1)) == TransformExpr([(1, 1, 1)])

    def test_quadrature_cross_check(self):
        # integral of e^{-2u} * u e^{-u} du = 1/(2+1)^2 = 1/9
        rule = gauss_laguerre(30)
        T = transform(ExpPoly.exp(-1, U))
        got = quad_transform(lambda u: u * math.exp(-u), 2.0, rule)
        assert got == pytest.approx(T(2.0), abs=1e-8)
        assert got == pytest.approx(1.0 / 9.0, abs=1e-8)


class TestInverse:
    def test_simple_pole(self):
        assert inverse(TransformExpr([(1, 0, 1)])) == ExpPoly.from_poly(1)

    def test_shifted_pole(self):
        assert inverse(TransformExpr([(1, 1, 1)])) == ExpPoly.exp(1)

    def test_higher_order_pole(self):
        assert inverse(TransformExpr([(2, 0, 3)])) == ExpPoly.from_poly(
            ReducedPoly.monomial(2)
        )

    def test_polynomial_part_blocks_inversion(self):
        with pytest.raises(NonInvertibleError):
            inverse(TransformExpr([(1, 0, 1)], poly_part=1))

    @settings(max_examples=60, deadline=None)
    @given(exppolys)
    def test_round_trip(self, p):
        assert inverse(transform(p)) == p

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(fractions, rates, st.integers(1, 6)),
            min_size=1,
            max_size=5,
        )
    )
    def test_round_trip_from_s_domain(self, poles):
        T = TransformExpr(poles)
        assert transform(inverse(T)) == T


class TestSDerivative:
    def test_power_rule(self):
        assert TransformExpr([(1, 0, 1)]).d_ds(1) == TransformExpr([(-1, 0, 2)])

    def test_matches_u_multiplication(self):
        lhs = transform(ExpPoly.from_poly(U))
        rhs = -TransformExpr([(1, 0, 1)]).d_ds(1)
        assert lhs == rhs == TransformExpr([(1, 0, 2)])

    def test_second_derivative_of_shifted_pole(self):
        assert TransformExpr([(1, 1, 1)]).d_ds(2) == TransformExpr([(2, 1, 3)])

    def test_poly_part_differentiates(self):
        T = TransformExpr((), poly_part=ReducedPoly((0, 0, 1)))
        assert T.d_ds(1) == TransformExpr((), poly_part=ReducedPoly((0, 2)))


class TestMulS:
    def test_simple_pole_becomes_constant(self):
        assert TransformExpr([(1, 0, 1)]).mul_s() == TransformExpr((), poly_part=1)

    def test_shifted_pole(self):
        got = TransformExpr([(1, 1, 1)]).mul_s()
        assert got == TransformExpr([(1, 1, 1)], poly_part=1)

    def test_double_pole(self):
        assert TransformExpr([(1, 0, 2)]).mul_s() == TransformExpr([(1, 0, 1)])


class TestDerivativeRule:
    def test_constant_signal(self):
        # derivative of 1 vanishes
        assert derivative_rule(TransformExpr([(1, 0, 1)]), F(1)).is_zero

    def test_exponential_self_reproduces(self):
        T = TransformExpr([(1, 1, 1)])
        assert derivative_rule(T, F(1)) == T

    def test_ramp(self):
        got = derivative_rule(TransformExpr([(1, 0, 2)]), F(0))
        assert got == TransformExpr([(1, 0, 1)])

    @settings(max_examples=60, deadline=None)
    @given(exppolys)
    def test_against_exact_derivative(self, p):
        lhs = transform(p.d_alpha())
        rhs = derivative_rule(transform(p), p.value_at_zero())
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(exppolys)
    def test_two_applications_give_second_derivative(self, p):
        # s^2 F - s f(0) - (df)(0), the full two-step rule
        lhs = transform(p.d_alpha().d_alpha())
        once = derivative_rule(transform(p), p.value_at_zero())
        rhs = derivative_rule(once, p.d_alpha().value_at_zero())
        assert lhs == rhs


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(exppolys, exppolys, fractions, fractions)
    def test_linearity(self, p, q, a, b):
        assert transform(a * p + b * q) == a * transform(p) + b * transform(q)

    @settings(max_examples=40, deadline=None)
    @given(exppolys, st.sampled_from([F(1), F(2), F(1, 2)]))
    def test_shift_theorem(self, p, a):
        assert transform(ExpPoly.exp(-a) * p) == transform(p).shifted(a)

    @settings(max_examples=25, deadline=None)
    @given(exppolys, st.integers(0, 4))
    def test_u_multiplication_rule(self, p, n):
        lhs = transform(ExpPoly.from_poly(ReducedPoly.monomial(n)) * p)
        rhs = (-1) ** n * transform(p).d_ds(n)
        assert lhs == rhs


class TestSubtraction:
    """`-` equals adding the negation, from either side and against every
    operand TransformExpr coerces; a float operand is rejected."""

    @settings(max_examples=60, deadline=None)
    @given(images, images, fractions, st.integers(-5, 5))
    def test_against_each_coerced_operand(self, a, b, c, k):
        for x, y in ((a, b), (b, a), (a, c), (c, a), (a, k), (k, a)):
            got = x - y
            assert type(got) is TransformExpr
            assert got == x + (-y)
            assert got.poles == (x + (-y)).poles

    def test_float_operand_is_rejected(self):
        T = TransformExpr([(1, 0, 1)], poly_part=2)
        with pytest.raises(TypeError):
            T - 0.5
        with pytest.raises(TypeError):
            0.5 - T


class TestNamedSignals:
    def test_laplace_reexports_the_pairs_of_integrate(self):
        assert laplace.NamedSignal is integrate.NamedSignal
        assert laplace.transform_named is integrate.transform_named

    def test_unit_value(self):
        F_s = transform_named(NamedSignal("one"), 1.0)
        assert F_s(2.0) == pytest.approx(0.5)

    def test_sine_value(self):
        F_s = transform_named(NamedSignal("sin_wu", omega=1.0), 0.5)
        assert F_s(1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ["sin_wu", "cos_wu"])
    def test_trig_image_past_the_square_range(self, kind):
        # w^2 + s^2 overflows; the image is still the normal float 1/(2s)
        F_s = transform_named(NamedSignal(kind, omega=1e160), 1.0)
        assert F_s(1e160) == pytest.approx(5e-161, rel=1e-15)

    def test_sine_image_with_a_huge_frequency(self):
        F_s = transform_named(NamedSignal("sin_wu", omega=1e200), 1.0)
        assert F_s(1.0) == pytest.approx(1e-200, rel=1e-15)

    def test_power_at_order_alpha(self):
        # p = alpha gives a*Gamma(2)/s^2 = a/4 at s = 2
        for a in (0.25, 0.5, 1.0):
            F_s = transform_named(NamedSignal("power_p", p=a), a)
            assert F_s(2.0) == pytest.approx(a / 4.0, rel=1e-12)

    def test_image_is_evaluated_only_when_called(self):
        # Gamma(301) overflows; building the function must not evaluate it.
        F_s = transform_named(NamedSignal("power_p", p=3.0), 0.01)
        with pytest.raises(OverflowError):
            F_s(2.0)

    def test_region_enforced(self):
        F_s = transform_named(NamedSignal("exp_u"), 0.5)
        with pytest.raises(ValueError):
            F_s(1.0)
        with pytest.raises(ValueError):
            transform_named(NamedSignal("one"), 0.5)(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NamedSignal("nope")
        with pytest.raises(ValueError):
            NamedSignal("power_p", p=-1.0)
        with pytest.raises(ValueError):
            NamedSignal("sin_wu", omega=float("inf"))

    @pytest.mark.parametrize(
        "sig,alpha,grid,tol",
        [
            (NamedSignal("one"), 0.75, (0.5, 1.0, 2.0, 4.0, 8.0), 1e-8),
            (NamedSignal("power_p", p=1.5), 0.5, (1.0, 2.0, 3.0, 5.0, 8.0), 1e-8),
            (NamedSignal("exp_u"), 0.5, (1.5, 2.0, 3.0, 5.0, 8.0), 1e-8),
            (NamedSignal("sin_wu", omega=1.0), 0.5, (1.0, 1.5, 2.0, 4.0, 8.0), 1e-6),
            (NamedSignal("cos_wu", omega=1.0), 0.5, (1.0, 1.5, 2.0, 4.0, 8.0), 1e-6),
            (NamedSignal("sin_wu", omega=2.0), 0.5, (1.5, 2.0, 3.0, 5.0, 8.0), 1e-6),
        ],
    )
    def test_closed_forms_match_quadrature(self, sig, alpha, grid, tol):
        rule = gauss_laguerre(48)
        F_s = transform_named(sig, alpha)
        g = sig.reduced(alpha)
        for s in grid:
            assert quad_transform(g, s, rule) == pytest.approx(F_s(s), abs=tol)


class TestSDomain:
    def test_expanded_solution_annihilates(self):
        for n in range(13):
            assert s_domain_residual(laguerre_transform(n), n).is_zero

    def test_unit_pole_solves_degree_zero(self):
        assert s_domain_residual(TransformExpr([(1, 0, 1)]), 0).is_zero

    def test_double_pole_fails_degree_zero(self):
        assert not s_domain_residual(TransformExpr([(1, 0, 2)]), 0).is_zero

    @pytest.mark.parametrize("n", [0, 5])
    def test_operator_is_derived_from_the_equation(self, n):
        # -s(s-1)*Y' + (n+1-s)*Y: Q_0 = n+1 - s and Q_1 = s - s^2
        assert s_domain_operator(n) == ((n + 1, -1), (0, 1, -1))

    def test_equation_text(self):
        assert s_domain_equation(5) == "(s - s^2)*Y'(s) + (6 - s)*Y(s) = 0"


class TestSolve:
    def test_degree_zero(self):
        assert solve_laguerre_ode(0) == ReducedPoly.one()

    def test_degree_two(self):
        assert solve_laguerre_ode(2) == ReducedPoly((1, -2, F(1, 2)))

    def test_degree_three(self):
        assert solve_laguerre_ode(3) == ReducedPoly((1, -3, F(3, 2), F(-1, 6)))

    def test_matches_closed_form(self):
        # the Laplace route solves the m = 0 equation only, and says so
        assert verify.check_routes(80, range(5), ("Laplace solve",)) == 81

    def test_solve_stages(self, monkeypatch):
        # The stages solve prints: the derived image, its residual and its
        # inverse; solve_laguerre_ode is that inverse.
        Y = laguerre_transform(3)
        assert s_domain_residual(Y, 3).is_zero
        assert inverse(Y).as_poly() == laguerre_closed(3)
        seen = []
        wrong = ExpPoly.from_poly(laguerre_closed(2))
        monkeypatch.setattr(laplace, "inverse", lambda T: seen.append(T) or wrong)
        assert solve_laguerre_ode(3) == laguerre_closed(2)
        assert seen == [Y]

    def test_nonzero_residual_raises(self, monkeypatch):
        # With P_1 = (2, -1) the s**0 coefficient of the residual is a_0,
        # which no expansion with y(0) = 1 can cancel.
        monkeypatch.setattr(laplace, "laguerre_ode", lambda n: ((n,), (2, -1), (0, 1)))
        with pytest.raises(
            AlgebraError, match=r"^no expansion with y\(0\) = 1 solves \(s - s\^2\)\*Y'\(s\)"
        ):
            solve_laguerre_ode(3)


# laguerre_ode's (n,), (1 + m, -1), (0, 1) with one entry changed, at m = 0.
WRONG_EQUATIONS = {
    "P0=n+1": lambda n: ((n + 1,), (1, -1), (0, 1)),
    "P0=-n": lambda n: ((-n,), (1, -1), (0, 1)),
    "P1=(2,-1)": lambda n: ((n,), (2, -1), (0, 1)),
    "P1=(1,1)": lambda n: ((n,), (1, 1), (0, 1)),
    "P1=(1,-2)": lambda n: ((n,), (1, -2), (0, 1)),
    "P2=(0,2)": lambda n: ((n,), (1, -1), (0, 2)),
    "P2=(1,1)": lambda n: ((n,), (1, -1), (1, 1)),
}


class TestDerivation:
    def test_a_fractional_coefficient_is_refused(self, monkeypatch):
        # (2 - 2s)*Y + (s - 2s^2)*Y' = 0 is solved by (s + 1/2)/s^2: a_1 = 1/2.
        monkeypatch.setattr(laplace, "s_domain_operator", lambda n: ((2, -2), (0, 1, -2)))
        with pytest.raises(AlgebraError, match=r"^a_1 is not an integer for "):
            laguerre_transform(0)

    @pytest.mark.parametrize("wrong", WRONG_EQUATIONS.values(), ids=WRONG_EQUATIONS)
    def test_a_wrong_equation_is_caught(self, capsys, monkeypatch, wrong):
        # The derivation ends, and gives no image or another one; solve then
        # exits 1 or 3 and the triple-construction suite fails.
        images = [laguerre_transform(n) for n in range(1, 13)]
        monkeypatch.setattr(laplace, "laguerre_ode", wrong)
        for n, image in enumerate(images, 1):
            try:
                assert laguerre_transform(n) != image, n
            except AlgebraError:
                pass
        assert cli.main(["solve", "--n", "4"]) in (1, 3)
        assert "match: exact" not in capsys.readouterr().out
        with pytest.raises((AssertionError, AlgebraError)):
            dict(verify.SUITES["laguerre"])["triple-construction"]()


class TestRendering:
    def test_expanded_laguerre_transform(self):
        assert str(laguerre_transform(2)) == "1/s - 2/s^2 + 1/s^3"

    def test_shifted_pole(self):
        assert str(TransformExpr([(1, -1, 2)])) == "1/(s+1)^2"
        assert str(TransformExpr([(F(1, 2), F(1, 2), 1)])) == "1/2/(s-1/2)"

    def test_poly_part(self):
        assert str(TransformExpr([(1, 1, 1)], poly_part=1)) == "1/(s-1) + 1"

    def test_zero(self):
        assert str(TransformExpr()) == "0"

    def test_signed_poly_part(self):
        T = TransformExpr([(1, 1, 1)], poly_part=ReducedPoly((-1, 2)))
        assert str(T) == "1/(s-1) - 1 + 2*s"
        T = TransformExpr((), poly_part=ReducedPoly((-1, 0, F(-1, 2))))
        assert str(T) == "-1 - 1/2*s^2"
        T = TransformExpr([(-2, 0, 1), (F(3, 4), -2, 3)], poly_part=ReducedPoly((0, -1)))
        assert str(T) == "3/4/(s+2)^3 - 2/s - s"


LAGUERRE_S = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0)


class TestNumericValue:
    def test_laguerre_transform_keeps_its_digits(self):
        # The partial fractions of (s-1)**n / s**(n+1) cancel by many orders
        # of magnitude; the value must still be right to 1e-10 relative.
        for n in range(41):
            T = laguerre_transform(n)
            for s in LAGUERRE_S:
                S = F(s)
                want = float((S - 1) ** n / S ** (n + 1))
                assert abs(T(s) - want) <= 1e-10 * abs(want), (n, s)

    def test_known_cancellations(self):
        assert laguerre_transform(36)(0.5) == 2.0
        assert laguerre_transform(40)(1.5) == pytest.approx(
            float(F(1, 3) ** 40 / F(3, 2)), rel=1e-12
        )

    def test_poly_part_and_shifted_poles(self):
        T = TransformExpr([(F(3, 4), -2, 3)], poly_part=ReducedPoly((1, F(1, 2))))
        assert T(2) == 1 + 0.5 * 2 + 0.75 / 4**3

    def test_pole_is_an_arithmetic_error(self):
        with pytest.raises(ZeroDivisionError):
            TransformExpr([(1, 1, 1)])(1.0)


class TestExactInputsOnly:
    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            TransformExpr([(0.1, 0, 1)])

    def test_float_rate_rejected(self):
        with pytest.raises(TypeError):
            TransformExpr([(1, 0.5, 1)])

    def test_float_poly_part_rejected(self):
        with pytest.raises(TypeError):
            TransformExpr((), poly_part=0.5)

    def test_float_shift_rejected(self):
        with pytest.raises(TypeError):
            TransformExpr([(1, 0, 1)]).shifted(0.1)

    def test_float_initial_value_rejected(self):
        with pytest.raises(TypeError):
            derivative_rule(TransformExpr([(1, 0, 1)]), 0.3)

    def test_exact_inputs_still_accepted(self):
        T = TransformExpr([(1, F(1, 2), 1), (F(2, 3), 0, 2)])
        assert T.shifted(1) == TransformExpr([(1, F(-1, 2), 1), (F(2, 3), -1, 2)])
        assert derivative_rule(T, F(1, 3)).poly_part == 1 - F(1, 3)


def test_hash_agrees_with_equality():
    for value in (0, 4, F(-2, 7)):
        T = TransformExpr((), value)
        assert T == value and hash(T) == hash(value)
        assert len({T, value}) == 1
    T = laguerre_transform(3)
    assert hash(T) == hash(laguerre_transform(3))


def test_randomized_suite_smoke():
    # the acceptance suite runs 100 draws; keep a quick spot check here
    rng = random.Random(7)
    for _ in range(10):
        p = random_exppoly(rng)
        assert inverse(transform(p)) == p


# -- the per-rate representation against the list-of-PoleTerm algorithm ------


class RefTransform:
    """Reference: merged, sorted PoleTerms plus a polynomial part in s."""

    def __init__(self, poles=(), poly=0):
        merged = {}
        for c, r, m in poles:
            merged[(F(r), m)] = merged.get((F(r), m), F(0)) + F(c)
        self.poles = tuple(
            PoleTerm(merged[key], *key) for key in sorted(merged) if merged[key]
        )
        self.poly = poly if isinstance(poly, ReducedPoly) else ReducedPoly((poly,))

    def __add__(self, other):
        return RefTransform(self.poles + other.poles, self.poly + other.poly)

    def __neg__(self):
        return self * -1

    def __mul__(self, k):
        return RefTransform([(c * k, r, m) for c, r, m in self.poles], self.poly * k)

    def d_ds(self, n):
        poles = []
        for c, r, m in self.poles:
            rising = math.prod(range(m, m + n))
            poles.append((c * (-1) ** n * rising, r, m + n))
        return RefTransform(poles, self.poly.deriv(n))

    def mul_s(self):
        poles, extra = [], F(0)
        for c, r, m in self.poles:
            poles.append((c * r, r, m))
            if m == 1:
                extra += c
            else:
                poles.append((c, r, m - 1))
        return RefTransform(poles, ReducedPoly((0,) + self.poly.coeffs) + extra)

    def shifted(self, a):
        return RefTransform(
            [(c, r - a, m) for c, r, m in self.poles], self.poly.taylor_shift(a)
        )

    def value(self, s):
        s = F(s)
        total = self.poly(s)
        for c, r, m in self.poles:
            total += c / (s - r) ** m
        return float(total)

    def text(self):
        pieces = []
        for c, r, m in self.poles:
            if r == 0:
                den = "s" if m == 1 else f"s^{m}"
            else:
                base = f"(s{'-' if r > 0 else '+'}{abs(r)})"
                den = base if m == 1 else f"{base}^{m}"
            pieces.append(f"{'-' if c < 0 else '+'}{abs(c)}/{den}")
        for k, c in enumerate(self.poly.coeffs):
            if c:
                mag = abs(c)
                if k == 0:
                    body = str(mag)
                else:
                    head = "" if mag == 1 else f"{mag}*"
                    body = f"{head}s" if k == 1 else f"{head}s^{k}"
                pieces.append(f"{'-' if c < 0 else '+'}{body}")
        if not pieces:
            return "0"
        text = pieces[0].lstrip("+")
        for piece in pieces[1:]:
            text += f" {piece[0]} {piece[1:]}"
        return text


def assert_per_rate_canonical(T):
    block = T._block
    rates = [F(*key) for key in block._keys]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(num and num[-1] for num in block._nums)
    entries = [c for num in block._nums for c in num]
    assert block._den > 0 and math.gcd(block._den, *entries) == 1
    assert all(type(p.rate) is F for p in T.poles)
    assert list(T.poles) == sorted(T.poles, key=lambda p: (p.rate, p.order))
    assert all(type(p.coeff) is F and p.coeff for p in T.poles)


def assert_matches(got, ref):
    assert_per_rate_canonical(got)
    assert got.poles == ref.poles
    assert got.poly_part == ref.poly
    assert str(got) == ref.text()
    rebuilt = TransformExpr(ref.poles, ref.poly)
    assert got == rebuilt and hash(got) == hash(rebuilt)


# Beside the rates above, rates over three different denominators, so sums,
# mul_s and fractional shifts meet mixed rate denominators.
pole_rates = st.one_of(rates, st.sampled_from([F(1, 3), F(-3, 4), F(5, 6)]))
pole_lists = st.lists(st.tuples(fractions, pole_rates, st.integers(1, 6)), max_size=6)
s_polys = st.builds(ReducedPoly, st.lists(fractions, max_size=4))
scalars = st.one_of(st.integers(-3, 3), fractions)


class TestPerRateModel:
    @settings(max_examples=150, deadline=None)
    @given(pole_lists, s_polys, pole_lists, s_polys, scalars)
    def test_linear_operations(self, pa, qa, pb, qb, k):
        a, b = TransformExpr(pa, qa), TransformExpr(pb, qb)
        ra, rb = RefTransform(pa, qa), RefTransform(pb, qb)
        assert_matches(a, ra)
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra + (-rb))
        assert_matches(-a, -ra)
        assert_matches(a * k, ra * k)
        assert_matches(k * a, ra * k)
        assert_matches(a + k, ra + RefTransform((), k))
        assert_matches(k - a, RefTransform((), k) + (-ra))
        assert (a - a).is_zero
        assert (a == b) == (ra.poles == rb.poles and ra.poly == rb.poly)

    @settings(max_examples=150, deadline=None)
    @given(
        pole_lists, s_polys, st.integers(0, 4),
        st.sampled_from([F(1), F(2), F(1, 2), F(-3, 4)]),
    )
    def test_calculus_operations(self, poles, poly, n, a):
        T, ref = TransformExpr(poles, poly), RefTransform(poles, poly)
        assert_matches(T.d_ds(n), ref.d_ds(n))
        assert_matches(T.mul_s(), ref.mul_s())
        assert_matches(T.mul_s().mul_s(), ref.mul_s().mul_s())
        assert_matches(T.shifted(a), ref.shifted(a))
        assert_matches(s_domain_residual(T, n), (
            -(ref.d_ds(1).mul_s().mul_s() + -ref.d_ds(1).mul_s())
            + ref * (n + 1) + -ref.mul_s()
        ))

    @settings(max_examples=100, deadline=None)
    @given(pole_lists, s_polys, st.sampled_from([F(7, 3), F(5, 2), 3, 0.75, -0.5, 6.25]))
    def test_value(self, poles, poly, s):
        T = TransformExpr(poles, poly)
        assert T(s) == RefTransform(poles, poly).value(s)

    @settings(max_examples=60, deadline=None)
    @given(exppolys)
    def test_transform_and_inverse(self, p):
        ref = RefTransform(
            [(c * math.factorial(k), r, k + 1)
             for r, poly in p.terms for k, c in enumerate(poly.coeffs) if c]
        )
        T = transform(p)
        assert_matches(T, ref)
        assert inverse(T) == ExpPoly(
            (t.rate, ReducedPoly.monomial(t.order - 1, t.coeff / math.factorial(t.order - 1)))
            for t in ref.poles
        )

    def test_transform_and_inverse_build_no_fraction(self, monkeypatch):
        p = ExpPoly([(F(-1, 2), ReducedPoly((F(1, 3), 0, 2))), (1, ReducedPoly((1, F(-5, 4))))])
        calls = []
        new = F.__new__

        def counting_new(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting_new)
        T = transform(p)
        in_transform = len(calls)
        back = inverse(T)
        in_inverse = len(calls) - in_transform
        monkeypatch.undo()
        assert (in_transform, in_inverse) == (0, 0)
        assert back == p

    def test_laguerre_transform(self):
        for n in range(301):
            ref = RefTransform(
                ((-1) ** k * math.comb(n, k), 0, k + 1) for k in range(n + 1)
            )
            assert_matches(laguerre_transform(n), ref)

    def test_poles_are_not_stored(self):
        T = laguerre_transform(3)
        assert T.poles == T.poles and T.poles is not T.poles
        assert not hasattr(T, "__dict__")

    def test_public_constructor_keeps_its_checks(self):
        with pytest.raises(ValueError):
            TransformExpr([(1, 0, 0)])
        with pytest.raises(ValueError):
            TransformExpr([(1, 0, 1.0)])
        with pytest.raises(TypeError):
            TransformExpr([(F(1), 0.25, 2)])
