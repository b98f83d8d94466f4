import copy
import math
import pickle
import random
import re
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from claguerre.alpha_calc import (
    AlgebraError,
    ExpPoly,
    ReducedPoly,
    as_alpha,
    d_alpha,
    d_alpha_n,
    d_alpha_numeric,
    x_view_str,
)
from claguerre.verify import _SEED, _random_poly, random_exppoly

U = ReducedPoly((0, 1))


def conv(a, b):
    """Independent coefficient convolution, the oracle for products."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += F(x) * F(y)
    return out


def rates_of(e):
    """The rates of an ExpPoly, in the order of its terms."""
    return tuple(r for r, _ in e.terms)


# -- strategies ----------------------------------------------------------------

fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
polys = st.builds(ReducedPoly, st.lists(fractions, max_size=6))
rates = st.sampled_from([F(-2), F(-1), F(0), F(1)])
exppolys = st.builds(
    ExpPoly, st.lists(st.tuples(rates, polys), min_size=1, max_size=3)
)


class TestReducedPoly:
    def test_canonical_form_strips_trailing_zeros(self):
        p = ReducedPoly((1, 2, 0, 0))
        assert p.coeffs == (F(1), F(2))
        assert p.degree == 1
        assert ReducedPoly((0, 0)).is_zero
        assert ReducedPoly().degree == -1

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            ReducedPoly((0.5,))

    def test_degree_bounds(self):
        p, q = ReducedPoly((1, 2, 3)), ReducedPoly((0, 1))
        assert (p + q).degree <= max(p.degree, q.degree)
        assert (p * q).degree == p.degree + q.degree

    def test_scalar_arithmetic(self):
        assert 1 - U == ReducedPoly((1, -1))
        assert (1 - U) * F(1, 2) == ReducedPoly((F(1, 2), F(-1, 2)))
        assert ReducedPoly((2, 4)) * F(1, 2) == ReducedPoly((1, 2))

    def test_power(self):
        assert (1 - U) ** 2 == ReducedPoly((1, -2, 1))

    def test_exact_call(self):
        p = ReducedPoly((1, -2, F(1, 2)))
        assert p(F(2)) == F(-1)
        assert isinstance(p(F(2)), F)

    def test_divide_by_u(self):
        assert ReducedPoly((0, 0, 3)).divide_by_u(2) == ReducedPoly((3,))
        with pytest.raises(AlgebraError):
            ReducedPoly((1, 1)).divide_by_u(1)

    def test_taylor_shift(self):
        # (u+1)^2 = 1 + 2u + u^2
        assert ReducedPoly((0, 0, 1)).taylor_shift(1) == ReducedPoly((1, 2, 1))

    def test_str(self):
        assert str(ReducedPoly((1, -2, F(1, 2)))) == "1 - 2*u + 1/2*u^2"
        assert str(ReducedPoly()) == "0"


class TestExpPolyArithmetic:
    def test_additive_inverse(self):
        one = ExpPoly.from_poly(ReducedPoly.one())
        assert (one + (-one)).is_zero

    def test_like_terms_merge(self):
        t = ExpPoly.exp(-1, U)
        assert t + t == ExpPoly.exp(-1, 2 * U)

    def test_plain_sum(self):
        assert ExpPoly.from_poly(1 - U) + ExpPoly.from_poly(U) == 1

    def test_rate_cancellation(self):
        assert ExpPoly.exp(-1) * ExpPoly.exp(1) == 1

    def test_binomial_square(self):
        p = ExpPoly.from_poly(1 - U)
        assert p * p == ExpPoly.from_poly(ReducedPoly((1, -2, 1)))

    def test_product_against_convolution_oracle(self):
        # L1 * L2 with the expected coefficients convolved independently
        l1, l2 = [F(1), F(-1)], [F(1), F(-2), F(1, 2)]
        expected = ReducedPoly(conv(l1, l2))
        assert expected == ReducedPoly((1, -3, F(5, 2), F(-1, 2)))
        got = ExpPoly.from_poly(ReducedPoly(l1)) * ExpPoly.from_poly(ReducedPoly(l2))
        assert got == ExpPoly.from_poly(expected)

    def test_zero_polynomial_terms_dropped(self):
        assert ExpPoly(((F(-1), ReducedPoly()),)).is_zero

    def test_rates_sorted_and_distinct(self):
        e = ExpPoly(((F(1), 1), (F(-1), 1), (F(1), 2)))
        assert rates_of(e) == (F(-1), F(1))

    def test_str_joins_signed_terms(self):
        assert str(ExpPoly([(-1, 1), (0, -1)])) == "exp(-u) - 1"
        assert str(ExpPoly([(-1, -U), (0, U - 1)])) == "-u*exp(-u) - 1 + u"
        assert str(d_alpha(ExpPoly.exp(-1))) == "-exp(-u)"
        assert str(ExpPoly.exp(-1, 1 - U)) == "(1 - u)*exp(-u)"
        assert str(ExpPoly.exp(F(1, 2), -1 - U)) == "(-1 - u)*exp(1/2*u)"
        assert str(ExpPoly([(2, F(-3, 2) * U * U), (1, 2)])) == "2*exp(u) - 3/2*u^2*exp(2*u)"
        assert str(ExpPoly()) == "0"


class TestSubtraction:
    """Each type's `-` equals adding the negation, from either side and
    against every operand the type coerces; a float operand is rejected."""

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, fractions, st.integers(-5, 5))
    def test_reduced_poly(self, a, b, c, k):
        for x, y in ((a, b), (b, a), (a, c), (c, a), (a, k), (k, a)):
            got = x - y
            assert type(got) is ReducedPoly
            assert got == x + (-y)

    @settings(max_examples=60, deadline=None)
    @given(exppolys, exppolys, polys, fractions, st.integers(-5, 5))
    def test_exppoly(self, e, f, p, c, k):
        for x, y in ((e, f), (f, e), (e, p), (p, e), (e, c), (c, e), (e, k), (k, e)):
            got = x - y
            assert type(got) is ExpPoly
            assert got.terms == (x + (-y)).terms

    @pytest.mark.parametrize("value", [ReducedPoly((1, 2)), ExpPoly.exp(-1, U)])
    def test_float_operand_is_rejected(self, value):
        with pytest.raises(TypeError):
            value - 0.5
        with pytest.raises(TypeError):
            0.5 - value


class TestConformableDerivative:
    def test_monomial_power_rule(self):
        assert d_alpha(ReducedPoly.monomial(3)) == 3 * ReducedPoly.monomial(2)

    def test_entry_points_agree(self):
        rng = random.Random(13)
        for _ in range(200):
            f = random_exppoly(rng)
            one, method, n_fold = d_alpha(f), f.d_alpha(), d_alpha_n(f, 1)
            assert one.terms == method.terms == n_fold.terms
            for _, p in f.terms:
                assert d_alpha(p) == d_alpha_n(p, 1) == p.deriv()

    @pytest.mark.parametrize("derivative", [d_alpha, lambda f: d_alpha_n(f, 1)])
    def test_non_exact_argument_is_rejected(self, derivative):
        with pytest.raises(TypeError) as info:
            derivative(3.0)
        assert str(info.value) == "ReducedPoly or ExpPoly expected, got float"

    def test_exponential_eigenfunction(self):
        w = ExpPoly.exp(-1)
        assert d_alpha(w) == -w

    def test_constant(self):
        assert d_alpha(ExpPoly.from_poly(5 * ReducedPoly.one())).is_zero

    def test_iterated(self):
        assert d_alpha_n(ReducedPoly.monomial(2), 2) == ReducedPoly((2,))
        assert d_alpha_n(ExpPoly.exp(-1), 3) == -ExpPoly.exp(-1)

    def test_single_product_rule_step(self):
        # d/du (u e^-u) = (1 - u) e^-u, by one product-rule step
        got = d_alpha(ExpPoly.exp(-1, U))
        assert got == ExpPoly.exp(-1, 1 - U)

    def test_weighted_monomial_second_derivative(self):
        # two product-rule steps by hand: d^2/du^2 (u^2 e^-u) = (2 - 4u + u^2) e^-u
        got = d_alpha_n(ExpPoly.exp(-1, ReducedPoly.monomial(2)), 2)
        assert got == ExpPoly.exp(-1, ReducedPoly((2, -4, 1)))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            d_alpha_n(U, -1)

    def test_rejects_non_polynomials_at_every_order(self):
        for n in (0, 1):
            with pytest.raises(TypeError):
                d_alpha_n(2.5, n)
        f = ExpPoly.exp(-1, U)
        assert d_alpha_n(f, 0) is f

    @settings(max_examples=60, deadline=None)
    @given(exppolys, exppolys)
    def test_product_rule(self, p, q):
        assert (p * q).d_alpha() == p.d_alpha() * q + p * q.d_alpha()

    @settings(max_examples=25, deadline=None)
    @given(exppolys, exppolys, st.integers(0, 5))
    def test_binomial_expansion_of_iterates(self, f, g, n):
        lhs = d_alpha_n(f * g, n)
        rhs = ExpPoly()
        for k in range(n + 1):
            rhs = rhs + math.comb(n, k) * (d_alpha_n(f, n - k) * d_alpha_n(g, k))
        assert lhs == rhs


class TestNumericDerivative:
    def test_constant_is_flat(self):
        assert d_alpha_numeric(lambda x: 5.0, 1.7, 0.5, h=1e-4) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_power_rule_value(self):
        # the derivative of x**alpha of order alpha is the constant alpha
        got = d_alpha_numeric(lambda x: x**0.5, 2.0, 0.5, h=1e-5)
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_x_power_rendering(self):
        # d of x**(k*alpha) is k*alpha*x**((k-1)*alpha)
        k, a, x = 3, 0.5, 1.7
        got = d_alpha_numeric(lambda t: t ** (k * a), x, a, h=1e-5)
        assert got == pytest.approx(k * a * x ** ((k - 1) * a), rel=1e-8)

    def test_matches_exact_path(self):
        from claguerre.laguerre import laguerre_closed

        poly = laguerre_closed(2)
        f = lambda x: poly.eval(x, 0.5)
        want = poly.deriv().eval(1.0, 0.5)
        assert d_alpha_numeric(f, 1.0, 0.5, h=1e-4) == pytest.approx(want, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            d_alpha_numeric(lambda x: x, 0.0, 0.5)
        with pytest.raises(ValueError):
            d_alpha_numeric(lambda x: x, 1.0, 0.5, h=0.0)
        # nan fails every comparison, so a check written as x <= 0 lets it by.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^x must be positive and finite, got {bad!r}$"):
                d_alpha_numeric(lambda x: x, bad, 0.5)
            with pytest.raises(
                ValueError, match=rf"^step size must be positive and finite, got {bad!r}$"
            ):
                d_alpha_numeric(lambda x: x, 1.0, 0.5, h=bad)

    def test_error_drops_quadratically(self):
        from claguerre.laguerre import laguerre_closed

        poly = laguerre_closed(5)
        f = lambda x: poly.eval(x, 0.25)
        want = poly.deriv().eval(0.5, 0.25)
        e1 = abs(d_alpha_numeric(f, 0.5, 0.25, h=0.05) - want)
        e2 = abs(d_alpha_numeric(f, 0.5, 0.25, h=0.025) - want)
        assert e1 / e2 >= 3.5


class TestEval:
    def test_value_at_zero_is_constant_term(self):
        from claguerre.laguerre import laguerre_closed

        for a in (0.25, 0.5, 1.0):
            assert laguerre_closed(1).eval(0.0, a) == pytest.approx(1.0)

    def test_classical_point(self):
        assert (1 - U).eval(1.0, 1.0) == pytest.approx(0.0)

    def test_reduced_substitution(self):
        # u = 1**0.5 / 0.5 = 2, so 1 - u = -1
        assert (1 - U).eval(1.0, 0.5) == pytest.approx(-1.0)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            (1 - U).eval(-1.0, 0.5)

    def test_exppoly_value_at_zero(self):
        e = ExpPoly.exp(-2, ReducedPoly((3, 1))) + ExpPoly.from_poly(1 - U)
        assert e.value_at_zero() == F(4)
        assert e.eval(0.0, 0.5) == pytest.approx(4.0)


class TestAlphaValue:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.2, 7, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            as_alpha(bad)

    def test_accepts_boundary(self):
        assert as_alpha(1.0) == 1.0
        assert as_alpha(F(1, 4)) == 0.25


# One term of the x-view text: its sign (none on a leading positive term),
# its magnitude, and for k >= 1 the alpha power and the k of x^(k*a).
X_TERM = re.compile(
    r"(?:^(?P<lead>-?)| (?P<op>[-+]) )(?P<mag>\d+(?:/\d+)?)"
    r"(?: \* a\^\((?P<power>-?\d+)\) \* x\^\((?P<k>\d+)\*a\))?"
)


def eval_x_view(text, a, x_to_a):
    """The exact value of an x-view text at alpha = a, given x**a."""
    total, end = F(0), 0
    for m in X_TERM.finditer(text):
        assert m.start() == end, f"unparsed text in {text!r}"
        end = m.end()
        value = F(m["mag"])
        if m["k"] is not None:
            value *= a ** int(m["power"]) * x_to_a ** int(m["k"])
        total += -value if "-" in (m["lead"], m["op"]) else value
    assert end == len(text), f"unparsed text in {text!r}"
    return total


def assert_x_view_exact(p):
    text = x_view_str(p)
    # alpha = 1/2, x = 4: x**(k*alpha) * alpha**(-k) = 2**k * 2**k = 4**k
    assert eval_x_view(text, F(1, 2), F(2)) == p(4)
    # alpha = 1, x = 3: x**(k*alpha) * alpha**(-k) = 3**k
    assert eval_x_view(text, F(1), F(3)) == p(3)


class TestXView:
    def test_basic_terms(self):
        assert x_view_str(1 - U) == "1 - 1 * a^(-1) * x^(1*a)"

    def test_zero_is_empty(self):
        assert x_view_str(ReducedPoly()) == "0"

    def test_skips_zero_coefficients(self):
        assert x_view_str(ReducedPoly.monomial(2, F(1, 2))) == "1/2 * a^(-2) * x^(2*a)"

    def test_strings(self):
        assert x_view_str(ReducedPoly((F(-3, 4), 0, 2))) == "-3/4 + 2 * a^(-2) * x^(2*a)"
        assert x_view_str(ReducedPoly((0, F(5, 2), -1))) == (
            "5/2 * a^(-1) * x^(1*a) - 1 * a^(-2) * x^(2*a)"
        )

    # The text, read back at two points, gives p's exact values there.
    @settings(max_examples=60, deadline=None)
    @given(polys)
    def test_round_trip(self, p):
        assert_x_view_exact(p)

    def test_round_trip_of_the_seeded_polynomials(self):
        rng = random.Random(_SEED + 3)
        for _ in range(60):
            assert_x_view_exact(_random_poly(rng, max_degree=8))

    def test_the_check_sees_an_altered_term(self):
        text = x_view_str(ReducedPoly((1, F(-3, 2), 2)))
        assert eval_x_view(text, F(1, 2), F(2)) == 1 - 6 + 32
        assert eval_x_view(text.replace("a^(-2)", "a^(-1)"), F(1, 2), F(2)) != 1 - 6 + 32
        with pytest.raises(AssertionError, match="unparsed"):
            eval_x_view(text.replace(" * x^(2*a)", " * x^(2a)"), F(1, 2), F(2))


@settings(max_examples=60, deadline=None)
@given(polys)
def test_recanonicalization_is_identity(p):
    assert ReducedPoly(p.coeffs) == p


@settings(max_examples=60, deadline=None)
@given(exppolys)
def test_exppoly_recanonicalization_is_identity(e):
    assert ExpPoly(e.terms) == e


# -- integer-content representation -------------------------------------------
#
# ReducedPoly stores integer numerators over one common denominator.  These
# tests hold it against a plain list-of-Fraction model of every operation.

fraction_lists = st.lists(
    st.builds(F, st.integers(-50, 50), st.integers(1, 12)), max_size=7
)
scalars = st.one_of(st.integers(-6, 6), st.builds(F, st.integers(-6, 6), st.integers(1, 6)))


def factor_scalars(nums, den):
    """Scalars that meet the factors of a block of numerator tuples over den:
    0, negatives, ints sharing factors with den, and Fractions whose
    denominator shares a factor with the numerators' content."""
    content = math.gcd(*(c for num in nums for c in num)) or 1
    return [0, -1, den, -6 * den, 2 * den + 2, F(1, content), F(-5, 6 * content),
            F(3 * den, 2 * content)]


def model(cs):
    """Canonical list-of-Fraction form: trailing zeros stripped."""
    out = [F(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def model_add(a, b):
    n = max(len(a), len(b))
    return model(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def model_mul(a, b):
    return model(conv(a, b)) if a and b else ()


def model_deriv(a, order):
    for _ in range(order):
        a = [k * c for k, c in enumerate(a)][1:]
    return model(a)


def model_shift(a, s):
    out = ()
    for c in reversed(a):
        out = model_add(model_mul(out, (s, F(1))), (c,))
    return out


def model_call(a, u):
    return sum((c * u**k for k, c in enumerate(a)), F(0))


def assert_canonical(p):
    num, den = p._num, p._den
    assert all(type(c) is int for c in num) and type(den) is int
    assert den > 0
    assert not num or num[-1] != 0
    assert math.gcd(den, *num) == 1
    if not num:
        assert (num, den) == ((), 1)
    assert p.coeffs == tuple(F(c, den) for c in num)
    assert all(type(c) is F for c in p.coeffs)


class TestIntegerContentModel:
    @settings(max_examples=150, deadline=None)
    @given(fraction_lists, fraction_lists, scalars)
    def test_ring_operations(self, a, b, c):
        p, q = ReducedPoly(a), ReducedPoly(b)
        ma, mb = model(a), model(b)
        cases = [
            (p, ma),
            (p + q, model_add(ma, mb)),
            (p - q, model_add(ma, [-x for x in mb])),
            (-p, model([-x for x in ma])),
            (p * q, model_mul(ma, mb)),
            (p**2, model_mul(ma, ma)),
            (p * c, model([x * c for x in ma])),
            (c * p, model([x * c for x in ma])),
            (p + c, model_add(ma, (F(c),))),
            (c - p, model_add((F(c),), [-x for x in ma])),
        ]
        for k in (c, *factor_scalars((p._num,), p._den)):
            cases += [(p * k, model([x * k for x in ma])), (k * p, model([x * k for x in ma]))]
            if k:
                cases.append((p * (1 / F(k)), model([x / F(k) for x in ma])))
        cases.append(((p * U**2).divide_by_u(2), ma))
        for got, want in cases:
            assert got.coeffs == want
            assert_canonical(got)

    @settings(max_examples=100, deadline=None)
    @given(fraction_lists, st.integers(0, 4), scalars)
    def test_calculus_operations(self, a, order, s):
        p, ma = ReducedPoly(a), model(a)
        got = p.deriv(order)
        assert got.coeffs == model_deriv(ma, order)
        assert_canonical(got)
        got = p.taylor_shift(s)
        assert got.coeffs == model_shift(ma, F(s))
        assert_canonical(got)
        shifted_up = p * ReducedPoly.monomial(order)
        got = shifted_up.divide_by_u(order)
        assert got == p
        assert_canonical(got)

    @settings(max_examples=100, deadline=None)
    @given(fraction_lists, scalars)
    def test_exact_call(self, a, u):
        got = ReducedPoly(a)(u)
        assert got == model_call(model(a), F(u))
        if model(a):
            assert type(got) is F

    @settings(max_examples=100, deadline=None)
    @given(fraction_lists, st.floats(-30, 30))
    def test_float_call_is_the_exact_value_rounded_once(self, a, u):
        p = ReducedPoly(a)
        got = p(u)
        assert type(got) is float
        assert got == float(p(F(u)))

    def test_laguerre_eval_is_the_exact_value_rounded_once(self):
        from claguerre.laguerre import assoc_closed

        for n in range(0, 41, 3):
            for m in range(5):
                p = assoc_closed(n, m)
                for alpha in (0.25, 0.5, 0.75, 1.0):
                    for x in (0.0, 0.37, 2.5, 11.0, 40.0):
                        want = float(p(F(x**alpha / alpha)))
                        assert p.eval(x, alpha) == want
                        assert ExpPoly.from_poly(p).eval(x, alpha) == want

    def test_float_call_matches_high_precision_values(self):
        # mpmath never reads the monomial coefficients; at 60 digits its
        # value rounds to the same float as the exact sum
        import mpmath
        from claguerre.laguerre import assoc_closed

        with mpmath.workdps(60):
            for n, m, u in ((30, 0, 10.0), (50, 0, 50.0), (80, 0, 100.0),
                            (100, 3, 100.0), (60, 2, 0.731)):
                want = float(mpmath.laguerre(n, m, mpmath.mpf(u)))
                assert assoc_closed(n, m)(u) == want

    @pytest.mark.parametrize("p", [ReducedPoly(), ReducedPoly((1, -2, 1))])
    def test_non_finite_float_arguments_raise(self, p):
        for u in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^u must be a finite number, got {u!r}$"):
                p(u)
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^x must be a finite number >= 0, got {x!r}$"):
                p.eval(x, 0.5)

    def test_non_finite_exppoly_arguments_raise(self):
        for e in (ExpPoly(), ExpPoly.exp(-1, ReducedPoly((1, -2, 1)))):
            for u in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^u must be a finite number, got {u!r}$"):
                    e.eval_u(u)
            for x in (math.nan, math.inf):
                with pytest.raises(ValueError,
                                   match=f"^x must be a finite number >= 0, got {x!r}$"):
                    e.eval(x, 0.5)

    @pytest.mark.parametrize(
        "x, alpha, error, message",
        [
            (math.nan, 0.5, ValueError, "x must be a finite number >= 0, got nan"),
            (math.inf, 0.5, ValueError, "x must be a finite number >= 0, got inf"),
            (-1.0, 0.5, ValueError, "x must be a finite number >= 0, got -1.0"),
            (2.0, 5e-324, ValueError, "u must be a finite number, got inf"),
        ],
    )
    def test_both_evals_reject_a_bad_x_alike(self, x, alpha, error, message):
        p = ReducedPoly((1, -2, 1))
        for value in (p, ExpPoly.from_poly(p), ExpPoly.exp(-1, p)):
            with pytest.raises(error) as info:
                value.eval(x, alpha)
            assert str(info.value) == message

    def test_zero_exppoly_evaluates_to_float_zero(self):
        for value in (ExpPoly().eval_u(1.5), ExpPoly().eval(2.0, 0.5)):
            assert type(value) is float and value == 0.0

    def test_value_past_the_float_range_raises(self):
        with pytest.raises(OverflowError):
            ReducedPoly.monomial(2)(1e200)

    @pytest.mark.parametrize("u", [1e300, -1e300])
    def test_a_proved_overflow_raises_before_the_sum(self, u):
        from claguerre.laguerre import assoc_closed

        p = assoc_closed(1500, 0)
        assert p._overflows(*u.as_integer_ratio())
        with pytest.raises(OverflowError):
            p(u)

    def test_values_at_the_edge_of_the_float_range(self):
        assert ReducedPoly((0, 1))(1.7e308) == 1.7e308
        # exact cancellation of two terms far past the float range
        p = ReducedPoly((0, -(2**1000), 1))
        assert not p._overflows(*(2.0**1000).as_integer_ratio())
        assert p(2.0**1000) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**1100), 2**1100), min_size=2, max_size=6),
           st.integers(1, 2**40), st.floats(allow_nan=False, allow_infinity=False))
    def test_the_overflow_proof_is_sound(self, num, den, u):
        p = ReducedPoly._from_ints(num, den)
        if p._overflows(*u.as_integer_ratio()):
            assert abs(p(F(u))) > 2**1025

    def test_canonical_forms(self):
        assert (ReducedPoly()._num, ReducedPoly()._den) == ((), 1)
        assert (ReducedPoly((0, 0))._num, ReducedPoly((0, 0))._den) == ((), 1)
        p = ReducedPoly((F(2, 6), F(-4, 3), 0))
        assert (p._num, p._den) == ((1, -4), 3)
        assert ((p * 3)._num, (p * 3)._den) == ((1, -4), 1)
        assert_canonical(p - p)
        assert (p - p)._den == 1


class TestHashAgreesWithEquality:
    def test_constant_polynomials(self):
        for value in (0, 3, -7, F(5, 2), F(-1, 3)):
            p = ReducedPoly((value,))
            assert p == value
            assert hash(p) == hash(value)
            assert len({p, value}) == 1
        assert len({ReducedPoly((3,)), 3}) == 1
        assert len({ReducedPoly(), 0, F(0)}) == 1

    def test_exppoly_constants_and_plain_polynomials(self):
        for value in (0, 3, F(-5, 4)):
            e = ExpPoly.from_poly(value)
            assert e == value and hash(e) == hash(value)
        p = ReducedPoly((1, F(-1, 2), 3))
        assert ExpPoly.from_poly(p) == p
        assert len({ExpPoly.from_poly(p), p}) == 1
        assert len({ExpPoly(), ReducedPoly(), 0}) == 1


# -- ExpPoly canonical form through the private constructors ------------------
#
# The operations build their results without the public constructor's merge;
# each must still be canonical and equal what the public constructor gives.

wide_rates = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1)])
wide_exppolys = st.builds(
    ExpPoly,
    st.lists(st.tuples(wide_rates, st.builds(ReducedPoly, fraction_lists)), max_size=4),
)


def assert_exppoly_canonical(e):
    rates = [r for r, _ in e.terms]
    assert all(type(r) is F for r in rates)
    assert all(a < b for a, b in zip(rates, rates[1:]))
    for _, p in e.terms:
        assert p
        assert_canonical(p)


class TestExpPolyCanonicalForm:
    @settings(max_examples=150, deadline=None)
    @given(wide_exppolys, wide_exppolys, scalars)
    def test_operations_match_the_public_constructor(self, f, g, c):
        cases = [
            (f.d_alpha(), ExpPoly((r, p.deriv() + p * r) for r, p in f.terms)),
            (-f, ExpPoly((r, -p) for r, p in f.terms)),
            (f * c, ExpPoly((r, p * c) for r, p in f.terms)),
            (c * f, ExpPoly((r, p * c) for r, p in f.terms)),
            (f + g, ExpPoly(f.terms + g.terms)),
            (f - g, ExpPoly(f.terms + tuple((r, -p) for r, p in g.terms))),
            (f * g, ExpPoly(
                (ra + rb, pa * pb) for ra, pa in f.terms for rb, pb in g.terms
            )),
        ]
        for got, want in cases:
            assert_exppoly_canonical(got)
            assert got.terms == want.terms

    @settings(max_examples=100, deadline=None)
    @given(wide_exppolys, st.integers(0, 6))
    def test_d_alpha_n_is_iterated_d_alpha(self, f, n):
        want = f
        for _ in range(n):
            want = want.d_alpha()
        got = d_alpha_n(f, n)
        assert_exppoly_canonical(got)
        assert got == want

    def test_cancelling_sum_drops_the_rate(self):
        f = ExpPoly.exp(F(-1, 2), ReducedPoly((1, 2)))
        assert (f - f).terms == ()
        assert (f + ExpPoly.exp(1) - f).terms == ExpPoly.exp(1).terms
        assert (f * 0).terms == ()
        assert d_alpha_n(ExpPoly.from_poly(ReducedPoly((1, 2))), 2).terms == ()


# -- integer rate sums, derivative steps and scalar products -----------------
#
# ExpPoly products add rates as reduced (numerator, denominator) ints and
# build one Fraction per distinct rate; these tests hold them against sums
# of Fractions, with rates whose denominators differ.

mixed_rates = st.sampled_from(
    [F(-2), F(-1), F(-5, 6), F(-2, 3), F(-1, 2), F(-1, 3), F(0),
     F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1)]
)
mixed_exppolys = st.builds(
    ExpPoly,
    st.lists(st.tuples(mixed_rates, st.builds(ReducedPoly, fraction_lists)), max_size=4),
)


def product_oracle(f, g):
    """f * g as {Fraction rate: coefficient tuple}, from Fraction rate sums
    and the `conv` oracle, without zero polynomials."""
    out = {}
    for ra, pa in f.terms:
        for rb, pb in g.terms:
            r = ra + rb
            out[r] = model_add(out.get(r, ()), model_mul(pa.coeffs, pb.coeffs))
    return {r: cs for r, cs in out.items() if cs}


class TestIntegerRateSums:
    @settings(max_examples=150, deadline=None)
    @given(mixed_exppolys, mixed_exppolys)
    def test_product_against_the_fraction_oracle(self, f, g):
        want = product_oracle(f, g)
        for got in (f * g, g * f):
            assert_exppoly_canonical(got)
            assert {r: p.coeffs for r, p in got.terms} == want
            assert rates_of(got) == tuple(sorted(want))

    def test_pairs_with_the_same_sum_merge(self):
        a, b = ExpPoly.exp(F(1, 2)), ExpPoly.exp(F(1, 3))
        assert (a * b).terms == (b * a).terms == ExpPoly.exp(F(5, 6)).terms
        got = (a + b) * (b + a)
        assert got.terms == ExpPoly(
            ((F(2, 3), 1), (F(5, 6), 2), (F(1), 1))
        ).terms
        assert all(type(r) is F for r in rates_of(got))

    def test_cancelling_products_drop_their_rate(self):
        a, b = ExpPoly.exp(F(1, 2)), ExpPoly.exp(F(1, 3))
        # (a + b)(b - a) = b^2 - a^2: the two exp(5/6 u) terms cancel
        assert rates_of((a + b) * (b - a)) == (F(2, 3), F(1))
        assert ((a + b) * (b - a)).terms == (b * b - a * a).terms
        one = ExpPoly.exp(F(-1, 2)) * a
        assert one.terms == ((F(0), ReducedPoly.one()),)
        assert type(rates_of(one)[0]) is F
        assert (ExpPoly.exp(F(-2, 3), U) * ExpPoly.exp(F(5, 6), 0)).is_zero

    def test_equal_denominators_reduce(self):
        # 1/6 + 1/6 = 1/3 and 1/4 + 3/4 = 1: the sum is put in lowest terms
        assert rates_of(ExpPoly.exp(F(1, 6)) * ExpPoly.exp(F(1, 6))) == (F(1, 3),)
        got = ExpPoly.exp(F(1, 4)) * ExpPoly.exp(F(3, 4))
        assert rates_of(got) == (F(1),) and rates_of(got)[0].denominator == 1
        # 1/2 + 1/2 and 0 + 1 must land on one rate 1, and -1/2 + 1/2 on 0
        f = ExpPoly.exp(F(1, 2)) + 1
        g = ExpPoly.exp(F(1, 2)) + ExpPoly.exp(1)
        assert (f * g).terms == ExpPoly(((F(1, 2), 1), (F(1), 2), (F(3, 2), 1))).terms
        h = ExpPoly.exp(F(-1, 2)) + ExpPoly.exp(-1)
        assert (g * h).terms[1] == (F(0), ReducedPoly((2,)))


# Degree 20 with mixed signs and denominators, for the rate -1/B cases below.
_DEGREE_20 = ReducedPoly([F((-1) ** k * (3 * k + 1), k % 7 + 1) for k in range(21)])


class TestRateDerivative:
    # The explicit cases reach Rodrigues orders at the rates -1/B that
    # _stepped steps on k!-scaled numerators (B = 1, 2, 3).
    @settings(max_examples=150, deadline=None)
    @given(mixed_rates, st.builds(ReducedPoly, fraction_lists), st.integers(0, 6))
    @example(F(-1), ReducedPoly.monomial(20), 40)
    @example(F(-1), _DEGREE_20, 40)
    @example(F(-1, 2), _DEGREE_20, 40)
    @example(F(-1, 3), _DEGREE_20, 40)
    @example(F(-1, 2), ReducedPoly.monomial(12), 25)
    @example(F(-1, 3), ReducedPoly((0, F(2, 3), 0, 5)), 9)
    def test_d_alpha_n_is_iterated_p_prime_plus_rp(self, r, p, n):
        want = p
        for _ in range(n):
            want = want.deriv() + want * r
        got = d_alpha_n(ExpPoly.exp(r, p), n)
        assert_exppoly_canonical(got)
        assert got.terms == ExpPoly.exp(r, want).terms

    @pytest.mark.parametrize("r", [F(0), F(-1), F(2), F(-2, 3), F(5, 6)])
    def test_weighted_monomial(self, r):
        # (d/du + r)^3 u^3 = 6 + 18 r u + 9 r^2 u^2 + r^3 u^3
        got = d_alpha_n(ExpPoly.exp(r, ReducedPoly.monomial(3)), 3)
        want = ReducedPoly((6, 18 * r, 9 * r**2, r**3))
        assert got.terms == ExpPoly.exp(r, want).terms

    def test_zero_polynomial_stays_zero(self):
        for r in (F(0), F(1, 2), F(-3)):
            for n in (0, 1, 4):
                assert d_alpha_n(ExpPoly.exp(r, ReducedPoly()), n).is_zero


class TestScalarProducts:
    """`*` with an int, a bool or a Fraction, on either side, scales every
    coefficient; a float operand is rejected."""

    values = [
        ReducedPoly((1, F(-2, 3), 0, 5)),
        ExpPoly(((F(-1, 2), ReducedPoly((1, F(-2, 3)))), (F(0), U), (F(1, 3), 4))),
    ]

    @pytest.mark.parametrize("value", values)
    @pytest.mark.parametrize("c", [0, 1, -3, True, False, F(2, 3), F(-5), F(0)])
    def test_exact_scalars_on_both_sides(self, value, c):
        if isinstance(value, ReducedPoly):
            want = ReducedPoly([x * F(c) for x in value.coeffs])
        else:
            want = ExpPoly(
                (r, ReducedPoly([x * F(c) for x in p.coeffs])) for r, p in value.terms
            )
        for got in (value * c, c * value):
            assert type(got) is type(value)
            assert got == want
            if isinstance(got, ReducedPoly):
                assert_canonical(got)
            else:
                assert_exppoly_canonical(got)
                assert got.terms == want.terms

    @pytest.mark.parametrize("value", values)
    def test_float_operand_is_rejected(self, value):
        with pytest.raises(TypeError):
            value * 0.5
        with pytest.raises(TypeError):
            0.5 * value


# -- the integer block behind ExpPoly -----------------------------------------
#
# An ExpPoly stores rate keys, one numerator tuple per rate and one shared
# denominator; equal values must have equal storage, however they were built.


def block(e):
    return e._keys, e._nums, e._den


def assert_block_canonical(e):
    keys, nums, den = block(e)
    assert den > 0 and len(keys) == len(nums)
    assert all(b > 0 and math.gcd(a, b) == 1 for a, b in keys)
    assert all(F(*k) < F(*k2) for k, k2 in zip(keys, keys[1:]))
    assert all(type(num) is tuple and num and num[-1] for num in nums)
    assert math.gcd(den, *(c for num in nums for c in num)) == 1 or not nums
    assert nums or den == 1


class TestExpPolyBlock:
    @settings(max_examples=150, deadline=None)
    @given(mixed_exppolys, mixed_exppolys, scalars, st.integers(0, 4))
    def test_every_route_gives_the_canonical_block(self, f, g, c, n):
        routes = [f, f + g, f - g, -f, f * g, d_alpha_n(f, n), f.shift_rate(c)]
        routes += [ExpPoly.exp(c, p) for _, p in f.terms] + [ExpPoly.exp(c, 0)]
        for k in (c, *factor_scalars(f._nums, f._den)):
            want = ExpPoly(
                (r, ReducedPoly([x * F(k) for x in p.coeffs])) for r, p in f.terms
            )
            assert f * k == k * f == want
            routes += [f * k, k * f]
        for e in routes:
            assert_block_canonical(e)
        assert block((f + g) - g) == block(f)
        assert block(f * g) == block(g * f)
        assert hash(f * g) == hash(g * f)

    def test_canonical_results_skip_the_normalising_pass(self, monkeypatch):
        f = ExpPoly(((F(-1, 2), ReducedPoly((F(1, 3), 0, 2))), (1, ReducedPoly((4, F(-5, 6))))))
        g = ExpPoly.exp(F(-1, 2), ReducedPoly((F(2, 9), 1)))
        p = ReducedPoly((F(3, 4), 6, F(-9, 2)))
        pu = p * U
        calls = []
        from_block, set_ = ExpPoly._from_block.__func__, ReducedPoly._set

        def counting_from_block(cls, *args):
            calls.append("_from_block")
            return from_block(cls, *args)

        def counting_set(self, *args):
            calls.append("_set")
            return set_(self, *args)

        monkeypatch.setattr(ExpPoly, "_from_block", classmethod(counting_from_block))
        monkeypatch.setattr(ReducedPoly, "_set", counting_set)
        got = [-f, f.shift_rate(F(1, 2)), 3 * f, f * F(-2, 3), ExpPoly.exp(F(1, 3), p),
               -p, 3 * p, p * F(2, 3), p * F(1, 6), pu.divide_by_u(1)]
        direct = list(calls)
        diff = f - g
        monkeypatch.undo()
        assert direct == []
        assert calls == ["_from_block"]  # the sum; the negation of g is direct
        cs = p.coeffs
        want = [
            ExpPoly((r, ReducedPoly([-x for x in q.coeffs])) for r, q in f.terms),
            f * ExpPoly.exp(F(1, 2)),
            ExpPoly((r, ReducedPoly([3 * x for x in q.coeffs])) for r, q in f.terms),
            ExpPoly((r, ReducedPoly([F(-2, 3) * x for x in q.coeffs])) for r, q in f.terms),
            ExpPoly([(F(1, 3), p)]),
            ReducedPoly([-x for x in cs]), ReducedPoly([3 * x for x in cs]),
            ReducedPoly([F(2, 3) * x for x in cs]), ReducedPoly([x / 6 for x in cs]), p,
        ]
        assert got == want
        assert diff == ExpPoly(f.terms + tuple((r, -q) for r, q in g.terms))

    @settings(max_examples=100, deadline=None)
    @given(mixed_exppolys, st.randoms(use_true_random=False))
    def test_constructor_ignores_term_order(self, f, rnd):
        # Split each term in two and shuffle the pieces.
        pieces = [piece for r, p in f.terms for piece in ((r, p * F(1, 3)), (r, p * F(2, 3)))]
        rnd.shuffle(pieces)
        e = ExpPoly(pieces)
        assert block(e) == block(f) and hash(e) == hash(f)

    def test_constants_and_plain_polynomials_agree(self):
        for value in (F(-5, 4), 3, ReducedPoly((1, F(-1, 2), 3))):
            e = ExpPoly.from_poly(value)
            assert e == value and hash(e) == hash(value)
            assert e == ReducedPoly._coerce(value)
            assert hash(e) == hash(ReducedPoly._coerce(value))
        e = ExpPoly.exp(-1, F(1, 2)) * ExpPoly.exp(1, 6)
        assert e == 3 and hash(e) == hash(3) == hash(ReducedPoly((3,)))

    def test_terms_are_a_cached_view(self):
        e = ExpPoly(((F(-1, 2), ReducedPoly((1, F(2, 3)))), (1, F(3, 4))))
        assert e.terms is e.terms
        for r, p in e.terms:
            assert type(r) is F and type(p) is ReducedPoly
            assert_canonical(p)
        assert e.terms == ((F(-1, 2), ReducedPoly((1, F(2, 3)))), (F(1), ReducedPoly((F(3, 4),))))
        assert rates_of(e) == (F(-1, 2), F(1))

    def test_cancellation_across_the_shared_denominator(self):
        half, third = ExpPoly.exp(-1, F(1, 2)), ExpPoly.exp(-1, F(1, 3))
        zero = 6 * (half + third) - 5 * ExpPoly.exp(-1)
        assert zero == 0 and zero.is_zero and block(zero) == ((), (), 1)
        # the shared factor 1/6 leaves with the cancelled term
        e = ExpPoly.exp(-1, F(1, 6)) + ExpPoly.exp(2, F(1, 3)) - ExpPoly.exp(-1, F(1, 6))
        assert block(e) == (((2, 1),), ((1,),), 3)

    @pytest.mark.parametrize("fill", [False, True])
    def test_copy_and_pickle_round_trips(self, fill):
        e = ExpPoly(((F(-2, 3), ReducedPoly((1, 0, F(5, 7)))), (0, 2), (F(3, 2), U)))
        if fill:
            e.terms
        for got in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert block(got) == block(e)
            assert got == e and hash(got) == hash(e)
            assert got.terms == e.terms and str(got) == str(e)

    def test_rates_that_round_alike_or_overflow_stay_ordered(self):
        huge = 10**400
        rates = [F(huge + 1), F(huge), F(-10 * huge), F(10**20 + 1, 10**20), F(1), F(0)]
        e = ExpPoly((r, 1) for r in rates)
        assert rates_of(e) == tuple(sorted(rates))
        prod = e * e
        assert_block_canonical(prod)
        assert rates_of(prod) == tuple(sorted({a + b for a in rates for b in rates}))
        # Rate sums all near 1 that round to one float, first met out of order.
        tiny = F(1, 10**20)
        a = ExpPoly.exp(0) + ExpPoly.exp(tiny)
        b = ExpPoly.exp(1) + ExpPoly.exp(1 + 2 * tiny)
        assert rates_of(a * b) == (1, 1 + tiny, 1 + 2 * tiny, 1 + 3 * tiny)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rate_zero_beside_fractional_rates(self, n):
        # The block's common denominator scales the rate-0 term as well.
        terms = ((F(0), ReducedPoly((1, 2, F(3, 5), 4, 1))), (F(-1, 2), ReducedPoly((F(1, 3), 1))),
                 (F(2, 3), ReducedPoly((5,))))
        want = []
        for r, p in terms:
            for _ in range(n):
                p = p.deriv() + p * r
            want.append((r, p))
        got = d_alpha_n(ExpPoly(terms), n)
        assert_block_canonical(got)
        assert got.terms == ExpPoly(want).terms

    @settings(max_examples=100, deadline=None)
    @given(mixed_exppolys, scalars)
    def test_shift_rate_is_the_product_by_an_exponential(self, f, a):
        assert block(f.shift_rate(a)) == block(f * ExpPoly.exp(a))


# Seeded ExpPolys with integer, fractional and zero rates (the zero ExpPoly
# among them), and the Rodrigues seed u**N * exp(-u).
memo_inputs = st.one_of(
    mixed_exppolys,
    st.builds(lambda N: ExpPoly.exp(-1, ReducedPoly.monomial(N)), st.integers(0, 12)),
)
orders = st.lists(st.integers(0, 8), max_size=12)
order_sequences = st.one_of(
    orders, orders.map(sorted), orders.map(lambda ks: sorted(ks, reverse=True))
)


def twin(f):
    """A freshly built ExpPoly equal to f, with nothing memoised."""
    return ExpPoly(f.terms)


class TestDerivativeMemo:
    # 200 examples of up to 12 orders each, from a fixed seed.
    @seed(19)
    @settings(max_examples=200, deadline=None)
    @given(memo_inputs, order_sequences)
    # Order 20 first, then order 40 steps on from it.
    @example(ExpPoly.exp(-1, ReducedPoly.monomial(40)), [20, 40])
    def test_any_order_sequence_matches_a_fresh_twin(self, f, ks):
        for k in ks:
            got = d_alpha_n(f, k)
            assert block(got) == block(d_alpha_n(twin(f), k))
            assert d_alpha_n(f, k) is got
        asked = {k for k in ks if k}
        if f and asked:
            assert set(f._derivs) == asked
        else:
            assert f._derivs is None
        fresh = twin(f)
        assert f == fresh and hash(f) == hash(fresh)
        assert str(f) == str(fresh) and repr(f) == repr(fresh)

    def test_a_new_order_steps_on_from_the_highest_stored_order_below_it(self, monkeypatch):
        import claguerre.alpha_calc as A

        steps = []
        stepped = A._stepped

        def counting(g, n):
            steps.append((g, n))
            return stepped(g, n)

        monkeypatch.setattr(A, "_stepped", counting)
        f = ExpPoly.exp(-1, ReducedPoly.monomial(9))
        d5 = d_alpha_n(f, 5)
        d2 = d_alpha_n(f, 2)
        d_alpha_n(f, 7)
        d_alpha_n(f, 3)
        d_alpha_n(f, 5)
        d_alpha_n(f, 1)
        assert [(g is f, g is d5, g is d2, n) for g, n in steps] == [
            (True, False, False, 5),
            (True, False, False, 2),
            (False, True, False, 2),
            (False, False, True, 1),
            (True, False, False, 1),
        ]

    def test_order_zero_and_the_zero_exppoly_store_nothing(self):
        f = ExpPoly.exp(F(-1, 2), ReducedPoly((1, F(2, 3))))
        assert d_alpha_n(f, 0) is f and f._derivs is None
        for zero in (ExpPoly(), ExpPoly.exp(3, 0), f - f):
            for n in (0, 1, 4):
                assert d_alpha_n(zero, n) is zero
            assert zero._derivs is None

    def test_a_vanishing_derivative_is_stored_and_stepped_on(self):
        f = ExpPoly.from_poly(ReducedPoly((1, 2, 3)))
        assert d_alpha_n(f, 3).is_zero
        assert d_alpha_n(f, 5).is_zero and d_alpha_n(f, 2) == 6
        assert set(f._derivs) == {2, 3, 5}

    def test_threads_sharing_one_exppoly_get_right_derivatives(self):
        f = ExpPoly(((F(-1, 2), ReducedPoly((1, 2, F(3, 5)))), (1, U), (F(2, 3), 4)))
        want = [d_alpha_n(twin(f), n) for n in range(13)]
        shared = [twin(f) for _ in range(20)]
        errors, results = [], []

        def work(seed):
            rnd = random.Random(seed)
            try:
                for g in shared:
                    ks = list(range(13))
                    rnd.shuffle(ks)
                    results.extend((k, d_alpha_n(g, k)) for k in ks)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 8 * 20 * 13
        assert all(block(got) == block(want[k]) for k, got in results)

    @pytest.mark.parametrize("make", [
        copy.copy, copy.deepcopy,
        *(lambda e, p=p: pickle.loads(pickle.dumps(e, p))
          for p in range(2, pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_a_filled_memo_survives_copy_and_pickle(self, make):
        # A shallow copy shares the memo dict with its source; the two are
        # equal, so each stored order is right for both.
        e = ExpPoly(((F(-2, 3), ReducedPoly((1, 0, F(5, 7)))), (0, 2), (F(3, 2), U)))
        want = {n: d_alpha_n(e, n) for n in (1, 3, 4)}
        got = make(e)
        assert got == e and hash(got) == hash(e) and str(got) == str(e)
        for n in range(6):
            assert block(d_alpha_n(got, n)) == block(d_alpha_n(twin(e), n))
        assert all(d_alpha_n(got, n) == d for n, d in want.items())

    @pytest.mark.parametrize("protocol", [0, 1])
    def test_protocols_below_two_refuse_the_slotted_class(self, protocol):
        # Unchanged by the memo: a class with __slots__ and no __getstate__
        # pickles from protocol 2 on only.
        e = ExpPoly.exp(-1, U)
        d_alpha_n(e, 2)
        with pytest.raises(TypeError, match="__slots__"):
            pickle.dumps(e, protocol)
