import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from claguerre import integrate
from claguerre.alpha_calc import ExpPoly, ReducedPoly
from claguerre.integrate import (
    DivergenceError,
    QuadratureRule,
    RootFindingError,
    gauss_laguerre,
    moment_exact,
    orthonormality,
    quad_dalpha,
    quad_transform,
    transform_check,
)
from claguerre.laguerre import laguerre_closed
from claguerre.laplace import laguerre_transform
from claguerre.verify import random_exppoly

U = ReducedPoly((0, 1))


class TestExactMoments:
    def test_zeroth_moment(self):
        assert moment_exact(ExpPoly.exp(-1)) == F(1)

    def test_second_moment(self):
        assert moment_exact(ExpPoly.exp(-1, ReducedPoly.monomial(2))) == F(2)

    def test_scaled_decay(self):
        assert moment_exact(ExpPoly.exp(-2)) == F(1, 2)

    def test_orthogonality_kernel_value(self):
        # with t = 1/3 and another parameter 1/4 the combined decay rate is
        # 1 + (1/3)/(2/3) + (1/4)/(3/4) = 11/6, and the moment is its inverse
        c = F(1) + F(1, 3) / F(2, 3) + F(1, 4) / F(3, 4)
        assert c == F(11, 6)
        assert moment_exact(ExpPoly.exp(-c)) == 1 / c

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            moment_exact(ExpPoly.from_poly(1))
        with pytest.raises(DivergenceError):
            moment_exact(ExpPoly.exp(F(1, 2)))


class TestOrthonormality:
    def test_diagonal(self):
        assert orthonormality(0, 0) == F(1)
        assert orthonormality(3, 3) == F(1)

    def test_off_diagonal(self):
        assert orthonormality(2, 5) == F(0)

    def test_identity_matrix(self):
        for i in range(11):
            for j in range(11):
                assert orthonormality(i, j) == (1 if i == j else 0)

    def test_large_degree_stays_exact(self):
        # integrand coefficients far beyond 64-bit range
        assert orthonormality(15, 15) == F(1)
        assert orthonormality(15, 14) == F(0)


class TestGaussLaguerre:
    def test_order_one(self):
        rule = gauss_laguerre(1)
        assert rule.nodes == (1.0,)
        assert rule.weights == (1.0,)

    def test_order_two_nodes_and_weights(self):
        # roots of 1 - 2u + u^2/2 are 2 -+ sqrt(2); weights follow by symmetry
        rule = gauss_laguerre(2)
        assert rule.nodes[0] == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        assert rule.nodes[1] == pytest.approx(2 + math.sqrt(2), abs=1e-12)
        assert rule.weights[0] == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-12)
        assert rule.weights[1] == pytest.approx((2 - math.sqrt(2)) / 4, abs=1e-12)

    def test_fifth_moment_at_order_twenty(self):
        rule = gauss_laguerre(20)
        got = math.fsum(w * u**5 for u, w in zip(rule.nodes, rule.weights))
        assert got == pytest.approx(120.0, rel=1e-10)

    @pytest.mark.parametrize("order", [5, 10, 20])
    def test_exactness_degree(self, order):
        rule = gauss_laguerre(order)
        for k in range(2 * order):
            got = math.fsum(w * u**k for u, w in zip(rule.nodes, rule.weights))
            assert got == pytest.approx(float(math.factorial(k)), rel=1e-10)

    @pytest.mark.parametrize("order", range(1, 65))
    def test_against_numpy_oracle(self, order):
        rule = gauss_laguerre(order)
        nodes, weights = np.polynomial.laguerre.laggauss(order)
        assert np.allclose(rule.nodes, nodes, rtol=0, atol=1e-10)
        assert np.allclose(rule.weights, weights, rtol=1e-9, atol=1e-300)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0)
        with pytest.raises(ValueError):
            gauss_laguerre(65)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_order_is_rejected_and_leaves_the_memo_alone(self, monkeypatch, flag):
        monkeypatch.setattr(integrate, "_RULES", {})
        with pytest.raises(ValueError, match=r"^order must be an integer in \[1, 64\]$"):
            gauss_laguerre(flag)
        assert integrate._RULES == {}
        order = gauss_laguerre(1).order
        assert type(order) is int and order == 1

    def test_rule_is_memoised(self):
        assert gauss_laguerre(48) is gauss_laguerre(48)

    def test_repeated_zero_is_rejected(self, monkeypatch):
        monkeypatch.setattr(integrate, "_RULES", {})
        monkeypatch.setattr(integrate, "_newton_root", lambda n, x: 1.0)
        with pytest.raises(RootFindingError):
            gauss_laguerre(3)

    def test_divergent_newton_is_rejected(self, monkeypatch):
        # a slope of the wrong sign pushes every iterate away from the zero
        monkeypatch.setattr(integrate, "_RULES", {})
        monkeypatch.setattr(integrate, "laguerre_pair", lambda n, m, x: (1.0, 2.0))
        with pytest.raises(RootFindingError):
            gauss_laguerre(3)

    def test_rule_invariants_enforced(self):
        with pytest.raises(ValueError):
            QuadratureRule((1.0, 0.5), (0.5, 0.5), 2)
        with pytest.raises(ValueError):
            QuadratureRule((0.5, 1.0), (0.7, -0.2), 2)
        with pytest.raises(ValueError):
            QuadratureRule((0.5, 1.0), (0.7, 0.2), 2)


class TestQuadDalpha:
    def test_plain_weight(self):
        rule = gauss_laguerre(20)
        f = lambda x: math.exp(-(x**0.5) / 0.5)
        assert quad_dalpha(f, 0.5, rule) == pytest.approx(1.0, abs=1e-8)

    def test_weighted_laguerre_square(self):
        rule = gauss_laguerre(20)
        poly = laguerre_closed(1)
        for alpha in (0.25, 0.5, 0.75, 1.0):
            f = lambda x: math.exp(-(x**alpha) / alpha) * poly.eval(x, alpha) ** 2
            assert quad_dalpha(f, alpha, rule) == pytest.approx(1.0, abs=1e-8)

    def test_faster_decay(self):
        rule = gauss_laguerre(30)
        f = lambda x: math.exp(-2.0 * x)
        assert quad_dalpha(f, 1.0, rule) == pytest.approx(0.5, abs=1e-7)

    def test_alpha_independence(self):
        rule = gauss_laguerre(20)
        p = ExpPoly.exp(-1, laguerre_closed(2) * laguerre_closed(2))
        values = [
            quad_dalpha(lambda x: p.eval(x, a), a, rule)
            for a in (0.25, 0.5, 0.75, 1.0)
        ]
        assert max(values) - min(values) <= 1e-8

    def test_random_exact_cross_check(self):
        rng = random.Random(20)
        rule = gauss_laguerre(32)
        decaying = (F(-1, 2), F(-1), F(-2), F(-3))
        for _ in range(8):
            p = random_exppoly(rng, rates=decaying, max_degree=10)
            want = float(moment_exact(p))
            for alpha in (0.25, 0.5, 0.75, 1.0):
                got = quad_dalpha(lambda x: p.eval(x, alpha), alpha, rule)
                assert abs(got - want) <= 1e-8 * (1 + abs(want))


class TestQuadTransform:
    def test_unit_signal(self):
        rule = gauss_laguerre(20)
        assert quad_transform(lambda u: 1.0, 2.0, rule) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_cosine(self):
        rule = gauss_laguerre(48)
        assert quad_transform(math.cos, 1.0, rule) == pytest.approx(0.5, abs=1e-6)

    def test_weighted_monomial(self):
        rule = gauss_laguerre(30)
        got = quad_transform(lambda u: u * math.exp(-u), 2.0, rule)
        assert got == pytest.approx(1.0 / 9.0, abs=1e-8)

    def test_rejects_nonpositive_s(self):
        rule = gauss_laguerre(5)
        with pytest.raises(ValueError):
            quad_transform(lambda u: 1.0, 0.0, rule)

    def test_rejects_nan_s(self):
        # nan <= 0 is false; the check must not let nan through to a nan sum.
        with pytest.raises(ValueError, match="^s must be positive$"):
            quad_transform(lambda u: 1.0, math.nan, gauss_laguerre(5))

    def test_rejects_infinite_s(self):
        # inf > 0 holds, and the sum would be 0.0, so the real rule refuses it.
        with pytest.raises(ValueError, match="^s must be a finite number, got inf$"):
            quad_transform(lambda u: 1.0, math.inf, gauss_laguerre(5))


class TestTransformCheck:
    def test_closed_value_and_the_fixed_rule(self):
        rule = gauss_laguerre(integrate.TRANSFORM_CHECK_ORDER)
        assert transform_check(lambda s: 1 / s, math.cos, 2.0) == (
            0.5, quad_transform(math.cos, 2.0, rule)
        )

    def test_degree_beyond_the_rule_is_refused(self):
        one = lambda s: 1 / s
        assert transform_check(one, lambda u: 1.0, 2.0, degree=95)[0] == 0.5
        with pytest.raises(ValueError, match=r"^the quadrature check needs n <= 95, got 96$"):
            transform_check(one, lambda u: 1.0, 2.0, degree=96)

    @pytest.mark.parametrize(
        "F, g, s, message",
        [
            (lambda s: 1 / 0, lambda u: 1.0, 2.0, "the transform at s=2.0"),
            (lambda s: math.inf, lambda u: 1.0, 2.0, "the transform at s=2.0"),
            (lambda s: 1.0, lambda u: math.exp(u * u), 0.5, "the quadrature check at s=0.5"),
            # g raises ValueError inside the quadrature at a positive s.
            (lambda s: 1.0, lambda u: math.sqrt(-1.0 - u), 2.0, "the quadrature check at s=2.0"),
        ],
        ids=["closed-raises", "closed-infinite", "numeric-overflows", "numeric-refused"],
    )
    def test_non_finite_values_are_refused(self, F, g, s, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)} is not a finite float$"):
            transform_check(F, g, s)

    @pytest.mark.parametrize("kind, s", [
        pytest.param(kind, s, id=f"{kind}-{s!r}".removeprefix("laguerre-"))
        for kind in ("laguerre", *integrate._PAIRS) for s in (math.nan, math.inf, -math.inf)
    ])
    def test_a_non_finite_s_meets_the_real_rule(self, kind, s):
        # the check refuses a non-finite s before F, a named pair's too, reads it
        F = (laguerre_transform(3) if kind == "laguerre"
             else integrate.transform_named(integrate.NamedSignal(kind), 0.5))
        with pytest.raises(ValueError, match=rf"^s must be a finite number, got {s!r}$"):
            transform_check(F, lambda u: 1.0, s)

    @pytest.mark.parametrize("s", [-1.0, 0.0])
    def test_s_at_or_below_zero_is_refused(self, s):
        # F is finite there, so only the check's own s > 0 rule can refuse.
        with pytest.raises(ValueError, match=r"^s must be positive for the numeric check$"):
            transform_check(lambda s: 1.0, lambda u: 1.0, s)
