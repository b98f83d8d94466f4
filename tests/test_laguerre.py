import math
import random
import re
from fractions import Fraction as F

import pytest

from claguerre import laguerre, verify
from claguerre.alpha_calc import AlgebraError, ExpPoly, ReducedPoly, _add_ints, d_alpha_n
from claguerre.laguerre import (
    GeneratingExpansion,
    assoc_closed,
    assoc_from_derivative,
    assoc_rodrigues,
    generating_series,
    laguerre_closed,
    laguerre_ode,
    laguerre_rodrigues,
    ode_residual,
    values_at_zero,
)
from claguerre.laplace import TransformExpr, laguerre_transform
from claguerre.recurrence import laguerre_column, laguerre_pair
from claguerre.tables import build_table

U = ReducedPoly((0, 1))


class TestClosedForm:
    def test_degree_zero(self):
        assert laguerre_closed(0) == ReducedPoly.one()

    def test_degree_one(self):
        assert laguerre_closed(1) == 1 - U

    def test_degree_four(self):
        assert laguerre_closed(4) == ReducedPoly((1, -4, 3, F(-2, 3), F(1, 24)))

    def test_coefficient_formula(self):
        # spot-check k = 3 of degree 7 against the factorial expression
        got = laguerre_closed(7).coeffs[3]
        assert got == F(-math.factorial(7), math.factorial(4) * math.factorial(3) ** 2)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            laguerre_closed(-1)


class TestRodrigues:
    def test_degree_zero(self):
        assert laguerre_rodrigues(0) == ReducedPoly.one()

    def test_degree_one_by_hand(self):
        # e^u * d/du(u e^-u) = 1 - u
        assert laguerre_rodrigues(1) == 1 - U


class TestAssociated:
    def test_closed_examples(self):
        assert assoc_closed(1, 1) == ReducedPoly((2, -1))
        assert assoc_closed(2, 2) == ReducedPoly((6, -4, F(1, 2)))

    def test_m_zero_reduces_to_plain(self):
        for n in range(6):
            assert assoc_closed(n, 0) == laguerre_closed(n)

    def test_derivative_route_by_hand(self):
        # -d/du L3 = -(-3 + 3u - u^2/2) = 3 - 3u + u^2/2
        assert assoc_from_derivative(2, 1) == ReducedPoly((3, -3, F(1, 2)))

    def test_three_routes_agree(self):
        # the closed form, Rodrigues and the m-fold derivative
        names = ("Rodrigues", "m-fold derivative")
        assert verify.check_routes(80, range(5), names) == 2 * 405

    def test_derivative_route_higher_order(self):
        assert assoc_from_derivative(3, 3) == ReducedPoly((20, -15, 3, F(-1, 6)))

    def test_rodrigues_route_trivial_degree(self):
        for m in range(5):
            assert assoc_rodrigues(0, m) == ReducedPoly.one()

    def test_rodrigues_route_examples(self):
        assert assoc_rodrigues(3, 1) == ReducedPoly((4, -6, 2, F(-1, 6)))
        assert assoc_rodrigues(3, 2) == ReducedPoly((10, -10, F(5, 2), F(-1, 6)))

    def test_coefficients_beyond_machine_words(self):
        # factorial ratios near n = 15 overflow 64-bit ints; the exact core
        # must not care
        closed = assoc_closed(15, 4)
        assert assoc_from_derivative(15, 4) == closed
        assert assoc_rodrigues(15, 4) == closed
        assert ode_residual(closed, 15, 4).is_zero
        assert closed.coeffs[0] == F(
            math.factorial(19), math.factorial(15) * math.factorial(4)
        )


class TestOdeResidual:
    def test_closed_forms_solve(self):
        for n in range(13):
            assert ode_residual(laguerre_closed(n), n).is_zero

    def test_constant_solves_degree_zero(self):
        assert ode_residual(ReducedPoly.one(), 0).is_zero

    def test_bare_u_is_not_a_solution(self):
        # u*0 + (1-u)*1 + 1*u = 1
        assert ode_residual(U, 1) == ReducedPoly.one()

    def test_associated_residuals(self):
        for n in range(11):
            for m in range(5):
                assert ode_residual(assoc_closed(n, m), n, m).is_zero

    def test_equation_table(self):
        assert laguerre_ode(0) == ((0,), (1, -1), (0, 1))
        assert laguerre_ode(5, 2) == ((5,), (3, -1), (0, 1))
        with pytest.raises(ValueError):
            laguerre_ode(2, -1)

    def test_matches_the_written_out_operator(self):
        # u*p'' + (1 + m - u)*p' + n*p, by ReducedPoly arithmetic, on
        # polynomials that solve nothing
        rng = random.Random(26)
        for _ in range(60):
            p = ReducedPoly([F(rng.randint(-9, 9), rng.randint(1, 5))
                             for _ in range(rng.randint(0, 8))])
            n, m = rng.randint(0, 9), rng.randint(0, 4)
            expected = U * p.deriv(2) + ReducedPoly((1 + m, -1)) * p.deriv() + n * p
            assert ode_residual(p, n, m) == expected


class TestGeneratingSeries:
    def test_constant_coefficient(self):
        assert generating_series(0, 2)[0] == ReducedPoly.one()

    def test_plain_t_squared(self):
        assert generating_series(0, 3)[2] == ReducedPoly((1, -2, F(1, 2)))

    def test_associated_t_one(self):
        # (1 + 2t + ...)(1 - ut + ...) collects to 2 - u at order t
        assert generating_series(1, 2)[1] == ReducedPoly((2, -1))
        assert generating_series(1, 2)[1] == assoc_closed(1, 1)

    def test_coefficients_match_closed_forms(self):
        assert verify.check_routes(80, range(5), ("generating series",)) == 405

    @pytest.mark.parametrize("m", range(5))
    def test_order_one(self, m):
        expansion = generating_series(m, 1)
        want = (ReducedPoly.one(), ReducedPoly((m + 1, -1)))
        assert expansion.coefficient_polys == want

    @pytest.mark.parametrize("m", [0, 4])
    def test_high_order_storage_equals_closed_forms(self, m):
        # ReducedPoly equality compares the stored numerators and denominator
        assert verify.check_routes(120, (m,), ("generating series",)) == 121

    def test_route_never_reads_the_closed_form(self, monkeypatch):
        want = [assoc_closed(n, 3) for n in range(41)]

        def forbidden(*args):
            raise AssertionError("the generating route read the closed form")

        for name in ("assoc_closed", "_closed_form", "perm", "factorial"):
            monkeypatch.setattr(laguerre, name, forbidden)
        # Rows are canonical as built, so no normalising pass runs either.
        for name in ("_from_ints", "_set"):
            monkeypatch.setattr(ReducedPoly, name, forbidden)
        assert list(generating_series(3, 40).coefficient_polys) == want

    @pytest.mark.parametrize(
        "name, fault, check",
        [
            pytest.param("_add_ints", lambda a, b: [2 * c for c in _add_ints(a, b)],
                         "does not divide", id="doubled-sum"),
            pytest.param("_add_ints", lambda a, b: [c + 1 for c in _add_ints(a, b)],
                         "does not divide", id="off-by-one-sum"),
            pytest.param("_add_ints", lambda a, b: [0, *_add_ints(a, b)],
                         "does not divide", id="shifted-sum"),
            pytest.param("divmod", lambda a, n: divmod(2 * a, n),
                         "top entry", id="doubled-quotient"),
            pytest.param("divmod", lambda a, n: divmod(-a, n),
                         "top entry", id="negated-quotient"),
        ],
    )
    def test_injected_fault_raises_instead_of_truncating(
        self, monkeypatch, name, fault, check
    ):
        # divmod is a builtin; the fault shadows it in the module's globals.
        monkeypatch.setattr(laguerre, name, fault, raising=False)
        with pytest.raises(AlgebraError, match=check):
            generating_series(2, 30)

    def test_partial_sum_against_closed_form(self):
        t = 0.3
        for alpha in (0.5, 1.0):
            for x in (0.5, 1.0):
                u = x**alpha / alpha
                total = math.fsum(
                    laguerre_closed(n).eval(x, alpha) * t**n for n in range(26)
                )
                closed = math.exp(-u * t / (1 - t)) / (1 - t)
                assert total == pytest.approx(closed, abs=1e-8)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            generating_series(0, 0)

    def test_expansion_invariants(self):
        with pytest.raises(ValueError):
            GeneratingExpansion(1, (ReducedPoly.one(),))
        with pytest.raises(ValueError):
            GeneratingExpansion(1, (U, ReducedPoly.one()))


class TestCanonicalAsBuilt:
    """Both builders skip the normaliser, so comparing them with each other
    cannot catch a non-canonical form they share: each stored form must be
    the one the normaliser makes of it."""

    @staticmethod
    def assert_canonical(p):
        q = ReducedPoly._from_ints(list(p._num), p._den)
        assert (p._num, p._den) == (q._num, q._den)

    @pytest.mark.parametrize("m", range(5))
    def test_generating_series_rows(self, m):
        for p in generating_series(m, 60):
            self.assert_canonical(p)

    @pytest.mark.parametrize("m", range(7))
    def test_assoc_closed(self, m):
        for n in range(61):
            self.assert_canonical(assoc_closed(n, m))


class TestValuesAtZero:
    def test_degree_zero(self):
        assert values_at_zero(0) == (F(1), F(0), F(0))

    def test_degree_one(self):
        assert values_at_zero(1) == (F(1), F(-1), F(0))

    def test_degree_four(self):
        assert values_at_zero(4) == (F(1), F(-4), F(6))

    def test_formula(self):
        for n in range(13):
            assert values_at_zero(n) == (F(1), F(-n), F(n * (n - 1), 2))


class TestCrossConstruction:
    def test_triple_equality(self):
        # the closed form, Rodrigues and the Laplace solve, at m = 0
        assert verify.check_routes(80, (0,), ("Rodrigues", "Laplace solve")) == 2 * 81

    def test_classical_recurrence_oracle_at_alpha_one(self):
        for n in range(13):
            poly = laguerre_closed(n)
            for x in (0.1, 0.5, 1.0, 2.0, 5.0):
                assert abs(poly.eval(x, 1.0) - laguerre_pair(n, 0, x)[0]) <= 1e-10

    def test_associated_classical_oracle(self):
        for n in range(7):
            for m in range(4):
                poly = assoc_closed(n, m)
                for x in (0.5, 2.0):
                    assert abs(poly.eval(x, 1.0) - laguerre_pair(n, m, x)[0]) <= 1e-10


def _exact_value(n, m, u):
    """L_n^m at the float u by exact Horner over Fraction(u), rounded once."""
    return float(assoc_closed(n, m)(F(u)))


def _recurrence_tolerance(n, m, u, value):
    """The benchmark oracle's bound: 1e-12 of the A&S 22.14.13 envelope
    C(n+m, n) exp(u/2), plus 5e-12 of the value."""
    return 1e-12 * math.comb(n + m, n) * math.exp(u / 2) + 5e-12 * abs(value)


class TestFloatRecurrence:
    ALPHAS = (0.25, 0.5, 0.75, 1.0)

    def test_seeded_grid_against_exact_horner(self):
        rng = random.Random(0x1A9E)
        misses = []
        for _ in range(1500):
            n, m = rng.randint(0, 100), rng.randint(0, 4)
            alpha, x = rng.choice(self.ALPHAS), rng.uniform(0.0, 100.0)
            u = x**alpha / alpha
            want = _exact_value(n, m, u)
            got = laguerre_pair(n, m, u)[0]
            if abs(got - want) > _recurrence_tolerance(n, m, u, want):
                misses.append((n, m, alpha, x, got, want))
            if assoc_closed(n, m).eval(x, alpha) != want:
                misses.append((n, m, alpha, x, "eval", want))
        assert not misses, misses[:5]

    @pytest.mark.parametrize(
        "n, m, u", [(30, 0, 10.0), (50, 0, 50.0), (80, 0, 100.0), (100, 3, 100.0),
                    (100, 4, 0.0), (100, 4, 1e-3)],
    )
    def test_points_where_monomial_horner_cancels(self, n, m, u):
        want = _exact_value(n, m, u)
        got = laguerre_pair(n, m, u)[0]
        assert abs(got - want) <= _recurrence_tolerance(n, m, u, want)
        assert assoc_closed(n, m).eval(u, 1.0) == want

    def test_second_value_is_the_previous_degree(self):
        for n in range(1, 40, 7):
            for m in range(4):
                for u in (0.0, 0.5, 7.25, 60.0):
                    assert laguerre_pair(n, m, u)[1] == laguerre_pair(n - 1, m, u)[0]

    def test_degree_zero_pair(self):
        assert laguerre_pair(0, 3, 5.0) == (1.0, 0.0)

    def test_column_is_bit_identical_to_the_scalar_form(self):
        def int_constant_pair(n, m, u):
            # The recurrence with int step constants, as first written.
            if n == 0:
                return 1.0, 0.0
            prev, cur = 1.0, 1.0 + m - u
            for k in range(1, n):
                prev, cur = cur, ((2 * k + 1 + m - u) * cur - (k + m) * prev) / (k + 1)
            return cur, prev

        rng = random.Random(7)
        # 1e5 and 1e300 overflow to inf or nan at the larger degrees, where
        # both forms raise OverflowError instead.
        us = [0.0, 1e-300, 0.5, 1e5, 1e300] + [rng.uniform(0.0, 120.0) for _ in range(40)]
        for n in (0, 1, 2, 9, 48, 100, 1500):
            for m in (0, 1, 4, 100):
                want = {u: int_constant_pair(n, m, u) for u in us}
                finite = [u for u in us if all(map(math.isfinite, want[u]))]
                pairs = [laguerre_pair(n, m, u) for u in finite]
                assert [(v.hex(), p.hex()) for v, p in pairs] == [
                    (v.hex(), p.hex()) for v, p in map(want.get, finite)]
                assert [v.hex() for v in laguerre_column(n, m, finite)] == [
                    want[u][0].hex() for u in finite]
                assert laguerre_column(n, m, []) == []
                for u in set(us) - set(finite):
                    with pytest.raises(OverflowError):
                        laguerre_pair(n, m, u)
                if finite != us:
                    with pytest.raises(OverflowError):
                        laguerre_column(n, m, us)
        with pytest.raises(OverflowError):
            laguerre_pair(1500, 100, 1e5)

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("us", [[math.nan], [0.5, math.nan, 2.0]])
    def test_nan_is_refused_as_eval_refuses_it(self, n, us):
        message = "^u must be a finite number, got nan$"
        with pytest.raises(ValueError, match=message):
            assoc_closed(n, 1)(math.nan)
        with pytest.raises(ValueError, match="^x must be a finite number >= 0, got nan$"):
            assoc_closed(n, 1).eval(math.nan, 1.0)
        with pytest.raises(ValueError, match=message):
            laguerre_pair(n, 1, math.nan)
        with pytest.raises(ValueError, match=message):
            laguerre_column(n, 1, us)

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("u", [math.inf, -math.inf])
    def test_infinities_are_refused(self, n, u):
        # At u = inf the third step would form inf - inf, a silent nan.
        message = f"^u must be a finite number, got {u!r}$"
        with pytest.raises(ValueError, match=message):
            laguerre_pair(n, 0, u)
        for us in ([u], [0.5, u]):
            with pytest.raises(ValueError, match=message):
                laguerre_column(n, 0, us)

    def test_infinities_summing_to_nan_are_refused(self):
        with pytest.raises(ValueError, match="^u must be a finite number, got inf$"):
            laguerre_column(1, 0, [math.inf, -math.inf])

    # Each returned (nan, nan), or (-inf, 4.17e278) at u = 1e70, without error.
    @pytest.mark.parametrize("n, m, u", [(400, 100, 1700.0), (1500, 0, 3000.0),
                                         (200, 0, 1e5), (5, 0, 1e70)])
    def test_a_pair_past_the_float_range_raises(self, n, m, u):
        message = f"^the value at u = {re.escape(repr(u))} is beyond the float range$"
        with pytest.raises(OverflowError, match=message):
            laguerre_pair(n, m, u)

    def test_a_column_past_the_float_range_names_its_point(self):
        # It returned [3.51e105, nan].
        message = r"^the value at u = 1700\.0 is beyond the float range$"
        with pytest.raises(OverflowError, match=message):
            laguerre_column(400, 100, [1.0, 1700.0])

    def test_finite_column_whose_sum_overflows_still_runs(self):
        us = [1e308, 1e308]
        assert math.isinf(sum(us))
        assert laguerre_column(1, 0, us) == [1.0 - 1e308] * 2

    def test_negative_indices_are_rejected(self):
        for bad in ((-1, 0), (2, -1)):
            with pytest.raises(ValueError):
                laguerre_pair(*bad, 1.0)
            with pytest.raises(ValueError):
                laguerre_column(*bad, [1.0])


# Every entry point that takes a degree, order, exponent, derivative order,
# pole order, series order or sample count: (id, call with the value, the
# argument's name in the message, the least value accepted).
_INTEGER_ARGUMENTS = [
    ("monomial", lambda v: ReducedPoly.monomial(v), "exponent", 0),
    ("pow", lambda v: U**v, "exponent", 0),
    ("deriv", lambda v: U.deriv(v), "derivative order", 0),
    ("divide_by_u", lambda v: U.divide_by_u(v), "power", 0),
    ("d_alpha_n", lambda v: d_alpha_n(ExpPoly.exp(-1, U), v), "n", 0),
    ("check_index-degree", lambda v: laguerre._check_index(v), "degree", 0),
    ("check_index-order", lambda v: laguerre._check_index(0, v), "order", 0),
    ("generating_series-m", lambda v: generating_series(v, 2), "order", 0),
    ("generating_series-order", lambda v: generating_series(0, v), "series order", 1),
    ("pole-order", lambda v: TransformExpr([(1, 0, v)]), "pole order", 1),
    ("d_ds", lambda v: TransformExpr([(1, 0, 1)]).d_ds(v), "derivative order", 0),
    ("build_table-n", lambda v: build_table(v, 0, (1.0,), 0.0, 1.0, 2), "degree", 0),
    ("build_table-m", lambda v: build_table(1, v, (1.0,), 0.0, 1.0, 2), "order", 0),
    ("build_table-samples", lambda v: build_table(1, 0, (1.0,), 0.0, 1.0, v), "samples", 2),
    ("assoc_closed-n", lambda v: assoc_closed(v, 0), "degree", 0),
    ("assoc_closed-m", lambda v: assoc_closed(0, v), "order", 0),
    ("laguerre_pair", lambda v: laguerre_pair(v, 0, 0.5), "degree", 0),
    ("laguerre_column", lambda v: laguerre_column(1, v, [0.5]), "order", 0),
    ("laguerre_transform", lambda v: laguerre_transform(v), "degree", 0),
]


class TestIndexValidation:
    @pytest.mark.parametrize("kind", ["bool", "float", "below"])
    @pytest.mark.parametrize(
        "call, what, low", [row[1:] for row in _INTEGER_ARGUMENTS],
        ids=[row[0] for row in _INTEGER_ARGUMENTS],
    )
    def test_one_integer_rule(self, call, what, low, kind):
        value = {"bool": True, "float": 2.0, "below": low - 1}[kind]
        rule = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        message = f"{what} must be {rule}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    def test_a_refused_bool_order_stores_no_derivative(self):
        f = ExpPoly.exp(-1, U)
        with pytest.raises(ValueError):
            d_alpha_n(f, True)
        assert f._derivs is None

    def test_laguerre_index(self):
        assert laguerre_closed(3) == assoc_closed(3, 0)
        for reject in (
            lambda: laguerre_closed(-1),
            lambda: laguerre_transform(-1),
            lambda: laguerre_transform(2.0),
        ):
            with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
                reject()
        with pytest.raises(ValueError, match="order must be a nonnegative integer"):
            assoc_closed(2, -3)

    def test_operations_validate(self):
        with pytest.raises(ValueError):
            assoc_closed(2, -1)
        with pytest.raises(ValueError):
            assoc_rodrigues(-2, 1)
