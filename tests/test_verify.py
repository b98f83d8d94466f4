import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import test_contract
from claguerre import cli, integrate, verify
from claguerre.alpha_calc import ExpPoly, ReducedPoly
from claguerre.recurrence import laguerre_pair
from claguerre.verify import (
    SUITES,
    SuiteResult,
    run_suites,
    scope_names,
)


def test_scope_names_cover_every_module():
    assert scope_names() == ("all", "alpha_calc", "laguerre", "laplace",
                             "integrate", "cli")


def test_unknown_scope_raises():
    with pytest.raises(ValueError):
        run_suites("nope")


def test_single_scope_runs_only_its_suites():
    results = run_suites("alpha_calc")
    assert type(results) is tuple
    assert [type(e) for e in results] == [SuiteResult] * len(SUITES["alpha_calc"])
    assert [e.name for e in results] == [
        f"alpha_calc/{name}" for name, _ in SUITES["alpha_calc"]
    ]
    assert all(e.passed for e in results)


def test_failures_become_entries_not_crashes(monkeypatch):
    def boom():
        raise RuntimeError("exploded")

    def miss():
        assert False, "identity moved"

    monkeypatch.setitem(SUITES, "cli", (("boom", boom), ("miss", miss)))
    results = run_suites("cli")
    assert [e.passed for e in results] == [False, False]
    assert "RuntimeError" in results[0].detail
    assert "identity moved" in results[1].detail


def test_report_exit_code_reflects_entries(monkeypatch, capsys):
    def ok():
        return "ok"

    def off():
        raise AssertionError("off")

    monkeypatch.setitem(SUITES, "cli", (("b", ok),))
    assert cli.main(["verify", "--scope", "cli"]) == 0
    monkeypatch.setitem(SUITES, "cli", (("b", ok), ("c", off)))
    assert cli.main(["verify", "--scope", "cli"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "FAIL cli/c: off", "1/2 suites passed",
    ]


def test_named_pairs_catch_an_unscaled_overflow_branch(monkeypatch):
    # w^2 + s^2 overflows at w = s = 1e200; dropping the last division by the
    # scale makes sin_wu's image 0.5 instead of 5e-201
    def unscaled(top, w, s):
        d = w * w + s * s
        if math.isfinite(d):
            return top / d
        c = max(abs(w), abs(s))
        w, s = w / c, s / c
        return top / c / (w * w + s * s)

    monkeypatch.setattr(integrate, "_over_squares", unscaled)
    failed = [e for e in run_suites("laplace") if not e.passed]
    assert [e.name for e in failed] == ["laplace/named-pair-quadrature"]
    assert failed[0].detail.startswith(
        "NamedSignal(kind='sin_wu', p=0.0, omega=1e+200) at s=1e+200: quadrature "
    )


def test_one_transform_check_serves_the_cli_and_the_named_pair_suite(monkeypatch, capsys):
    exact = integrate.quad_transform
    monkeypatch.setattr(integrate, "quad_transform",
                        lambda g, s, rule: exact(g, s, rule) + 1e-3)
    assert cli.main(["transform", "one", "--s", "2"]) == 0
    assert capsys.readouterr().out == (
        "transform: 1/s\nvalue at s=2.0: 0.5\n"
        "quadrature check: 0.501 (|diff| = 1.000e-03)\n"
    )
    failed = [e for e in run_suites("laplace") if not e.passed]
    assert [e.name for e in failed] == ["laplace/named-pair-quadrature"]


def test_close_reports_both_values_the_diff_and_the_bound(monkeypatch):
    def shifted(n, m, x):
        value, prev = laguerre_pair(n, m, x)
        return value + 1e-9, prev

    monkeypatch.setattr(verify, "laguerre_pair", shifted)
    failed = [e for e in run_suites("laguerre") if not e.passed]
    assert [e.name for e in failed] == ["laguerre/classical-oracle-alpha1"]
    assert failed[0].detail == (
        "alpha=1 value vs recurrence at (n=0, m=0, x=0.1): "
        "1.0 vs 1.000000001, |diff| = 1.000e-09 > 1e-10"
    )


def test_s_domain_residual_catches_a_residual_times_s(monkeypatch):
    # s times the residual still vanishes on the Laguerre images; only the
    # transformed-equation identity sees it
    exact = verify.laplace.s_domain_residual
    monkeypatch.setattr(verify.laplace, "s_domain_residual",
                        lambda Y, n: exact(Y, n).mul_s())
    failed = [e for e in run_suites("laplace") if not e.passed]
    assert [e.name for e in failed] == ["laplace/s-domain-residual"]
    assert failed[0].detail.startswith("residual is not the transformed equation at n=0")


def test_s_domain_residual_catches_a_wrong_equation(monkeypatch):
    # Y is solved from the operator, so its residual vanishes for any
    # equation; only the transform of the closed form sees P_0 = n + 1
    monkeypatch.setattr(verify.laplace, "laguerre_ode",
                        lambda n, m=0: ((n + 1,), (1 + m, -1), (0, 1)))
    failed = [e for e in run_suites("laplace") if not e.passed]
    assert [e.name for e in failed] == ["laplace/s-domain-residual"]
    assert failed[0].detail == "solved image 1/s - 1/s^2 is not the transform of L_0"


@pytest.mark.parametrize("suite, route", [("triple-construction", "Laplace solve"),
                                          ("assoc-triple", "m-fold derivative"),
                                          ("generating-coefficients", "generating series")])
def test_each_agreement_suite_reads_the_route_table(monkeypatch, suite, route):
    # a wrong route, L_n^(m+1) for L_n^m, first differs at n = 1
    closed, max_m = verify.ROUTES["closed form"][0], verify.ROUTES[route][1]
    monkeypatch.setitem(verify.ROUTES, route, (lambda top, m: closed(top, m + 1), max_m))
    message = f"{route} route differs from the closed form at (n=1, m=0)"
    failed = {e.name: e.detail for e in run_suites("laguerre") if not e.passed}
    assert failed == {f"laguerre/{suite}": message}
    with pytest.raises(AssertionError, match=re.escape(message)):
        test_contract.test_every_route_builds_the_closed_form()


def test_classical_recurrence_small_values():
    # L_2(x) = 1 - 2x + x^2/2 and L_1^1(x) = 2 - x, directly
    assert laguerre_pair(2, 0, 1.0)[0] == pytest.approx(-0.5)
    assert laguerre_pair(1, 1, 0.0)[0] == pytest.approx(2.0)


def test_benchmark_suite_metrics_name_registry_suites():
    # A benchmark metric whose suite is renamed away would read 0 unnoticed.
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    prefix = "verify.suite."
    declared = [
        m["name"].removeprefix(prefix).removesuffix(".ms")
        for m in json.loads(spec.read_text())["per_layer"]
        if m["name"].startswith(prefix)
    ]
    registered = {f"{module}.{name}" for module, entries in SUITES.items()
                  for name, _ in entries}
    assert declared
    assert [name for name in declared if name not in registered] == []


def test_passing_checks_build_no_failure_message(monkeypatch):
    # a message that shows a polynomial costs its str on every draw
    def forbidden(self):
        raise AssertionError("a passing check rendered a polynomial")

    for cls in (ExpPoly, ReducedPoly):
        monkeypatch.setattr(cls, "__str__", forbidden)
    assert [e.detail for e in run_suites("all") if not e.passed] == []


def test_failing_check_reports_its_formatted_message(monkeypatch):
    monkeypatch.setattr(verify.laplace, "inverse", lambda T: ExpPoly())
    first = verify.random_exppoly(
        random.Random(verify._SEED + 4), rates=verify._ROUND_TRIP_RATES, max_degree=8
    )
    entry = run_suites("laplace")[0]
    assert entry == SuiteResult("laplace/round-trip", False, f"round trip moved {first}")


# -- the random builders ------------------------------------------------------
#
# References built through Fractions and the public constructors: the
# integer builders must make the same rng calls in the same order and
# return the same values.


def reference_exppoly(rng, rates=(Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)),
                      max_degree=6, max_terms=3):
    terms = []
    for rate in rng.sample(list(rates), k=rng.randint(1, min(max_terms, len(rates)))):
        degree = rng.randint(0, max_degree)
        coeffs = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)
        ]
        terms.append((Fraction(rate), ReducedPoly(coeffs)))
    return ExpPoly(terms)


def reference_poly(rng, max_degree=6):
    degree = rng.randint(0, max_degree)
    return ReducedPoly(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)
    )


BUILDER_CASES = [
    (verify.random_exppoly, reference_exppoly, {}),
    (verify.random_exppoly, reference_exppoly, {"max_degree": 3, "max_terms": 2}),
    (verify.random_exppoly, reference_exppoly,
     {"rates": (Fraction(-1, 2), Fraction(-3), Fraction(2, 3), Fraction(0), Fraction(1)),
      "max_degree": 8}),
    (verify._random_poly, reference_poly, {}),
    (verify._random_poly, reference_poly, {"max_degree": 8}),
]


@pytest.mark.parametrize("build, reference, kwargs", BUILDER_CASES)
def test_integer_builders_match_the_fraction_reference(build, reference, kwargs):
    for seed in range(200):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got, want = build(got_rng, **kwargs), reference(want_rng, **kwargs)
            assert got == want
            assert repr(got) == repr(want)
        assert got_rng.getstate() == want_rng.getstate()


def test_repeated_rates_are_rejected():
    with pytest.raises(ValueError, match="distinct"):
        for seed in range(20):
            verify.random_exppoly(random.Random(seed), rates=(Fraction(1), Fraction(1)))
