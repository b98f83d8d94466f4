import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from claguerre import verify
from claguerre.alpha_calc import ExpPoly, ReducedPoly
from claguerre.laguerre import laguerre_pair
from claguerre.verify import (
    SUITES,
    SuiteResult,
    VerifyReport,
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
    report = run_suites("alpha_calc")
    assert len(report.entries) == len(SUITES["alpha_calc"])
    assert all(e.name.startswith("alpha_calc/") for e in report.entries)
    assert report.all_passed
    assert report.exit_code == 0


def test_failures_become_entries_not_crashes(monkeypatch):
    def boom():
        raise RuntimeError("exploded")

    def miss():
        assert False, "identity moved"

    monkeypatch.setitem(SUITES, "cli", (("boom", boom), ("miss", miss)))
    report = run_suites("cli")
    assert [e.passed for e in report.entries] == [False, False]
    assert "RuntimeError" in report.entries[0].detail
    assert "identity moved" in report.entries[1].detail
    assert report.exit_code == 1


def test_report_exit_code_reflects_entries():
    good = VerifyReport((SuiteResult("a/b", True, "ok"),))
    bad = VerifyReport((SuiteResult("a/b", True, "ok"),
                        SuiteResult("a/c", False, "off")))
    assert good.exit_code == 0 and good.all_passed
    assert bad.exit_code == 1 and not bad.all_passed


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
    report = run_suites("all")
    assert report.all_passed, [e.detail for e in report.entries if not e.passed]


def test_failing_check_reports_its_formatted_message(monkeypatch):
    monkeypatch.setattr(verify.laplace, "inverse", lambda T: ExpPoly())
    first = verify.random_exppoly(
        random.Random(verify._SEED + 4), rates=verify._ROUND_TRIP_RATES, max_degree=8
    )
    entry = run_suites("laplace").entries[0]
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
