import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from claguerre import cli, integrate, laplace, verify
from claguerre.alpha_calc import ExpPoly, ReducedPoly, x_view_str
from claguerre.laguerre import assoc_closed, laguerre_closed
from claguerre.recurrence import laguerre_column, laguerre_pair
from claguerre.tables import build_table
from claguerre.verify import SuiteResult
import check_versions
import test_contract
from test_contract import (
    LOADED_BY, NEGATIVE_LOOKING, REJECTED, REJECTED_LINES, SOLVE_GOLDEN_N, TABLE_DIGESTS,
    assert_loads, assert_rejected_loads, namespace, probe_args, spellings,
)


TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")
GOLDEN = TESTS / "golden"
LAGUERRE_S = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0)
# Child interpreters find the package from a fresh checkout, as pytest does.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_plain_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "1", "--alpha", "1", "--x", "0")
        assert code == 0
        assert "L_1^0(alpha=1.0, x=0.0) = 1" in out

    def test_associated_at_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--n", "1", "--m", "1", "--alpha", "1", "--x", "0"
        )
        assert code == 0
        assert "= 2" in out

    def test_reduced_substitution(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "2", "--alpha", "0.5", "--x", "1")
        assert code == 0
        assert "= -1" in out

    def test_prints_exact_form(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--n", "2", "--alpha", "1", "--x", "0")
        assert "exact form: 1 - 2 * a^(-1) * x^(1*a) + 1/2 * a^(-2) * x^(2*a)\n" in out

    def test_default_alpha_list(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--n", "1", "--x", "0")
        values = [line for line in out.splitlines() if line.startswith("L_")]
        assert len(values) == 4

    def test_bad_alpha(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "1", "--alpha", "1.5", "--x", "0")
        assert code == 2
        assert "alpha" in err

    def test_negative_x(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--n", "1", "--alpha", "1", "--x", "-1")
        assert code == 2

    def test_negative_degree(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--n", "-1", "--alpha", "1", "--x", "0")
        assert code == 2

    @pytest.mark.parametrize("alphas, message", [
        ("1", "L_400^100 at x=1700.0 is not a finite float"),
        # u = inf at the second alpha is named before the first one's overflow
        ("1,5e-324", "u must be a finite number, got inf"),
    ])
    def test_a_value_past_the_float_range_is_a_usage_error(self, capsys, alphas, message):
        result = run_cli(capsys, "eval", "--n", "400", "--m", "100", "--alpha", alphas,
                         "--x", "1700")
        assert result == (2, "", f"error: {message}\n")

    def test_high_degree_value_is_exact_to_twelve_digits(self, capsys):
        # Horner over the monomial coefficients printed 4.73e15 here.
        code, out, _ = run_cli(capsys, "eval", "--n", "50", "--x", "50", "--alpha", "1")
        assert code == 0
        exact = float(assoc_closed(50, 0)(Fraction(50)))
        assert f"L_50^0(alpha=1.0, x=50.0) = {exact:.12g}\n" in out


class TestTable:
    @pytest.mark.parametrize("argv, digest", TABLE_DIGESTS)
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, "table", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, xmax, samples, message", [
        pytest.param(200, "1e6", 3, "table values must be finite", id="200-1e6-3"),
        # (samples - 1) * step rounds past the largest float, so x is inf.
        pytest.param(0, "1.7976931348623157e308", 4, "x must be a finite number, got inf",
                     id="0-1.7976931348623157e308-4"),
    ])
    def test_values_that_overflow_are_refused(self, capsys, n, xmax, samples, message):
        result = run_cli(capsys, "table", "--n", str(n), "--alpha", "1",
                         "--xmax", xmax, "--samples", str(samples))
        assert result == (2, "", f"error: {message}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_table(n, 0, (1.0,), 0.0, float(xmax), samples)

    def test_an_infinite_u_is_named_before_an_overflow(self, capsys):
        # the first column overflows, the second has u = inf
        result = run_cli(capsys, "table", "--n", "200", "--alpha", "1,5e-324",
                         "--xmax", "1e6", "--samples", "3")
        assert result == (2, "", "error: u must be a finite number, got inf\n")

    @pytest.mark.parametrize(
        "xmin, xmax, samples",
        [("1e16", "1.0000000000000004e16", "10"), ("0", "5e-324", "100000")],
    )
    def test_grid_that_collapses_names_its_cause(self, capsys, xmin, xmax, samples):
        # The bounds increase, but the samples round to repeated floats.
        result = run_cli(capsys, "table", "--n", "0", "--xmin", xmin,
                         "--xmax", xmax, "--samples", samples)
        _assert_one_line_usage_error(result)
        err = result[2]
        assert repr(float(xmin)) in err and repr(float(xmax)) in err
        assert f"{samples} samples" in err and "repeated x values" in err

    def test_fine_grid_whose_points_stay_apart(self, capsys):
        # Floats near 1e16 are 2 apart: a step of one spacing is kept.
        code, out, _ = run_cli(capsys, "table", "--n", "0", "--alpha", "1", "--xmin", "1e16",
                               "--xmax", "1.0000000000000006e16", "--samples", "4")
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == [
            "1e+16", "1.0000000000000002e+16", "1.0000000000000004e+16",
            "1.0000000000000006e+16"]

    def test_two_sample_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n", "1", "--alpha", "1",
            "--xmin", "0", "--xmax", "1", "--samples", "2",
        )
        assert code == 0
        assert out.splitlines() == ["x,L_1^0(alpha=1.0)", "0.0,1.0", "1.0,0.0"]

    def test_constant_term_row(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--n", "3", "--m", "3", "--alpha", "1",
            "--xmin", "0", "--xmax", "4", "--samples", "5",
        )
        assert out.splitlines()[1] == "0.0,20.0"

    def test_half_order_value(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--n", "2", "--alpha", "0.5",
            "--xmin", "0", "--xmax", "2", "--samples", "3",
        )
        row = out.splitlines()[2].split(",")
        assert row[0] == "1.0"
        assert float(row[1]) == pytest.approx(-1.0, abs=1e-12)

    def test_header_format(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--n", "2", "--m", "1", "--alpha", "0.5,1",
            "--xmin", "0", "--xmax", "1", "--samples", "2",
        )
        assert out.splitlines()[0] == "x,L_2^1(alpha=0.5),L_2^1(alpha=1.0)"

    def test_deterministic_bytes(self, capsys):
        args = ("table", "--n", "4", "--alpha", "0.25,0.75", "--samples", "50")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert "\r" not in first
        assert len(first.splitlines()) == 51

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "table", "--n", "1", "--samples", "1")[0] == 2
        assert run_cli(capsys, "table", "--n", "1", "--xmin", "-1")[0] == 2
        assert run_cli(capsys, "table", "--n", "1", "--xmax", "0.0")[0] == 2

    @pytest.mark.parametrize(
        "bound", ["--xmax=inf", "--xmax=-inf", "--xmax=nan",
                  "--xmin=inf", "--xmin=-inf", "--xmin=nan"],
    )
    def test_non_finite_bounds_are_named(self, capsys, bound):
        option, value = bound.split("=")
        what, rule = {"--xmin": ("x_min", " >= 0"), "--xmax": ("x_max", "")}[option]
        message = f"error: {what} must be a finite number{rule}, got {value}\n"
        assert run_cli(capsys, "table", "--n", "2", bound) == (2, "", message)


class TestTransform:
    def test_unit_pair(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "one")
        assert code == 0
        assert "1/s" in out

    def test_laguerre_partial_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "laguerre", "2")
        assert code == 0
        assert "Y(s) = (s-1)^2/s^3" in out
        assert "1/s - 2/s^2 + 1/s^3" in out

    def test_exponential_value(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "exp_u", "--s", "2")
        assert code == 0
        assert "value at s=2.0: 1" in out
        assert "quadrature check" in out

    def test_laguerre_with_numeric_check(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "laguerre", "3", "--s", "2")
        assert code == 0
        check_line = [l for l in out.splitlines() if "quadrature" in l][0]
        assert "|diff|" in check_line

    def test_laguerre_value_survives_cancellation(self, capsys):
        # (s-1)^36/s^37 at s = 0.5 is exactly 2; the partial fractions cancel
        code, out, _ = run_cli(capsys, "transform", "laguerre", "36", "--s", "0.5")
        assert code == 0
        assert "value at s=0.5: 2\n" in out

    def test_sine_with_omega(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "sin_wu", "1", "--s", "1")
        assert code == 0
        assert "value at s=1.0: 0.5" in out

    @pytest.mark.parametrize("kind", ["sin_wu", "cos_wu"])
    def test_trig_value_past_the_square_range(self, capsys, kind):
        # w^2 + s^2 overflows, but the image 1/(2s) is a normal float
        code, out, _ = run_cli(capsys, "transform", kind, "1e160", "--s", "1e160")
        assert code == 0
        assert "value at s=1e+160: 5e-161\n" in out
        check = float(re.search(r"quadrature check: (\S+)", out).group(1))
        assert check == pytest.approx(5e-161, rel=1e-6)

    def test_sine_value_with_a_huge_frequency(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "sin_wu", "1e200", "--s", "1")
        assert code == 0
        assert "value at s=1.0: 1e-200\n" in out

    @pytest.mark.parametrize(
        "tokens, stdout",
        [
            (("sin_wu", "-0.0", "--s", "1"),
             "transform: w/(w^2 + s^2)  [w = 0.0]\nvalue at s=1.0: 0\n"
             "quadrature check: 0 (|diff| = 0.000e+00)\n"),
            (("power_p", "-0", "--alpha", "0.5"),
             "transform: a^(p/a) * Gamma(1 + p/a) / s^(1 + p/a)  [p = 0.0, a = 0.5]\n"),
        ],
        ids=["sin_wu", "power_p"],
    )
    def test_a_negative_zero_parameter_prints_unsigned(self, capsys, tokens, stdout):
        assert run_cli(capsys, "transform", *tokens) == (0, stdout, "")

    def test_unknown_expression(self, capsys):
        code, _, err = run_cli(capsys, "transform", "sinh_u")
        assert code == 2
        assert "unknown expression" in err

    def test_region_violation(self, capsys):
        code, _, _ = run_cli(capsys, "transform", "exp_u", "--s", "0.5")
        assert code == 2

    def test_power_requires_parameter(self, capsys):
        assert run_cli(capsys, "transform", "power_p")[0] == 2

    @pytest.mark.parametrize(
        "tokens",
        [
            ("one", "7", "--s", "1"),
            ("exp_u", "junk", "--s", "2"),
            ("sin_wu", "1", "2", "--s", "1"),
            ("cos_wu", "1", "2"),
            ("power_p", "1", "2"),
            ("laguerre", "3", "4"),
        ],
    )
    def test_extra_tokens_are_usage_errors(self, capsys, tokens):
        code, out, err = run_cli(capsys, "transform", *tokens)
        assert code == 2
        assert out == ""
        assert err.startswith("error: usage: transform ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "tokens, message",
        [
            (("laguerre", "x"), "transform laguerre: invalid int value for <n>: 'x'"),
            (("laguerre", "1.5"), "transform laguerre: invalid int value for <n>: '1.5'"),
            (("power_p", "x"), "transform power_p: invalid float value for <p>: 'x'"),
            (("sin_wu", "x", "--s", "1"),
             "transform sin_wu: invalid float value for [w]: 'x'"),
            (("cos_wu", "1e"), "transform cos_wu: invalid float value for [w]: '1e'"),
        ],
    )
    def test_malformed_token_is_named(self, capsys, tokens, message):
        assert run_cli(capsys, "transform", *tokens) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "tokens, values",
        [(("power_p", "3", "--alpha", "0.01"), "p = 3.0, a = 0.01"),
         (("power_p", "1e308"), "p = 1e+308, a = 1.0")],
    )
    def test_label_prints_although_the_image_overflows(self, capsys, tokens, values):
        label = f"transform: a^(p/a) * Gamma(1 + p/a) / s^(1 + p/a)  [{values}]\n"
        assert run_cli(capsys, "transform", *tokens) == (0, label, "")

    def test_image_that_overflows_at_s_is_one_error_line(self, capsys):
        assert run_cli(capsys, "transform", "power_p", "3", "--alpha", "0.01", "--s", "2") == (
            2, "", "error: the transform at s=2.0 is not a finite float\n"
        )


_POWER_LABEL = "transform: a^(p/a) * Gamma(1 + p/a) / s^(1 + p/a)  [p = 1.5, a = {}]\n"
# Full stdout of each named kind, with and without --s, at two alphas, and
# of one Laguerre image, as recorded before the pair table was written once.
_PINNED_TRANSFORMS = [
    (("one", "--alpha", "0.5"), "transform: 1/s\n"),
    (("one", "--alpha", "0.5", "--s", "2"),
     "transform: 1/s\nvalue at s=2.0: 0.5\n"
     "quadrature check: 0.5 (|diff| = 5.190e-14)\n"),
    (("one", "--alpha", "1.0"), "transform: 1/s\n"),
    (("one", "--alpha", "1.0", "--s", "2"),
     "transform: 1/s\nvalue at s=2.0: 0.5\n"
     "quadrature check: 0.5 (|diff| = 5.190e-14)\n"),
    (("power_p", "1.5", "--alpha", "0.5"), _POWER_LABEL.format("0.5")),
    (("power_p", "1.5", "--alpha", "0.5", "--s", "2"),
     _POWER_LABEL.format("0.5") + "value at s=2.0: 0.046875\n"
     "quadrature check: 0.046875 (|diff| = 4.927e-16)\n"),
    (("power_p", "1.5", "--alpha", "1.0"), _POWER_LABEL.format("1.0")),
    (("power_p", "1.5", "--alpha", "1.0", "--s", "2"),
     _POWER_LABEL.format("1.0") + "value at s=2.0: 0.234996400747\n"
     "quadrature check: 0.234995475131 (|diff| = 9.256e-07)\n"),
    (("exp_u", "--alpha", "0.5"), "transform: 1/(s - 1)\n"),
    (("exp_u", "--alpha", "0.5", "--s", "2"),
     "transform: 1/(s - 1)\nvalue at s=2.0: 1\n"
     "quadrature check: 1 (|diff| = 5.063e-14)\n"),
    (("exp_u", "--alpha", "1.0"), "transform: 1/(s - 1)\n"),
    (("exp_u", "--alpha", "1.0", "--s", "2"),
     "transform: 1/(s - 1)\nvalue at s=2.0: 1\n"
     "quadrature check: 1 (|diff| = 5.063e-14)\n"),
    (("sin_wu", "2", "--alpha", "0.5"), "transform: w/(w^2 + s^2)  [w = 2.0]\n"),
    (("sin_wu", "2", "--alpha", "0.5", "--s", "2"),
     "transform: w/(w^2 + s^2)  [w = 2.0]\nvalue at s=2.0: 0.25\n"
     "quadrature check: 0.25 (|diff| = 6.661e-15)\n"),
    (("sin_wu", "2", "--alpha", "1.0"), "transform: w/(w^2 + s^2)  [w = 2.0]\n"),
    (("sin_wu", "2", "--alpha", "1.0", "--s", "2"),
     "transform: w/(w^2 + s^2)  [w = 2.0]\nvalue at s=2.0: 0.25\n"
     "quadrature check: 0.25 (|diff| = 6.661e-15)\n"),
    (("cos_wu", "--alpha", "0.5"), "transform: s/(w^2 + s^2)  [w = 1.0]\n"),
    (("cos_wu", "--alpha", "0.5", "--s", "2"),
     "transform: s/(w^2 + s^2)  [w = 1.0]\nvalue at s=2.0: 0.4\n"
     "quadrature check: 0.4 (|diff| = 5.346e-14)\n"),
    (("cos_wu", "--alpha", "1.0"), "transform: s/(w^2 + s^2)  [w = 1.0]\n"),
    (("cos_wu", "--alpha", "1.0", "--s", "2"),
     "transform: s/(w^2 + s^2)  [w = 1.0]\nvalue at s=2.0: 0.4\n"
     "quadrature check: 0.4 (|diff| = 5.346e-14)\n"),
    (("laguerre", "3", "--s", "2"),
     "Y(s) = (s-1)^3/s^4\npartial fractions: 1/s - 3/s^2 + 3/s^3 - 1/s^4\n"
     "value at s=2.0: 0.0625\nquadrature check: 0.0625 (|diff| = 4.301e-14)\n"),
]


class TestPinnedTransformOutput:
    @pytest.mark.parametrize(
        "tokens, stdout", _PINNED_TRANSFORMS, ids=[" ".join(t) for t, _ in _PINNED_TRANSFORMS]
    )
    def test_stdout_and_exit_code(self, capsys, tokens, stdout):
        assert run_cli(capsys, "transform", *tokens) == (0, stdout, "")

    @pytest.mark.parametrize(
        "sig, label",
        [
            (laplace.NamedSignal("one"), "1/s"),
            (laplace.NamedSignal("power_p", p=1.5),
             "a^(p/a) * Gamma(1 + p/a) / s^(1 + p/a)  [p = 1.5, a = 0.5]"),
            (laplace.NamedSignal("exp_u"), "1/(s - 1)"),
            (laplace.NamedSignal("sin_wu", omega=2.0), "w/(w^2 + s^2)  [w = 2.0]"),
            (laplace.NamedSignal("cos_wu"), "s/(w^2 + s^2)  [w = 1.0]"),
        ],
        ids=["one", "power_p", "exp_u", "sin_wu", "cos_wu"],
    )
    def test_describe(self, sig, label):
        assert sig.describe(0.5) == label


class TestLaguerreQuadratureCheck:
    @pytest.mark.parametrize("n", [20, 36, 40, 60, 80, 95])
    def test_check_agrees_with_the_value(self, capsys, n):
        for s in LAGUERRE_S:
            code, out, _ = run_cli(
                capsys, "transform", "laguerre", str(n), "--s", str(s)
            )
            assert code == 0
            value = float(re.search(r"^value at s=\S+: (\S+)$", out, re.M).group(1))
            diff = float(re.search(r"\(\|diff\| = (\S+)\)$", out, re.M).group(1))
            assert diff <= 1e-10 * max(1.0, abs(value)), (n, s, value, diff)

    def test_degree_beyond_the_rule_is_a_usage_error(self, capsys):
        # The 48-point rule is exact only up to degree 95.
        code, out, err = run_cli(capsys, "transform", "laguerre", "96", "--s", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_degree_beyond_the_rule_prints_without_s(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "laguerre", "96")
        assert code == 0
        assert "partial fractions: 1/s - 96/s^2" in out


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "one", "--s", "nan"),
            ("transform", "laguerre", "3", "--s", "nan"),
            ("transform", "one", "--s", "inf"),
            ("transform", "sin_wu", "1e308", "--s", "1"),
            ("transform", "power_p", "nan", "--s", "1"),
            ("transform", "power_p", "1e308", "--s", "1"),
            ("transform", "one", "--s", "1e-320"),
            ("eval", "--n", "2", "--x", "nan"),
            ("eval", "--n", "2", "--x", "inf"),
            ("eval", "--n", "2", "--alpha", "1", "--x", "1e200"),
            ("transform", "laguerre", "3", "--s", "1e-320"),
        ],
    )
    def test_one_line_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert out == ""


class TestNegativeLookingValues:
    @pytest.mark.parametrize("argv, message", NEGATIVE_LOOKING.values(),
                             ids=list(NEGATIVE_LOOKING))
    def test_one_line_error_as_with_an_equals_sign(self, capsys, argv, message):
        for spelling in spellings(argv):
            assert run_cli(capsys, *spelling) == (2, "", message)


class TestArgumentRules:
    # The library's own refusals, each reached once: the s > 0 rule of
    # integrate.transform_check and the integer rule on the sample count.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("transform", "laguerre", "3", "--s", "0"),
             "error: s must be positive for the numeric check\n"),
            (("transform", "laguerre", "3", "--s", "-1"),
             "error: s must be positive for the numeric check\n"),
            (("table", "--n", "2", "--samples", "1"),
             "error: samples must be an integer >= 2, got 1\n"),
        ],
        ids=["laguerre-s-zero", "laguerre-s-negative", "table-one-sample"],
    )
    def test_one_line_usage_error(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", message)


# Every entry point that takes a real argument: (id, the call with the value
# or the command line with "{}" for it, the argument's name in the message,
# the least value accepted or None).
_POLY = ReducedPoly((1, -2, 1))
_REAL_ARGUMENTS = [
    ("ReducedPoly-call", lambda v: _POLY(v), "u", None),
    ("ReducedPoly-eval", lambda v: _POLY.eval(v, 0.5), "x", 0),
    ("ExpPoly-eval_u", lambda v: ExpPoly.exp(-1, _POLY).eval_u(v), "u", None),
    ("ExpPoly-eval", lambda v: ExpPoly.exp(-1, _POLY).eval(v, 0.5), "x", 0),
    ("laguerre_pair", lambda v: laguerre_pair(3, 0, v), "u", None),
    ("laguerre_column", lambda v: laguerre_column(3, 0, [0.5, v]), "u", None),
    ("NamedSignal-power", lambda v: laplace.NamedSignal("power_p", p=v), "power", 0),
    ("NamedSignal-omega", lambda v: laplace.NamedSignal("sin_wu", omega=v), "omega", None),
    *[(f"transform_named-{kind}",
       lambda v, kind=kind: laplace.transform_named(laplace.NamedSignal(kind), 0.5)(v),
       "s", None) for kind in integrate._PAIRS],
    ("build_table-x_min", lambda v: build_table(1, 0, (1.0,), v, 1.0, 2), "x_min", 0),
    ("build_table-x_max", lambda v: build_table(1, 0, (1.0,), 0.0, v, 2), "x_max", None),
    ("eval-x", ("eval", "--n", "3", "--x={}"), "x", 0),
    ("table-xmin", ("table", "--n", "3", "--xmin={}"), "x_min", 0),
    ("table-xmax", ("table", "--n", "3", "--xmax={}"), "x_max", None),
    ("transform-s", ("transform", "one", "--s={}"), "s", None),
    ("transform-power", ("transform", "power_p", "{}", "--s", "2"), "power", 0),
    ("transform-omega", ("transform", "sin_wu", "{}"), "omega", None),
]
_REAL_CASES = [
    pytest.param(call, what, low, value, id=f"{name}-{label}")
    for name, call, what, low in _REAL_ARGUMENTS
    for label, value in [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
    + ([("below", low - 1.0)] if low is not None else [])
]


class TestOneRealRule:
    # A non-finite or too small real argument is one ValueError, with one
    # message form, in the library and at the command line.
    @pytest.mark.parametrize("call, what, low, value", _REAL_CASES)
    def test_one_real_rule(self, capsys, call, what, low, value):
        rule = "a finite number" if low is None else f"a finite number >= {low}"
        message = f"{what} must be {rule}, got {value!r}"
        if callable(call):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value)
        else:
            argv = [token.format(value) for token in call]
            assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("n", ["0", "3"])
    @pytest.mark.parametrize("command", [("eval", "--x", "2"), ("table",)])
    def test_an_infinite_u_is_refused_at_every_degree(self, capsys, command, n):
        # u = x**alpha / alpha is inf at the least subnormal alpha; at n = 0
        # too, where L_0 = 1 would not read u.
        kind, *rest = command
        result = run_cli(capsys, kind, "--n", n, "--alpha", "5e-324", *rest)
        assert result == (2, "", "error: u must be a finite number, got inf\n")


class TestSolve:
    @pytest.mark.parametrize("n", [0, 4, 12])
    def test_exact_match(self, capsys, n):
        code, out, _ = run_cli(capsys, "solve", "--n", str(n))
        assert code == 0
        assert out.strip().endswith("match: exact")
        assert "s-domain residual: 0 (exact)" in out

    def test_trace_shows_x_view(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--n", "4")
        assert f"x-view: {x_view_str(laguerre_closed(4))}" in out

    def test_nonzero_residual_is_a_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(
            laplace, "s_domain_residual", lambda Y, n: laplace.TransformExpr([(1, 0, 2)])
        )
        code, out, err = run_cli(capsys, "solve", "--n", "3")
        assert (code, err) == (1, "")
        assert "\ns-domain residual: 1/s^2\n" in out
        assert out.endswith("\nmatch: MISMATCH against the direct coefficients\n")

    def test_wrong_solution_is_a_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(laplace, "inverse", lambda Y: ExpPoly.from_poly(laguerre_closed(2)))
        code, out, _ = run_cli(capsys, "solve", "--n", "3")
        assert code == 1
        assert "s-domain residual: 0 (exact)\n" in out
        assert out.endswith("match: MISMATCH against the direct coefficients\n")

    @pytest.mark.parametrize("n", SOLVE_GOLDEN_N)
    def test_golden_output(self, capsys, n):
        # Recorded from the Fraction-pole TransformExpr this output must match;
        # the equation line is rendered from the operator derived from
        # laguerre_ode, and Y is solved from it.
        code, out, _ = run_cli(capsys, "solve", "--n", str(n))
        assert code == 0
        assert out == (GOLDEN / f"solve_n{n}.txt").read_text()


class TestVerify:
    def test_laplace_scope_entries(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "laplace")
        assert code == 0
        for name in ("round-trip", "shift", "s-domain-residual"):
            assert f"laplace/{name}" in out

    def test_integrate_scope_entries(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "integrate")
        assert code == 0
        assert "orthogonality-identity-11x11" in out

    def test_one_line_per_suite(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--scope", "alpha_calc")
        lines = out.strip().splitlines()
        assert all(l.startswith(("PASS", "FAIL")) for l in lines[:-1])
        assert lines[-1].endswith("suites passed")

    def test_exit_code_tracks_failures(self, capsys, monkeypatch):
        fake = (SuiteResult("fake/fine", True, "ok"),
                SuiteResult("fake/broken", False, "boom"))
        monkeypatch.setattr(verify, "run_suites", lambda scope: fake)
        code, out, _ = run_cli(capsys, "verify", "--scope", "all")
        assert code == 1
        assert out == "PASS fake/fine: ok\nFAIL fake/broken: boom\n1/2 suites passed\n"

    def test_unknown_scope_is_usage_error(self, capsys):
        _assert_one_line_usage_error(run_cli(capsys, "verify", "--scope", "nope"))


def _probe_imports(what):
    return subprocess.run(
        [sys.executable, *probe_args(what)], capture_output=True, text=True,
        env=CHILD_ENV, check=True,
    ).stdout


class TestImports:
    @pytest.mark.parametrize("what, expected", LOADED_BY.values(), ids=list(LOADED_BY))
    def test_each_command_loads_only_what_it_runs(self, what, expected):
        assert_loads(_probe_imports(what), what, expected)

    def test_a_rejected_command_line_loads_no_library_module(self):
        assert_rejected_loads(_probe_imports(REJECTED))


def test_check_versions_runs_every_shared_case(monkeypatch):
    # The shared modules import no pytest, so the other Pythons can run them.
    env = dict(CHILD_ENV, PYTHONPATH=os.pathsep.join((CHILD_ENV["PYTHONPATH"], str(TESTS))))
    blocked = "import sys; sys.modules['pytest'] = None; import test_contract, test_exact_golden"
    subprocess.run([sys.executable, "-c", blocked], env=env, check=True)
    monkeypatch.setattr(subprocess, "Popen", None)  # building the list starts no process
    names = [name for name, _, _ in check_versions.cases()]
    assert len(set(names)) == len(names)
    want = [f"solve --n {n}" for n in SOLVE_GOLDEN_N] + ["verify --scope all"]
    want += [" ".join(s) for argv, _ in NEGATIVE_LOOKING.values() for s in spellings(argv)]
    want += [" ".join(argv) for argv, _ in REJECTED_LINES.values()]
    want += [f"table {' '.join(argv)} digest" for argv, _ in TABLE_DIGESTS]
    want += [f"test_contract.{name}" for name in vars(test_contract) if name.startswith("test_")]
    want += ["test_exact_golden.test_exact_results_digest"]
    assert set(want) <= set(names)
    for what in [*(what for what, _ in LOADED_BY.values()), REJECTED]:
        assert any(name.startswith(f"-S {check_versions.shown(what)} ") for name in names)
    assert len(names) == len(want) + len(LOADED_BY) + 1 + len(check_versions.DEMOS)


def _assert_one_line_usage_error(result):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


class TestRejectedLines:
    @pytest.mark.parametrize("argv, message", REJECTED_LINES.values(), ids=list(REJECTED_LINES))
    def test_one_error_line_in_argparse_3_11_wording(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", message)


class TestArgparseErrors:
    # What the parser rejects ends as any other rejected input does.
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--n", "abc", "--x", "1"),
            ("eval", "--n", "1", "--x", "abc"),
            ("eval", "--n", "-1e5", "--x", "1"),
            ("eval", "--x", "1"),
            ("eval", "--n", "1", "--x", "1", "--bogus"),
            ("solve", "--n", "3", "--m", "2"),
            (),
            ("transform",),
        ],
        ids=["invalid-int", "invalid-float", "float-for-int", "missing-option",
             "unknown-option", "option-of-another-command", "no-subcommand",
             "transform-without-expression"],
    )
    def test_one_line_usage_error(self, capsys, argv):
        _assert_one_line_usage_error(run_cli(capsys, *argv))

    @pytest.mark.parametrize("command", [(), ("transform",)], ids=["claguerre", "transform"])
    def test_help_lists_every_transform_expression(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command, "-h"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        grammar = "one, power_p <p>, exp_u, sin_wu [w], cos_wu [w], laguerre <n>"
        assert grammar in text
        if not command:
            assert f"transform print a transform ({grammar})" in text

    def test_help_exits_zero_with_usage_on_stdout(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["eval", "-h"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: claguerre eval ")
        assert captured.err == ""

    @pytest.mark.parametrize("spelling", ["--help", "--he", "-hh", "-h=h"])
    def test_every_help_spelling_prints_the_same_help(self, capsys, spelling):
        # argparse reads -hh as -h -h and --he as a prefix of --help
        printed = []
        for argv in (["eval", "--n", "1", "-h"], ["eval", "--n", "1", spelling]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            printed.append((exit_info.value.code, capsys.readouterr()))
        assert printed[0] == printed[1]


# Tokens for drawn command lines: values of each option type with small
# sizes, so that every accepted line runs in milliseconds, negative-looking
# numbers and non-ASCII digits among them; tokens that fit no type; and
# tokens that argparse must handle.
_VALUE_TOKENS = {
    int: ["0", "1", "3", "12", "-1", "2000", "\u0663", " 2"],
    float: ["0", "1", "1.5", "8", "-1e5", "-inf", "inf", "nan", "-nan", "1e-3", "1e308",
            "\u0661.\u0665"],
    str: ["1", "0.5", "0.25,1", "", "-1e-3", "cli", "laguerre", "nope"],
}
_JUNK_TOKENS = ["abc", "", "1e", "-x"]
_EXPR_TOKENS = ["one", "power_p", "exp_u", "sin_wu", "cos_wu", "laguerre", "sinh_u",
                "2", "-1e-3", ""]
_STRAY_TOKENS = ["-h", "--help", "--", "-", "--n=3", "--sam", "--bogus", "-x y", "--s", "7"]


@st.composite
def _command_lines(draw):
    """A command line: a command, its expression tokens if it is
    ``transform``, its required options and some others in any order, and
    now and then a value of no type, an option twice or a stray token."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    _, positional, options = cli._COMMANDS.get(command, ({}, None, ()))
    argv = [command]
    if positional is not None:
        argv += draw(st.lists(st.sampled_from(_EXPR_TOKENS), max_size=2))
    chosen = [(name, convert) for name, convert, _, required, _ in draw(st.permutations(options))
              if draw(st.booleans()) or required and draw(st.integers(0, 7))]
    if chosen and draw(st.integers(0, 9)) == 0:
        chosen.append(chosen[0])
    for name, convert in chosen:
        tokens = _VALUE_TOKENS[convert] if draw(st.integers(0, 9)) else _JUNK_TOKENS
        argv += [f"--{name}", draw(st.sampled_from(tokens))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_STRAY_TOKENS)))
    return argv


class _Help(Exception):
    """A help request, with the prog of the parser asked."""


class _Argparse311(argparse.ArgumentParser):
    """argparse reading every negative-looking token as a value, raising
    ValueError for a rejected line and _Help for a help request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):
        raise _Help(self.prog)


def _oracle():
    """The argparse parser of ``cli._COMMANDS``."""
    parser = _Argparse311(prog="claguerre")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, positional, options) in cli._COMMANDS.items():
        p = sub.add_parser(command)
        if positional is not None:
            p.add_argument(positional[0], nargs="+")
        for name, convert, default, required, _ in options:
            p.add_argument(f"--{name}", type=convert, default=default, required=required)
        p.set_defaults(handler=getattr(cli, f"_cmd_{command}"))
    return parser


def _parsed(parse, argv):
    """The namespace ``parse`` gives, its error message, or the usage line
    of the help it prints."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return namespace(parse(argv))
    except ValueError as exc:
        return str(exc)
    except _Help as exc:
        return f"usage: {exc.args[0]}"
    except SystemExit:
        return out.getvalue().split(" [-h]")[0]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the oracle is argparse 3.11")
class TestExactParser:
    # 600 drawn lines from a fixed seed, each parsed as argparse 3.11 parses
    # it: the same namespace, error message or help.  About two in five are
    # accepted, and about one in eight asks for help.
    @seed(36)
    @settings(max_examples=600, deadline=None)
    @given(_command_lines())
    def test_an_accepted_line_parses_and_runs_as_through_argparse(self, argv):
        assert _parsed(cli._parse, argv) == _parsed(_oracle().parse_args, argv)


class TestSizeCaps:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--x", "1", "--n"),
            ("table", "--n"),
            ("solve", "--n"),
            ("transform", "laguerre"),
        ],
    )
    def test_degree_cap(self, capsys, argv):
        _assert_one_line_usage_error(run_cli(capsys, *argv, str(cli.MAX_N + 1)))

    @pytest.mark.parametrize("command", [("eval", "--x", "1"), ("table",)])
    def test_order_cap(self, capsys, command):
        _assert_one_line_usage_error(
            run_cli(capsys, *command, "--n", "1", "--m", str(cli.MAX_M + 1))
        )

    def test_samples_cap(self, capsys):
        _assert_one_line_usage_error(
            run_cli(capsys, "table", "--n", "1", "--samples", str(cli.MAX_SAMPLES + 1))
        )

    @pytest.mark.parametrize("command", [("eval", "--x", "1"), ("table",)])
    def test_alpha_count_cap(self, capsys, command):
        alphas = ",".join(["0.5"] * (cli.MAX_ALPHAS + 1))
        code, out, err = run_cli(capsys, *command, "--n", "1", "--alpha", alphas)
        _assert_one_line_usage_error((code, out, err))
        assert f"at most {cli.MAX_ALPHAS} alphas" in err

    def test_alphas_at_the_cap_are_accepted(self, capsys):
        alphas = [str((k + 1) / cli.MAX_ALPHAS) for k in range(cli.MAX_ALPHAS)]
        code, out, err = run_cli(capsys, "table", "--n", "2", "--samples", "3",
                                 "--alpha", ",".join(alphas))
        assert (code, err) == (0, "")
        assert out.splitlines()[0].count(",") == cli.MAX_ALPHAS
        code, out, err = run_cli(capsys, "eval", "--n", "2", "--x", "1",
                                 "--alpha", ",".join(alphas))
        assert (code, err) == (0, "")
        assert sum(line.startswith("L_") for line in out.splitlines()) == cli.MAX_ALPHAS

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--alpha", "1", "--x", "0", "--n", str(cli.MAX_N), "--m", str(cli.MAX_M)),
            ("solve", "--n", str(cli.MAX_N)),
        ],
    )
    def test_exact_forms_at_the_degree_cap_print(self, capsys, argv):
        # The x**(n*alpha) coefficient is 1/n!, and above n = 1558 its
        # denominator exceeds the default 4300-digit int-to-str limit.
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "\nexact form: " in out or out.endswith("match: exact\n")

    def test_samples_at_the_cap_are_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n", "1", "--alpha", "1",
            "--samples", str(cli.MAX_SAMPLES),
        )
        assert code == 0
        assert len(out.splitlines()) == cli.MAX_SAMPLES + 1


class TestTableWorkCap:
    """(n+1) * samples * alphas may reach cli.MAX_TABLE_STEPS; none of these
    tests builds a table at that size."""

    @pytest.fixture
    def built(self, monkeypatch):
        import claguerre.tables

        calls = []

        class Table:
            def to_csv(self):
                return "x\n"

        def build_table(*args):
            calls.append(args)
            return Table()

        monkeypatch.setattr(claguerre.tables, "build_table", build_table)
        return calls

    def test_the_check_at_the_cap_and_one_above(self):
        cap = cli.MAX_TABLE_STEPS
        cli._check_table_work(cap - 1, 1, 1)
        with pytest.raises(ValueError) as info:
            cli._check_table_work(cap, 1, 1)
        assert str(info.value) == (
            f"table work (n+1)*samples*alphas = {cap + 1}*1*1 = {cap + 1} steps"
            f" exceeds the cap of {cap}"
        )

    def test_a_table_at_the_cap_is_accepted(self, capsys, built):
        assert 200 * 100_000 * 1 == cli.MAX_TABLE_STEPS
        code, out, err = run_cli(capsys, "table", "--n", "199", "--samples", "100000",
                                 "--alpha", "1")
        assert (code, out, err) == (0, "x\n", "")
        assert built == [(199, 0, (1.0,), 0.0, 8.0, 100_000)]

    def test_one_step_over_the_cap_is_a_usage_error(self, capsys, built, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TABLE_STEPS", 200 * 100_000 - 1)
        result = run_cli(capsys, "table", "--n", "199", "--samples", "100000", "--alpha", "1")
        _assert_one_line_usage_error(result)
        assert "= 20000000 steps exceeds the cap of 19999999" in result[2]
        assert built == []

    @pytest.mark.parametrize("argv", [
        ("--n", "200", "--samples", "100000", "--alpha", "1"),
        ("--n", "25", "--samples", "100000", "--alpha", ",".join(["0.5"] * cli.MAX_ALPHAS)),
        ("--n", str(cli.MAX_N), "--samples", str(cli.MAX_SAMPLES)),
    ])
    def test_tables_over_the_cap_are_refused_before_any_evaluation(self, capsys, built, argv):
        code, out, err = run_cli(capsys, "table", *argv)
        _assert_one_line_usage_error((code, out, err))
        assert f"exceeds the cap of {cli.MAX_TABLE_STEPS}" in err
        assert built == []

    def test_the_usage_text_states_the_cap(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["table", "-h"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"(n+1)*samples*alphas may be at most {cli.MAX_TABLE_STEPS} steps" in text


class TestInternalError:
    def test_unexpected_exception_is_one_line_with_exit_three(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("solver broke\non two lines")

        monkeypatch.setattr(cli, "_cmd_solve", broken)
        code, out, err = run_cli(capsys, "solve", "--n", "3")
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: solver broke on two lines\n"


class TestProcessContract:
    def test_installed_entry_point_exit_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "claguerre.cli", "verify", "--scope", "cli"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "figure-fixtures" in proc.stdout

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "argv", [("solve", "--n", "300"), ("table", "--n", "5", "--samples", "100000")]
    )
    def test_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen(
            [sys.executable, "-m", "claguerre.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "claguerre.cli"], capture_output=True, env=CHILD_ENV
        )
        assert proc.returncode == 2

    def test_package_runs_as_the_cli_module(self):
        argv = ("eval", "--n", "2", "--x", "1")
        package, module = (
            subprocess.run([sys.executable, "-m", name, *argv],
                           capture_output=True, env=CHILD_ENV)
            for name in ("claguerre", "claguerre.cli")
        )
        assert (package.returncode, package.stdout, package.stderr) == (
            module.returncode, module.stdout, module.stderr
        )
        assert package.returncode == 0 and package.stdout

    def test_package_reports_a_rejected_input_in_one_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "claguerre", "solve", "--n", "-1"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(r"error: [^\n]+\n", proc.stderr)
