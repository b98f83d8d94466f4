"""The checks that tier-1 and ``tests/check_versions.py`` both run.

Pytest collects the ``test_*`` functions here.  ``check_versions`` imports
the tables and runs each ``test_*`` function by name under every other
Python the package declares.  So this module imports no pytest, and its
tests take no fixtures.
"""

import contextlib
import hashlib
import io
import json
import math
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

from claguerre import cli, verify
from claguerre.alpha_calc import ExpPoly, ReducedPoly, d_alpha_n
from claguerre.laguerre import assoc_closed
from claguerre.laplace import (
    TransformExpr,
    derivative_rule,
    inverse,
    laguerre_transform,
    s_domain_equation,
    transform,
)
from claguerre.recurrence import laguerre_pair
from claguerre.tables import SampleTable, build_table
from claguerre.verify import random_exppoly
from test_exact_golden import GOLDEN, RATES

# ``solve --n n`` prints golden/solve_n{n}.txt.  n = 40 is the largest n the
# benchmark's cli-mix draws for solve.
SOLVE_GOLDEN_N = (0, 1, 5, 12, 40)

# SHA-256 of the stdout of `table` for these arguments: a change to the bits
# of any value or to the CSV layout fails here.
TABLE_DIGESTS = [
    (("--n", "5"), "3407bc9809d44bbdb82adf0b43e415eff12982a26b358c260d751f8d42111908"),
    (("--n", "0"), "9baea929572b901ad59ad59bc066d6266cda5ded6a992c77704a03b014ec0463"),
    (("--n", "8", "--m", "2", "--samples", "2000"),
     "3a693405fe71a47947414e3d5e9560790f7ba4c466fb49973733854c231dfe6e"),
    (("--n", "0", "--alpha", "1", "--xmin", "1e16", "--xmax", "1.0000000000000006e16",
      "--samples", "4"), "bf0edf24c710bf4b7e8ad6175dc2f277dbd966459fb4e805be900b527a196965"),
]

# SHA-256 of the stdout of `eval` with the default alphas at each n <= 40,
# m <= 4 and x in EVAL_POINTS, in that order, joined; and of `eval --n 1500
# --m 100 --x 0`, whose exact form is the longest the caps allow.  Both were
# recorded while `eval` built its exact form through `alpha_calc`.
EVAL_POINTS = ("0.0", "1.5", "37.25")
EVAL_SWEEP_DIGEST = "987b9fb6eaa85287e7becd5aea1a026920a9b44b377e6be049bea8d9b95d9d24"
EVAL_AT_THE_CAPS = ("--n", "1500", "--m", "100", "--x", "0")
EVAL_AT_THE_CAPS_DIGEST = "7aa481dfa2fc6b2e255df12fb4ac6c25876c0498b09433d94196033e37c3e1b6"

# SHA-256 of ``printed_forms()``, recorded while the printers read the
# Fraction views; the other printed exact forms are in golden files.
PRINTED_FORMS_DIGEST = "9dfdc5b4ca2ca016c650becbcb2da5652534514f2754094c55c751b54eb55bfa"

# Values that start with '-' and read as numbers, exponents, -inf and -nan
# among them, which argparse's own negative-number pattern would take for
# options; each of these command lines must reach the command's own check and
# end with exit 2, no stdout and this one line on stderr, in every spelling.
NEGATIVE_LOOKING = {
    "table-xmax": (("table", "--n", "2", "--xmax", "-inf"),
                   "error: x_max must be a finite number, got -inf\n"),
    "eval-x": (("eval", "--n", "2", "--x", "-1e5"),
               "error: x must be a finite number >= 0, got -100000.0\n"),
    "transform-s": (("transform", "one", "--s", "-1e-3"),
                    "error: s = -0.001 outside the convergence region s > 0.0 for one\n"),
    "table-alpha": (("table", "--n", "2", "--alpha", "-1e-3"),
                    "error: alpha must lie in (0, 1], got -0.001\n"),
    "power_p": (("transform", "power_p", "-1e-3", "--s", "2"),
                "error: power must be a finite number >= 0, got -0.001\n"),
    "eval-x-inf": (("eval", "--n", "2", "--x", "-inf"),
                   "error: x must be a finite number >= 0, got -inf\n"),
    "eval-x-nan": (("eval", "--n", "2", "--x", "-nan"),
                   "error: x must be a finite number >= 0, got nan\n"),
    "transform-s-inf": (("transform", "one", "--s", "-inf"),
                        "error: s must be a finite number, got -inf\n"),
    "table-xmin-nan": (("table", "--n", "2", "--xmin", "-nan"),
                       "error: x_min must be a finite number >= 0, got nan\n"),
    "power_p-inf": (("transform", "power_p", "-inf"),
                    "error: power must be a finite number >= 0, got -inf\n"),
}

# Command lines the parser rejects, each with the one line it prints on
# stderr, with exit 2 and no stdout, on every Python: argparse 3.11's
# wording.  ``-\u0131nf`` and ``-\u0130nf`` (dotless and dotted I) do not
# start like a number, so they are options that leave ``--x`` no value.
REJECTED_LINES = {
    "unknown-command": (("bogus",), "error: argument command: invalid choice: 'bogus' "
                        "(choose from 'eval', 'table', 'transform', 'solve', 'verify')\n"),
    "no-command": (("--bogus",), "error: the following arguments are required: command\n"),
    "missing-options": (("eval",), "error: the following arguments are required: --n, --x\n"),
    "missing-expression": (("transform", "--s", "2"),
                           "error: the following arguments are required: expr\n"),
    "invalid-int": (("eval", "--n", "abc", "--x", "1"),
                    "error: argument --n: invalid int value: 'abc'\n"),
    "invalid-float": (("eval", "--n", "1", "--x=1e"),
                      "error: argument --x: invalid float value: '1e'\n"),
    "unrecognized": (("solve", "--n", "3", "--m", "2"), "error: unrecognized arguments: --m 2\n"),
    "final-dashes": (("verify", "--"), "error: unrecognized arguments: --\n"),
    "ambiguous-prefix": (("table", "--n", "1", "--x", "2"),
                         "error: ambiguous option: --x could match --xmin, --xmax\n"),
    "no-value": (("eval", "--x", "1", "--n"), "error: argument --n: expected one argument\n"),
    "dotless-i-inf": (("eval", "--n", "2", "--x", "-\u0131nf"),
                      "error: argument --x: expected one argument\n"),
    "dotted-I-inf": (("eval", "--n", "2", "--x", "-\u0130nf"),
                     "error: argument --x: expected one argument\n"),
    "help-with-a-value": (("eval", "--help=x"),
                          "error: argument -h/--help: ignored explicit argument 'x'\n"),
}


def spellings(argv):
    """``argv``, and its ``--option=value`` form when it ends in an option."""
    yield argv
    *head, option, value = argv
    if option.startswith("--"):
        yield (*head, f"{option}={value}")


# What each command line (a tuple) or Python statement (a string) loads in a
# fresh interpreter: the claguerre modules beyond ``claguerre`` and, for a
# command line, ``claguerre.cli``.  A row without ``alpha_calc`` is
# fraction-free work and loads neither ``fractions`` nor ``decimal``, nor
# ``re`` unless it asks for help.  Only a help request loads ``argparse``; no
# other row loads it or ``shutil``.
LOADED_BY = {
    "eval": (("eval", "--n", "3", "--x", "1.5"), {"recurrence"}),
    "table": (("table", "--n", "3", "--samples", "5"), {"recurrence", "tables"}),
    "transform-laguerre": (("transform", "laguerre", "5", "--s", "2"),
                           {"alpha_calc", "integrate", "laguerre", "laplace", "recurrence"}),
    "transform-one": (("transform", "one", "--s", "2"), {"integrate", "recurrence"}),
    "transform-power_p": (("transform", "power_p", "1.5", "--alpha", "0.5", "--s", "2"),
                          {"integrate", "recurrence"}),
    "transform-exp_u": (("transform", "exp_u", "--s", "2"), {"integrate", "recurrence"}),
    "transform-named": (("transform", "sin_wu", "2", "--s", "1.5"), {"integrate", "recurrence"}),
    "transform-cos_wu": (("transform", "cos_wu", "--s", "2"), {"integrate", "recurrence"}),
    "transform-named-without-s": (("transform", "power_p", "1.5", "--alpha", "0.5"),
                                  {"integrate", "recurrence"}),
    "transform-help": (("transform", "-h"), {"integrate", "recurrence"}),
    "solve": (("solve", "--n", "4"),
              {"alpha_calc", "integrate", "laguerre", "laplace", "recurrence"}),
    "verify-all": (("verify", "--scope", "all"),
                   {"alpha_calc", "integrate", "laguerre", "laplace", "recurrence", "tables",
                    "verify"}),
    "import-tables": ("import claguerre.tables", {"recurrence", "tables"}),
    "float-names": ("from claguerre import as_alpha, laguerre_column, laguerre_pair, "
                    "NamedSignal, transform_named", {"integrate", "recurrence"}),
}
# Run as ``python -S -c IMPORT_PROBE`` and the command line, or ``-c`` and the
# statement; ``-S`` because a site hook may import ``typing`` itself, which
# would hide one that claguerre loads.  It prints the exit code (a help
# request's comes from its SystemExit), the claguerre modules loaded, and
# which of the heavy, the exact-arithmetic (with ``re``, which ``fractions``
# and argparse import) and the argument-parsing modules.
IMPORT_PROBE = """\
import sys
try:
    if sys.argv[1] == "-c":
        exec(sys.argv[2])
        code = 0
    else:
        import claguerre.cli
        code = claguerre.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
found = [code, sorted(m for m in sys.modules if m.split(".")[0] == "claguerre"),
         [m for m in ("dataclasses", "inspect", "typing") if m in sys.modules],
         [m for m in ("decimal", "fractions", "re") if m in sys.modules],
         [m for m in ("argparse", "shutil") if m in sys.modules]]
import json  # only now: json loads re
print(json.dumps(found))
"""


def probe_args(what):
    """The interpreter arguments that probe one ``LOADED_BY`` row."""
    return ["-S", "-c", IMPORT_PROBE, *(("-c", what) if isinstance(what, str) else what)]


def asks_for_help(what) -> bool:
    """Whether a probe row is a help request, the one row that loads argparse."""
    return not isinstance(what, str) and "-h" in what


def assert_loads(stdout, what, expected):
    """The probe's output for ``what`` shows exit 0 and exactly ``expected``."""
    code, loaded, heavy, exact, parsing = json.loads(stdout.splitlines()[-1])
    base = ["claguerre"] if isinstance(what, str) else ["claguerre", "claguerre.cli"]
    assert code == 0, code
    assert loaded == sorted(base + [f"claguerre.{m}" for m in expected]), loaded
    assert heavy == [], heavy
    if "alpha_calc" not in expected:
        assert exact == (["re"] if asks_for_help(what) else []), exact
    if asks_for_help(what):
        assert "argparse" in parsing, parsing
    else:
        assert parsing == [], parsing


# A rejected command line loads no library module, and its error is worded
# without argparse.
REJECTED = ("eval", "--n", "abc", "--x", "1")


def assert_rejected_loads(stdout):
    """The probe's output for ``REJECTED`` shows exit 2 and none of the
    library, the exact-arithmetic, ``re``, ``argparse`` or ``shutil``."""
    code, loaded, heavy, exact, parsing = json.loads(stdout.splitlines()[-1])
    assert code == 2, code
    assert loaded == ["claguerre", "claguerre.cli"], loaded
    assert (heavy, exact, parsing) == ([], [], []), (heavy, exact, parsing)


# The fields each ``NEGATIVE_LOOKING`` line sets, in either spelling.
_NEGATIVE_FIELDS = {
    "table-xmax": {"n": 2, "xmax": -math.inf},
    "eval-x": {"n": 2, "x": -1e5},
    "transform-s": {"expr": ["one"], "s": -1e-3},
    "table-alpha": {"n": 2, "alpha": "-1e-3"},
    "power_p": {"expr": ["power_p", "-1e-3"], "s": 2.0},
    "eval-x-inf": {"n": 2, "x": -math.inf},
    "eval-x-nan": {"n": 2, "x": math.nan},
    "transform-s-inf": {"expr": ["one"], "s": -math.inf},
    "table-xmin-nan": {"n": 2, "xmin": math.nan},
    "power_p-inf": {"expr": ["power_p", "-inf"]},
}

# Command lines for the parser, each with the fields its namespace sets
# beyond the command's defaults, or the message it is rejected with: the
# spellings argparse accepts, and what it rejects.
EXACT_PARSES = [
    *[(spelling, _NEGATIVE_FIELDS[name])
      for name, (argv, _) in NEGATIVE_LOOKING.items() for spelling in spellings(argv)],
    (("eval", "--n=3", "--x", "1"), {"n": 3, "x": 1.0}),
    (("table", "--n", "3", "--sam", "5"), {"n": 3, "samples": 5}),
    (("table", "--n", "0", "--s=2"), {"n": 0, "samples": 2}),
    (("table", "--n", "3", "--samples", "5"), {"n": 3, "samples": 5}),
    (("eval", "--n", "3", "--x", "1", "--n", "4"), {"n": 4, "x": 1.0}),
    (("eval", "--n", "x", "--x", "1", "--n", "4"), "argument --n: invalid int value: 'x'"),
    (("transform", "sin_wu", "--s", "2", "1.5"), "unrecognized arguments: 1.5"),
    (("transform", "sin_wu", "1.5", "--s", "2"), {"expr": ["sin_wu", "1.5"], "s": 2.0}),
    (("transform", "--s", "2", "sin_wu", "1.5"), {"expr": ["sin_wu", "1.5"], "s": 2.0}),
    (("transform", "--s", "2", "--", "--", "1.5"), {"expr": ["--", "1.5"], "s": 2.0}),
    (("transform", "--s", "2", "--"), "the following arguments are required: expr"),
    (("eval", "--n", "3", "--", "--x", "1"), "the following arguments are required: --x"),
    (("transform", "", "--alpha", ""), {"expr": [""], "alpha": ""}),
    (("eval", "--n", "", "--x", "1"), "argument --n: invalid int value: ''"),
    (("eval", "--n=--", "--x", "1"), "argument --n: invalid int value: '--'"),
    (("eval", "--n", "\u0663", "--x", "\u0661.\u0665"), {"n": 3, "x": 1.5}),
    (("verify",), {}),
    (("solve", "--n", "1", "--"), "unrecognized arguments: --"),
    (("--bogus", "solve", "--n", "1", "7"), "unrecognized arguments: --bogus 7"),
    (("solve", "--n"), "argument --n: expected one argument"),
    (("eval", "-hx"), "argument -h/--help: ignored explicit argument 'x'"),
    *[(argv, message[len("error: "):-1]) for argv, message in REJECTED_LINES.values()],
    ((), "the following arguments are required: command"),
    (("--", "eval"), "argument command: invalid choice: '--' "
                     "(choose from 'eval', 'table', 'transform', 'solve', 'verify')"),
]


def namespace(args) -> dict:
    """``vars(args)`` with each nan as a marker, so that nan equals nan."""
    return {k: "nan" if isinstance(v, float) and math.isnan(v) else v
            for k, v in vars(args).items()}


def test_the_exact_parser_gives_argparse_namespace_or_declines():
    for argv, want in EXACT_PARSES:
        try:
            got = namespace(cli._parse(argv))
        except ValueError as exc:
            got = str(exc)
        if isinstance(want, dict):
            _, _, options = cli._COMMANDS[argv[0]]
            want = namespace(SimpleNamespace(
                command=argv[0], handler=getattr(cli, f"_cmd_{argv[0]}"),
                **{name: default for name, _, default, _, _ in options} | want))
        assert got == want, (argv, got, want)


def eval_stdout(*argv) -> bytes:
    """The stdout of ``eval`` with ``argv``, run in process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["eval", *argv])
    assert code == 0, (argv, code)
    return out.getvalue().encode()


def test_eval_prints_the_recorded_bytes():
    sweep = b"".join(eval_stdout("--n", str(n), "--m", str(m), "--x", x)
                     for n in range(41) for m in range(5) for x in EVAL_POINTS)
    assert hashlib.sha256(sweep).hexdigest() == EVAL_SWEEP_DIGEST
    cap = eval_stdout(*EVAL_AT_THE_CAPS)
    assert hashlib.sha256(cap).hexdigest() == EVAL_AT_THE_CAPS_DIGEST


def test_closed_form_coefficients_up_to_the_caps():
    # 50 (n, m, r) up to cli.MAX_N and cli.MAX_M, the corners among them,
    # against (-1)**r * (n+m)! / ((n-r)! (r+m)! r!) in Fraction arithmetic
    rng, f = random.Random(38), math.factorial
    pairs = [(cli.MAX_N, cli.MAX_M), (cli.MAX_N, 0), (0, cli.MAX_M)]
    pairs += [(rng.randint(0, cli.MAX_N), rng.randint(0, cli.MAX_M)) for _ in range(7)]
    for n, m in pairs:
        coeffs = assoc_closed(n, m).coeffs
        for r in (0, n, *(rng.randint(0, n) for _ in range(3))):
            want = (-1) ** r * Fraction(f(n + m), f(n - r) * f(r + m) * f(r))
            assert coeffs[r] == want, (n, m, r)


def test_derivative_memo_survives_any_order_and_pickle():
    # orders asked in a shuffled sequence match the same orders on a fresh
    # twin, and a filled memo survives pickle at every protocol from 2 on
    rng = random.Random(19)
    for _ in range(40):
        f = random_exppoly(rng)
        for n in [rng.randint(0, 8) for _ in range(10)]:
            assert d_alpha_n(f, n) == d_alpha_n(ExpPoly(f.terms), n), (f, n)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            g = pickle.loads(pickle.dumps(f, protocol))
            assert g == f and hash(g) == hash(f), (f, protocol)
            assert all(d_alpha_n(g, n) == d_alpha_n(f, n) for n in range(10)), (f, protocol)


def test_every_route_builds_the_closed_form():
    # every other row of verify.ROUTES at n <= 80 and m <= 4, the Laplace
    # solve at m = 0 only: 81 * (3 * 5 + 1) comparisons
    assert verify.check_routes(80, range(5)) == 1296


def test_rodrigues_construction_equals_the_closed_form():
    # steps the weight exp(-u) on k!-scaled integers from n = 8 on
    assert verify.check_routes(80, range(5), ("Rodrigues",)) == 405


def test_solved_laplace_image_equals_the_binomial_expansion():
    for n in range(201):
        want = TransformExpr(((-1) ** k * math.comb(n, k), 0, k + 1) for k in range(n + 1))
        assert laguerre_transform(n) == want, n


def test_built_table_is_the_checked_record_of_the_per_point_recurrence():
    alphas = (0.25, 0.5, 1.0)
    table = build_table(6, 2, alphas, 0.5, 7.5, 30)
    assert type(table) is SampleTable and SampleTable(*table) == table
    assert len(table.values) == len(table.columns) == 4
    assert all(type(column) is tuple and len(column) == 30 for column in table.values)
    assert [x.hex() for x in table.values[0]] == [(0.5 + i * (7.0 / 29)).hex() for i in range(30)]
    rows = table.rows
    assert type(rows) is tuple and rows == tuple(zip(*table.values))
    for x, *got in rows:
        want = [laguerre_pair(6, 2, x**a / a)[0] for a in alphas]
        assert [v.hex() for v in got] == [v.hex() for v in want], (x, got, want)


def printed_forms() -> list[str]:
    """The forms that no golden pins: ``s_domain_equation(n)`` for n <= 40,
    and for 40 seeded images T (rates negative, fractional, zero and
    positive) the ``str`` of ``derivative_rule``, ``mul_s``, ``d_ds`` and
    ``shifted`` results, polynomial parts in s among them, the ``str`` and
    ``repr`` of T's inverse and of one polynomial part, and ``repr(T(s))``
    at an exact and a float s beyond every rate."""
    rng = random.Random(39)
    out = [s_domain_equation(n) for n in range(41)]
    for _ in range(40):
        T = transform(random_exppoly(rng, rates=RATES, max_degree=4))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        P = T.mul_s().mul_s()
        images = (derivative_rule(T, c), T.mul_s(), P, P.mul_s(), P.mul_s().d_ds(),
                  T.d_ds(rng.randint(1, 3)), T.shifted(c), P.mul_s().shifted(c))
        out += map(str, images)
        out += [str(inverse(T)), repr(inverse(T)), str(P.poly_part), repr(P.poly_part)]
        s = Fraction(rng.randint(5, 40), rng.randint(1, 4))
        out += [repr(V(x)) for V in (T, P) for x in (s, rng.uniform(1.5, 9.0))]
    return out


def test_printed_forms_give_the_recorded_bytes():
    forms = printed_forms()
    assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == PRINTED_FORMS_DIGEST


@contextlib.contextmanager
def views_refused():
    """``ReducedPoly.coeffs`` and ``ExpPoly.terms`` raise AssertionError
    when read, until the block ends."""
    def refuse(self):
        raise AssertionError(f"a view of {type(self).__name__} was read")
    views = [(cls, name, cls.__dict__[name])
             for cls, name in ((ReducedPoly, "coeffs"), (ExpPoly, "terms"))]
    try:
        for cls, name, _ in views:
            setattr(cls, name, property(refuse))
        yield
    finally:
        for cls, name, view in views:
            setattr(cls, name, view)


def test_printers_read_only_the_integer_blocks():
    # the pinned forms and ``solve --n 12`` print their recorded bytes with
    # no Fraction view built
    out = io.StringIO()
    with views_refused(), contextlib.redirect_stdout(out):
        forms = printed_forms()
        code = cli.main(["solve", "--n", "12"])
    assert code == 0, code
    assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == PRINTED_FORMS_DIGEST
    assert out.getvalue() == (GOLDEN / "solve_n12.txt").read_text()
