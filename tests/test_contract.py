"""The checks that tier-1 and ``tests/check_versions.py`` both run.

Pytest collects the ``test_*`` functions here.  ``check_versions`` imports
the tables and runs each ``test_*`` function by name under every other
Python the package declares.  So this module imports no pytest, and its
tests take no fixtures.
"""

import json
import math
import pickle
import random

from claguerre import cli, verify
from claguerre.alpha_calc import ExpPoly, d_alpha_n
from claguerre.laplace import TransformExpr, laguerre_transform
from claguerre.recurrence import laguerre_pair
from claguerre.tables import SampleTable, build_table
from claguerre.verify import random_exppoly

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

# argparse's own pattern for negative numbers misses exponents, -inf and -nan;
# each of these command lines must reach the command's own check and end with
# exit 2, no stdout and this one line on stderr, in every spelling.
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


def spellings(argv):
    """``argv``, and its ``--option=value`` form when it ends in an option."""
    yield argv
    *head, option, value = argv
    if option.startswith("--"):
        yield (*head, f"{option}={value}")


# What each command line (a tuple) or Python statement (a string) loads in a
# fresh interpreter: the claguerre modules beyond ``claguerre`` and, for a
# command line, ``claguerre.cli``.  A row without ``alpha_calc`` is float
# work and loads neither ``fractions`` nor ``decimal``.  Only a help request
# loads ``argparse``; no other row loads it or ``shutil``.
LOADED_BY = {
    "eval": (("eval", "--n", "3", "--x", "1.5"), {"alpha_calc", "laguerre", "recurrence"}),
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
# which of the heavy, the exact-arithmetic and the argument-parsing modules.
IMPORT_PROBE = """\
import json, sys
try:
    if sys.argv[1] == "-c":
        exec(sys.argv[2])
        code = 0
    else:
        import claguerre.cli
        code = claguerre.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "claguerre"),
                  [m for m in ("dataclasses", "inspect", "typing") if m in sys.modules],
                  [m for m in ("decimal", "fractions") if m in sys.modules],
                  [m for m in ("argparse", "shutil") if m in sys.modules]]))
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
        assert exact == [], exact
    if asks_for_help(what):
        assert "argparse" in parsing, parsing
    else:
        assert parsing == [], parsing


# A rejected command line loads no library module; argparse, which words
# the error, loads for it.
REJECTED = ("eval", "--n", "abc", "--x", "1")


def assert_rejected_loads(stdout):
    """The probe's output for ``REJECTED`` shows exit 2 and only argparse."""
    code, loaded, heavy, _, parsing = json.loads(stdout.splitlines()[-1])
    assert code == 2, code
    assert loaded == ["claguerre", "claguerre.cli"], loaded
    assert heavy == [], heavy
    assert "argparse" in parsing, parsing


# Command lines for the parser that skips argparse, each with whether it
# accepts the line.  An accepted line must give argparse's namespace; a
# declined one is left to argparse, whose parsing differs between versions.
EXACT_PARSES = [
    *[(spelling, len(spelling) == len(argv))
      for argv, _ in NEGATIVE_LOOKING.values() for spelling in spellings(argv)],
    (("eval", "--n=3", "--x", "1"), False),
    (("table", "--n", "3", "--sam", "5"), False),
    (("table", "--n", "3", "--samples", "5"), True),
    (("eval", "--n", "3", "--x", "1", "--n", "4"), False),
    (("transform", "sin_wu", "--s", "2", "1.5"), False),
    (("transform", "sin_wu", "1.5", "--s", "2"), True),
    (("transform", "-h"), False),
    (("eval", "-h"), False),
    (("eval", "--n", "3", "--", "--x", "1"), False),
    (("transform", "", "--alpha", ""), True),
    (("eval", "--n", "", "--x", "1"), False),
    (("eval", "--n", "\u0663", "--x", "\u0661.\u0665"), True),
    (("verify",), True),
    (("solve", "--n"), False),
    (("eval", "--x", "1"), False),
    ((), False),
    (("bogus",), False),
]


def namespace(args) -> dict:
    """``vars(args)`` with each nan as a marker, so that nan equals nan."""
    return {k: "nan" if isinstance(v, float) and math.isnan(v) else v
            for k, v in vars(args).items()}


def test_the_exact_parser_gives_argparse_namespace_or_declines():
    for argv, accepted in EXACT_PARSES:
        got = cli._parse_exact(argv)
        assert (got is not None) == accepted, argv
        if accepted:
            want = cli._build_parser().parse_args(argv)
            assert namespace(got) == namespace(want), (argv, vars(got), vars(want))


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
