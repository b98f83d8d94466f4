"""Check the CLI's recorded outputs on every Python the package declares.

Standard library only, so it runs where pytest is not installed; pytest
does not collect it.  For each interpreter it runs ``python -m
claguerre.cli`` from ``src/`` and compares:

* ``solve --n {0,1,5,12,40}`` and ``verify --scope all`` with their golden
  files in ``tests/golden/``;
* the cases of ``test_cli.TestNegativeLookingValues`` (read from that file,
  so they are written once), both as ``--opt value`` and ``--opt=value``:
  exit 2, empty stdout and the one-line message on stderr;
* the SHA-256 of the stdout of each ``table`` command of
  ``test_cli._TABLE_DIGESTS`` with the digest recorded there;
* each command of ``test_cli.TestImports``' table, run under ``-S`` (no
  site hook) through that class's import probe: exit 0, exactly the
  claguerre modules the table lists, none of ``dataclasses``, ``inspect``
  or ``typing`` in ``sys.modules`` afterwards, and, for a command that
  loads no ``alpha_calc``, neither ``fractions`` nor ``decimal``;
* ``import claguerre.tables`` under ``-S`` through ``test_cli._TABLES_PROBE``:
  it loads the claguerre modules of ``test_cli._TABLES_LOADS``, the float
  layer and ``tables``, and neither ``fractions`` nor ``decimal``;
* the SHA-256 of ``exact_results()`` from ``test_exact_golden.py``, which
  needs no pytest, with ``golden/exact_results.sha256``;
* the derivative memo of ``ExpPoly`` (``MEMO``): orders asked in a shuffled
  sequence match the same orders on a fresh twin, and an ExpPoly with a
  filled memo survives ``pickle`` at every protocol from 2 on;
* the Rodrigues construction (``RODRIGUES``), which steps the weight
  exp(-u) on k!-scaled integers: ``laguerre_rodrigues(n)`` equals
  ``laguerre_closed(n)`` for n <= 80 and ``assoc_rodrigues(n, m)`` equals
  ``assoc_closed(n, m)`` for n <= 40, m <= 4;
* the Laplace image (``TRANSFORM``), solved from the s-domain equation:
  ``laguerre_transform(n)`` equals the binomial expansion
  sum_k (-1)**k C(n, k) / s**(k+1) for n <= 200;
* the sample table record (``RECORD``): a built table survives the public
  constructor unchanged, holds one tuple per column, and its ``rows``, read
  back from the columns, are the per-point ``laguerre_pair`` values bit for
  bit;
* each script of ``demos/``: exit 0 and the stdout bytes of the same demo
  run under the interpreter that runs this script.

Usage::

    python3 tests/check_versions.py [PYTHON ...]

With no argument it runs the interpreters of ``VERSIONS`` found under
``$PYENV_ROOT/versions`` (default ``~/.pyenv/versions``) and reports the
ones that are missing.  It prints one line per check and exits 1 if any
check fails or no interpreter was found.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

VERSIONS = ("3.10.13", "3.12.1", "3.13.0")
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "golden"
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))
DIGEST = (
    "import hashlib, test_exact_golden as t; "
    "print(hashlib.sha256('\\n'.join(t.exact_results()).encode()).hexdigest())"
)
MEMO = """
import pickle, random
from claguerre.alpha_calc import ExpPoly, d_alpha_n
from claguerre.verify import random_exppoly
rng = random.Random(19)
checked = 0
for _ in range(40):
    f = random_exppoly(rng)
    orders = [rng.randint(0, 8) for _ in range(10)]
    for n in orders:
        assert d_alpha_n(f, n) == d_alpha_n(ExpPoly(f.terms), n), (f, n)
        checked += 1
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        g = pickle.loads(pickle.dumps(f, protocol))
        assert g == f and hash(g) == hash(f), (f, protocol)
        assert all(d_alpha_n(g, n) == d_alpha_n(f, n) for n in range(10)), (f, protocol)
        checked += 1
print(checked)
"""
RODRIGUES = """
from claguerre.laguerre import assoc_closed, assoc_rodrigues, laguerre_closed, laguerre_rodrigues
checked = 0
for n in range(81):
    assert laguerre_rodrigues(n) == laguerre_closed(n), n
    checked += 1
for n in range(41):
    for m in range(5):
        assert assoc_rodrigues(n, m) == assoc_closed(n, m), (n, m)
        checked += 1
print(checked)
"""
TRANSFORM = """
import math
from claguerre.laplace import TransformExpr, laguerre_transform
for n in range(201):
    want = TransformExpr(((-1) ** k * math.comb(n, k), 0, k + 1) for k in range(n + 1))
    assert laguerre_transform(n) == want, n
print(n + 1)
"""
RECORD = """
from claguerre.laguerre import laguerre_pair
from claguerre.tables import SampleTable, build_table
alphas = (0.25, 0.5, 1.0)
table = build_table(6, 2, alphas, 0.5, 7.5, 30)
assert SampleTable(*table) == table
assert all(type(column) is tuple for column in table.values)
rows = table.rows
assert rows == tuple(zip(*table.values)) and len(rows) == 30
for x, *got in rows:
    want = [laguerre_pair(6, 2, x**a / a)[0] for a in alphas]
    assert [v.hex() for v in got] == [v.hex() for v in want], (x, got, want)
print(len(rows))
"""


def negative_looking_cases() -> list[tuple[tuple[str, ...], str]]:
    """The (argv, message) table of ``TestNegativeLookingValues``."""
    tree = ast.parse((TESTS / "test_cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "TestNegativeLookingValues":
            for item in node.body:
                for deco in getattr(item, "decorator_list", ()):
                    if isinstance(deco, ast.Call) and deco.args[:1] and (
                        ast.literal_eval(deco.args[0]) == "argv, message"
                    ):
                        return ast.literal_eval(deco.args[1])
    raise LookupError("TestNegativeLookingValues cases not found in test_cli.py")


def cli_test_literal(name: str):
    """The literal value of a module-level constant of ``test_cli.py``."""
    tree = ast.parse((TESTS / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in test_cli.py")


def import_probe() -> tuple[str, list[tuple[tuple[str, ...], set[str]]]]:
    """The probe script of ``TestImports`` and its (command line, claguerre
    submodules it loads) table."""
    return cli_test_literal("_IMPORT_PROBE"), cli_test_literal("_LOADED_BY")


def expectations():
    """(name, argv, exit code, stdout, stderr) for every check."""
    for n in (0, 1, 5, 12, 40):
        golden = (GOLDEN / f"solve_n{n}.txt").read_text()
        yield f"solve --n {n}", ("solve", "--n", str(n)), 0, golden, ""
    golden = (GOLDEN / "verify_all.txt").read_text()
    yield "verify --scope all", ("verify", "--scope", "all"), 0, golden, ""
    for argv, message in negative_looking_cases():
        yield " ".join(argv), tuple(argv), 2, "", message
        *head, option, value = argv
        if option.startswith("--"):
            joined = (*head, f"{option}={value}")
            yield " ".join(joined), joined, 2, "", message


def run_demo(python: str, demo: Path) -> subprocess.CompletedProcess:
    """One demo script under ``python``, from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([python, str(demo)], capture_output=True, env=env,
                          cwd=TESTS.parent)


def check(python: str, demos: dict) -> int:
    """Run every check under one interpreter; the number that failed.
    ``demos`` maps each demo to its run under this script's interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    version = subprocess.run(
        [python, "-c", "import sys; print(sys.version.split()[0])"],
        capture_output=True, text=True, env=env,
    ).stdout.strip()
    failed = 0
    for name, argv, code, out, err in expectations():
        run = subprocess.run(
            [python, "-m", "claguerre.cli", *argv],
            capture_output=True, text=True, env=env, cwd=SRC,
        )
        ok = (run.returncode, run.stdout, run.stderr) == (code, out, err)
        failed += not ok
        detail = "" if ok else f" (exit {run.returncode}, stderr {run.stderr[-200:]!r})"
        print(f"{'PASS' if ok else 'FAIL'} {version} {name}{detail}")
    for argv, digest in cli_test_literal("_TABLE_DIGESTS"):
        run = subprocess.run(
            [python, "-m", "claguerre.cli", "table", *argv],
            capture_output=True, env=env, cwd=SRC,
        )
        ok = run.returncode == 0 and hashlib.sha256(run.stdout).hexdigest() == digest
        failed += not ok
        detail = "" if ok else f" (exit {run.returncode}, stderr {run.stderr[-200:]!r})"
        print(f"{'PASS' if ok else 'FAIL'} {version} table {' '.join(argv)} digest{detail}")
    probe, commands = import_probe()
    for argv, expected in commands:
        run = subprocess.run(
            [python, "-S", "-c", probe, *argv],
            capture_output=True, text=True, env=env, cwd=SRC,
        )
        # The probe prints [exit code, modules before, after, heavy modules,
        # exact-arithmetic modules].
        got = json.loads(run.stdout.splitlines()[-1]) if run.returncode == 0 else None
        want = sorted(["claguerre", "claguerre.cli", *(f"claguerre.{m}" for m in expected)])
        ok = got is not None and got[0] == 0 and got[2] == want and got[3] == [] and (
            "alpha_calc" in expected or got[4] == [])
        failed += not ok
        detail = "" if ok else f" (probe {got}, stderr {run.stderr[-200:]!r})"
        exact = "" if "alpha_calc" in expected else ", fractions, decimal"
        print(f"{'PASS' if ok else 'FAIL'} {version} -S {' '.join(argv)} loads "
              f"{', '.join(sorted(expected))} and no dataclasses, inspect, typing"
              f"{exact}{detail}")
    run = subprocess.run(
        [python, "-S", "-c", cli_test_literal("_TABLES_PROBE")],
        capture_output=True, text=True, env=env, cwd=SRC,
    )
    got = json.loads(run.stdout) if run.returncode == 0 else None
    ok = got == cli_test_literal("_TABLES_LOADS")
    failed += not ok
    detail = "" if ok else f" (probe {got}, stderr {run.stderr[-200:]!r})"
    print(f"{'PASS' if ok else 'FAIL'} {version} -S import claguerre.tables loads only "
          f"the float layer{detail}")
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(TESTS)))
    run = subprocess.run([python, "-c", DIGEST], capture_output=True, text=True, env=env)
    ok = run.stdout.strip() == (GOLDEN / "exact_results.sha256").read_text().strip()
    failed += not ok
    detail = "" if ok else f" (got {run.stdout.strip()!r}, stderr {run.stderr[-200:]!r})"
    print(f"{'PASS' if ok else 'FAIL'} {version} exact_results digest{detail}")
    # Each script prints the number of things it checked.
    for script, name, unit in (
        (MEMO, "derivative memo and pickle", "checks"),
        (RODRIGUES, "Rodrigues construction equals the closed form", "checks"),
        (TRANSFORM, "solved Laplace image equals the binomial expansion", "checks"),
        (RECORD, "sample table columns and rows", "rows"),
    ):
        run = subprocess.run([python, "-c", script], capture_output=True, text=True, env=env)
        ok = run.returncode == 0 and run.stdout.strip().isdigit()
        failed += not ok
        detail = f" ({run.stdout.strip()} {unit})" if ok else f" (stderr {run.stderr[-200:]!r})"
        print(f"{'PASS' if ok else 'FAIL'} {version} {name}{detail}")
    for demo, want in demos.items():
        run = run_demo(python, demo)
        ok = run.returncode == want.returncode == 0 and run.stdout == want.stdout
        failed += not ok
        detail = "" if ok else (f" (exit {run.returncode} vs {want.returncode}, "
                                f"stderr {run.stderr[-200:]!r})")
        print(f"{'PASS' if ok else 'FAIL'} {version} demo {demo.name} prints the bytes "
              f"of Python {sys.version.split()[0]}{detail}")
    return failed


def main(argv: list[str]) -> int:
    pythons = list(argv)
    if not pythons:
        root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
        for version in VERSIONS:
            python = root / version / "bin" / "python3"
            if python.exists():
                pythons.append(str(python))
            else:
                print(f"MISSING {version}: no {python}")
    if not pythons:
        print("no interpreter to check")
        return 1
    demos = {demo: run_demo(sys.executable, demo) for demo in DEMOS}
    failed = sum(check(python, demos) for python in pythons)
    print(f"{'all checks passed' if not failed else f'{failed} checks failed'}"
          f" on {len(pythons)} interpreters")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
