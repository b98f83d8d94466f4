"""Run tier-1's cross-version checks on every other Python the package declares.

Standard library only, so it runs where pytest is not installed; pytest
does not collect it.  Each check is written once, in one of the two
pytest-free test modules that tier-1 collects too:

* ``test_contract`` holds the CLI tables.  Each of their command lines runs
  here as ``python -m claguerre.cli``: the golden ``solve`` outputs, the
  negative-looking values in both spellings, the rejected lines with their
  error lines and the ``table`` digests.
  Its import-probe rows, and its rejected command line, run under
  ``python -S``.  Each of its ``test_*``
  functions runs as ``python -c "import test_contract;
  test_contract.<name>()"``.
* ``test_exact_golden`` gives the ``verify --scope all`` golden command and
  ``test_exact_results_digest``, run the same way.

Each script of ``demos/`` must also exit 0 and print the bytes it prints
under the interpreter that runs this script.

Usage::

    python3 tests/check_versions.py [PYTHON ...]

With no argument it runs the interpreters of ``VERSIONS`` found under
``$PYENV_ROOT/versions`` (default ``~/.pyenv/versions``) and reports the
ones that are missing.  It prints one line per check and exits 1 if any
check fails or no interpreter was found.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

VERSIONS = ("3.10.13", "3.12.1", "3.13.0")
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "golden"
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))),
           PYTHONDONTWRITEBYTECODE="1")

# The shared modules import claguerre from src/, and must leave no
# __pycache__ there: perfbench/run.py refuses to run over one.
sys.dont_write_bytecode = True
sys.path[1:1] = [str(SRC)]
import test_contract
import test_exact_golden


def run(python: str, args) -> subprocess.CompletedProcess:
    """``python`` with ``args``, with ``src/`` and ``tests/`` on its path."""
    return subprocess.run([python, *args], capture_output=True, env=ENV, cwd=TESTS.parent)


def failure(proc: subprocess.CompletedProcess, what: str = "") -> str:
    return f"{what}exit {proc.returncode}, stderr {proc.stderr[-300:]!r}"


def cli_case(argv, code: int, out: bytes, err: bytes):
    """A command line and the exit code, stdout and stderr it must give."""
    def judge(proc):
        ok = (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        return "" if ok else failure(proc)
    return " ".join(argv), ("-m", "claguerre.cli", *argv), judge


def digest_case(argv, digest: str):
    """A ``table`` command line and the SHA-256 of its stdout."""
    def judge(proc):
        ok = proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digest
        return "" if ok else failure(proc)
    return f"table {' '.join(argv)} digest", ("-m", "claguerre.cli", "table", *argv), judge


def shown(what) -> str:
    """A probe row's command line or statement, as printed."""
    return what if isinstance(what, str) else " ".join(what)


def probe_case(name: str, what, check):
    """One import probe of ``what``, whose output ``check`` asserts on."""
    def judge(proc):
        try:
            check(proc.stdout.decode())
        except (AssertionError, IndexError, ValueError) as exc:  # no or bad output
            return failure(proc, f"{exc!r}, ")
        return ""
    return f"-S {shown(what)} {name}", test_contract.probe_args(what), judge


def loads_case(what, expected: set):
    """One import-probe row of ``test_contract.LOADED_BY``."""
    loads, absent = sorted(expected), ["dataclasses", "inspect", "typing"]
    helps = test_contract.asks_for_help(what)
    if "alpha_calc" not in expected:
        absent += ["fractions", "decimal"] + ([] if helps else ["re"])
    if helps:
        loads.append("argparse")
    else:
        absent += ["argparse", "shutil"]
    name = f"loads {', '.join(loads)} and no {', '.join(absent)}"
    return probe_case(name, what, lambda out: test_contract.assert_loads(out, what, expected))


def call_case(module, name: str):
    """One fixture-free test function, called by name."""
    call = f"{module.__name__}.{name}"
    return call, ("-c", f"import {module.__name__}; {call}()"), (
        lambda proc: "" if proc.returncode == 0 else failure(proc))


@cache
def reference(demo: Path) -> subprocess.CompletedProcess:
    return run(sys.executable, [str(demo)])


def demo_case(demo: Path):
    """A demo prints the bytes it prints under this script's interpreter."""
    def judge(proc):
        want = reference(demo)
        ok = proc.returncode == want.returncode == 0 and proc.stdout == want.stdout
        return "" if ok else failure(proc, f"exit {want.returncode} here, ")
    return (f"demo {demo.name} prints the bytes of Python {sys.version.split()[0]}",
            (str(demo),), judge)


def cases():
    """Every check as (name, interpreter arguments, judge), where ``judge``
    gives "" for a run that passes and the failure otherwise.  Building the
    list starts no process."""
    golden = [(("solve", "--n", str(n)), f"solve_n{n}.txt") for n in test_contract.SOLVE_GOLDEN_N]
    for argv, name in [*golden, (test_exact_golden.VERIFY_ALL, "verify_all.txt")]:
        yield cli_case(argv, 0, (GOLDEN / name).read_bytes(), b"")
    for argv, message in test_contract.NEGATIVE_LOOKING.values():
        for spelling in test_contract.spellings(argv):
            yield cli_case(spelling, 2, b"", message.encode())
    for argv, message in test_contract.REJECTED_LINES.values():
        yield cli_case(argv, 2, b"", message.encode())
    for argv, digest in test_contract.TABLE_DIGESTS:
        yield digest_case(argv, digest)
    for what, expected in test_contract.LOADED_BY.values():
        yield loads_case(what, expected)
    yield probe_case("exits 2 and loads no library module, re, argparse or shutil",
                     test_contract.REJECTED, test_contract.assert_rejected_loads)
    for name in vars(test_contract):
        if name.startswith("test_"):
            yield call_case(test_contract, name)
    yield call_case(test_exact_golden, "test_exact_results_digest")
    for demo in DEMOS:
        yield demo_case(demo)


def check(python: str) -> int:
    """Run every check under one interpreter; the number that failed."""
    version = run(python, ["-c", "import sys; print(sys.version.split()[0])"])
    version = version.stdout.decode().strip()
    failed = 0
    for name, args, judge in cases():
        detail = judge(run(python, args))
        failed += bool(detail)
        print(f"FAIL {version} {name} ({detail})" if detail else f"PASS {version} {name}")
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
    failed = sum(check(python) for python in pythons)
    print(f"{'all checks passed' if not failed else f'{failed} checks failed'}"
          f" on {len(pythons)} interpreters")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
