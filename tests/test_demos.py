import os
import subprocess
import sys
from pathlib import Path

import pytest

from claguerre.integrate import _PAIRS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    assert _run(script).strip()


def test_transform_demo_covers_every_named_pair():
    out = _run(ROOT / "demos" / "03_transform_solve.py")
    assert {line.split()[0] for line in out.splitlines() if " at s=" in line} == set(_PAIRS)
