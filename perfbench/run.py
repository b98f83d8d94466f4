"""claguerre benchmark: one workload run, one JSON result line.

    python3 perfbench/run.py --workload {exact-core,table-sweep,cli-mix}
                             --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh interpreter
(perfbench/worker.py), so its memory peak and warm state are its own.  With
``--trace 0`` the last line of stdout carries every end-to-end metric that
BENCHMARK.json declares, its times scaled to nominal machine speed (see
reference.py); with ``--trace 1`` every per-layer metric.  The line before
it is a JSON context record: Python version, CPU count, interpreter start
time, bytecode policy, the raw timings and the digest of the inputs run;
for table-sweep and cli-mix also the known float defects that their input
ranges stay clear of (defects.py).

Bytecode policy, the same on every commit: every interpreter the benchmark
starts gets PYTHONDONTWRITEBYTECODE=1, PYTHONHASHSEED=0, PYTHONPATH=src and
no other PYTHON* variable, so claguerre is compiled from source on each
import and no __pycache__ is written into src/.  A run refuses to start if
one is there already, since stale bytecode would skip that compilation.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = REPO / "BENCHMARK.json"
SRC = REPO / "src"
WORKER = HERE / "worker.py"
DEFECTS = HERE / "defects.py"
WORKLOADS = ("exact-core", "table-sweep", "cli-mix")
SETUP_SAMPLES = 5  # the measuring worker plus four set-up-only workers
PROBES = 5  # interpreter-start and import probes, median taken
WORKER_TIMEOUT = 170.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import claguerre.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def start_worker(args, env: dict, setup_only: bool) -> tuple[float, str]:
    """Spawn a worker; return its set-up time and, unless ``setup_only``,
    its result line."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=REPO, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(WORKER_TIMEOUT, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {ready.strip()!r}")
    return setup_s, rest.strip().splitlines()[-1] if rest.strip() else ""


def probe_ms(cmd: list[str], env: dict) -> float:
    """Median wall time of PROBES runs of ``cmd``, in ms."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=REPO, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def import_ms(env: dict) -> float:
    """Median time to import claguerre.cli in a fresh interpreter, in ms."""
    times = []
    for _ in range(PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=REPO,
                              check=True, capture_output=True, text=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times) * 1e3


def known_defects(seed: int, env: dict) -> dict:
    """Failed shares of the float defects above workloads.FLOAT_MAX_N."""
    proc = subprocess.run([sys.executable, str(DEFECTS), "--seed", str(seed)], env=env,
                          cwd=REPO, check=True, capture_output=True, text=True, timeout=60)
    return json.loads(proc.stdout)


def declared_metrics(section: str) -> list[dict]:
    return json.loads(SPEC.read_text())[section]


def run(args) -> tuple[dict, dict]:
    if not (SRC / "claguerre" / "__init__.py").is_file():
        raise BenchError(f"no claguerre sources under {SRC}")
    if (SRC / "claguerre" / "__pycache__").exists():
        raise BenchError("src/claguerre/__pycache__ exists; remove it so imports "
                         "compile from source as the bytecode policy requires")
    # Every process of the run inherits this one CPU, so the reference
    # kernel times the CPU that the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    start_ms = probe_ms([sys.executable, "-c", "pass"], env)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "cli.python_start_ms": start_ms,
        "bytecode": "compiled from source on import, never written",
    }
    if args.trace:
        computed = {"cli.python_start_ms": start_ms, "cli.import_ms": import_ms(env)}
        section = "per_layer"
    else:
        computed = {}
        section = "end_to_end"
        setup, refs = [], []
        for _ in range(SETUP_SAMPLES - 1):
            refs.extend(reference.sample(4))
            setup.append(start_worker(args, env, setup_only=True)[0])
        refs.extend(reference.sample(4))
    setup_s, line = start_worker(args, env, setup_only=False)
    result = json.loads(line)
    computed.update(result["metrics"])
    context.update(result["context"])
    if args.workload in ("table-sweep", "cli-mix"):
        context["known_defects"] = known_defects(args.seed, env)
    if not args.trace:
        setup.append(setup_s)
        computed["setup_s"] = statistics.median(setup) * reference.scale(refs)
        context["raw"]["setup_s"] = statistics.median(setup)
        context["setup_samples_s"] = setup
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": assemble(section, computed, context),
    }
    return context, summary


def assemble(section: str, computed: dict, context: dict) -> dict:
    """Every metric BENCHMARK.json declares for ``section``, with its unit.

    A missing end-to-end metric is an error.  A per-layer metric the trace
    did not produce, such as a suite that a later commit renamed, reads 0
    and is listed in the context under ``not_measured``.
    """
    metrics = {}
    for metric in declared_metrics(section):
        name = metric["name"]
        if name not in computed:
            if section == "end_to_end":
                raise BenchError(f"metric {name} was not measured")
            context.setdefault("not_measured", []).append(name)
        metrics[name] = {"value": computed.get(name, 0), "unit": metric["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="claguerre benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        context, summary = run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
