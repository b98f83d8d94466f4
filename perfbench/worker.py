"""One workload run in its own interpreter, started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1 [--setup-only]

The worker imports what the workload needs and generates its first block
of inputs, then prints ``READY``; run.py times set-up from spawn to that
line.  It then runs whole blocks of ops, one at a time (a closed loop with
one caller), until ``--seconds`` have passed and at least MIN_OPS ops ran,
and prints one JSON line with the results.

With ``--trace 1`` it runs every block twice, untraced and with the tracer
installed, and reports the per-layer totals of the traced runs and the
ratio of the traced to the untraced op time.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_build" / "perfbench"
BOOTSTRAP = HERE / "cli_bootstrap.py"
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
MAX_FAILURE_NOTES = 3


def make_workload(name: str, seed: int):
    if name == "exact-core":
        return workloads.ExactCore(seed)
    if name == "table-sweep":
        return workloads.TableSweep(seed)
    if name == "cli-mix":
        return workloads.CliMix(seed, dict(os.environ))
    raise SystemExit(f"unknown workload {name!r}")


class Pass:
    """Per-op times and outcomes of a run of whole blocks."""

    def __init__(self):
        self.times: list[float] = []  # wall time of each op
        self.scaled: list[float] = []  # the same at nominal machine speed
        self.refs: list[float] = []  # reference kernel times
        self.failed = 0
        self.blocks = 0
        self.digest = hashlib.sha256()
        self.failed_by_kind: dict[str, int] = {}
        self.notes = 0

    def note_failure(self, spec: dict, detail: str) -> None:
        self.failed += 1
        kind = spec.get("kind") or spec.get("cmd") or "table"
        self.failed_by_kind[kind] = self.failed_by_kind.get(kind, 0) + 1
        if self.notes < MAX_FAILURE_NOTES:
            self.notes += 1
            print(f"failed op {json.dumps(spec, sort_keys=True)}: {detail}", file=sys.stderr)


def run_block(workload, b: int, done: Pass, tracer=None) -> None:
    """Run block ``b`` one op at a time, timing each op and checking it after."""
    clock = time.perf_counter
    first = len(done.times)
    refs = []
    for spec in workload.block(b):
        done.digest.update(json.dumps(spec, sort_keys=True).encode())
        call, check = workload.prepare(spec)
        op = call if tracer is None else (lambda call=call: tracer.root(call))
        error = None
        t0 = clock()
        try:
            result = op()
        except Exception as exc:  # a program error fails the op; the run goes on
            error = exc
        done.times.append(clock() - t0)
        refs.extend(reference.sample())
        if error is not None:
            done.note_failure(spec, f"{type(error).__name__}: {error}")
            continue
        try:
            ok = check(result)
        except Exception as exc:  # unparsable output fails the op
            done.note_failure(spec, f"check raised {type(exc).__name__}: {exc}")
            continue
        if not ok:
            done.note_failure(spec, "output differs from the oracle")
    factor = reference.scale(refs)
    done.scaled.extend(t * factor for t in done.times[first:])
    done.refs.extend(refs)
    done.blocks += 1


def latency_metrics(times: list[float]) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def end_to_end(workload, seconds: float, min_ops: int = MIN_OPS) -> dict:
    """Run whole blocks until ``seconds`` have passed and ``min_ops`` ops ran."""
    done = Pass()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(done.times) < min_ops:
        run_block(workload, done.blocks, done)
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli-mix" else resource.RUSAGE_SELF
    metrics = latency_metrics(done.scaled)
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    return {
        "attempted": len(done.times),
        "failed": done.failed,
        "metrics": metrics,
        "context": {
            "raw": latency_metrics(done.times),
            "reference_median_ms": statistics.median(done.refs) * 1e3,
            "op_samples": len(done.times),
            "blocks": done.blocks,
            "inputs_sha256": done.digest.hexdigest(),
            "failed_by_kind": done.failed_by_kind,
        },
    }


def traced(workload, seconds: float) -> dict:
    """Run each block twice, untraced and traced, taking turns at going
    first, until half of ``seconds`` has passed.  Alternating keeps drifts
    in machine speed and warm-up out of the overhead ratio."""
    tracer = Tracer()
    plain, done = Pass(), Pass()
    cli = workload.name == "cli-mix"
    if cli:
        WORK.mkdir(parents=True, exist_ok=True)
        workload.spans_dir = tempfile.mkdtemp(dir=WORK)
    start = time.perf_counter()
    try:
        while plain.blocks == 0 or time.perf_counter() - start < seconds / 2:
            b = plain.blocks
            for tracing in (False, True) if b % 2 == 0 else (True, False):
                if not tracing:
                    run_block(workload, b, plain)
                elif cli:
                    workload.bootstrap = str(BOOTSTRAP)
                    try:
                        run_block(workload, b, done)
                    finally:
                        workload.bootstrap = None
                else:
                    restore = install(tracer)
                    try:
                        run_block(workload, b, done, tracer)
                    finally:
                        restore()
        if cli:
            for path in sorted(Path(workload.spans_dir).iterdir()):
                tracer.merge(json.loads(path.read_text()))
    finally:
        if cli:
            shutil.rmtree(workload.spans_dir)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(done.times) / sum(plain.times)
    failed_by_kind = dict(plain.failed_by_kind)
    for kind, count in done.failed_by_kind.items():
        failed_by_kind[kind] = failed_by_kind.get(kind, 0) + count
    return {
        "attempted": len(plain.times) + len(done.times),
        "failed": plain.failed + done.failed,
        "metrics": metrics,
        "context": {
            "blocks": plain.blocks,
            "inputs_sha256": done.digest.hexdigest(),
            "failed_by_kind": failed_by_kind,
            "traced_root_spans": tracer.root_calls,
            "not_traced": tracer.missing,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = make_workload(args.workload, args.seed)
    workload.block(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = traced(workload, args.seconds) if args.trace else end_to_end(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
