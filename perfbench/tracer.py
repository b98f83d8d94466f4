"""Span tracing of calls into claguerre from outside the package.

``install`` replaces the public functions and methods of each layer with
wrappers, in the defining module and in every module that imported the
name, and replaces the ``verify.SUITES`` runners so each suite gets its own
span.  Nothing inside ``src/`` changes on disk.

A traced run makes millions of calls into the exact core, so the tracer
keeps an in-memory span stack and folds each closed span into per-name
totals (calls, inclusive time, self time) instead of logging it; the
totals are written out once, when the run ends.  Wrappers only record
while a root span is open, so input preparation and the oracle checks,
which run between root spans, never count as library work.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute path, span name, mode); "timed" records calls,
# inclusive and self time, "count" only counts calls, for the methods hot
# enough that timing them would dominate the run.
TARGETS = (
    ("alpha_calc", "ReducedPoly.__mul__", "alpha_calc.ReducedPoly.mul", "timed"),
    ("alpha_calc", "ReducedPoly.__add__", "alpha_calc.ReducedPoly.add", "count"),
    ("alpha_calc", "ReducedPoly.__init__", "alpha_calc.ReducedPoly.new", "count"),
    ("alpha_calc", "ReducedPoly.eval", "alpha_calc.ReducedPoly.eval", "timed"),
    ("alpha_calc", "ExpPoly.__mul__", "alpha_calc.ExpPoly.mul", "timed"),
    ("alpha_calc", "ExpPoly.d_alpha", "alpha_calc.ExpPoly.d_alpha", "timed"),
    ("alpha_calc", "d_alpha_n", "alpha_calc.d_alpha_n", "timed"),
    ("alpha_calc", "x_view_str", "alpha_calc.x_view_str", "timed"),
    ("laguerre", "laguerre_rodrigues", "laguerre.laguerre_rodrigues", "timed"),
    ("laguerre", "assoc_rodrigues", "laguerre.assoc_rodrigues", "timed"),
    ("laguerre", "generating_series", "laguerre.generating_series", "timed"),
    ("laguerre", "laguerre_closed", "laguerre.laguerre_closed", "timed"),
    ("laguerre", "assoc_closed", "laguerre.assoc_closed", "timed"),
    ("laguerre", "ode_residual", "laguerre.ode_residual", "timed"),
    ("laplace", "transform", "laplace.transform", "timed"),
    ("laplace", "inverse", "laplace.inverse", "timed"),
    ("laplace", "laguerre_transform", "laplace.laguerre_transform", "timed"),
    ("laplace", "s_domain_residual", "laplace.s_domain_residual", "timed"),
    ("laplace", "solve_laguerre_ode", "laplace.solve_laguerre_ode", "timed"),
    ("laplace", "transform_named", "laplace.transform_named", "timed"),
    ("laplace", "TransformExpr.__init__", "laplace.TransformExpr.new", "count"),
    ("integrate", "gauss_laguerre", "integrate.gauss_laguerre", "timed"),
    ("integrate", "quad_transform", "integrate.quad_transform", "timed"),
    ("integrate", "quad_dalpha", "integrate.quad_dalpha", "timed"),
    ("integrate", "orthonormality", "integrate.orthonormality", "timed"),
    ("integrate", "moment_exact", "integrate.moment_exact", "timed"),
    ("tables", "build_table", "tables.build_table", "timed"),
    ("tables", "SampleTable.to_csv", "tables.SampleTable.to_csv", "timed"),
    ("verify", "run_suites", "verify.run_suites", "timed"),
)

CLI_COMMANDS = ("eval", "table", "transform", "solve", "verify")
ROWS = "tables.rows"


class Tracer:
    """In-memory span stack with per-name totals."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, int] = {ROWS: 0}
        self.root_calls = 0
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.missing: list[str] = []  # targets absent from the program
        self._stack: list[float] = []  # child time of each open span
        for command in CLI_COMMANDS:
            self._entry(f"cli.main.{command}")

    def _entry(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def root(self, fn):
        """Run ``fn()`` as a root span, the unit that the wrappers record in."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            self.root_calls += 1
            self.root_s += dt
            self.root_self_s += dt - child

    def timed(self, name: str, fn, on_result=None):
        stats = self._entry(name)
        stack = self._stack
        clock = time.perf_counter
        depth = [0]  # open activations of this name, so recursion counts once

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            stack.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                child = stack.pop()
                stats[0] += 1
                stats[2] += dt - child
                if not depth[0]:
                    stats[1] += dt
                stack[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        stats = self._entry(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:
                stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_rows(self, table) -> None:
        self.counters[ROWS] += len(table.rows)

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "root": [self.root_calls, self.root_s, self.root_self_s],
            "missing": self.missing,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)

    def merge(self, summary: dict) -> None:
        """Add the totals another process wrote with :meth:`write`."""
        for name, (calls, incl, self_s) in summary["stats"].items():
            entry = self._entry(name)
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for name, value in summary["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        calls, incl, self_s = summary["root"]
        self.root_calls += calls
        self.root_s += incl
        self.root_self_s += self_s
        self.missing.extend(m for m in summary["missing"] if m not in self.missing)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counters)
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = incl * 1e3
            out[f"{name}.self_ms"] = self_s * 1e3
        return out


def _replace_everywhere(modules, owner, attr, original, wrapper, undo) -> None:
    """Point every reference to ``original`` at ``wrapper``: the attribute
    on its owner and any module-level alias made by ``from ... import``."""
    for holder in (owner, *modules):
        for name, value in list(vars(holder).items()):
            if value is original:
                undo.append((holder, name, value))
                setattr(holder, name, wrapper)


def install(tracer: Tracer, cli_command: str | None = None):
    """Wrap every layer's public entry points; return a function that undoes it.

    With ``cli_command`` set, ``cli.main`` is also wrapped as the span
    ``cli.main.<cli_command>``.
    """
    package = importlib.import_module("claguerre")
    names = ("alpha_calc", "laguerre", "laplace", "integrate", "tables", "verify", "cli")
    mods = {name: importlib.import_module(f"claguerre.{name}") for name in names}
    modules = (package, *mods.values())
    undo: list = []
    for module, path, span, mode in TARGETS:
        owner = mods[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            tracer.missing.append(span)
            continue
        if mode == "count":
            wrapper = tracer.counted(span, original)
        else:
            on_result = tracer.count_rows if span == "tables.build_table" else None
            wrapper = tracer.timed(span, original, on_result)
        _replace_everywhere(modules, owner, attr, original, wrapper, undo)
    if cli_command is not None:
        cli = mods["cli"]
        wrapper = tracer.timed(f"cli.main.{cli_command}", cli.main)
        _replace_everywhere(modules, cli, "main", cli.main, wrapper, undo)
    suites = mods["verify"].SUITES
    originals = dict(suites)
    for module, entries in originals.items():
        suites[module] = tuple(
            (name, tracer.timed(f"verify.suite.{module}.{name}", runner))
            for name, runner in entries
        )

    def restore() -> None:
        for holder, name, value in reversed(undo):
            setattr(holder, name, value)
        suites.update(originals)

    return restore
