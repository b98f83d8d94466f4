"""The three benchmark workloads: inputs, timed ops and their checks.

Each workload turns (seed, block index) into a block of op specs, plain
JSON-able dicts, so two runs on one seed run the same ops and a digest of
the specs proves it.  ``prepare(spec)`` builds the op's inputs outside the
timed span and returns ``(call, check)``: ``call()`` is the timed work,
``check(result)`` the correctness oracle, run outside the timed span.

Why each workload exists (README.md has the predictions per layer):

* ``exact-core``: the exact rational core does all the work, at sizes above
  ``verify``'s n <= 12, with no float evaluation, quadrature or CSV.
* ``table-sweep``: float evaluation per point and CSV rendering of
  ``claguerre table``, without process start.
* ``cli-mix``: the commands users run, one process per call, where
  interpreter start, import, the Gauss rule and the verify suites dominate.

Every block covers each parameter range in equal-width strata: the seed
picks the value inside each stratum and the order of the ops, while the
pairing of strata across parameters rotates with the block index only.  So
every block carries about the same work on every seed, which keeps the
run-to-run spread of the throughput and latency figures small.
"""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import oracle

ALPHAS = (0.25, 0.5, 0.75, 1.0)
ORACLE_POINTS = 24  # table points checked against the exact oracle per table

# The largest degree the float paths are run at.  The benchmark measures
# only ops the program gets right, and the float Horner evaluation of
# ReducedPoly fails the A&S envelope check from n = 11 (m = 0, u near 10)
# and the partial-fraction value of ``transform laguerre <n> --s`` misses
# 1e-10 from n = 11 (s = 1.5).  At n <= 8, for m <= 4, x <= 60 and every
# alpha, table values stay within 0.06 of the envelope tolerance and
# transform values within 0.1 of theirs, so no seed comes near failing.  defects.py measures both defects
# over the full ranges and run.py records them with each run of the
# workloads they limit: table-sweep and cli-mix.
FLOAT_MAX_N = 8


def _stratum(lo: int, hi: int, k: int, j: int) -> tuple[int, int]:
    """Bounds of the j-th of k equal-width strata of the integers [lo, hi]."""
    width = hi - lo + 1
    return lo + width * j // k, lo + max(width * (j + 1) // k - 1, width * j // k)


def design(rng: random.Random, block: int, k: int, ranges) -> list[list[int]]:
    """k parameter rows; column p takes each stratum of ranges[p] once."""
    # i -> mult*i mod k is a permutation when mult and k are coprime
    mults = [m for m in range(1, 4 * k) if math.gcd(m, k) == 1]
    rows = [[0] * len(ranges) for _ in range(k)]
    for p, (lo, hi) in enumerate(ranges):
        mult = mults[p % len(mults)]
        for i in range(k):
            a, b = _stratum(lo, hi, k, (mult * i + block * (p + 1)) % k)
            rows[i][p] = rng.randint(a, b)
    return rows


def _block_rng(seed: int, workload: str, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _alpha_subset(rng: random.Random, count: int) -> list[float]:
    return sorted(rng.sample(ALPHAS, count))


# -- exact-core -----------------------------------------------------------------

PRODUCT_RATES = (-2, -1, 0, 1)
TRANSFORM_RATES = (Fraction(-3), Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2))
SHIFTS = ("1", "2", "1/2")


class ExactCore:
    name = "exact-core"
    per_kind = 4

    def __init__(self, seed: int):
        from claguerre import alpha_calc, integrate, laguerre, laplace

        self.seed = seed
        self.A, self.I, self.L, self.P = alpha_calc, integrate, laguerre, laplace

    def block(self, b: int) -> list[dict]:
        rng = _block_rng(self.seed, self.name, b)
        k = self.per_kind
        specs = []
        for n, in design(rng, b, k, [(20, 80)]):
            specs.append({"kind": "laguerre_rodrigues", "n": n})
        for n, m in design(rng, b, k, [(10, 40), (1, 4)]):
            specs.append({"kind": "assoc_rodrigues", "n": n, "m": m})
        for m, order in design(rng, b, k, [(0, 3), (20, 60)]):
            specs.append({"kind": "generating_series", "m": m, "order": order})
        for n, in design(rng, b, k, [(20, 80)]):
            specs.append({"kind": "solve_laguerre_ode", "n": n})
        for kind in ("product_rule", "leibniz"):
            for d, r in design(rng, b, k, [(0, 12), (1, 3)]):
                specs.append({"kind": kind, "degree": d, "rates": r,
                              "poly_seed": rng.getrandbits(32)})
        for kind in ("round_trip", "shift", "derivative_rule"):
            for d, r, a in design(rng, b, k, [(0, 12), (1, 3), (0, 2)]):
                specs.append({"kind": kind, "degree": d, "rates": r,
                              "shift": SHIFTS[a], "poly_seed": rng.getrandbits(32)})
        for i, j in design(rng, b, k, [(0, 40), (0, 40)]):
            specs.append({"kind": "orthonormality", "i": i, "j": j})
        for n, m in design(rng, b, k, [(20, 80), (0, 4)]):
            specs.append({"kind": "ode_residual", "n": n, "m": m})
        rng.shuffle(specs)
        return specs

    def _exppoly(self, rng: random.Random, degree: int, count: int, rates):
        terms = []
        for rate in rng.sample(list(rates), count):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(degree + 1)]
            terms.append((Fraction(rate), self.A.ReducedPoly(coeffs)))
        return self.A.ExpPoly(terms)

    def prepare(self, spec: dict):
        A, I, L, P = self.A, self.I, self.L, self.P
        kind = spec["kind"]

        def coeffs_are(n, m=0):
            want = oracle.closed_coeffs(n, m)
            return lambda poly: poly.coeffs == want

        def sides_equal(pair):
            return pair[0] == pair[1]

        if kind == "laguerre_rodrigues":
            n = spec["n"]
            return (lambda: L.laguerre_rodrigues(n)), coeffs_are(n)
        if kind == "assoc_rodrigues":
            n, m = spec["n"], spec["m"]
            return (lambda: L.assoc_rodrigues(n, m)), coeffs_are(n, m)
        if kind == "generating_series":
            m, order = spec["m"], spec["order"]

            def check(expansion):
                polys = expansion.coefficient_polys
                return len(polys) == order + 1 and all(
                    p.coeffs == oracle.closed_coeffs(n, m) for n, p in enumerate(polys)
                )

            return (lambda: L.generating_series(m, order)), check
        if kind == "solve_laguerre_ode":
            n = spec["n"]
            return (lambda: P.solve_laguerre_ode(n)), coeffs_are(n)
        if kind == "orthonormality":
            i, j = spec["i"], spec["j"]
            return (lambda: I.orthonormality(i, j)), (lambda v: v == (1 if i == j else 0))
        if kind == "ode_residual":
            n, m = spec["n"], spec["m"]
            closed = coeffs_are(n, m)

            def call():
                p = L.assoc_closed(n, m)
                return p, L.ode_residual(p, n, m)

            return call, (lambda out: closed(out[0]) and out[1].coeffs == ())

        rng = random.Random(spec["poly_seed"])
        d, r = spec["degree"], spec["rates"]
        if kind in ("product_rule", "leibniz"):
            p = self._exppoly(rng, d, r, PRODUCT_RATES)
            q = self._exppoly(rng, d, r, PRODUCT_RATES)
            if kind == "product_rule":
                return (lambda: ((p * q).d_alpha(), p.d_alpha() * q + p * q.d_alpha())), sides_equal

            def leibniz():
                out = []
                for order in range(6):
                    rhs = A.ExpPoly()
                    for j in range(order + 1):
                        rhs = rhs + math.comb(order, j) * (
                            A.d_alpha_n(p, order - j) * A.d_alpha_n(q, j)
                        )
                    out.append((A.d_alpha_n(p * q, order), rhs))
                return out

            return leibniz, (lambda pairs: all(lhs == rhs for lhs, rhs in pairs))
        p = self._exppoly(rng, d, r, TRANSFORM_RATES)
        if kind == "round_trip":
            return (lambda: (P.inverse(P.transform(p)), p)), sides_equal
        if kind == "shift":
            a = Fraction(spec["shift"])
            return (lambda: (P.transform(A.ExpPoly.exp(-a) * p),
                             P.transform(p).shifted(a))), sides_equal
        if kind == "derivative_rule":
            return (lambda: (P.transform(p.d_alpha()),
                             P.derivative_rule(P.transform(p), p.value_at_zero()))), sides_equal
        raise ValueError(f"unknown op kind {kind!r}")


# -- table-sweep ----------------------------------------------------------------


def check_csv(csv: str, n: int, m: int, alphas, x_max: float, samples: int,
              rng: random.Random) -> bool:
    """Parse a table back; check its header and grid, then check
    ORACLE_POINTS seeded cells against the exact oracle."""
    lines = csv.split("\n")
    header = ",".join(["x"] + [f"L_{n}^{m}(alpha={a!r})" for a in alphas])
    if lines[0] != header or lines[-1] != "" or len(lines) != samples + 2:
        return False
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:-1]]
    step = x_max / (samples - 1)
    for i, row in enumerate(rows):
        if len(row) != len(alphas) + 1 or row[0] != i * step:
            return False
        if not all(math.isfinite(v) for v in row):
            return False
    for _ in range(ORACLE_POINTS):
        i = rng.randrange(samples)
        c = rng.randrange(len(alphas))
        if not oracle.point_ok(n, m, rows[i][0], alphas[c], rows[i][c + 1]):
            return False
    return True


class TableSweep:
    name = "table-sweep"
    per_block = 8

    def __init__(self, seed: int):
        from claguerre import tables

        self.seed = seed
        self.T = tables

    def block(self, b: int) -> list[dict]:
        rng = _block_rng(self.seed, self.name, b)
        ranges = [(0, FLOAT_MAX_N), (200, 2000), (1, 4), (800, 6000), (0, 4)]
        specs = []
        for n, samples, count, xmax100, m in design(rng, b, self.per_block, ranges):
            specs.append({
                "n": n, "m": m, "alphas": _alpha_subset(rng, count),
                "x_max": xmax100 / 100, "samples": samples,
                "check_seed": rng.getrandbits(32),
            })
        rng.shuffle(specs)
        return specs

    def prepare(self, spec: dict):
        T = self.T
        n, m, samples, x_max = spec["n"], spec["m"], spec["samples"], spec["x_max"]
        alphas = tuple(spec["alphas"])

        def call():
            return T.build_table(n, m, alphas, 0.0, x_max, samples).to_csv()

        def check(csv):
            return check_csv(csv, n, m, alphas, x_max, samples,
                             random.Random(spec["check_seed"]))

        return call, check


# -- cli-mix --------------------------------------------------------------------

# The named pairs, their orders and s grids, and the tolerances that
# verify's named-pair suite uses for them, as of the commit that added this
# benchmark.  Copied rather than imported so the harness keeps working when
# the suite registry is refactored.
NAMED_PAIRS = (
    ("one", None, 0.75, (0.5, 1.0, 2.0, 4.0, 8.0), 1e-8),
    ("power_p", 0.5, 0.5, (1.0, 2.0, 3.0, 5.0, 8.0), 1e-8),
    ("power_p", 1.5, 0.5, (1.0, 2.0, 3.0, 5.0, 8.0), 1e-8),
    ("power_p", 2.5, 0.5, (1.0, 2.0, 3.0, 5.0, 8.0), 1e-8),
    ("power_p", 3.0, 1.0, (1.0, 2.0, 3.0, 5.0, 8.0), 1e-8),
    ("exp_u", None, 0.5, (1.5, 2.0, 3.0, 5.0, 8.0), 1e-8),
    ("sin_wu", 1.0, 0.5, (1.0, 1.5, 2.0, 4.0, 8.0), 1e-6),
    ("cos_wu", 1.0, 0.5, (1.0, 1.5, 2.0, 4.0, 8.0), 1e-6),
)
LAGUERRE_S = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0)  # the union of those grids
VERIFY_SCOPES = ("alpha_calc", "laguerre", "laplace", "integrate", "cli")

_VALUE_LINE = re.compile(r"^L_(\d+)\^(\d+)\(alpha=([^,]+), x=([^)]+)\) = (\S+)$", re.M)
_S_VALUE = re.compile(r"^value at s=\S+: (\S+)$", re.M)
_QUAD = re.compile(r"^quadrature check: \S+ \(\|diff\| = (\S+)\)$", re.M)
_SUITES = re.compile(r"^(\d+)/(\d+) suites passed$", re.M)


def check_eval(out: str, n: int, m: int, x: float, alphas) -> bool:
    found = _VALUE_LINE.findall(out)
    if len(found) != len(alphas) or "\nexact form: " not in out:
        return False
    for (fn, fm, fa, fx, value), a in zip(found, alphas):
        if (int(fn), int(fm), float(fa), float(fx)) != (n, m, a, x):
            return False
        if not oracle.point_ok(n, m, x, a, float(value), printed_digits=True):
            return False
    return True


def check_transform(out: str, spec: dict) -> bool:
    value = _S_VALUE.search(out)
    quad = _QUAD.search(out)
    if value is None or quad is None:
        return False
    s = spec["s"]
    if spec["kind"] == "laguerre":
        want = oracle.laguerre_transform_value(spec["n"], s)
        return oracle.closed_value_ok(float(value.group(1)), want)
    p, omega = spec.get("p", 0.0), spec.get("omega", 1.0)
    want = oracle.named_transform_value(spec["kind"], s, spec["alpha"], p, omega)
    return (oracle.closed_value_ok(float(value.group(1)), want)
            and float(quad.group(1)) <= spec["tol"])


def check_verify(out: str) -> bool:
    found = _SUITES.search(out)
    return found is not None and found.group(1) == found.group(2) and int(found.group(1)) > 0


class CliMix:
    name = "cli-mix"

    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env
        self.bootstrap = None  # traced launcher, set for the traced pass
        self.spans_dir = None  # where traced calls write their span totals
        self.traced_calls = 0

    def block(self, b: int) -> list[dict]:
        """6 eval, 5 table, 9 transform, 4 solve, 5 verify <module> and
        1 verify all: 20/17/30/13/17/3 percent of the calls.  Every block
        holds each transform kind and each verify scope once, so that every
        block has the same mix of short and long calls."""
        rng = _block_rng(self.seed, self.name, b)
        specs = []
        for n, m, x1000, count in design(rng, b, 6, [(0, FLOAT_MAX_N), (0, 4), (0, 60000), (1, 4)]):
            alphas = _alpha_subset(rng, count)
            x = x1000 / 1000
            specs.append({"cmd": "eval", "n": n, "m": m, "x": x, "alphas": alphas,
                          "argv": ["eval", "--n", str(n), "--m", str(m), "--alpha",
                                   ",".join(map(repr, alphas)), "--x", repr(x)]})
        for n, m in design(rng, b, 5, [(0, FLOAT_MAX_N), (0, 4)]):
            specs.append({"cmd": "table", "n": n, "m": m, "check_seed": rng.getrandbits(32),
                          "argv": ["table", "--n", str(n), "--m", str(m)]})
        n, s = rng.randint(0, FLOAT_MAX_N), rng.choice(LAGUERRE_S)
        specs.append({"cmd": "transform", "kind": "laguerre", "n": n, "s": s,
                      "argv": ["transform", "laguerre", str(n), "--s", repr(s)]})
        for kind, param, alpha, grid, tol in NAMED_PAIRS:
            s = rng.choice(grid)
            spec = {"cmd": "transform", "kind": kind, "alpha": alpha, "s": s, "tol": tol}
            argv = ["transform", kind]
            if kind == "power_p":
                spec["p"] = param
                argv.append(repr(param))
            elif param is not None:
                spec["omega"] = param
                argv.append(repr(param))
            spec["argv"] = argv + ["--alpha", repr(alpha), "--s", repr(s)]
            specs.append(spec)
        for n, in design(rng, b, 4, [(0, 40)]):
            specs.append({"cmd": "solve", "n": n, "argv": ["solve", "--n", str(n)]})
        for scope in VERIFY_SCOPES:
            specs.append({"cmd": "verify", "argv": ["verify", "--scope", scope]})
        specs.append({"cmd": "verify", "argv": ["verify", "--scope", "all"]})
        rng.shuffle(specs)
        return specs

    def prepare(self, spec: dict):
        if self.bootstrap is None:
            cmd = [sys.executable, "-m", "claguerre.cli", *spec["argv"]]
        else:
            spans = os.path.join(self.spans_dir, f"{self.traced_calls}.json")
            self.traced_calls += 1
            cmd = [sys.executable, self.bootstrap, spans, *spec["argv"]]

        def call():
            return subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=120)

        def check(proc):
            if proc.returncode != 0:
                return False
            out = proc.stdout
            kind = spec["cmd"]
            if kind == "eval":
                return check_eval(out, spec["n"], spec["m"], spec["x"], spec["alphas"])
            if kind == "table":
                return check_csv(out, spec["n"], spec["m"], ALPHAS, 8.0, 200,
                                 random.Random(spec["check_seed"]))
            if kind == "transform":
                return check_transform(out, spec)
            if kind == "solve":
                return "\nmatch: exact\n" in out
            return check_verify(out)

        return call, check

