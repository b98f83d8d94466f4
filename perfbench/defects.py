"""Known float defects, measured over the full ranges the workloads avoid.

    python3 perfbench/defects.py --seed N

The workloads run their float paths only at n <= workloads.FLOAT_MAX_N,
where claguerre's output is correct, so that every timed op passes its
check.  This probe keeps the two defects above that degree in view: it
checks seeded samples over the full ranges with the same oracles as the
workloads and prints one JSON object with the checked and failed counts.
run.py adds it to the context record of every table-sweep and cli-mix run.
A later commit that fixes a defect shows here as a failed count of 0.

* ``horner_envelope``: ``assoc_closed(n, m).eval(x, alpha)``, the per-point
  path of ``build_table`` and ``claguerre eval``, for n <= 60, m <= 4,
  x <= 60 and alpha in {0.25, 0.5, 0.75, 1}, against the A&S envelope test.
* ``laguerre_transform_value``: the value ``claguerre transform laguerre n
  --s s`` prints, for n <= 40 and s on verify's grids, against
  (s-1)**n / s**(n+1) to 1e-10.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

HORNER_POINTS = 200
TRANSFORM_POINTS = 64


def horner_envelope(rng: random.Random) -> dict:
    from claguerre.laguerre import assoc_closed

    failed = 0
    for _ in range(HORNER_POINTS):
        n, m = rng.randint(0, 60), rng.randint(0, 4)
        alpha, x = rng.choice(workloads.ALPHAS), rng.uniform(0.0, 60.0)
        if not oracle.point_ok(n, m, x, alpha, assoc_closed(n, m).eval(x, alpha)):
            failed += 1
    return {"range": "n<=60, m<=4, x<=60", "checked": HORNER_POINTS, "failed": failed}


def laguerre_transform_value(rng: random.Random) -> dict:
    from claguerre.laplace import laguerre_transform

    failed = 0
    for _ in range(TRANSFORM_POINTS):
        n, s = rng.randint(0, 40), rng.choice(workloads.LAGUERRE_S)
        printed = float(f"{laguerre_transform(n)(s):.12g}")
        if not oracle.closed_value_ok(printed, oracle.laguerre_transform_value(n, s)):
            failed += 1
    return {"range": "n<=40", "checked": TRANSFORM_POINTS, "failed": failed}


def probe(seed: int) -> dict:
    rng = random.Random(f"defects:{seed}")
    return {
        "horner_envelope": horner_envelope(rng),
        "laguerre_transform_value": laguerre_transform_value(rng),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(probe(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
