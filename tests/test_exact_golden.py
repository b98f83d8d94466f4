"""Exact-result regression guard.

Two recorded fingerprints of the exact core must keep matching, so that a
change of representation cannot move an exact result:

* ``golden/verify_all.txt`` is the stdout of ``claguerre verify --scope all``;
* ``golden/exact_results.sha256`` is a SHA-256 over the ``str``, ``repr``,
  rates and rate types of about 400 seeded products, sums, differences,
  scalar products, n-fold derivatives, transforms, inverses, associated
  Rodrigues polynomials and generating series.

The inputs are built through the public constructors from Fractions.  An
image's fingerprint also lists its (coeff, rate, order) pole triples, read
from its integer block in (rate, order) order.
"""

import hashlib
import random
from fractions import Fraction as F
from pathlib import Path

from claguerre import cli
from claguerre.alpha_calc import ExpPoly, ReducedPoly, d_alpha_n
from claguerre.laguerre import assoc_rodrigues, generating_series
from claguerre.laplace import TransformExpr, inverse, transform

GOLDEN = Path(__file__).resolve().parent / "golden"
# The command whose stdout is golden/verify_all.txt.
VERIFY_ALL = ("verify", "--scope", "all")
RATES = (F(-2), F(-1), F(-2, 3), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1))


def _draw(rng):
    """A seeded ExpPoly with up to three rates, degree <= 4."""
    terms = []
    for rate in rng.sample(RATES, k=rng.randint(1, 3)):
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(rng.randint(0, 4))]
        terms.append((rate, ReducedPoly(coeffs)))
    return ExpPoly(terms)


def _fingerprint(value) -> str:
    if isinstance(value, ExpPoly):
        rates = [(str(r), type(r).__name__) for r, _ in value.terms]
        terms = [(type(r).__name__, type(p).__name__, repr(p)) for r, p in value.terms]
        extra = f"{rates}|{terms}"
    elif isinstance(value, TransformExpr):
        extra = str([(str(c), type(c).__name__, str(r), type(r).__name__, k + 1)
                     for r, p in value._block.terms
                     for k, c in enumerate(p.coeffs) if c])
    else:
        extra = type(value).__name__
    return f"{value}|{value!r}|{extra}"


def exact_results():
    """The fingerprinted results, one per line, in a fixed order."""
    rng = random.Random(20211)
    out = []
    for _ in range(30):
        f, g = _draw(rng), _draw(rng)
        c = F(rng.randint(-6, 6), rng.randint(1, 5))
        k = rng.randint(-3, 3)
        T = transform(f)
        out += [f * g, g * f, f + g, f - g, g - f, f * c, k * f,
                d_alpha_n(f, rng.randint(0, 4)), d_alpha_n(f * g, rng.randint(1, 3)),
                T, inverse(T), inverse(transform(f - g) * c)]
    for n in range(6):
        for m in range(4):
            out.append(assoc_rodrigues(n, m))
    for m in range(3):
        for order in (1, 4, 7):
            out.append(generating_series(m, order))
    poles = TransformExpr([(F(1, 3), F(-1, 2), 2), (-2, 0, 1), (F(5, 7), 1, 3)])
    out += [poles, inverse(poles), inverse(poles.shifted(F(1, 2)))]
    return [_fingerprint(v) for v in out]


def test_exact_results_digest():
    results = exact_results()
    assert len(results) == 396
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
    assert digest == (GOLDEN / "exact_results.sha256").read_text().strip()


def test_verify_all_stdout(capsys):
    assert cli.main(list(VERIFY_ALL)) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify_all.txt").read_text()
