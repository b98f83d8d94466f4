"""Sample tables for plotting: evaluation grids rendered as CSV.

Values come from :func:`claguerre.recurrence.laguerre_column`, one alpha
column at a time, and the argument rules from the same float layer, so no
exact algebra loads.  Alphas are checked once per table, indices once per
column and u = x**alpha / alpha once per (x, alpha): the per-point cost is
the recurrence alone.  The record keeps the computed columns, x first, and
renders from them; ``SampleTable.rows`` builds the row tuples on each
access.  Output is deterministic byte for byte: floats print in shortest
round-trip form and rows end with a bare linefeed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from operator import le

from .recurrence import _check_count, _check_real, as_alpha, laguerre_column

__all__ = ["SampleTable", "build_table"]


class SampleTable(namedtuple("SampleTable", "columns values")):
    """Header plus one tuple of values per header name: x, then one column
    per requested alpha."""

    __slots__ = ()

    def __new__(
        cls, columns: tuple[str, ...], values: tuple[tuple[float, ...], ...]
    ) -> SampleTable:
        xs = values[0] if values else ()
        if len(values) != len(columns) or any(len(col) != len(xs) for col in values):
            raise ValueError("need one value column per header name, each as long as x")
        if any(map(le, xs[1:], xs)):
            raise ValueError("x values must be strictly increasing")
        if not all(map(math.isfinite, chain.from_iterable(values))):
            raise ValueError("table values must be finite")
        return super().__new__(cls, columns, values)

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """The table by row, (x, one value per alpha), built on each access."""
        return tuple(zip(*self.values))

    def to_csv(self) -> str:
        cells = [map(repr, col) for col in self.values]
        return "\n".join([",".join(self.columns), *map(",".join, zip(*cells)), ""])


def build_table(
    n: int,
    m: int,
    alphas: tuple[float, ...],
    x_min: float = 0.0,
    x_max: float = 8.0,
    samples: int = 200,
) -> SampleTable:
    """Evaluate the (n, m) polynomial on an even x grid, one column per alpha.

    Every value equals ``laguerre_pair(n, m, x**alpha / alpha)[0]`` bit for
    bit.  A negative x_min, a bound or top grid point that is not a finite
    number, a value that overflows to a non-finite float and a grid whose
    points round to repeated floats raise ValueError.
    """
    x_min = _check_real(x_min, "x_min", low=0)
    x_max = _check_real(x_max, "x_max")
    _check_count(samples, "samples", low=2)
    if x_max <= x_min:
        raise ValueError("x_max must exceed x_min")
    alphas = tuple(as_alpha(a) for a in alphas)
    if not alphas:
        raise ValueError("at least one alpha is required")
    header = ("x",) + tuple(f"L_{n}^{m}(alpha={a!r})" for a in alphas)
    step = (x_max - x_min) / (samples - 1)
    xs = [x_min + i * step for i in range(samples)]
    # Each x lies within 2 ulps of x_max of its exact value, so a step above
    # 8 ulps keeps the points apart and only a finer grid is scanned.
    if step <= 8 * math.ulp(x_max) and any(map(le, xs[1:], xs)):
        raise ValueError(
            f"{samples} samples on [{x_min!r}, {x_max!r}] round to repeated "
            "x values; use fewer samples or a wider range"
        )
    # Near the float maximum the top point can round past it.
    _check_real(xs[-1], "x")
    columns = [laguerre_column(n, m, [x**a / a for x in xs]) for a in alphas]
    # The step check above proves x strictly increasing and every column is
    # as long as x, so of SampleTable's checks only finiteness is left.
    if not all(map(math.isfinite, chain.from_iterable(columns))):
        raise ValueError("table values must be finite")
    return SampleTable._make((header, (tuple(xs), *map(tuple, columns))))
