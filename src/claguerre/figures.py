"""Reference formulas for the eleven plotted polynomials.

Each entry pairs an index (n, m) with its display formula written directly
in x and alpha, keeping the original arrangement of powers and
denominators.  The formulas act as an oracle for the table subcommand:
they never touch the reduced-variable coefficient path.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["FIGURES", "FigureFixture"]


class FigureFixture(namedtuple("FigureFixture", "number n m formula")):
    """Figure ``number`` plots L_n^m; ``formula(x, alpha)`` is its display form."""

    __slots__ = ()


FIGURES: tuple[FigureFixture, ...] = (
    FigureFixture(1, 1, 0, lambda x, a: 1 - x**a / a),
    FigureFixture(2, 2, 0, lambda x, a: 1 + x ** (2 * a) / (2 * a**2) - 2 * x**a / a),
    FigureFixture(
        3, 3, 0,
        lambda x, a: -(x ** (3 * a) - 9 * a * x ** (2 * a) + 18 * a**2 * x**a - 6 * a**3)
        / (6 * a**3),
    ),
    FigureFixture(
        4, 4, 0,
        lambda x, a: 1
        + x ** (4 * a) / (24 * a**4)
        - 2 * x ** (3 * a) / (3 * a**3)
        + 3 * x ** (2 * a) / a**2
        - 4 * x**a / a,
    ),
    FigureFixture(
        5, 5, 0,
        lambda x, a: 1
        - x ** (5 * a) / (120 * a**5)
        + 5 * x ** (4 * a) / (24 * a**4)
        - 5 * x ** (3 * a) / (3 * a**3)
        + 5 * x ** (2 * a) / a**2
        - 5 * x**a / a,
    ),
    FigureFixture(6, 1, 1, lambda x, a: 2 - x**a / a),
    FigureFixture(
        7, 2, 1, lambda x, a: x ** (2 * a) / (2 * a**2) - 3 * x**a / a + 3
    ),
    FigureFixture(
        8, 2, 2, lambda x, a: x ** (2 * a) / (2 * a**2) - 4 * x**a / a + 6
    ),
    FigureFixture(
        9, 3, 1,
        lambda x, a: -x ** (3 * a) / (6 * a**3)
        + 2 * x ** (2 * a) / a**2
        - 6 * x**a / a
        + 4,
    ),
    FigureFixture(
        10, 3, 2,
        lambda x, a: -x ** (3 * a) / (6 * a**3)
        + 15 * x ** (2 * a) / (6 * a**2)
        - 10 * x**a / a
        + 10,
    ),
    FigureFixture(
        11, 3, 3,
        lambda x, a: -x ** (3 * a) / (6 * a**3)
        + 3 * x ** (2 * a) / a**2
        - 15 * x**a / a
        + 20,
    ),
)
