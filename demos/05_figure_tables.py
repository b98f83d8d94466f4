#!/usr/bin/env python3
"""Reproducing the plotted curves as CSV data.

The ``table`` subcommand (and build_table underneath) samples a polynomial
on an x grid with one column per alpha, by the three-term recurrence in
u = x**alpha / alpha.  Feeding the CSV to any plotting tool reproduces the
published curves; here we print a small grid and show the alpha -> 1 limit
landing on the classical polynomial, evaluated exactly over rationals.

Shell equivalent:

    claguerre table --n 2 --m 1 --alpha 0.5,0.75,1.0 --xmax 4 --samples 9
"""

from fractions import Fraction

from claguerre import assoc_closed, build_table

table = build_table(2, 1, (0.5, 0.75, 1.0), 0.0, 4.0, 9)
print(table.to_csv())

print("alpha = 1 column vs the classical polynomial at Fraction(x):")
classical = assoc_closed(2, 1)
for row in table.rows:
    x, exact = row[0], float(classical(Fraction(row[0])))
    print(f"  x = {x:<4} table {row[-1]:>12.8f}   exact {exact:>12.8f}")

print()
print("matplotlib one-liner, if you have it installed:")
print("  import pandas as pd; import io")
print("  pd.read_csv(io.StringIO(table.to_csv())).plot(x='x')")
