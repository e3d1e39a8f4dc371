"""Exact canonical-ring, pluricanonical-map and topology computations
for a stable Godeaux surface built from a del Pezzo surface of degree 1.

All arithmetic is over the rationals with ints and fractions.Fraction;
nothing in this package uses floating point.
"""

__version__ = "0.1.0"
