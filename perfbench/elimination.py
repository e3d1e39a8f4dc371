"""Fraction-free integer elimination, the benchmark's own.

It finds rank certificates for `checks.py`, and it is the fixed work by
which `run.py` measures the machine's speed.  It imports nothing from the
program, so a change to the program cannot change it.
"""

from __future__ import annotations

from math import gcd


def echelon(matrix: list[list[int]]):
    """Greedy row basis of an integer matrix, fraction-free.

    Returns (rows, cols, relations): the rows and columns of a nonsingular
    minor, and for each other row j a relation {row index: int} whose
    combination of the original rows is zero and whose entry at j is
    nonzero.  Residuals are kept with the multiple of the original rows that
    gives them, so the relations come out of the same pass.
    """
    basis: list[tuple[int, list[int], dict[int, int]]] = []
    rows, cols, relations = [], [], []
    for i, row in enumerate(matrix):
        r = list(row)
        comb = {i: 1}
        for col, brow, bcomb in basis:
            a = r[col]
            if not a:
                continue
            p = brow[col]
            g = gcd(a, p)
            mp, ma = p // g, a // g
            r = [mp * x - ma * y for x, y in zip(r, brow)]
            keys = comb.keys() | bcomb.keys()
            comb = {k: mp * comb.get(k, 0) - ma * bcomb.get(k, 0) for k in keys}
            g = 0
            for v in (*r, *comb.values()):
                g = gcd(g, v)
            if g > 1:
                r = [x // g for x in r]
                comb = {k: v // g for k, v in comb.items()}
        comb = {k: v for k, v in comb.items() if v}
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            relations.append(comb)
        else:
            basis.append((pivot, r, comb))
            rows.append(i)
            cols.append(pivot)
    return rows, cols, relations
