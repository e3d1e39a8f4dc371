"""Exact linear algebra over the rationals and the integers.

Everything here is exact: entries are Python ints or fractions.Fraction, never
floats, and there are no tolerances.

Every row inside the elimination is one sparse integer row, a {column:
nonzero int} mapping that never stores a zero.  An `Echelon` takes its matrix
as columns, each a sparse {row index: entry} mapping, which is how the
program's product vectors come; its rows are built in one pass over the
nonzero entries, and only a row that holds a Fraction is scaled to integers
(common denominator).  The elimination owns those rows and updates them in
place with cross-multiplication: the row is scaled, and then only the pivot
row's entries are subtracted, so an update touches the row's own entries and
the pivot row's, and an entry that becomes zero is deleted.  Every pivot row
is divided by its content, so most pivot entries are 1, and an update by a
pivot entry of 1 is the plain row - a*prow, with no scaling and no gcd.
After an update by any other pivot entry the row is divided by its content
(gcd of the entries, computed with an early exit, and read from the updated
entries alone when their gcd is 1), which also removes what content the
unit updates before it left, so entries stay small in practice.  A kernel
comes out in the same sparse format, one {column: entry} mapping per basis
vector, so the program never makes a vector dense.  The dense entry points
(`rank_of`, `kernel_basis`, `rref`, `membership`) read their matrix into
such columns and are the tests' API; the program calls none of them.

The pivot row for a column is the one with the smallest pivot magnitude,
which keeps coefficient growth down; among those, the one with the fewest
nonzeros (Markowitz's fill-reducing choice, read as the length of the row),
which keeps the updates and the rows they produce small; then the first.
Reduced row echelon form of a matrix is unique, so rank, pivot columns,
RREF, kernel and membership results do not depend on the pivoting strategy;
only the intermediate integers do.

Two routines work over the integers on dense rows instead: `det_int`, a
fraction-free determinant, and `smith_normal_form`, the nonzero invariant
factors by integer row and column operations that pivot on an entry of
least magnitude, so every remainder is smaller than the pivot it came from.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

Number = int | Fraction
Column = Mapping[int, Number]
Row = dict[int, int]


def sparse(vector: Sequence[Number]) -> dict[int, Number]:
    """The {position: entry} mapping of a vector's nonzero entries."""
    return {i: x for i, x in enumerate(vector) if x}


def dense(column: Column, length: int) -> list[Number]:
    """The vector of `length` entries that holds `column`'s entries and zeros."""
    vec: list[Number] = [0] * length
    for i, x in column.items():
        vec[i] = x
    return vec


def _as_int_row(row: Mapping[int, Number]) -> Row:
    """Scale a sparse row of nonzero ints/Fractions to integers (common
    denominator)."""
    denom = 1
    for x in row.values():
        # the exact type test is cheap, where isinstance against Fraction
        # goes through the ABC machinery for every entry
        if type(x) is not int and isinstance(x, Fraction):
            d = x.denominator
            denom = denom // gcd(denom, d) * d
    if denom == 1:
        return {j: int(x) for j, x in row.items()}
    return {j: x * denom if type(x) is int else x.numerator * (denom // x.denominator)
            for j, x in row.items()}


def _content(entries: Iterable[int]) -> int:
    g = 0
    for x in entries:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _reduce_content(row: Row) -> None:
    """Divide the row by its content, in place."""
    g = _content(row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _normalize(row: Row, col: int) -> None:
    """Divide by content and make the pivot entry row[col] positive, in place."""
    g = _content(row.values())
    if row[col] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g


def _cross_eliminate(row: Row, prow: Row, col: int) -> None:
    """Replace `row` in place by p*row - a*prow, scaled to kill row[col].

    After the scaling only the pivot row's entries are updated, and each one
    that becomes zero is deleted, so the row stores no zero.  A pivot entry
    p of 1 needs no scaling, and the row is left as row - a*prow without
    content reduction: whatever content it has is removed by `_normalize`
    when the row becomes a pivot, or by its next update with a pivot entry
    other than 1.  Otherwise the row is divided by its content.  `prow` is
    not modified.
    """
    a = row[col]
    p = prow[col]
    if p == 1:
        for j, y in prow.items():
            v = row.get(j, 0) - a * y
            if v:
                row[j] = v
            else:
                del row[j]
        return
    g = gcd(p, a)
    mp, ma = p // g, a // g
    if mp == -1:
        for j in row:
            row[j] = -row[j]
    elif mp != 1:
        for j in row:
            row[j] *= mp
    # the content divides the gcd of the updated entries, so a gcd of 1
    # there settles it without scanning the rest of the row
    g = 0
    for j, y in prow.items():
        v = row.get(j, 0) - ma * y
        if v:
            row[j] = v
            g = gcd(g, v)
        else:
            del row[j]
    if g != 1:
        _reduce_content(row)


def _int_rows(columns: Sequence[Column], nrows: int) -> list[Row]:
    """Sparse integer rows of the matrix with these columns.  The caller's
    mappings are only read."""
    rows: list[dict] = [{} for _ in range(nrows)]
    fractional = set()
    for j, column in enumerate(columns):
        if column and (min(column) < 0 or max(column) >= nrows):
            raise ValueError("row index outside the matrix")
        for i, x in column.items():
            if x:
                rows[i][j] = x
                if type(x) is not int:
                    fractional.add(i)
    for i in fractional:
        rows[i] = _as_int_row(rows[i])
    return rows


def _columns(rows: Iterable[Sequence[Number]], ncols: int) -> tuple[list[dict[int, Number]], int]:
    """Sparse columns and the row count of a matrix given by dense rows,
    checking each row length as it is read."""
    columns: list[dict[int, Number]] = [{} for _ in range(ncols)]
    nrows = 0
    for row in rows:
        if len(row) != ncols:
            raise ValueError("row length does not match ncols")
        for j, x in enumerate(row):
            if x:
                columns[j][nrows] = x
        nrows += 1
    return columns, nrows


def _forward(rows: list[Row], ncols: int) -> list[tuple[int, Row]]:
    """Forward elimination of `rows` in place; returns (pivot column, row)
    pairs, columns ascending, each row one of the given ones."""
    # the rows not yet pivots, keyed by identity, in the rows' order; a row
    # leaves when it becomes a pivot or empty
    pending = {id(row): row for row in rows if row}
    pivots: list[tuple[int, Row]] = []
    for col in range(ncols):
        if not pending:
            break
        cands = [row for row in pending.values() if col in row]
        if not cands:
            continue
        # smallest pivot magnitude keeps coefficient growth down; among
        # equal magnitudes the row with fewest nonzeros (Markowitz) keeps
        # the fill-in of the updates down; candidates keep the rows' order,
        # so min keeps the first of a tie
        best = min(cands, key=lambda row: (abs(row[col]), len(row)))
        _normalize(best, col)
        del pending[id(best)]
        for row in cands:
            if row is not best:
                _cross_eliminate(row, best, col)
                if not row:
                    del pending[id(row)]
        pivots.append((col, best))
    return pivots


def _back_substitute(pivots: list[tuple[int, Row]]) -> list[tuple[int, Row]]:
    """Make the echelon rows fully reduced (zeros above every pivot), in place."""
    for i in range(len(pivots) - 1, -1, -1):
        col, row = pivots[i]
        for cj, rowj in pivots[i + 1:]:
            if cj in row:
                _cross_eliminate(row, rowj, cj)
        _normalize(row, col)
    return pivots


class RrefResult(NamedTuple):
    rows: list[list[Fraction]]
    pivot_columns: tuple[int, ...]
    rank: int


def rref(rows: Iterable[Sequence[Number]], ncols: int) -> RrefResult:
    """Reduced row echelon form (pivots 1, zeros above and below each pivot).

    Returns the full matrix, same shape as the input, with zero rows at the
    bottom.  The result is the canonical RREF, unique for the row space.
    The program does not call it; the tests use it as a reference.
    """
    columns, nrows = _columns(rows, ncols)
    pivots = _back_substitute(_forward(_int_rows(columns, nrows), ncols))
    out = []
    for col, row in pivots:
        p = row[col]
        out.append([Fraction(row.get(j, 0), p) for j in range(ncols)])
    zero = [Fraction(0)] * ncols
    while len(out) < nrows:
        out.append(zero[:])
    return RrefResult(out, tuple(c for c, _ in pivots), len(pivots))


class Echelon:
    """One forward elimination of a matrix, read for rank, pivot columns and
    kernel.

    The matrix is given by its columns, each a {row index: entry} mapping
    over `nrows` rows; zero entries may be listed or left out, and the
    mappings are not modified.  The kernel is built on first use only, since
    its back substitution costs as much again as the forward pass;
    `kernel_vector` reads one of its vectors without it, which is cheaper
    for a reader of a few vectors, and dearer, vector for vector, for a
    reader of most of them.
    """

    def __init__(self, columns: Sequence[Column], nrows: int):
        self.ncols = len(columns)
        self._pivots = _forward(_int_rows(columns, nrows), self.ncols)
        self.rank = len(self._pivots)
        self.pivot_columns = tuple(c for c, _ in self._pivots)
        self._kernel: Optional[list[dict[int, Fraction]]] = None

    def kernel(self) -> list[dict[int, Fraction]]:
        """Basis of {x : M x = 0}, one vector per free column, columns ascending.

        This is the standard basis read off the RREF.  The vector for free
        column j is a {column: entry} mapping of its nonzero entries, keys
        ascending: the pivot columns before j whose RREF row is nonzero at
        j, then a 1 at j.
        """
        if self._kernel is None:
            pivots = _back_substitute(self._pivots)
            pivot_cols = set(self.pivot_columns)
            basis = []
            for j in range(self.ncols):
                if j in pivot_cols:
                    continue
                # a pivot row is zero before its pivot column, so only the
                # pivots before j can be nonzero at j
                vec = {c: Fraction(-x, row[c]) for c, row in pivots if (x := row.get(j))}
                vec[j] = Fraction(1)
                basis.append(vec)
            self._kernel = basis
        return self._kernel

    def kernel_vector(self, j: int) -> dict[int, Fraction]:
        """The vector x of `kernel()` for the free column j, without the back
        substitution: 1 at j, zero at the other free columns, and solved in
        integers (x = vec / scale) from the pivot rows before j, last first.
        Each is zero before its pivot column c, and x is zero past j, so
        row . x = 0 fixes x_c."""
        if not 0 <= j < self.ncols or j in self.pivot_columns:
            raise ValueError(f"column {j} is not a free column")
        vec, scale = {j: 1}, 1
        for c, row in reversed(self._pivots[:bisect_left(self.pivot_columns, j)]):
            if s := sum(y * row[k] for k, y in vec.items() if k in row):
                g = gcd(s, row[c])  # the pivot entry is positive
                if (m := row[c] // g) != 1:
                    scale *= m
                    vec = {k: y * m for k, y in vec.items()}
                vec[c] = -s // g
        return {k: Fraction(y, scale) for k, y in sorted(vec.items())}


def rank_of(rows: Iterable[Sequence[Number]], ncols: int) -> int:
    """Rank of the matrix with these dense rows."""
    return Echelon(*_columns(rows, ncols)).rank


def kernel_basis(rows: Iterable[Sequence[Number]], ncols: int) -> list[list[Number]]:
    """Basis of {x : M x = 0} for the matrix with these dense rows, each
    vector dense; see `Echelon.kernel`."""
    return [dense(v, ncols) for v in Echelon(*_columns(rows, ncols)).kernel()]


def membership(target: Sequence[Number], vectors: Sequence[Sequence[Number]]) -> Optional[list[Fraction]]:
    """Coefficients c with sum(c_i * vectors[i]) == target, or None.

    When the vectors are dependent the returned combination is the canonical
    one read off the RREF (free coefficients zero).
    """
    width = len(target)
    for v in vectors:
        if len(v) != width:
            raise ValueError("vector length does not match target")
    # solve A c = t where the columns of A are the vectors: the target is
    # outside the span iff its column is a pivot, and otherwise the last
    # kernel vector, read at the vector columns, is -c
    n = len(vectors)
    echelon = Echelon([sparse(v) for v in vectors] + [sparse(target)], width)
    if n in echelon.pivot_columns:
        return None
    last = echelon.kernel()[-1]
    return [-last.get(j, Fraction(0)) for j in range(n)]


class SpanBuilder:
    """Incremental row span in fully reduced echelon form, exact.

    Each stored row is a sparse integer row, {column: nonzero int}, with
    content 1 and a positive pivot; insertion order does not affect the
    span, and the stored rows are the canonical RREF of everything inserted
    so far.  The program does not use it; it is kept as the tests'
    independent incremental reference.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivot_cols: list[int] = []
        self.rows: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def residual(self, row: Sequence[Number]) -> Row:
        """Reduce a row against the span, as a sparse integer row; empty iff
        the row lies in it."""
        if len(row) != self.width:
            raise ValueError("row length does not match width")
        r = _as_int_row(sparse(row))
        for col in self.pivot_cols:
            if col in r:
                _cross_eliminate(r, self.rows[col], col)
        return r

    def contains(self, row: Sequence[Number]) -> bool:
        return not self.residual(row)

    def insert(self, row: Sequence[Number]) -> Optional[int]:
        """Add a row; returns its new pivot column, or None if dependent."""
        r = self.residual(row)
        if not r:
            return None
        col = min(r)
        _normalize(r, col)
        # keep existing rows reduced against the new pivot
        for c in self.pivot_cols:
            stored = self.rows[c]
            if col in stored:
                _cross_eliminate(stored, r, col)
                _normalize(stored, c)
        self.rows[col] = r
        self.pivot_cols.append(col)
        self.pivot_cols.sort()
        return col


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """The nonzero invariant factors of an integer matrix: the nonzero
    diagonal entries of its Smith normal form, as many as its rank, each
    positive and dividing the next.

    Each pass moves the row of an entry of least magnitude, the pivot, to
    the top (the first such row, so the top row wins a tie) and reduces
    the pivot's column and row modulo it by integer row and column
    operations.  A remainder is a nonzero entry smaller than the pivot, so
    the next pass pivots on less.  Once the pivot is alone in its row and
    column, a row holding an entry the pivot does not divide is added to
    the top row, whose next pass leaves a remainder.  Otherwise |pivot| is
    the next factor and its row and column are deleted; every entry left is
    a multiple of it, so the factors come out in divisibility order.
    """
    a = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("row length does not match ncols")
        if not all(isinstance(x, int) for x in r):
            raise TypeError("smith_normal_form needs integer entries")
        a.append(list(r))
    factors = []
    while entries := [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]:
        _, i, j = min(entries)
        a.insert(0, a.pop(i))
        top = a[0]
        p = top[j]
        for k in range(1, len(a)):
            if q := a[k][j] // p:
                a[k] = [x - q * y for x, y in zip(a[k], top)]
        for col, x in enumerate(top):
            if col != j and (q := x // p):
                for row in a:
                    row[col] -= q * row[j]
        if any(top[:j] + top[j + 1:]) or any(row[j] for row in a[1:]):
            continue
        offender = next((row for row in a[1:] if any(x % p for x in row)), None)
        if offender:
            a[0] = [x + y for x, y in zip(top, offender)]
            continue
        factors.append(abs(p))
        del a[0]
        for row in a:
            del row[j]
    return factors
