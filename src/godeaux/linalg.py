"""Exact linear algebra over the rationals and the integers.

Everything here is exact: entries are Python ints or fractions.Fraction, never
floats, and there are no tolerances.

An `Echelon` takes its matrix as columns, each a sparse {row index: entry}
mapping, which is how the program's product vectors come.  Its integer rows
are built in one pass over the nonzero entries, and only a row that holds a
Fraction is scaled to integers (common denominator).  The elimination owns
those rows and updates them in place with cross-multiplication; after every
update the row is divided by its content (gcd of the entries, computed with
an early exit, and read from the updated entries alone when their gcd is 1)
so entries stay small in practice.  A kernel comes out in the same sparse
format, one {column: entry} mapping per basis vector, so the program never
makes a vector dense.  The dense entry points (`rank_of`, `kernel_basis`,
`rref`, `membership`) read their matrix into such columns and are the
tests' API; the program calls none of them.

Pivot rows are mostly zeros, so an update scales the row being reduced and
then subtracts only at the pivot row's nonzero entries (its support, listed
once per pivot row).  Off the support the pivot entry is zero, so every entry
is the same integer a full-width update would give, and only the support can
change the row's nonzero count, which the forward pass keeps per row.

The pivot row for a column is the one with the smallest pivot magnitude,
which keeps coefficient growth down; among those, the one with the fewest
nonzeros (Markowitz's fill-reducing choice), which keeps the supports of the
updates and of the rows they produce small; then the first.  Reduced row
echelon form of a matrix is unique, so rank, pivot columns, RREF, kernel and
membership results do not depend on the pivoting strategy; only the
intermediate integers do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

Number = int | Fraction
Column = Mapping[int, Number]


def sparse(vector: Sequence[Number]) -> dict[int, Number]:
    """The {position: entry} mapping of a vector's nonzero entries."""
    return {i: x for i, x in enumerate(vector) if x}


def dense(column: Column, length: int) -> list[Number]:
    """The vector of `length` entries that holds `column`'s entries and zeros."""
    vec: list[Number] = [0] * length
    for i, x in column.items():
        vec[i] = x
    return vec


def _as_int_row(row: Sequence[Number]) -> list[int]:
    """Scale a row of ints/Fractions to integers (common denominator)."""
    # the exact type tests are cheap, where isinstance against Fraction goes
    # through the ABC machinery for every entry
    if all(type(x) is int for x in row):
        return list(row)
    denom = 1
    for x in row:
        if type(x) is not int and isinstance(x, Fraction):
            d = x.denominator
            denom = denom // gcd(denom, d) * d
    if denom == 1:
        return [int(x) for x in row]
    return [x * denom if type(x) is int else x.numerator * (denom // x.denominator)
            for x in row]


def _content(row: Sequence[int]) -> int:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


def _reduce_content(row: list[int]) -> None:
    """Divide the row by its content, in place."""
    g = _content(row)
    if g > 1:
        row[:] = [x // g for x in row]


def _normalize(row: list[int]) -> None:
    """Divide by content and make the first nonzero entry positive, in place."""
    _reduce_content(row)
    for x in row:
        if x:
            if x < 0:
                row[:] = [-v for v in row]
            return


def _support(row: Sequence[int]) -> list[tuple[int, int]]:
    """The (column, entry) pairs of a row's nonzero entries."""
    return [(j, y) for j, y in enumerate(row) if y]


def _cross_eliminate(row: list[int], prow: Sequence[int], col: int,
                     support: list[tuple[int, int]], count: int) -> int:
    """Replace `row` in place by p*row - a*prow, scaled to kill row[col] and
    content-reduced; return `count` plus the change in its nonzero count.

    `support` is `_support(prow)`; only those entries are updated after the
    scaling, so only they can change the count.  Given the row's nonzero
    count, the result is its new one.  `prow` is not modified.
    """
    a = row[col]
    p = prow[col]
    g = gcd(p, a)
    mp, ma = p // g, a // g
    if mp == -1:
        row[:] = [-x for x in row]
    elif mp != 1:
        row[:] = [mp * x for x in row]
    # the content divides the gcd of the updated entries, so a gcd of 1
    # there settles it without scanning the rest of the row
    g = 0
    for j, y in support:
        x = row[j]
        v = x - ma * y
        row[j] = v
        # y and ma are nonzero, so a zero entry always becomes nonzero
        if not x:
            count += 1
        elif not v:
            count -= 1
        g = gcd(g, v)
    if g != 1:
        _reduce_content(row)
    return count


def _int_rows(columns: Sequence[Column], nrows: int) -> tuple[list[list[int]], list[int]]:
    """Integer rows of the matrix with these columns, and each row's nonzero
    count.  The caller's mappings are only read."""
    ncols = len(columns)
    rows: list[list] = [[0] * ncols for _ in range(nrows)]
    counts = [0] * nrows
    fractional = set()
    for j, column in enumerate(columns):
        if column and (min(column) < 0 or max(column) >= nrows):
            raise ValueError("row index outside the matrix")
        for i, x in column.items():
            if x:
                rows[i][j] = x
                counts[i] += 1
                if type(x) is not int:
                    fractional.add(i)
    for i in fractional:
        rows[i] = _as_int_row(rows[i])
    return rows, counts


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


def _forward(rows: list[list[int]], counts: list[int], ncols: int) -> list[tuple[int, list[int]]]:
    """Forward elimination of `rows` in place, keeping `counts`, their
    nonzero counts, up to date; returns (pivot column, row) pairs, columns
    ascending."""
    pending = [i for i, n in enumerate(counts) if n]
    pivots: list[tuple[int, list[int]]] = []
    for col in range(ncols):
        if not pending:
            break
        cands = [i for i in pending if rows[i][col]]
        if not cands:
            continue
        # smallest pivot magnitude keeps coefficient growth down; among
        # equal magnitudes the row with fewest nonzeros (Markowitz) keeps
        # the fill-in of the updates down; candidates ascend, so min keeps
        # the first of a tie
        low = min(abs(rows[i][col]) for i in cands)
        best = min((i for i in cands if abs(rows[i][col]) == low), key=counts.__getitem__)
        prow = rows[best]
        _normalize(prow)
        support = _support(prow)
        counts[best] = 0
        for i in cands:
            if i != best:
                counts[i] = _cross_eliminate(rows[i], prow, col, support, counts[i])
        pending = [i for i in pending if counts[i]]
        pivots.append((col, prow))
    return pivots


def _back_substitute(pivots: list[tuple[int, list[int]]]) -> list[tuple[int, list[int]]]:
    """Make the echelon rows fully reduced (zeros above every pivot), in place."""
    # supports[j] is the support of the finished row j, filled bottom up
    supports: list[list[tuple[int, int]]] = [[] for _ in pivots]
    for i in range(len(pivots) - 1, -1, -1):
        row = pivots[i][1]
        for j in range(i + 1, len(pivots)):
            cj, rowj = pivots[j]
            if row[cj]:
                # no nonzero count is kept here
                _cross_eliminate(row, rowj, cj, supports[j], 0)
        _normalize(row)
        supports[i] = _support(row)
    return pivots


@dataclass(frozen=True)
class RrefResult:
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
    pivots = _back_substitute(_forward(*_int_rows(columns, nrows), ncols))
    out = []
    for col, row in pivots:
        p = row[col]
        out.append([Fraction(x, p) for x in row])
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
    its back substitution costs as much again as the forward pass.
    """

    def __init__(self, columns: Sequence[Column], nrows: int):
        self.ncols = len(columns)
        self._pivots = _forward(*_int_rows(columns, nrows), self.ncols)
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
                vec = {c: Fraction(-row[j], row[c]) for c, row in pivots if row[j]}
                vec[j] = Fraction(1)
                basis.append(vec)
            self._kernel = basis
        return self._kernel


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

    Rows are stored as integer vectors with content 1 and positive pivot;
    insertion order does not affect the span, and the stored rows are the
    canonical RREF of everything inserted so far.  The program does not
    use it; it is kept as the tests' independent incremental reference.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivot_cols: list[int] = []
        self.rows: dict[int, list[int]] = {}
        # support of each stored row, dropped when the row is rewritten and
        # rebuilt when a residual next uses it
        self._supports: dict[int, list[tuple[int, int]]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def residual(self, row: Sequence[Number]) -> list[int]:
        """Reduce a row against the span; zero iff the row lies in it."""
        if len(row) != self.width:
            raise ValueError("row length does not match width")
        r = _as_int_row(row)
        rows, supports = self.rows, self._supports
        for col in self.pivot_cols:
            if r[col]:
                support = supports.get(col)
                if support is None:
                    support = supports[col] = _support(rows[col])
                # no nonzero count is kept here
                _cross_eliminate(r, rows[col], col, support, 0)
        return r

    def contains(self, row: Sequence[Number]) -> bool:
        return not any(self.residual(row))

    def insert(self, row: Sequence[Number]) -> Optional[int]:
        """Add a row; returns its new pivot column, or None if dependent."""
        r = self.residual(row)
        for col, x in enumerate(r):
            if x:
                break
        else:
            return None
        _normalize(r)
        support = _support(r)
        # keep existing rows reduced against the new pivot
        for c in self.pivot_cols:
            stored = self.rows[c]
            if stored[col]:
                _cross_eliminate(stored, r, col, support, 0)
                _normalize(stored)
                self._supports.pop(c, None)
        self.rows[col] = r
        self._supports[col] = support
        self.pivot_cols.append(col)
        self.pivot_cols.sort()
        return col


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    if not b:
        return [[] for _ in a]
    nb = len(b[0])
    return [[sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(nb)] for ra in a]


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
    """Invariant factors of an integer matrix: the diagonal of its Smith
    normal form, nonnegative, each entry dividing the next."""
    nrows = len(rows)
    a = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("row length does not match ncols")
        for x in r:
            if not isinstance(x, int):
                raise TypeError("smith_normal_form needs integer entries")
        a.append(list(r))

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        a[t], a[best[0]] = a[best[0]], a[t]
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        # enforce divisibility of the rest of the block by the pivot
        p = a[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        t += 1
    return [a[i][i] for i in range(limit)]
