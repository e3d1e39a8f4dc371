"""Exact linear algebra: fixed examples plus randomized structural checks.

Random matrices use a seeded Random instance so failures reproduce.  The
oracle tests at the end compare the elimination kernel with a dense
reference elimination; they run Hypothesis derandomized, so they reproduce
too.
"""

import random
from copy import deepcopy
from itertools import combinations
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from godeaux.linalg import (
    Echelon,
    SpanBuilder,
    _back_substitute,
    _cross_eliminate,
    _forward,
    _int_rows,
    dense,
    det_int,
    kernel_basis,
    membership,
    rank_of,
    rref,
    smith_normal_form,
    sparse,
)

F = Fraction


def random_matrix(rng, nrows, ncols, lo=-6, hi=6, frac_every=4):
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.randrange(frac_every) == 0:
                row.append(F(rng.randint(lo, hi), rng.choice([1, 2, 3, 5])))
            else:
                row.append(rng.randint(lo, hi))
        rows.append(row)
    return rows


def columns_of(rows, ncols):
    """The sparse columns of a matrix given by dense rows."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def dense_kernel(echelon):
    """The kernel vectors of an `Echelon` as dense vectors."""
    return [dense(v, echelon.ncols) for v in echelon.kernel()]


class TestRref:
    def test_worked_example(self):
        res = rref([[2, 4], [1, 2]], 2)
        assert res.rows == [[F(1), F(2)], [F(0), F(0)]]
        assert res.pivot_columns == (0,)
        assert res.rank == 1

    def test_identity_fixed(self):
        res = rref([[0, 1], [1, 0]], 2)
        assert res.rows == [[F(1), F(0)], [F(0), F(1)]]
        assert res.pivot_columns == (0, 1)

    def test_fraction_entries(self):
        res = rref([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]], 2)
        assert res.rank == 1
        assert res.rows[0] == [F(1), F(2, 3)]

    def test_zero_matrix(self):
        res = rref([[0, 0, 0]], 3)
        assert res.rank == 0
        assert res.pivot_columns == ()

    def test_empty(self):
        res = rref([], 3)
        assert res.rows == []
        assert res.rank == 0

    def test_idempotent_and_row_order_invariant(self):
        rng = random.Random(101)
        for _ in range(40):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            rows = random_matrix(rng, nrows, ncols)
            first = rref(rows, ncols)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            second = rref(shuffled, ncols)
            assert first.rows == second.rows
            assert first.pivot_columns == second.pivot_columns
            again = rref(first.rows, ncols)
            assert again.rows == first.rows

    def test_pivot_rows_are_reduced(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = random_matrix(rng, 4, 5)
            res = rref(rows, 5)
            for r, row in enumerate(res.rows[: res.rank]):
                c = res.pivot_columns[r]
                assert row[c] == 1
                for r2 in range(res.rank):
                    if r2 != r:
                        assert res.rows[r2][c] == 0


class TestEchelon:
    def test_lazy_rows_match_rref(self):
        # the dense-row entry points read lazy rows; `Echelon` reads columns
        rng = random.Random(303)
        for _ in range(20):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 7)
            rows = random_matrix(rng, nrows, ncols)
            res = rref(iter(rows), ncols)
            assert res == rref(rows, ncols)
            assert rank_of(iter(rows), ncols) == res.rank
            echelon = Echelon(columns_of(rows, ncols), nrows)
            assert (echelon.rank, echelon.pivot_columns) == (res.rank, res.pivot_columns)
            assert echelon.kernel() is echelon.kernel()
            kernel = dense_kernel(echelon)
            assert kernel == kernel_basis(iter(rows), ncols)
            assert len(kernel) == ncols - res.rank
            for vec in kernel:
                for row in rows:
                    assert sum(F(a) * b for a, b in zip(row, vec)) == 0

    def test_row_length_checked_while_reading(self):
        with pytest.raises(ValueError):
            rank_of(iter([[1, 2], [3]]), 2)
        with pytest.raises(ValueError):
            kernel_basis(iter([[1, 2], [3, 4, 5]]), 2)

    def test_row_index_checked(self):
        with pytest.raises(ValueError, match="row index"):
            Echelon([{0: 1}, {2: 1}], 2)
        with pytest.raises(ValueError, match="row index"):
            Echelon([{-1: 1}], 2)

    def test_sparsest_row_breaks_a_tie(self):
        # both rows offer a pivot of magnitude 1 in column 0; the sparser one
        # is taken, so the update touches one entry instead of four
        pivots = _forward([{0: 1, 1: 1, 2: 1, 3: 1}, {0: -1}], 4)
        assert pivots == [(0, {0: 1}), (1, {1: 1, 2: 1, 3: 1})]

    def test_counts_kept_in_place(self):
        # the forward pass updates its own sparse rows, whose lengths are
        # their nonzero counts: the second row is eliminated to the empty
        # row, and each pivot row is the caller's own mapping
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1, 2: 1}]
        pivots = _forward(rows, 3)
        assert pivots == [(0, {0: 1, 1: 2}), (1, {1: 1, 2: 1})]
        assert pivots[0][1] is rows[0] and pivots[1][1] is rows[2]
        assert rows[1] == {}


class TestKernel:
    def test_worked_example(self):
        basis = kernel_basis([[1, 1]], 2)
        assert len(basis) == 1
        v = basis[0]
        # proportional to (1, -1) and annihilated by the matrix
        assert v[0] == -v[1] != 0
        assert v[0] + v[1] == 0

    def test_full_rank_square(self):
        assert kernel_basis([[1, 0], [0, 1]], 2) == []

    def test_zero_map(self):
        basis = kernel_basis([[0, 0]], 2)
        assert basis == [[F(1), F(0)], [F(0), F(1)]]

    def test_rank_nullity_and_annihilation(self):
        rng = random.Random(202)
        for _ in range(40):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 7)
            rows = random_matrix(rng, nrows, ncols)
            rank = rank_of(rows, ncols)
            basis = kernel_basis(rows, ncols)
            assert rank + len(basis) == ncols
            for vec in basis:
                for row in rows:
                    assert sum(F(a) * b for a, b in zip(row, vec)) == 0
            seen = rref(basis, ncols) if basis else None
            if seen is not None:
                assert seen.rank == len(basis)


class TestMembership:
    def test_inside(self):
        coeffs = membership([F(3), F(3)], [[1, 0], [1, 3]])
        assert coeffs is not None
        assert coeffs[0] * 1 + coeffs[1] * 1 == 3
        assert coeffs[1] * 3 == 3

    def test_outside(self):
        assert membership([0, 0, 1], [[1, 0, 0], [0, 1, 0]]) is None

    def test_empty_span(self):
        # zero lies in the span of nothing via the empty combination
        assert membership([0, 0], []) == []
        assert membership([1, 0], []) is None

    def test_zero_target(self):
        assert membership([0, 0], [[1, 2], [3, 4]]) == [F(0), F(0)]

    def test_basis_element(self):
        assert membership([1, 0], [[1, 0], [0, 1]]) == [F(1), F(0)]

    def test_dependent_vectors_canonical(self):
        # free coefficients are zero, so solving against the independent
        # vectors alone gives the same combination on them
        vectors = [[1, 0, 1], [2, 0, 2], [0, 1, 1], [1, 1, 2]]
        assert membership([3, 2, 5], vectors) == [F(3), F(0), F(2), F(0)]
        assert membership([3, 2, 5], [vectors[0], vectors[2]]) == [F(3), F(2)]

    def test_random_exact(self):
        rng = random.Random(303)
        for _ in range(30):
            dim = rng.randrange(1, 6)
            k = rng.randrange(1, 4)
            vectors = [random_matrix(rng, 1, dim)[0] for _ in range(k)]
            weights = [rng.randint(-3, 3) for _ in range(k)]
            target = [sum(F(w) * F(v[i]) for w, v in zip(weights, vectors)) for i in range(dim)]
            coeffs = membership(target, vectors)
            assert coeffs is not None
            rebuilt = [sum(c * F(v[i]) for c, v in zip(coeffs, vectors)) for i in range(dim)]
            assert rebuilt == [F(t) for t in target]


class TestSpanBuilder:
    def test_incremental(self):
        sb = SpanBuilder(3)
        assert sb.insert([1, 1, 0]) is not None
        assert sb.rank == 1
        assert sb.insert([2, 2, 0]) is None
        assert sb.insert([F(1, 2), 0, 0]) is not None
        assert sb.rank == 2
        assert sb.contains([5, 3, 0])
        assert not sb.contains([0, 0, 1])

    def test_matches_rank(self):
        rng = random.Random(404)
        for _ in range(25):
            ncols = rng.randrange(1, 7)
            rows = random_matrix(rng, rng.randrange(1, 7), ncols)
            sb = SpanBuilder(ncols)
            for row in rows:
                sb.insert(row)
            assert sb.rank == rank_of(rows, ncols)
            # every original row must now be inside
            for row in rows:
                assert sb.contains(row)


# a dense 5x5 map whose only invariant factor above 1 is its determinant;
# an elimination that reduces columns by a pivot row it has not yet reduced
# grows its entries here past 700000 bits
BLOW_UP = [[0, 72, 0, 0, 95], [79, 0, 0, -59, 0], [0, 0, -85, -12, -49],
           [0, 75, 0, 0, -39], [77, 64, -24, 81, 44]]


def determinantal_factors(a, ncols):
    """The nonzero invariant factors read off the minors, independently of
    any elimination: with D_k the gcd of all k x k minors (D_0 = 1), the
    k-th factor is D_k / D_{k-1}, for every k with D_k nonzero."""
    minors = [1]
    for k in range(1, min(len(a), ncols) + 1):
        minors.append(gcd(*(det_int([[a[i][j] for j in cols] for i in rows])
                            for rows in combinations(range(len(a)), k)
                            for cols in combinations(range(ncols), k))))
    return [minors[k] // minors[k - 1] for k in range(1, len(minors)) if minors[k]]


class TestSmith:
    def test_worked_example(self):
        assert smith_normal_form([[-1, 2], [0, 1]], 2) == [1, 1]

    def test_divisibility_example(self):
        assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]

    def test_zero_and_empty(self):
        # only the nonzero factors come back, as many as the rank
        assert smith_normal_form([[0, 0], [0, 0]], 2) == []
        assert smith_normal_form([], 2) == []

    def test_rejects_fractions(self):
        with pytest.raises(TypeError):
            smith_normal_form([[F(1, 2)]], 1)

    def test_invariant_factors_from_minors(self):
        # 30 shapes up to 4 x 4 with small entries, then 10 dense 5 x 5
        # ones with entries up to 100
        rng = random.Random(505)
        for t in range(40):
            if t < 30:
                nrows, ncols, bound = rng.randrange(1, 5), rng.randrange(1, 5), 8
            else:
                nrows, ncols, bound = 5, 5, 100
            a = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
            diag = smith_normal_form(a, ncols)
            assert diag == determinantal_factors(a, ncols)
            assert all(x > 0 for x in diag)
            assert all(y % x == 0 for x, y in zip(diag, diag[1:]))

    def test_blow_up_example(self):
        diag = smith_normal_form(BLOW_UP, 5)
        assert diag == [1, 1, 1, 1, 9464380926]
        assert diag == determinantal_factors(BLOW_UP, 5)
        assert diag[-1] == abs(det_int(BLOW_UP))

    @pytest.mark.parametrize("n, bound, seed", [(8, 9, 707), (10, 3, 808)])
    def test_dense_squares(self, n, bound, seed):
        # dense squares big enough for coefficient growth to show
        rng = random.Random(seed)
        for _ in range(10):
            a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            diag = smith_normal_form(a, n)
            assert len(diag) == rank_of(a, n)
            if len(diag) == n:
                assert prod(diag) == abs(det_int(a))
            assert all(y % x == 0 for x, y in zip(diag, diag[1:]))


class TestDet:
    def test_fixed(self):
        assert det_int([[2, 0], [0, 3]]) == 6
        assert det_int([[0, 1], [1, 0]]) == -1
        assert det_int([[1]]) == 1
        assert det_int([]) == 1

    def test_multiplicative(self):
        rng = random.Random(606)
        for _ in range(20):
            n = rng.randrange(1, 5)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            ab = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
            assert det_int(ab) == det_int(a) * det_int(b)


# -- oracle tests for the elimination kernel --------------------------------
#
# The reference below is a textbook Gauss-Jordan elimination over Fraction
# that updates every entry; it shares no code with godeaux.linalg.

ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# mostly zeros, as in the product matrices the kernel serves
NONZERO = st.integers(-6, 6).filter(bool)
INT_ENTRY = st.tuples(st.integers(0, 9), NONZERO).map(lambda t: 0 if t[0] < 6 else t[1])
ENTRY = st.tuples(st.integers(0, 9), NONZERO, st.sampled_from([1, 1, 2, 3, 5])).map(
    lambda t: 0 if t[0] < 6 else (t[1] if t[2] == 1 else F(t[1], t[2])))


@st.composite
def matrices(draw, max_rows=7, max_cols=8):
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                         max_size=max_rows))
    return rows, ncols


# column entries: explicit zeros of both types, ints and Fractions
COLUMN_ENTRY = st.one_of(st.sampled_from([0, F(0)]), NONZERO,
                         st.tuples(NONZERO, st.sampled_from([2, 3, 5])).map(lambda t: F(*t)))


@st.composite
def sparse_matrices(draw, max_rows=7, max_cols=8):
    """Sparse columns over a drawn row count; columns may list zero entries
    or be empty, and rows that no column reaches are all zero."""
    nrows = draw(st.integers(0, max_rows))
    column = (st.dictionaries(st.integers(0, nrows - 1), COLUMN_ENTRY, max_size=nrows)
              if nrows else st.just({}))
    return draw(st.lists(column, max_size=max_cols)), nrows


def reference_rref(rows, ncols):
    """Nonzero rows of the RREF and the pivot columns."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][c]), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], tuple(pivots)


def reference_kernel(rows, ncols):
    reduced, pivots = reference_rref(rows, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [F(0)] * ncols
        vec[j] = F(1)
        for row, c in zip(reduced, pivots):
            vec[c] = -row[j]
        basis.append(vec)
    return basis


def primitive(row):
    """The integer multiple of a Fraction row with content 1 and the sign of
    its first nonzero entry."""
    den = lcm(*(F(x).denominator for x in row))
    ints = [int(F(x) * den) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints]


def dense_cross_eliminate(row, prow, col):
    """The full-width update: every entry of p*row - a*prow, content-reduced
    unless the pivot entry p is 1, where it is row - a*prow as it stands."""
    g = gcd(prow[col], row[col])
    mp, ma = prow[col] // g, row[col] // g
    out = [mp * x - ma * y for x, y in zip(row, prow)]
    if prow[col] == 1:
        return out
    c = gcd(*out)
    return [x // c for x in out] if c > 1 else out


@st.composite
def tied_matrices(draw):
    """Wide, mostly zero matrices whose nonzero entries are mostly 1 or -1,
    so rows often tie on the smallest pivot magnitude with different
    supports; the first two rows always tie in column 0."""
    ncols = draw(st.integers(4, 14))
    entry = st.sampled_from([0] * 8 + [1, -1, 1, -1, 2, -3, F(1, 2)])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=2, max_size=9))
    rows[0][0], rows[1][0] = 1, -1
    return rows, ncols


@st.composite
def cross_cases(draw):
    """A row, a pivot row and a column where both are nonzero, with the
    pivot multiplier p/gcd(p, a) drawn as 1, -1 or something else.  The
    `unit` kind has the pivot entry 1, and the row and the pivot row's
    other entries share a factor of 1, 2, 3 or 6, which the update keeps."""
    n = draw(st.integers(1, 9))
    row = draw(st.lists(INT_ENTRY, min_size=n, max_size=n))
    prow = draw(st.lists(INT_ENTRY, min_size=n, max_size=n))
    col = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["one", "minus_one", "other", "unit"]))
    k = draw(NONZERO)
    p = draw(st.integers(1, 7))
    if kind == "one":
        prow[col], row[col] = p, p * k
    elif kind == "minus_one":
        prow[col], row[col] = -p, -p * k
    elif kind == "unit":
        s = draw(st.sampled_from([1, 2, 3, 6]))
        row = [s * x for x in row]
        prow = [s * x for x in prow]
        prow[col], row[col] = 1, s * k
    else:
        p += 1
        prow[col], row[col] = p, p * k + 1
    return kind, row, prow, col


@st.composite
def unit_pivot_matrices(draw):
    """Matrices whose pivots are mostly 1: rows with a leading 1 and later
    entries that are multiples of 6, and rows scaled by 2, 3 or 6, so that
    the unit-pivot updates leave rows whose content is above 1."""
    ncols = draw(st.integers(2, 10))
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        if draw(st.booleans()):
            lead = draw(st.integers(0, ncols - 1))
            rest = draw(st.lists(INT_ENTRY, min_size=ncols, max_size=ncols))
            rows.append([0] * lead + [1] + [6 * x for x in rest[lead + 1:]])
        else:
            s = draw(st.sampled_from([2, 3, 6]))
            rows.append([s * x for x in draw(st.lists(INT_ENTRY, min_size=ncols,
                                                      max_size=ncols))])
    return rows, ncols


class TestKernelOracle:
    @ORACLE
    @example(("unit", [2, 4], [1, 0], 0))
    @given(cross_cases())
    def test_cross_eliminate_matches_dense(self, case):
        # the update is in place on sparse rows: the row becomes the sparse
        # form of the dense result and stores no zero, and the pivot row is
        # untouched; a pivot entry of 1 leaves the row's content, so
        # {0: 2, 1: 4} minus 2 * {0: 1} is {1: 4}
        kind, row, prow, col = case
        expected = dense_cross_eliminate(row, prow, col)
        g = gcd(prow[col], row[col])
        assert {"one": 1, "minus_one": -1, "unit": 1}.get(kind, prow[col]) == prow[col] // g
        row, prow = sparse(row), sparse(prow)
        prow_before = dict(prow)
        _cross_eliminate(row, prow, col)
        assert row == sparse(expected)
        assert col not in row
        assert all(type(x) is int and x for x in row.values())
        assert prow == prow_before

    @ORACLE
    @example(([[1, 2, 0, 3], [0, 0, 1, 5]], 4))
    @given(matrices())
    def test_kernel_vector_matches_kernel(self, matrix):
        # a free column's vector solved from the forward pivot rows is that
        # column's `kernel()` vector, entries and key order alike, and it is
        # the same read again from the back-substituted rows
        rows, ncols = matrix
        echelon = Echelon(columns_of(rows, ncols), len(rows))
        free = [j for j in range(ncols) if j not in echelon.pivot_columns]
        read = [list(echelon.kernel_vector(j).items()) for j in free]
        assert read == [list(v.items()) for v in echelon.kernel()]
        assert read == [list(echelon.kernel_vector(j).items()) for j in free]
        assert all(type(x) is F and x for vec in read for _, x in vec)
        for j in echelon.pivot_columns + (-1, ncols):
            with pytest.raises(ValueError, match="not a free column"):
                echelon.kernel_vector(j)

    @ORACLE
    @given(matrices())
    def test_echelon_and_rref(self, matrix):
        rows, ncols = matrix
        before = deepcopy(rows)
        reduced, pivots = reference_rref(rows, ncols)
        echelon = Echelon(columns_of(rows, ncols), len(rows))
        assert echelon.rank == len(pivots)
        assert echelon.pivot_columns == pivots
        assert dense_kernel(echelon) == reference_kernel(rows, ncols)
        res = rref(rows, ncols)
        zero = [F(0)] * ncols
        assert res.rows == reduced + [zero] * (len(rows) - len(reduced))
        assert (res.pivot_columns, res.rank) == (pivots, len(pivots))
        assert rows == before

    @ORACLE
    @example(([[1, 6, 0], [2, 4, 6], [0, 3, 3]], 3))
    @given(unit_pivot_matrices())
    def test_unit_pivots_keep_the_rref(self, matrix):
        # rows left with content by unit-pivot updates still give the
        # reference's rank, pivot columns, kernel and RREF
        rows, ncols = matrix
        reduced, pivots = reference_rref(rows, ncols)
        echelon = Echelon(columns_of(rows, ncols), len(rows))
        assert echelon.rank == len(pivots)
        assert echelon.pivot_columns == pivots
        assert dense_kernel(echelon) == reference_kernel(rows, ncols)
        assert rref(rows, ncols).rows[:len(pivots)] == reduced

    @ORACLE
    @example(([{0: F(1, 2), 2: 0}, {}, {0: 1, 2: F(0)}, {0: 3, 1: F(-2, 3)}], 4))
    @given(sparse_matrices())
    def test_echelon_from_columns(self, matrix):
        columns, nrows = matrix
        before = deepcopy(columns)
        ncols = len(columns)
        rows = [[col.get(i, 0) for col in columns] for i in range(nrows)]
        reduced, pivots = reference_rref(rows, ncols)
        echelon = Echelon(columns, nrows)
        assert echelon.rank == len(pivots)
        assert echelon.pivot_columns == pivots
        assert dense_kernel(echelon) == reference_kernel(rows, ncols)
        # no row ever stores a zero, which the pivot search (`col in row`)
        # and the tie-break (`len(row)`) rely on: not the eliminated rows,
        # not the pivot rows, and not the pivot rows once fully reduced
        int_rows = _int_rows(columns, nrows)
        forward = _forward(int_rows, ncols)
        assert tuple(c for c, _ in forward) == pivots
        assert all(any(row is r for r in int_rows) for _, row in forward)
        for row in int_rows:
            assert all(type(x) is int and x for x in row.values())
        for _, row in _back_substitute(forward):
            assert all(type(x) is int and x for x in row.values())
        # the sparse kernel contract: one vector per free column j, its keys
        # ascending, pivot columns before j and then j, where the entry is 1;
        # every listed entry is a nonzero Fraction
        free = [j for j in range(ncols) if j not in pivots]
        for j, vec in zip(free, echelon.kernel(), strict=True):
            keys = list(vec)
            assert keys == sorted(keys) and keys[-1] == j
            assert set(keys[:-1]) <= {c for c in pivots if c < j}
            assert vec[j] == 1
            assert all(type(x) is F and x for x in vec.values())
        assert columns == before
        assert all(type(x) is type(y) for col, old in zip(columns, before)
                   for x, y in zip(col.values(), old.values()))
        for col in columns:
            assert sparse(dense(col, nrows)) == {i: x for i, x in col.items() if x}

    @ORACLE
    @given(tied_matrices(), st.randoms(use_true_random=False))
    def test_row_order_does_not_matter(self, matrix, rnd):
        # the pivot row chosen on a tie depends on the row order and on the
        # supports; the rank, pivot columns, kernel and RREF do not
        rows, ncols = matrix
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        first = Echelon(columns_of(rows, ncols), len(rows))
        second = Echelon(columns_of(shuffled, ncols), len(rows))
        assert (second.rank, second.pivot_columns) == (first.rank, first.pivot_columns)
        assert second.kernel() == first.kernel()
        assert dense_kernel(first) == reference_kernel(rows, ncols)
        assert rref(shuffled, ncols) == rref(rows, ncols)

    @ORACLE
    @given(matrices(max_rows=5), st.data())
    def test_membership(self, matrix, data):
        vectors, width = matrix
        target = data.draw(st.lists(ENTRY, min_size=width, max_size=width))
        if vectors and data.draw(st.booleans()):
            # a target inside the span, to reach the solving branch
            weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(vectors),
                                         max_size=len(vectors)))
            target = [sum(w * F(v[i]) for w, v in zip(weights, vectors))
                      for i in range(width)]
        before = deepcopy((target, vectors))
        # reference: columns are the vectors, then the target
        n = len(vectors)
        augmented = [[F(v[i]) for v in vectors] + [F(target[i])] for i in range(width)]
        reduced, pivots = reference_rref(augmented, n + 1)
        if n in pivots:
            expected = None
        else:
            expected = [F(0)] * n
            for row, c in zip(reduced, pivots):
                expected[c] = row[n]
        assert membership(target, vectors) == expected
        assert (target, vectors) == before

    @ORACLE
    @given(matrices(max_rows=8), st.randoms(use_true_random=False))
    def test_span_builder(self, matrix, rnd):
        rows, ncols = matrix
        order = rows[:]
        rnd.shuffle(order)
        reduced, pivots = reference_rref(rows, ncols)
        for sequence in (rows, order):
            sb = SpanBuilder(ncols)
            seen = []
            rank = 0
            for row in sequence:
                before = deepcopy(row)
                got = sb.insert(row)
                assert row == before
                seen.append(row)
                grown = len(reference_rref(seen, ncols)[1])
                assert (got is not None) == (grown > rank)
                rank = grown
            assert sb.rank == len(pivots)
            assert sorted(sb.pivot_cols) == list(pivots)
            assert [dense(sb.rows[c], ncols) for c in pivots] == [primitive(r) for r in reduced]
            for row in rows:
                assert sb.contains(row)
                assert not sb.residual(row)


@st.composite
def column_sets(draw):
    """Integer column sets A and B of one height, where some columns are
    combinations of columns drawn before them, so that both sets have
    dependent columns."""
    height = draw(st.integers(1, 7))
    columns = []
    for _ in range(draw(st.integers(0, 10))):
        if columns and draw(st.booleans()):
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(columns),
                                    max_size=len(columns)))
            columns.append([sum(w * c[i] for w, c in zip(weights, columns))
                            for i in range(height)])
        else:
            columns.append(draw(st.lists(INT_ENTRY, min_size=height, max_size=height)))
    split = draw(st.integers(0, len(columns)))
    return height, columns[:split], columns[split:]


class TestGreedyChoiceOracle:
    @ORACLE
    @given(column_sets())
    def test_pivot_columns_past_a_block(self, sets):
        # the B columns that raise a span's rank, inserted after all of A,
        # are the pivot columns of [independent columns of A | B] past A's rank
        height, a, b = sets
        span = SpanBuilder(height)
        for col in a:
            span.insert(col)
        rank_a = span.rank
        raising = [j for j, col in enumerate(b) if span.insert(col) is not None]
        kept = [a[j] for j in Echelon([sparse(col) for col in a], height).pivot_columns]
        assert len(kept) == rank_a
        joint = Echelon([sparse(col) for col in kept + b], height)
        assert joint.pivot_columns[:rank_a] == tuple(range(rank_a))
        assert [j - rank_a for j in joint.pivot_columns[rank_a:]] == raising
        assert joint.rank == span.rank
