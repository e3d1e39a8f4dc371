"""Hypersurface quotient: normal forms and graded dimensions.

Dimension oracle: coefficient of t^d in (1 - t^6)/((1-t)^2 (1-t^2)(1-t^3)),
expanded independently of the enumeration code.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from godeaux.linalg import dense
from godeaux.poly import Poly, WeightedRing, divide, parse_poly
from godeaux.quotient import HypersurfaceRing


def quotient_series(dmax):
    full = [0] * (dmax + 7)
    full[0] = 1
    for w in [1, 1, 2, 3]:
        for d in range(w, dmax + 7):
            full[d] += full[d - w]
    return [full[d] - (full[d - 6] if d >= 6 else 0) for d in range(dmax + 1)]


@pytest.fixture(scope="module")
def ring():
    return WeightedRing(["x1", "x2", "y", "z"], [1, 1, 2, 3])


@pytest.fixture(scope="module")
def quotient(ring):
    f = parse_poly("z^2+y^3-(x1-x2)*y*z+x1^5*x2+x1*x2^5", ring)
    return HypersurfaceRing(ring, f)


class TestConstruction:
    def test_modulus_leading_monomial(self, quotient):
        assert quotient.lead == (0, 0, 0, 2)

    def test_rejects_bad_modulus(self, ring):
        with pytest.raises(ValueError):
            HypersurfaceRing(ring, ring.zero())
        with pytest.raises(ValueError):
            HypersurfaceRing(ring, parse_poly("z^2+y", ring))


class TestNormalForm:
    def test_modulus_reduces_to_zero(self, quotient):
        assert quotient.normal_form(quotient.modulus).is_zero

    def test_low_degree_untouched(self, quotient, ring):
        rng = random.Random(61)
        for d in range(6):
            monos = ring.monomials(d)
            p = Poly(ring, {m: rng.randint(-4, 4) for m in monos})
            assert quotient.normal_form(p) == p

    def test_z_squared(self, quotient, ring):
        got = quotient.normal_form(parse_poly("z^2", ring))
        want = parse_poly("-y^3+(x1-x2)*y*z-x1^5*x2-x1*x2^5", ring)
        assert got == want

    def test_idempotent(self, quotient, ring):
        rng = random.Random(62)
        for d in range(6, 14):
            monos = ring.monomials(d)
            p = Poly(ring, {m: rng.randint(-4, 4) for m in rng.sample(monos, min(6, len(monos)))})
            once = quotient.normal_form(p)
            assert quotient.normal_form(once) == once

    def test_ideal_invariance(self, quotient, ring):
        # normal_form(a*f + b) = normal_form(b)
        rng = random.Random(63)
        f = quotient.modulus
        for _ in range(15):
            da = rng.randrange(0, 5)
            db = rng.randrange(0, 11)
            amonos = ring.monomials(da)
            bmonos = ring.monomials(db)
            a = Poly(ring, {m: rng.randint(-3, 3) for m in rng.sample(amonos, min(3, len(amonos)))})
            b = Poly(ring, {m: rng.randint(-3, 3) for m in rng.sample(bmonos, min(4, len(bmonos)))})
            assert quotient.normal_form(a * f + b) == quotient.normal_form(b)

    def test_multiplicative_up_to_reduction(self, quotient, ring):
        rng = random.Random(64)
        for _ in range(10):
            monos = ring.monomials(rng.randrange(3, 7))
            p = Poly(ring, {m: rng.randint(-3, 3) for m in rng.sample(monos, 3)})
            q = Poly(ring, {m: rng.randint(-3, 3) for m in rng.sample(monos, 3)})
            lhs = quotient.normal_form(p * q)
            rhs = quotient.normal_form(quotient.normal_form(p) * quotient.normal_form(q))
            assert lhs == rhs

    def test_agrees_with_generic_division(self, quotient, ring):
        from godeaux.poly import divide

        rng = random.Random(66)
        for d in range(6, 16):
            monos = ring.monomials(d)
            p = Poly(ring, {m: rng.randint(-5, 5) for m in rng.sample(monos, min(7, len(monos)))})
            _, r = divide(p, [quotient.modulus])
            assert quotient.normal_form(p) == r

    def test_basis_members_fixed(self, quotient):
        for d in range(10):
            for m in quotient.degree_basis(d):
                p = Poly(quotient.ambient, {m: 1})
                assert quotient.normal_form(p) == p


class TestDimensions:
    def test_degree_one(self, quotient):
        basis = quotient.degree_basis(1)
        assert basis == ((1, 0, 0, 0), (0, 1, 0, 0))

    def test_degree_three_count(self, quotient):
        assert len(quotient.degree_basis(3)) == 7

    def test_closed_form(self, quotient):
        for m in range(1, 11):
            assert len(quotient.degree_basis(m)) == 1 + m * (m + 1) // 2

    def test_series_to_thirty(self, quotient):
        series = quotient_series(30)
        for d in range(31):
            assert len(quotient.degree_basis(d)) == series[d]

    def test_tricanonical_target_dimension(self, quotient):
        assert len(quotient.degree_basis(27)) == 379

    def test_no_z_squared_in_basis(self, quotient):
        for d in range(15):
            for m in quotient.degree_basis(d):
                assert m[3] <= 1

    def test_basis_leaves_the_ambient_monomial_cache_empty(self):
        # a fresh ambient ring: the module's ring is shared with tests that
        # fill its cache
        ambient = WeightedRing(["x1", "x2", "y", "z"], [1, 1, 2, 3])
        fresh = HypersurfaceRing(ambient, parse_poly("z^2+y^3+x1^6+x2^6", ambient))
        bases = [fresh.degree_basis(d) for d in range(16)]
        assert not ambient._mono_cache
        assert bases == [tuple(m for m in ambient.monomials(d) if m[3] <= 1) for d in range(16)]
        with pytest.raises(ValueError, match="nonnegative"):
            fresh.degree_basis(-1)


class TestVectors:
    def test_round_trip(self, quotient):
        rng = random.Random(65)
        for d in range(8):
            basis = quotient.degree_basis(d)
            vec = [rng.randint(-5, 5) for _ in basis]
            p = Poly(quotient.ambient, dict(zip(basis, vec)))
            assert quotient.coefficient_vector(p, d) == vec

    def test_vector_reduces_first(self, quotient, ring):
        # z^2 is not a basis monomial; its vector is that of its normal form
        vec = quotient.coefficient_vector(parse_poly("z^2", ring), 6)
        p = Poly(ring, dict(zip(quotient.degree_basis(6), vec)))
        assert p == quotient.normal_form(parse_poly("z^2", ring))

    def test_coordinates_agree_on_normal_forms(self, quotient, ring):
        rng = random.Random(66)
        monos = {d: ring.monomials(d) for d in range(9)}
        for _ in range(40):
            d = rng.randrange(9)
            p = Poly(ring, {m: rng.randint(-3, 3) for m in monos[d]
                            if rng.randrange(3) == 0})
            nf = quotient.normal_form(p)
            basis = quotient.degree_basis(d)
            assert quotient.coefficient_vector(p, d) == [nf.coeffs.get(m, 0) for m in basis]
            column = quotient.sparse_coordinates(nf, d)
            assert {basis[i]: c for i, c in column.items()} == nf.coeffs

    def test_coordinates_reject_reducible_monomial(self, quotient, ring):
        # z^2 has degree 6 but is not a basis monomial: read unreduced, the
        # input is refused; coefficient_vector reduces it first and reads
        # the coordinates of its normal form
        p = parse_poly("z^2 + x1^6", ring)
        with pytest.raises(ValueError, match="degree mismatch"):
            quotient.sparse_coordinates(p, 6)
        column = quotient.sparse_coordinates(quotient.normal_form(p), 6)
        assert quotient.coefficient_vector(p, 6) == dense(column, len(quotient.degree_basis(6)))

    def test_coordinates_reject_wrong_degree(self, quotient, ring):
        with pytest.raises(ValueError, match="degree mismatch"):
            quotient.coefficient_vector(parse_poly("x1*y", ring), 4)
        # the zero polynomial lies in every degree
        assert quotient.coefficient_vector(Poly(ring, {}), 2) == [0] * len(quotient.degree_basis(2))

    def test_sparse_coordinates_reject_wrong_degree(self, quotient, ring):
        with pytest.raises(ValueError, match="degree mismatch"):
            quotient.sparse_coordinates(parse_poly("x1*y", ring), 4)
        with pytest.raises(ValueError, match="degree mismatch"):
            quotient.sparse_coordinates(parse_poly("x1*y + x1^4", ring), 4)
        assert quotient.sparse_coordinates(Poly(ring, {}), 2) == {}

    def test_times_refuses_elements_without_a_degree(self, quotient, ring):
        column = {0: 1}
        with pytest.raises(ValueError, match="nonzero"):
            quotient.times(column, 1, ring.zero())
        with pytest.raises(ValueError, match="homogeneous"):
            quotient.times(column, 1, parse_poly("x1 + y", ring))
        other = WeightedRing(["x1", "x2", "y", "w"], [1, 1, 2, 3])
        with pytest.raises(ValueError, match="different ring"):
            quotient.times(column, 1, other.variable("x1"))

    def test_times_builds_tables_on_first_use(self, ring):
        fresh = HypersurfaceRing(ring, parse_poly("z^2+y^3+x1^6", ring))
        assert fresh._shift_cache == {}
        z = ring.variable("z")
        # z * z lands on the reducible z^2, whose normal form is -y^3 - x1^6
        column = fresh.times(fresh.times({0: 1}, 0, z), 3, z)
        basis = fresh.degree_basis(6)
        assert {basis[i]: c for i, c in column.items()} == {(0, 0, 3, 0): -1, (6, 0, 0, 0): -1}
        assert sorted(fresh._shift_cache) == [((0, 0, 0, 1), 0), ((0, 0, 0, 1), 3)]

    def test_tables_share_basis_entries(self, ring):
        # a product that is a basis monomial has the entry ((position, 1),),
        # one object for every table that lands in its degree
        fresh = HypersurfaceRing(ring, parse_poly("z^2+y^3+x1^6", ring))
        _, by_y = fresh._shift_table((0, 0, 1, 0), 4)
        _, by_x1 = fresh._shift_table((1, 0, 0, 0), 5)
        target = (2, 0, 2, 0)
        from_y = by_y[fresh.degree_basis(4).index((2, 0, 1, 0))]
        from_x1 = by_x1[fresh.degree_basis(5).index((1, 0, 2, 0))]
        assert from_y == ((fresh.degree_basis(6).index(target), 1),)
        assert from_y is from_x1
        # a reducible product, x1*z^2 = (x1*z) * z = z * (x1*z), is one
        # memoized normal form for both tables
        _, by_z = fresh._shift_table((0, 0, 0, 1), 4)
        _, by_x1z = fresh._shift_table((1, 0, 0, 1), 3)
        from_z = by_z[fresh.degree_basis(4).index((1, 0, 0, 1))]
        from_x1z = by_x1z[fresh.degree_basis(3).index((0, 0, 0, 1))]
        nf = fresh.normal_form(parse_poly("x1*z^2", ring))
        assert dict(from_z) == fresh.sparse_coordinates(nf, 7)
        assert from_z is from_x1z


class TestReindexing:
    """`times` by an element whose terms all miss z, the variable of
    lead(f) = z^2, re-indexes the column: every table entry is one
    (position, 1) pair, and nothing is reduced."""

    @pytest.mark.parametrize("text", ["x1", "x1*x2^2*y", "3/2*x1^2", "x2*y+x1*y",
                                      "y-x2^2-x1^2", "x1^4-2/3*x1*x2*y+y^2"],
                             ids=["variable", "monomial", "fraction-term", "two-terms",
                                  "three-terms", "fraction-sum"])
    def test_matches_normal_form(self, ring, text):
        fresh = HypersurfaceRing(ring, parse_poly("z^2+y^3-(x1-x2)*y*z+x1^5*x2+x1*x2^5", ring))
        element = parse_poly(text, ring)
        e = element.homogeneous_degree()
        rng = random.Random(67)
        samples = []
        for d in range(12):
            basis = fresh.degree_basis(d)
            for _ in range(4):
                column = {i: rng.choice([rng.randint(1, 5), -rng.randint(1, 5),
                                         F(rng.randint(-5, 5) or 1, rng.randint(2, 4))])
                          for i in rng.sample(range(len(basis)), min(5, len(basis)))}
                x = Poly(ring, {basis[i]: c for i, c in column.items()})
                samples.append((d, column, fresh.sparse_coordinates(
                    fresh.normal_form(x * element), d + e)))

        def refuse(*args):
            raise AssertionError("a re-indexing reduced a monomial")

        fresh._entry = refuse
        for d, column, expected in samples:
            got = fresh.times(column, d, element)
            assert got == expected
            assert all(type(c) is int or c.denominator != 1 for c in got.values())
            assert all(got.values())
        assert all(len(entry) == 1 and entry[0][1] == 1
                   for _, table in fresh._shift_cache.values() for entry in table)

    @pytest.mark.parametrize("var, mixed", [("x1", "x1 + y"), ("z", "z + y")],
                             ids=["re-indexing", "table"])
    def test_refusals_match_the_table_path(self, quotient, ring, var, mixed):
        column = {0: 1}
        with pytest.raises(ValueError, match="nonzero"):
            quotient.times(column, 1, ring.zero())
        with pytest.raises(ValueError, match="homogeneous"):
            quotient.times(column, 1, parse_poly(mixed, ring))
        other = WeightedRing(["x1", "x2", "y", "z"], [1, 1, 2, 4])
        with pytest.raises(ValueError, match="different ring"):
            quotient.times(column, 1, other.variable(var))


# -- oracle: the memoized rewrite against generic division --------------

ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=100)

ORACLE_RING = WeightedRing(["x1", "x2", "y", "z"], [1, 1, 2, 3])
ORACLE_MODULI = {
    # the shipped modulus, leading monomial z^2
    "shipped": "z^2+y^3-(x1-x2)*y*z+x1^5*x2+x1*x2^5",
    # leading monomial y*z, so a reducibility test compares two exponents
    "two-variable-lead": "y*z+x1^2*z-x2*y^2+x1^5-2*x1*x2^4",
    # leading coefficient 3, so rewrites divide and coefficients are Fractions
    "non-unit-lead": "3*z^2-2*y^3+x1*x2*y^2+5*x1^6",
}

MONOMIAL = st.tuples(*[st.integers(0, 2)] * 4)
COEFF = st.one_of(st.integers(-4, 4).filter(bool),
                  st.builds(F, st.integers(-4, 4).filter(bool), st.integers(2, 3)))


def oracle_poly(terms):
    return Poly(ORACLE_RING, dict(terms))


POLYS = st.lists(st.tuples(MONOMIAL, COEFF), max_size=4).map(oracle_poly)


def normal_form_factor(data, quotient):
    """A degree d and the coordinates over degree_basis(d) of an element of
    S/f, some entries Fractions."""
    d = data.draw(st.integers(0, 6))
    size = len(quotient.degree_basis(d))
    return d, data.draw(st.dictionaries(st.integers(0, size - 1), COEFF, max_size=4))


def homogeneous_element(data, e, min_size=1):
    """A polynomial of degree e whose terms may be reducible."""
    terms = st.tuples(st.sampled_from(ORACLE_RING.monomials(e)), COEFF)
    return data.draw(st.lists(terms, min_size=min_size, max_size=4).map(oracle_poly))


def cancelling_factors(data, quotient):
    """A degree d, the coordinates of an x in S/f of degree d, an element,
    and the reducible monomial X that two products of their terms hit with
    opposite coefficients, so X is absent from the raw product x * element.

    With b1, b2 distinct basis monomials of degree d and u a monomial making
    X = b1*b2*u reducible, take x = a*b1 + a2*b2 and element = u*(a2*b2 -
    a*b1): X comes from b1 * (a2*b2*u) and from b2 * (-a*b1*u) and cancels,
    while the reductions of both land in the coordinates.  A few more
    element terms of the same degree ride along.
    """
    d = data.draw(st.integers(1, 4))
    basis = quotient.degree_basis(d)
    i1, i2 = data.draw(st.lists(st.integers(0, len(basis) - 1), min_size=2, max_size=2,
                                unique=True))
    b1, b2 = basis[i1], basis[i2]
    u = tuple(max(l - p - q, 0) + r for l, p, q, r
              in zip(quotient.lead, b1, b2, data.draw(st.tuples(*[st.integers(0, 1)] * 4))))
    cancelled = tuple(p + q + r for p, q, r in zip(b1, b2, u))
    a, a2 = data.draw(COEFF), data.draw(COEFF)
    shifted = [tuple(p + r for p, r in zip(b, u)) for b in (b2, b1)]
    e = ORACLE_RING.degree(shifted[0])
    element = (Poly(ORACLE_RING, {shifted[0]: a2, shifted[1]: -a})
               + homogeneous_element(data, e, min_size=0))
    return d, {i1: a, i2: a2}, element, cancelled


def assert_times_matches_divide(quotient, d, column, element):
    basis = quotient.degree_basis(d)
    x = Poly(ORACLE_RING, {basis[i]: c for i, c in column.items()})
    e = element.homogeneous_degree()
    _, remainder = divide(x * element, [quotient.modulus])
    got = quotient.times(column, d, element)
    assert got == quotient.sparse_coordinates(remainder, d + e)
    # `==` equates 2 and Fraction(2): every integer value is stored as an
    # int, as `Poly` stores it, and no zero is stored
    assert all(type(c) is int or c.denominator != 1 for c in got.values())
    assert all(got.values())


@pytest.fixture(scope="module", params=sorted(ORACLE_MODULI))
def oracle_quotient(request):
    f = parse_poly(ORACLE_MODULI[request.param], ORACLE_RING)
    return HypersurfaceRing(ORACLE_RING, f)


class TestReductionOracle:
    def test_moduli_cover_the_cases(self):
        quotients = {name: HypersurfaceRing(ORACLE_RING, parse_poly(text, ORACLE_RING))
                     for name, text in ORACLE_MODULI.items()}
        assert quotients["shipped"].lead == (0, 0, 0, 2)
        assert quotients["two-variable-lead"].lead == (0, 0, 1, 1)
        unit = quotients["non-unit-lead"]
        assert unit.modulus.coeffs[unit.lead] == 3

    @ORACLE
    @given(POLYS)
    def test_normal_form_matches_divide(self, oracle_quotient, p):
        _, remainder = divide(p, [oracle_quotient.modulus])
        assert oracle_quotient.normal_form(p) == remainder

    def test_lead_powers_match_divide(self, oracle_quotient):
        # lead^k * v starts the longest rewrite chains in its degree: a
        # memo entry recurses through products that lead still divides
        lead = oracle_quotient.lead
        for k in range(1, 7):
            for v in range(ORACLE_RING.n):
                mono = tuple(k * e + (i == v) for i, e in enumerate(lead))
                p = Poly(ORACLE_RING, {mono: 1})
                _, remainder = divide(p, [oracle_quotient.modulus])
                assert oracle_quotient.normal_form(p) == remainder

    @ORACLE
    @given(st.data())
    def test_times_matches_divide(self, oracle_quotient, data):
        d, column = normal_form_factor(data, oracle_quotient)
        element = homogeneous_element(data, data.draw(st.integers(0, 6)))
        assert_times_matches_divide(oracle_quotient, d, column, element)

    @ORACLE
    @given(st.data())
    def test_times_with_cancelled_reducible_term(self, oracle_quotient, data):
        d, column, element, cancelled = cancelling_factors(data, oracle_quotient)
        basis = oracle_quotient.degree_basis(d)
        raw = Poly(ORACLE_RING, {basis[i]: c for i, c in column.items()}) * element
        assert oracle_quotient._reducible(cancelled)
        # a riding term may hit X again
        assume(cancelled not in raw.coeffs)
        assert_times_matches_divide(oracle_quotient, d, column, element)
