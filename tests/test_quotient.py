"""Hypersurface quotient: normal forms and graded dimensions.

Dimension oracle: coefficient of t^d in (1 - t^6)/((1-t)^2 (1-t^2)(1-t^3)),
expanded independently of the enumeration code.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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

    def test_sparse_coordinates_reject_reducible_monomial(self, quotient, ring):
        # z^2 has degree 6 but is not a basis monomial: the input is unreduced
        with pytest.raises(ValueError, match="degree mismatch"):
            quotient.sparse_coordinates(parse_poly("z^2 + x1^6", ring), 6)

    def test_sparse_coordinates_reject_wrong_degree(self, quotient, ring):
        with pytest.raises(ValueError, match="degree mismatch"):
            quotient.sparse_coordinates(parse_poly("x1*y", ring), 4)
        with pytest.raises(ValueError, match="degree mismatch"):
            quotient.sparse_coordinates(parse_poly("x1*y + x1^4", ring), 4)
        assert quotient.sparse_coordinates(Poly(ring, {}), 2) == {}

    def test_multiply_reduces(self, quotient, ring):
        z = ring.variable("z")
        prod = quotient.normal_form(z * z)
        assert prod == quotient.normal_form(parse_poly("z^2", ring))
        assert all(m[3] <= 1 for m in prod.coeffs)


# -- oracle: the worklist reduction against generic division -------------

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


def cancelling_factors(data, quotient):
    """Factors whose raw product holds a reducible monomial X with
    coefficient 0, which the rewrite of a larger product term adds to again.

    With lead the leading monomial, tm another term of the modulus and S any
    monomial making X = S*tm reducible, take B = X/lead.  Then
    (S + B) * (lead - tm) = S*lead - X + X - B*tm: X cancels, and the
    rewrite of S*lead lands on S*tm = X.  A few more terms ride along.
    """
    lead = quotient.lead
    tm = data.draw(st.sampled_from(sorted(m for m in quotient.modulus.coeffs if m != lead)))
    s = tuple(e + max(l - t, 0) for e, l, t in zip(data.draw(MONOMIAL), lead, tm))
    x = tuple(map(sum, zip(s, tm)))
    b = tuple(xe - le for xe, le in zip(x, lead))
    c = data.draw(COEFF)
    extra = st.lists(st.tuples(MONOMIAL, COEFF), max_size=2).map(oracle_poly)
    left = Poly(ORACLE_RING, {s: c}) + Poly(ORACLE_RING, {b: c})
    right = Poly(ORACLE_RING, {lead: 1, tm: -1})
    return left + data.draw(extra), right + data.draw(extra)


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

    @ORACLE
    @given(POLYS, POLYS)
    def test_multiply_matches_divide(self, oracle_quotient, a, b):
        _, remainder = divide(a * b, [oracle_quotient.modulus])
        assert oracle_quotient.multiply(a, b) == remainder

    @ORACLE
    @given(st.data())
    def test_multiply_with_cancelled_reducible_term(self, oracle_quotient, data):
        a, b = cancelling_factors(data, oracle_quotient)
        _, remainder = divide(a * b, [oracle_quotient.modulus])
        assert oracle_quotient.multiply(a, b) == remainder
