"""Restriction to the double curve and the invariant subring."""

import random
from fractions import Fraction

import pytest

from godeaux.poly import Poly, WeightedRing, parse_poly
from godeaux.quotient import HypersurfaceRing
from godeaux.residue import CurveElement, CurveRing, ResidueMap, TauSubring
from godeaux.linalg import Echelon, dense, membership

F = Fraction


def tau_membership(tau, e, d=None):
    """Oracle for descent: the coefficients of e over tau.basis(d), or None
    if e lies outside the subring, by `linalg.membership` over dense
    columns."""
    if d is None:
        d = e.degree
    width = 2 * (d + 1)
    return membership(dense(e.coordinate_vector(d), width),
                      [dense(c, width) for c in tau.basis_vectors(d)])


@pytest.fixture(scope="module")
def ring():
    return WeightedRing(["x1", "x2", "y", "z"], [1, 1, 2, 3])


@pytest.fixture(scope="module")
def quotient(ring):
    return HypersurfaceRing(ring, parse_poly("z^2+y^3-(x1-x2)*y*z+x1^5*x2+x1*x2^5", ring))


@pytest.fixture(scope="module")
def curve():
    return CurveRing()


@pytest.fixture(scope="module")
def res(quotient, curve):
    images = [
        curve.element("0", "b2-a2"),
        curve.element("b1-a1", "0"),
        curve.element("-a1*b1", "-a2*b2"),
        curve.element("-a1^2*b1", "a2^2*b2"),
    ]
    return ResidueMap(quotient, curve, images)


@pytest.fixture(scope="module")
def tau(curve):
    return TauSubring(curve.element("a1", "a2"), curve.element("b1", "a2-b2"))


class TestCurveElement:
    def test_degree_validation(self, curve):
        with pytest.raises(ValueError):
            curve.element("a1", "a2^2")
        with pytest.raises(ValueError):
            CurveElement(curve, parse_poly("a1+1", curve.first), parse_poly("0", curve.second))

    def test_zero_has_flexible_degree(self, curve):
        z = curve.zero()
        assert z.degree is None
        assert (z + curve.element("a1", "a2")).degree == 1

    def test_coordinate_order(self, curve):
        e = curve.element("a1^2+2*a1*b1+3*b1^2", "4*a2^2+5*a2*b2+6*b2^2")
        assert e.coordinate_vector() == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6}
        # zero coefficients are left out
        e = curve.element("-a1*b1", "7*b2^2")
        assert e.coordinate_vector() == {1: -1, 5: 7}

    def test_coordinate_zero_needs_degree(self, curve):
        with pytest.raises(ValueError):
            curve.zero().coordinate_vector()
        assert curve.zero().coordinate_vector(1) == {}

    def test_coordinate_degree_mismatch(self, curve):
        with pytest.raises(ValueError):
            curve.element("a1", "a2").coordinate_vector(2)

    def test_graded_dimension(self, curve):
        for d in range(6):
            # two binary forms of degree d: every monomial of both fills
            # positions 0 .. 2d + 1
            full = {(d - i, i): 1 for i in range(d + 1)}
            e = CurveElement(curve, Poly(curve.first, full), Poly(curve.second, full))
            assert sorted(e.coordinate_vector()) == list(range(2 * (d + 1)))


class TestResidueMap:
    def test_unit(self, res, curve):
        assert res.residue(res.quotient.ambient.one(), 0) == curve.one()

    def test_x1_x2_product_vanishes(self, res, ring):
        assert res.residue(parse_poly("x1*x2", ring)).is_zero

    def test_modulus_vanishes(self, res, quotient):
        # well-definedness on the quotient; also enforced at construction
        img = res._apply(quotient.modulus, 6)
        assert img.is_zero

    def test_rejects_non_annihilating_images(self, quotient, curve):
        images = [
            curve.element("a1", "0"),
            curve.element("b1", "0"),
            curve.element("-a1*b1", "-a2*b2"),
            curve.element("-a1^2*b1", "a2^2*b2"),
        ]
        with pytest.raises(ValueError):
            ResidueMap(quotient, curve, images)

    def test_homomorphism_random(self, res, ring, quotient):
        rng = random.Random(71)
        for _ in range(30):
            dp = rng.randrange(1, 6)
            dq = rng.randrange(1, 6)
            pm = ring.monomials(dp)
            qm = ring.monomials(dq)
            p = Poly(ring, {m: rng.randint(-4, 4) for m in rng.sample(pm, min(3, len(pm)))})
            q = Poly(ring, {m: rng.randint(-4, 4) for m in rng.sample(qm, min(3, len(qm)))})
            assert res.residue(p * q, dp + dq) == res.residue(p, dp) * res.residue(q, dq)
            if dp == dq:
                assert res.residue(p + q, dp) == res.residue(p, dp) + res.residue(q, dq)

    def test_degree_one_images(self, res, curve, ring):
        assert res.residue(ring.variable("x1")) == curve.element("0", "b2-a2")
        assert res.residue(ring.variable("x2")) == curve.element("b1-a1", "0")


class TestTauSubring:
    def test_basis_degree_zero(self, tau, curve):
        assert tau.basis(0) == [curve.one()]

    def test_basis_degree_one(self, tau, curve):
        assert tau.basis(1) == [curve.element("a1", "a2"), curve.element("b1", "a2-b2")]

    def test_basis_independent_up_to_twenty(self, tau, curve):
        for d in range(21):
            vecs = tau.basis_vectors(d)
            assert len(vecs) == d + 1
            assert Echelon(vecs, 2 * (d + 1)).rank == d + 1

    @pytest.mark.parametrize("first", [20, 7])
    def test_basis_matches_repeated_products(self, curve, first):
        # a fresh subring asked for a high degree first builds every lower
        # one in its loop; entry k must be u^(d-k) v^k multiplied out
        u, v = curve.element("a1", "a2"), curve.element("b1", "a2-b2")
        fresh = TauSubring(u, v)
        fresh.basis(first)
        for d in range(21):
            basis = fresh.basis(d)
            assert len(basis) == d + 1
            for k, element in enumerate(basis):
                expected = curve.one()
                for factor in [u] * (d - k) + [v] * k:
                    expected = expected * factor
                assert element == expected, (d, k)
                assert element.degree == d

    def test_basis_refuses_negative_degree(self, tau):
        with pytest.raises(ValueError):
            tau.basis(-1)

    def test_degree_two_membership(self, tau, curve):
        e = curve.element("b1^2-a1*b1+a1^2", "b2^2-a2*b2+a2^2")
        coeffs = tau_membership(tau, e)
        assert coeffs == [F(1), F(-1), F(1)]

    def test_zero_membership(self, tau, curve):
        coeffs = tau_membership(tau, curve.zero(), 3)
        assert coeffs == [F(0)] * 4

    def test_x1_residue_not_in_tau(self, tau, res, ring):
        e = res.residue(ring.variable("x1"))
        assert tau_membership(tau, e) is None

    def test_generator_residue_in_tau(self, tau, res, ring):
        e = res.residue(parse_poly("x1^2+x2^2-y", ring))
        coeffs = tau_membership(tau, e)
        assert coeffs == [F(1), F(-1), F(1)]
