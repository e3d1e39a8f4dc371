"""Quotient of a weighted ring by one homogeneous polynomial.

A single homogeneous generator is its own Groebner basis, so division with
remainder by the modulus is the entire reduction machinery; no general
ideal arithmetic lives here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import Number
from .poly import Monomial, Poly, WeightedRing


class HypersurfaceRing:
    """S/(modulus) with a monomial basis per graded piece.

    The degree-d basis consists of the degree-d monomials not divisible by
    the leading monomial of the modulus.
    """

    def __init__(self, ambient: WeightedRing, modulus: Poly):
        if modulus.ring != ambient:
            raise ValueError("modulus must live in the ambient ring")
        if modulus.is_zero:
            raise ValueError("modulus must be nonzero")
        if not modulus.is_homogeneous():
            raise ValueError("modulus must be homogeneous")
        self.ambient = ambient
        self.modulus = modulus
        self.lead = modulus.leading_monomial()
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}

    def __repr__(self) -> str:
        return f"HypersurfaceRing({self.ambient!r} / ({self.modulus}))"

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative: remainder of division by the modulus.

        The remainder of single-divisor division is order-canonical, so this
        batched rewrite (all reducible terms per round) returns the same
        polynomial as poly.divide while touching each term far fewer times.
        """
        if p.ring != self.ambient:
            raise ValueError("polynomial from a different ring")
        lead = self.lead
        lc = self.modulus.coeffs[lead]
        tail = [(m, c) for m, c in self.modulus.coeffs.items() if m != lead]
        work = dict(p.coeffs)
        while True:
            reducible = [m for m in work if self._reducible(m)]
            if not reducible:
                return Poly(self.ambient, work)
            # a rewrite can feed another monomial in this same batch, so pop
            # live values rather than trusting the snapshot's coefficients
            for mono in reducible:
                coeff = work.pop(mono, 0)
                if not coeff:
                    continue
                if isinstance(coeff, int) and isinstance(lc, int) and coeff % lc == 0:
                    factor: Number = coeff // lc
                else:
                    factor = Fraction(coeff) / Fraction(lc)
                shift = tuple(a - b for a, b in zip(mono, lead))
                for tm, tc in tail:
                    tgt = tuple(a + b for a, b in zip(shift, tm))
                    nc = work.get(tgt, 0) - factor * tc
                    if nc:
                        work[tgt] = nc
                    else:
                        work.pop(tgt, None)

    def _reducible(self, mono: Monomial) -> bool:
        return all(a >= b for a, b in zip(mono, self.lead))

    def degree_basis(self, d: int) -> tuple[Monomial, ...]:
        if d < 0:
            raise ValueError("degree must be nonnegative")
        cached = self._basis_cache.get(d)
        if cached is None:
            cached = tuple(m for m in self.ambient.monomials(d) if not self._reducible(m))
            self._basis_cache[d] = cached
        return cached

    def coefficient_vector(self, p: Poly, d: int) -> list[Number]:
        """Coordinates of normal_form(p) over degree_basis(d), for any p of
        degree d; see `coordinates`."""
        return self.coordinates(self.normal_form(p), d)

    def coordinates(self, nf: Poly, d: int) -> list[Number]:
        """Coordinates over degree_basis(d) of a polynomial already in normal
        form, read without reducing it again.

        Raises ValueError unless every term of `nf` is a basis monomial of
        degree d, which rejects both a wrong degree and an unreduced input.
        """
        coeffs = nf.coeffs
        vec = [coeffs.get(m, 0) for m in self.degree_basis(d)]
        # the polynomial keeps no zero terms, so each of its terms is read
        # exactly when it lands in the basis
        if len(vec) - vec.count(0) != len(coeffs):
            raise ValueError(f"degree mismatch: not a normal form of degree {d}")
        return vec

    def from_vector(self, d: int, vec: Sequence[Number]) -> Poly:
        basis = self.degree_basis(d)
        if len(vec) != len(basis):
            raise ValueError("vector length does not match degree basis")
        return Poly(self.ambient, {m: c for m, c in zip(basis, vec)})
