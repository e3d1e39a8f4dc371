"""Quotient of a weighted ring by one homogeneous polynomial.

A single homogeneous generator is its own Groebner basis, so division with
remainder by the modulus is the entire reduction machinery; no general
ideal arithmetic lives here.

Inside `HypersurfaceRing` a monomial of S is keyed by one packed int, its
exponent of variable i in bits 32i to 32i + 31 (see `_pack`), so a product
of monomials is an integer sum and a table key hashes one int.  Packing is
exact while every exponent stays below 2^32, far above any degree the
program enumerates.  Every public reader takes and returns exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .linalg import Column, Number, dense
from .poly import Monomial, Poly, WeightedRing, _norm_coeff

# a product in S/f in coordinates: (column over degree_basis(d), d) -> column
Product = Callable[[Column, int], dict[int, Number]]


def _pack(mono: Monomial) -> int:
    """The packed key of an exponent tuple: exponent i in bits 32i to 32i + 31."""
    return sum(e << (32 * i) for i, e in enumerate(mono))


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
        self.lead = lead = modulus.leading_monomial()
        self._lead = _pack(lead)
        lc = modulus.coeffs[lead]
        # lead = -(tail)/lc modulo the modulus: a rewrite adds coeff * tc at
        # shift * tm for each packed (tm, tc) here
        self._rewrite = []
        for m, c in modulus.coeffs.items():
            if m != lead:
                q = -Fraction(c) / lc
                self._rewrite.append((_pack(m), q.numerator if q.denominator == 1 else q))
        # the only exponents a reducibility test has to compare
        self._lead_exponents = tuple((i, e) for i, e in enumerate(lead) if e)
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}
        self._shift_cache: dict[tuple[int, int], list] = {}
        self._unit_cache: dict[int, dict[int, tuple[tuple[int, int]]]] = {}
        # the normal form of each reducible monomial reached so far; see `_entry`
        self._memo: dict[int, tuple[tuple[int, Number], ...]] = {}

    def __repr__(self) -> str:
        return f"HypersurfaceRing({self.ambient!r} / ({self.modulus}))"

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative: remainder of division by the modulus,
        equal to poly.divide(p, [modulus])[1].

        Reduction is linear, so the result is the sum over the terms of p
        of their memoized normal forms (see `_entry`); p may have any
        degree and need not be homogeneous.
        """
        if p.ring != self.ambient:
            raise ValueError("polynomial from a different ring")
        out: dict[Monomial, Number] = {}
        for m, c in p.coeffs.items():
            d = self.ambient.degree(m)
            basis = self.degree_basis(d)
            for j, v in self._entry(_pack(m), d):
                out[basis[j]] = out.get(basis[j], 0) + c * v
        return Poly(self.ambient, out)

    def meets_lead(self, element: Poly) -> bool:
        """Whether a term of `element` shares a variable with lead; if none
        does, lead divides b * t iff it divides b, so nothing reduces."""
        return any(t[i] for t in element.coeffs for i, _ in self._lead_exponents)

    def multiplier(self, element: Poly) -> Product:
        """The product by `element`, homogeneous of degree e, checked once:
        a function taking the coordinates `column` of an x over
        degree_basis(d), and d, to the coordinates {position in
        degree_basis(d + e): coefficient} of normal_form(x * element).

        Multiplication by a monomial t is linear on S/f, so the product is
        read off one table per term of `element`: the memoized normal form
        of b * t for each basis monomial b of degree d (see `_shift_table`),
        looked up once per degree.  When a single term misses lead (no
        `meets_lead`), every entry is one (position, 1) pair, so the product
        only re-indexes the column through a flat position list, with no
        multiplication for a coefficient of 1.  Coefficients follow `Poly`'s
        rule: an integer value is an int, and zeros are dropped.
        """
        if element.ring != self.ambient:
            raise ValueError("polynomial from a different ring")
        if element.is_zero:
            raise ValueError("element must be nonzero")
        if not element.is_homogeneous():
            raise ValueError("element must be homogeneous")
        e = element.homogeneous_degree()
        terms = [(_pack(t), c) for t, c in element.coeffs.items()]
        tables: dict[int, list] = {}
        if len(terms) == 1 and not self.meets_lead(element):
            # the table loop below gives the same, more slowly; x and c are
            # nonzero, so no product is zero
            ((t, c),) = terms

            def shift(column: Column, d: int) -> dict[int, Number]:
                to = tables.get(d)
                if to is None:
                    to = tables[d] = [j for ((j, _),) in self._shift_table(t, d, e)]
                if c == 1:
                    return {to[i]: x if type(x) is int else _norm_coeff(x)
                            for i, x in column.items()}
                return {to[i]: v if type(v := x * c) is int else _norm_coeff(v)
                        for i, x in column.items()}
            return shift

        def product(column: Column, d: int) -> dict[int, Number]:
            shifts = tables.get(d)
            if shifts is None:
                shifts = tables[d] = [(self._shift_table(t, d, e), c) for t, c in terms]
            out: dict[int, Number] = {}
            get = out.get
            for table, c in shifts:
                for i, x in column.items():
                    xc = x * c
                    for j, v in table[i]:
                        out[j] = get(j, 0) + xc * v
            return {j: v if type(v) is int else _norm_coeff(v) for j, v in out.items() if v}
        return product

    def _shift_table(self, t: int, d: int, e: int) -> list:
        """For each monomial of degree_basis(d), the `_entry` of its product
        with the packed monomial t of degree e: the shared (position,
        coefficient) pairs of that product's normal form over
        degree_basis(d + e), so a product that several tables reach is one
        object.  Built on first use and kept."""
        key = (t, d)
        got = self._shift_cache.get(key)
        if got is None:
            units = self._units(d + e)
            got = self._shift_cache[key] = [units.get(m := b + t) or self._entry(m, d + e)
                                            for b in self._units(d)]
        return got

    def _entry(self, m: int, d: int) -> tuple[tuple[int, Number], ...]:
        """The (position, coefficient) pairs of the normal form of the packed
        monomial m of degree d over degree_basis(d), one object per monomial.

        A basis monomial reads its `_units` entry.  A reducible m = lead * s
        is lead's rewrite times s, the sum of tc * nf(s * tm) over the tail
        terms: each s * tm keeps the degree and lies below m in the monomial
        order, so the recursion ends, and its result is memoized.  (A
        memoized normal form may be 0, the empty tuple.)
        """
        got = self._units(d).get(m) or self._memo.get(m)
        if got is None:
            shift = m - self._lead
            acc: dict[int, Number] = {}
            for tm, tc in self._rewrite:
                for j, v in self._entry(shift + tm, d):
                    acc[j] = acc.get(j, 0) + tc * v
            got = self._memo[m] = tuple((j, _norm_coeff(v)) for j, v in acc.items() if v)
        return got

    def _reducible(self, mono: Monomial) -> bool:
        for i, e in self._lead_exponents:
            if mono[i] < e:
                return False
        return True

    def degree_basis(self, d: int) -> tuple[Monomial, ...]:
        cached = self._basis_cache.get(d)
        if cached is None:
            # not `ambient.monomials`, whose cache would keep the reducible ones
            cached = self._basis_cache[d] = tuple(
                m for m in self.ambient.enumerate_monomials(d) if not self._reducible(m))
        return cached

    def coefficient_vector(self, p: Poly, d: int) -> list[Number]:
        """The dense coordinates of normal_form(p) over degree_basis(d), for
        any p of degree d; see `sparse_coordinates`.  The program reads
        sparse coordinates; this is the tests' dense reading."""
        return dense(self.sparse_coordinates(self.normal_form(p), d), len(self.degree_basis(d)))

    def sparse_coordinates(self, nf: Poly, d: int) -> dict[int, Number]:
        """The nonzero coordinates {position in degree_basis(d): coefficient}
        of a polynomial already in normal form.

        Raises ValueError unless `nf` lies in the ambient ring and every term
        is a basis monomial of degree d, which rejects both a wrong degree
        and an unreduced input.
        """
        if nf.ring != self.ambient:
            raise ValueError("polynomial from a different ring")
        basis = self.degree_basis(d)
        units = self._units(d)
        out = {}
        for m, c in nf.coeffs.items():
            got = units.get(_pack(m))
            # an exponent of 2^32 or more would pack onto another monomial
            if got is None or basis[got[0][0]] != m:
                raise ValueError(f"degree mismatch: not a normal form of degree {d}")
            out[got[0][0]] = c
        return out

    def _units(self, d: int) -> dict[int, tuple[tuple[int, int]]]:
        """The `_entry` ((position, 1),) of each monomial of degree_basis(d),
        keyed by the packed monomial, in basis order: one object per basis
        monomial, shared by every table that lands in degree d, and the
        degree's position map."""
        units = self._unit_cache.get(d)
        if units is None:
            units = self._unit_cache[d] = {
                _pack(m): ((i, 1),) for i, m in enumerate(self.degree_basis(d))}
        return units
