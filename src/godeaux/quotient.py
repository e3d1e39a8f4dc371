"""Quotient of a weighted ring by one homogeneous polynomial.

A single homogeneous generator is its own Groebner basis, so division with
remainder by the modulus is the entire reduction machinery; no general
ideal arithmetic lives here.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

from .linalg import Column, Number, dense
from .poly import Monomial, Poly, WeightedRing, _norm_coeff


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
        lc = modulus.coeffs[lead]
        # lead = -(tail)/lc modulo the modulus: a rewrite adds coeff * tc at
        # shift * tm for each (tm, tc) here
        self._rewrite = []
        for m, c in modulus.coeffs.items():
            if m != lead:
                q = -Fraction(c) / lc
                self._rewrite.append((m, q.numerator if q.denominator == 1 else q))
        # the only exponents a reducibility test has to compare
        self._lead_exponents = tuple((i, e) for i, e in enumerate(lead) if e)
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}
        self._position_cache: dict[int, dict[Monomial, int]] = {}
        self._shift_cache: dict[tuple[Monomial, int], tuple[int, list]] = {}
        self._unit_cache: dict[int, list[tuple[tuple[int, int]]]] = {}

    def __repr__(self) -> str:
        return f"HypersurfaceRing({self.ambient!r} / ({self.modulus}))"

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative: remainder of division by the modulus.

        Equal to the remainder of poly.divide(p, [modulus]); see `_reduce`.
        """
        if p.ring != self.ambient:
            raise ValueError("polynomial from a different ring")
        return self._reduce(dict(p.coeffs))

    def times(self, column: Column, d: int, element: Poly) -> dict[int, Number]:
        """The coordinates {position in degree_basis(d + e): coefficient} of
        normal_form(x * element), for x given by its coordinates `column`
        over degree_basis(d) and `element` homogeneous of degree e.

        Multiplication by a monomial t is linear on S/f, so the product is
        read off one table per term of `element`: the normal form of b * t
        for each basis monomial b of degree d (see `_shift_table`).
        Coefficients follow `Poly`'s rule: a value equal to an integer is an
        int, and zeros are dropped.
        """
        if element.ring != self.ambient:
            raise ValueError("polynomial from a different ring")
        if element.is_zero:
            raise ValueError("element must be nonzero")
        out: dict[int, Number] = {}
        get = out.get
        degree = None
        for t, c in element.coeffs.items():
            e, table = self._shift_table(t, d)
            if degree is None:
                degree = e
            elif e != degree:
                raise ValueError("element must be homogeneous")
            for i, x in column.items():
                xc = x * c
                for j, v in table[i]:
                    out[j] = get(j, 0) + xc * v
        return {j: v if type(v) is int else _norm_coeff(v) for j, v in out.items() if v}

    def _shift_table(self, t: Monomial, d: int) -> tuple[int, list]:
        """The degree e of `t`, and for each monomial of degree_basis(d) the
        (position, coefficient) pairs of the normal form of its product with
        t over degree_basis(d + e).  Built on first use and kept."""
        key = (t, d)
        got = self._shift_cache.get(key)
        if got is None:
            e = self.ambient.degree(t)
            positions = self._positions(d + e)
            units = self._units(d + e)
            table = []
            for b in self.degree_basis(d):
                m = tuple(map(add, b, t))
                if self._reducible(m):
                    nf = self._reduce({m: 1})
                    table.append(tuple((positions[k], c) for k, c in nf.coeffs.items()))
                else:
                    table.append(units[positions[m]])
            got = self._shift_cache[key] = (e, table)
        return got

    def _reduce(self, work: dict[Monomial, Number]) -> Poly:
        """Reduce `work` (consumed) modulo the modulus in one worklist pass.

        A single divisor is its own Groebner basis, so the remainder does not
        depend on the order of the rewrites.  Every reducible monomial of
        the input is scheduled once, zero coefficients included, and a
        rewrite schedules only the reducible targets new to `work`.  The
        largest pending monomial goes first: a rewrite keeps the degree and
        lands below its source, and within one degree the monomial order
        compares reversed exponent tuples, so no monomial gains a term after
        its turn and each is rewritten at most once.
        """
        reducible = self._reducible
        lead = self.lead
        rewrite = self._rewrite
        pending = [(tuple(map(neg, m[::-1])), m) for m in work if reducible(m)]
        heapify(pending)
        while pending:
            mono = heappop(pending)[1]
            coeff = work.pop(mono)
            if not coeff:
                continue
            shift = tuple(map(sub, mono, lead))
            for tm, tc in rewrite:
                tgt = tuple(map(add, shift, tm))
                old = work.get(tgt)
                if old is None:
                    work[tgt] = coeff * tc
                    if reducible(tgt):
                        heappush(pending, (tuple(map(neg, tgt[::-1])), tgt))
                else:
                    work[tgt] = old + coeff * tc
        return Poly(self.ambient, work)

    def _reducible(self, mono: Monomial) -> bool:
        for i, e in self._lead_exponents:
            if mono[i] < e:
                return False
        return True

    def degree_basis(self, d: int) -> tuple[Monomial, ...]:
        if d < 0:
            raise ValueError("degree must be nonnegative")
        cached = self._basis_cache.get(d)
        if cached is None:
            cached = tuple(m for m in self.ambient.monomials(d) if not self._reducible(m))
            self._basis_cache[d] = cached
        return cached

    def coefficient_vector(self, p: Poly, d: int) -> list[Number]:
        """The dense coordinates of normal_form(p) over degree_basis(d), for
        any p of degree d; see `sparse_coordinates`.  The program reads
        sparse coordinates; this is the tests' dense reading."""
        return dense(self.sparse_coordinates(self.normal_form(p), d), len(self.degree_basis(d)))

    def sparse_coordinates(self, nf: Poly, d: int) -> dict[int, Number]:
        """The nonzero coordinates {position in degree_basis(d): coefficient}
        of a polynomial already in normal form.

        Raises ValueError unless every term of `nf` is a basis monomial of
        degree d, which rejects both a wrong degree and an unreduced input.
        """
        positions = self._positions(d)
        try:
            return {positions[m]: c for m, c in nf.coeffs.items()}
        except KeyError:
            raise ValueError(f"degree mismatch: not a normal form of degree {d}") from None

    def _units(self, d: int) -> list[tuple[tuple[int, int]]]:
        """For each position of degree_basis(d), the shift-table entry
        ((position, 1),) of a product that is that basis monomial, one
        object shared by every table that lands in degree d."""
        units = self._unit_cache.get(d)
        if units is None:
            units = self._unit_cache[d] = [((i, 1),) for i in range(len(self.degree_basis(d)))]
        return units

    def _positions(self, d: int) -> dict[Monomial, int]:
        positions = self._position_cache.get(d)
        if positions is None:
            positions = {m: i for i, m in enumerate(self.degree_basis(d))}
            self._position_cache[d] = positions
        return positions
