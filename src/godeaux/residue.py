"""Restriction of sections to the normalized double curve.

The target is a product of two binary-form rings; sections restrict via a
graded ring homomorphism given by explicit generator images, and descent
is tested as membership in the subring generated by two degree-1 elements.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .linalg import Number
from .poly import Poly, WeightedRing, evaluate, parse_poly

# a binary form of known degree d as {b-exponent: coefficient}: the
# coefficient of a^(d - i) b^i at i
Form = dict[int, Number]


def _times(f: Form, g: Form) -> Form:
    """The product of two binary forms, each a {b-exponent: coefficient}
    map, with no zero coefficient."""
    out: Form = {}
    for i, x in f.items():
        for j, y in g.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _forms(element: CurveElement) -> tuple[Form, Form]:
    """The {b-exponent: coefficient} maps of an element's two binary forms."""
    return tuple({b: c for (_, b), c in form.coeffs.items()}
                 for form in (element.first, element.second))


class CurveRing:
    """Product of two polynomial rings in variable pairs of weight 1."""

    def __init__(self, first_names: Sequence[str] = ("a1", "b1"),
                 second_names: Sequence[str] = ("a2", "b2")):
        self.first = WeightedRing(first_names, [1, 1])
        self.second = WeightedRing(second_names, [1, 1])

    def __eq__(self, other) -> bool:
        return (isinstance(other, CurveRing)
                and self.first == other.first and self.second == other.second)

    def zero(self, degree: Optional[int] = None) -> "CurveElement":
        return CurveElement(self, self.first.zero(), self.second.zero(), degree)

    def one(self) -> "CurveElement":
        return CurveElement(self, self.first.one(), self.second.one(), 0)

    def element(self, first_text: str, second_text: str) -> "CurveElement":
        """Build an element from grammar strings, one per factor."""
        return CurveElement(self, parse_poly(first_text, self.first),
                            parse_poly(second_text, self.second))


class CurveElement:
    """Pair of binary forms of one common degree; zero components allowed."""

    __slots__ = ("ring", "first", "second", "degree")

    def __init__(self, ring: CurveRing, first: Poly, second: Poly,
                 degree: Optional[int] = None):
        if first.ring != ring.first or second.ring != ring.second:
            raise ValueError("component from a different factor ring")
        degs = set()
        for comp in (first, second):
            if comp.coeffs:
                if not comp.is_homogeneous():
                    raise ValueError("components must be homogeneous")
                degs.add(comp.homogeneous_degree())
        if len(degs) > 1:
            raise ValueError("components of unequal degree")
        if degs:
            found = degs.pop()
            if degree is not None and degree != found:
                raise ValueError("stated degree does not match components")
            degree = found
        self.ring = ring
        self.first = first
        self.second = second
        self.degree = degree

    @property
    def is_zero(self) -> bool:
        return self.first.is_zero and self.second.is_zero

    def _merge_degree(self, other: "CurveElement") -> Optional[int]:
        if self.degree is None:
            return other.degree
        if other.degree is None or other.degree == self.degree:
            return self.degree
        raise ValueError("elements of unequal degree")

    def __eq__(self, other) -> bool:
        return (isinstance(other, CurveElement) and self.ring == other.ring
                and self.first == other.first and self.second == other.second)

    def __add__(self, other: "CurveElement") -> "CurveElement":
        d = self._merge_degree(other)
        return CurveElement(self.ring, self.first + other.first,
                            self.second + other.second, d)

    def __mul__(self, other) -> "CurveElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        d = None
        if self.degree is not None and other.degree is not None:
            d = self.degree + other.degree
        return CurveElement(self.ring, self.first * other.first,
                            self.second * other.second, d)

    def __rmul__(self, other) -> "CurveElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Number) -> "CurveElement":
        return CurveElement(self.ring, self.first.scale(c),
                            self.second.scale(c), self.degree)

    def coordinate_vector(self, d: Optional[int] = None) -> dict[int, Number]:
        """The {position: coefficient} column over the degree-d monomials of
        both factors, 2(d + 1) positions: the first factor's a^(d-i) b^i at
        i, the second's at d + 1 + i."""
        if d is None:
            d = self.degree
        if d is None:
            raise ValueError("degree required for the zero element")
        if self.degree is not None and self.degree != d:
            raise ValueError("degree mismatch")
        column = {i: x for (_, i), x in self.first.coeffs.items()}
        column.update((d + 1 + i, x) for (_, i), x in self.second.coeffs.items())
        return column

    def __repr__(self) -> str:
        return f"CurveElement(({self.first}), ({self.second}))"


class ResidueMap:
    """Graded homomorphism from a hypersurface quotient to a CurveRing.

    Generator images are validated to kill the modulus, so the map is well
    defined on the quotient.
    """

    def __init__(self, quotient, curve: CurveRing, images: Sequence[CurveElement]):
        ambient = quotient.ambient
        if len(images) != ambient.n:
            raise ValueError("one image per ambient variable required")
        for img, w in zip(images, ambient.weights):
            if img.degree != w:
                raise ValueError("image degree must equal the variable weight")
        self.quotient = quotient
        self.curve = curve
        self.images = list(images)
        check = self._apply(quotient.modulus, quotient.modulus.homogeneous_degree())
        if not check.is_zero:
            raise ValueError("images do not annihilate the modulus")

    def _apply(self, p: Poly, d: int) -> CurveElement:
        return evaluate(p, self.images, self.curve.zero(d), self.curve.one())

    def residue(self, p: Poly, d: Optional[int] = None) -> CurveElement:
        """Image of a homogeneous polynomial; reduces to normal form first."""
        nf = self.quotient.normal_form(p)
        if nf.coeffs:
            found = nf.homogeneous_degree()
            if d is not None and d != found:
                raise ValueError("degree mismatch")
            d = found
        elif d is None:
            raise ValueError("degree required for the zero polynomial")
        return self._apply(nf, d)


class TauSubring:
    """Subring generated by two degree-1 elements u, v of the curve ring."""

    def __init__(self, u: CurveElement, v: CurveElement):
        if u.degree != 1 or v.degree != 1:
            raise ValueError("subring generators must have degree 1")
        if u.ring != v.ring:
            raise ValueError("generators from different curve rings")
        self.u = u
        self.v = v
        self.curve = u.ring
        self._u, self._v = _forms(u), _forms(v)
        # the bases of degrees 0, 1, ..., len - 1, each entry its two forms
        self._bases: list[list[tuple[Form, Form]]] = [[({0: 1}, {0: 1})]]

    def basis_vectors(self, d: int) -> list[dict[int, Number]]:
        """The `CurveElement.coordinate_vector` of each product u^(d-k) v^k,
        listed with the u power descending.

        Grown from the highest cached degree up: u^(d-k) v^k is u times
        entry k of degree d - 1, and v^d is v times its last entry, each
        product a convolution of coefficient maps, factor by factor."""
        if d < 0:
            raise ValueError("degree must be nonnegative")
        bases = self._bases
        while len(bases) <= d:
            below = bases[-1]
            bases.append([tuple(map(_times, self._u, x)) for x in below]
                         + [tuple(map(_times, self._v, below[-1]))])
        return [{**f, **{d + 1 + i: x for i, x in g.items()}} for f, g in bases[d]]
