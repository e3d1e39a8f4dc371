"""Weighted graded polynomials over the rationals, with a text grammar.

Monomials are exponent tuples in declaration order.  The monomial order is
degree first (weighted), with ties broken so that among monomials of equal
degree the one whose exponent vector is lexicographically larger when read
from the last declared variable backwards is the larger monomial.  With
declaration order x1, x2, y, z this puts z^2 above y^3 and lists the degree-2
monomials of P(1,1,2,3) as x1^2, x1*x2, x2^2, y.

Coefficients are Python ints or fractions.Fraction; arithmetic is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Optional, Sequence, Union

from .linalg import Number, _as_int_row, _content

Monomial = tuple[int, ...]

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _norm_coeff(c: Number) -> Number:
    # the exact type test passes ints without the ABC machinery of isinstance
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"not an exact coefficient: {c!r}")


class WeightedRing:
    """Polynomial ring with named variables and positive integer weights."""

    def __init__(self, names: Sequence[str], weights: Sequence[int]):
        names = tuple(names)
        weights = tuple(weights)
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable name")
        for n in names:
            if not _IDENT.fullmatch(n):
                raise ValueError(f"bad variable name: {n!r}")
        for w in weights:
            if not isinstance(w, int) or w <= 0:
                raise ValueError(f"weights must be positive integers, got {w!r}")
        self.names = names
        self.weights = weights
        self.n = len(names)
        self.index = {name: i for i, name in enumerate(names)}
        self._mono_cache: dict[int, tuple[Monomial, ...]] = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightedRing) and self.names == other.names and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.names, self.weights))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"WeightedRing({pairs})"

    def degree(self, mono: Monomial) -> int:
        return sum(e * w for e, w in zip(mono, self.weights))

    def sort_key(self, mono: Monomial):
        """Sort key; larger key means larger monomial."""
        return (self.degree(mono), mono[::-1])

    def monomials(self, d: int) -> tuple[Monomial, ...]:
        """All monomials of weighted degree d, ascending in the monomial
        order: `enumerate_monomials(d)`, kept for the next call."""
        cached = self._mono_cache.get(d)
        if cached is None:
            cached = self._mono_cache[d] = tuple(self.enumerate_monomials(d))
        return cached

    def enumerate_monomials(self, d: int) -> list[Monomial]:
        """The monomials of `monomials(d)`, built anew and not kept, for a
        caller that keeps only some of them."""
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return self._ascending(self.n - 1, d, {})

    def _ascending(self, i: int, remaining: int, memo: dict) -> list[Monomial]:
        """The monomials in the first i + 1 variables of weighted degree
        `remaining`, ascending: the order compares exponents from the last
        variable back, so variable i's exponent is the outer loop, ascending,
        and each of its values lists the shorter monomials in their order.
        Sub-lists are shared through `memo`."""
        key = (i, remaining)
        out = memo.get(key)
        if out is None:
            if i < 0:
                out = [()] if remaining == 0 else []
            else:
                w = self.weights[i]
                out = [head + (e,) for e in range(remaining // w + 1)
                       for head in self._ascending(i - 1, remaining - e * w, memo)]
            memo[key] = out
        return out

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.n: 1})

    def constant(self, c: Number) -> "Poly":
        return Poly(self, {(0,) * self.n: c})

    def variable(self, name_or_index: Union[str, int]) -> "Poly":
        i = self.index[name_or_index] if isinstance(name_or_index, str) else name_or_index
        mono = tuple(1 if j == i else 0 for j in range(self.n))
        return Poly(self, {mono: 1})


class Poly:
    """Sparse exact polynomial; treat as immutable."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: WeightedRing, coeffs: dict):
        self.ring = ring
        clean = {}
        for mono, c in coeffs.items():
            c = _norm_coeff(c)
            if c:
                clean[tuple(mono)] = c
        self.coeffs = clean

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ring == other.ring and self.coeffs == other.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0) + c
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0) - c
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Number] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(map(add, m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return Poly(self.ring, out)

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Number) -> "Poly":
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {m: c * v for m, v in self.coeffs.items()})

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self.coeffs) == 1:
            # a term's power scales its exponent
            (mono, c), = self.coeffs.items()
            return Poly(self.ring, {tuple(e * k for k in mono): c ** e})
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def degree(self) -> Optional[int]:
        """Largest weighted degree of a term; None for the zero polynomial."""
        if not self.coeffs:
            return None
        return max(self.ring.degree(m) for m in self.coeffs)

    def is_homogeneous(self) -> bool:
        degs = {self.ring.degree(m) for m in self.coeffs}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        degs = {self.ring.degree(m) for m in self.coeffs}
        if len(degs) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degs.pop()

    def leading_monomial(self) -> Monomial:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.coeffs, key=self.ring.sort_key)

    def leading_coefficient(self) -> Number:
        return self.coeffs[self.leading_monomial()]

    def content_normalized(self) -> "Poly":
        """Scale to coprime integer coefficients with positive leading one."""
        if not self.coeffs:
            return self
        ints = _as_int_row(self.coeffs)
        g = _content(ints.values())
        if ints[self.leading_monomial()] < 0:
            g = -g
        return Poly(self.ring, {m: v // g for m, v in ints.items()})

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def divide(dividend: Poly, divisors: Sequence[Poly]) -> tuple[list[Poly], Poly]:
    """Multivariate division: dividend = sum(q_i * d_i) + r.

    No term of the remainder is divisible by any divisor's leading monomial.
    Divisors must be nonzero and share the dividend's ring.
    """
    ring = dividend.ring
    leads = []
    for dv in divisors:
        if dv.ring != ring:
            raise ValueError("divisor from a different ring")
        if dv.is_zero:
            raise ValueError("zero divisor polynomial")
        leads.append((dv.leading_monomial(), dv.leading_coefficient()))
    quotients = [ring.zero() for _ in divisors]
    remainder: dict[Monomial, Number] = {}
    work = dict(dividend.coeffs)
    # the order key of every monomial that has entered `work`, computed once
    keys = {mono: ring.sort_key(mono) for mono in work}
    while work:
        mono = max(work, key=keys.__getitem__)
        coeff = work.pop(mono)
        for i, (lm, lc) in enumerate(leads):
            if all(a >= b for a, b in zip(mono, lm)):
                qmono = tuple(a - b for a, b in zip(mono, lm))
                if isinstance(coeff, int) and isinstance(lc, int) and coeff % lc == 0:
                    qc: Number = coeff // lc
                else:
                    qc = Fraction(coeff) / Fraction(lc)
                term = Poly(ring, {qmono: qc})
                quotients[i] = quotients[i] + term
                for m2, c2 in divisors[i].coeffs.items():
                    if m2 == lm:
                        continue
                    tm = tuple(a + b for a, b in zip(qmono, m2))
                    nc = work.get(tm, 0) - qc * c2
                    if nc:
                        if tm not in keys:
                            keys[tm] = ring.sort_key(tm)
                        work[tm] = nc
                    else:
                        work.pop(tm, None)
                break
        else:
            remainder[mono] = coeff
    return quotients, Poly(ring, remainder)


def evaluate(p: Poly, images: Sequence, zero, one):
    """Ring-morphism evaluation of p with images[i] substituted for variable i.

    The images may live in any exact ring-like type supporting +, * and
    scalar multiplication by int/Fraction; zero and one seed the fold.
    """
    if len(images) != p.ring.n:
        raise ValueError("one image per variable required")
    cache: dict[tuple[int, int], object] = {}

    def power(i: int, e: int):
        key = (i, e)
        got = cache.get(key)
        if got is None:
            if e == 1:
                got = images[i]
            else:
                half = power(i, e // 2)
                got = half * half
                if e & 1:
                    got = got * images[i]
            cache[key] = got
        return got

    acc = zero
    for mono, c in sorted(p.coeffs.items()):
        val = None
        for i, e in enumerate(mono):
            if e:
                val = power(i, e) if val is None else val * power(i, e)
        if val is None:
            acc = acc + c * one
        else:
            acc = acc + c * val
    return acc


class PolyParseError(ValueError):
    """Syntax error with a 0-based position into the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(f"unexpected character {text[len(text) - len(stripped)]!r}",
                                 len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Parentheses and unary minus signs nest the recursive descent, at most four
# frames a level; deeper input is refused well before Python's recursion limit.
MAX_NESTING = 100
# A `^` or `*` that would build a polynomial of higher (weighted) degree is
# refused before it expands: a short string such as (x1+x2+y+z)^80 would
# otherwise take minutes.  No shipped string goes above degree 9.
MAX_PARSE_DEGREE = 64
# A `^` whose result could have a coefficient longer than this many bits is
# refused before it expands too: a constant has degree 0, and 3^10000000
# once took 8 s.  The estimate, exponent * (largest coefficient bit length +
# bit length of the term count), bounds the coefficients of the power.
MAX_PARSE_BITS = 4096


def _coefficient_bits(c: Number) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class _Parser:
    def __init__(self, text: str, ring: WeightedRing):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", pos)
        return self.advance()

    def nest(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PolyParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    @staticmethod
    def bound_degree(degree: int, pos: int):
        if degree > MAX_PARSE_DEGREE:
            raise PolyParseError(f"degree {degree} above the limit {MAX_PARSE_DEGREE}", pos)

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {val!r}", pos)
        return p

    def expr(self) -> Poly:
        """A signed sum of terms, summed into one coefficient map."""
        out: dict[Monomial, Number] = {}
        kind, val, pos = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        while True:
            for mono, c in self.term().coeffs.items():
                out[mono] = out.get(mono, 0) + sign * c
            kind, val, pos = self.peek()
            if kind != "op" or val not in "+-":
                return Poly(self.ring, out)
            self.advance()
            sign = -1 if val == "-" else 1

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                q = self.factor()
                self.bound_degree((p.degree() or 0) + (q.degree() or 0), pos)
                p = p * q
            else:
                return p

    def factor(self) -> Poly:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            self.nest(pos)
            p = -self.factor()
            self.depth -= 1
            return p
        base = self.atom()
        kind, val, caret = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            e = int(val)
            self.bound_degree((base.degree() or 0) * e, caret)
            bits = e * (max(map(_coefficient_bits, base.coeffs.values()), default=0)
                        + len(base.coeffs).bit_length())
            if bits > MAX_PARSE_BITS:
                raise PolyParseError(f"coefficients of up to {bits} bits, above the limit "
                                     f"{MAX_PARSE_BITS}", caret)
            return base ** e
        return base

    def atom(self) -> Poly:
        kind, val, pos = self.advance()
        if kind == "int":
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.advance()
                kind3, val3, pos3 = self.peek()
                if kind3 != "int":
                    raise PolyParseError("denominator must be an integer", pos3)
                self.advance()
                if int(val3) == 0:
                    raise PolyParseError("zero denominator", pos3)
                return self.ring.constant(Fraction(num, int(val3)))
            return self.ring.constant(num)
        if kind == "ident":
            if val not in self.ring.index:
                raise PolyParseError(f"unknown variable {val!r}", pos)
            return self.ring.variable(val)
        if kind == "op" and val == "(":
            self.nest(pos)
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        if kind == "end":
            raise PolyParseError("unexpected end of input", pos)
        raise PolyParseError(f"unexpected {val!r}", pos)


def parse_poly(text: str, ring: WeightedRing) -> Poly:
    """Parse the grammar: identifiers, integer or n/d literals, + - *, unary -,
    ^ with nonnegative integer exponent, parentheses.  * is always explicit."""
    return _Parser(text, ring).parse()


def format_poly(p: Poly) -> str:
    """Canonical text form; terms in descending monomial order, no whitespace.
    A coefficient is written by `str`, n/d with the denominator omitted when
    it is 1."""
    if p.is_zero:
        return "0"
    parts = []
    for mono, c in sorted(p.coeffs.items(), key=lambda t: p.ring.sort_key(t[0]), reverse=True):
        factors = []
        for name, e in zip(p.ring.names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        neg = c < 0
        mag = -c if neg else c
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)
