"""Degreewise computation of the canonical subring, its presentation, and
the pluricanonical-map verifications.

Everything reduces to exact linear algebra on graded pieces of S/f: the
descent condition is a kernel, generators and relations are greedy
complements inside those kernels, and the map checks are rank computations
on products of fixed elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import add
from typing import Optional, Sequence

from .instance import Instance, Witness
from .linalg import Column, Echelon, Number
from .poly import Monomial, Poly, WeightedRing, divide, evaluate, format_poly
from .quotient import HypersurfaceRing


# `relations` searches from this degree on.  A dependency among the
# generators below it is not a relation, so only a divisor of this degree or
# more may prune the reference image's columns (see `_reference_image`).
_FIRST_RELATION_DEGREE = 4


def _candidates(ring: WeightedRing, m: int, pivots: dict[int, set[Monomial]]) -> list[Monomial]:
    """The degree-m monomials of `ring`, in its order, each of whose
    one-variable divisors beta - e_i lies in `pivots[m - w_i]`, where that
    degree is recorded.

    The candidates of a greedy pivot choice over products in a term order
    (`_Products.eliminate`, and `relations`' multiples of one relation): a
    divisor beta - e_i that is no pivot is a combination of earlier products
    of its degree, so beta is the same combination of their e_i multiples,
    which come before beta.  Such a beta is never a pivot and is left out;
    the pivots (the standard monomials) form an order ideal, so the ranks
    and pivot products are those of all degree-m monomials.
    """
    return _divisor_closed(ring.monomials(m), [pivots.get(m - w) for w in ring.weights])


def _divisor_closed(monos: Sequence[Monomial], lower: Sequence[Optional[set[Monomial]]]
                    ) -> list[Monomial]:
    """The monomials of `monos`, in their order, whose divisor beta - e_i
    lies in `lower[i]` for every variable i that `lower` gives a set: the
    `_candidates` rule, with each variable's lower pivot set looked up once
    for all the monomials.  A variable past the end of `lower`, or with
    None there, is not checked."""
    known = [(i, pivots) for i, pivots in enumerate(lower) if pivots is not None]
    out = []
    for beta in monos:
        for i, pivots in known:
            if (e := beta[i]) and beta[:i] + (e - 1,) + beta[i + 1:] not in pivots:
                break
        else:
            out.append(beta)
    return out


def _times(f: dict[int, Number], g: dict[int, Number]) -> dict[int, Number]:
    """The product of two binary forms, each a {b-exponent: coefficient}
    map, with no zero coefficient."""
    out: dict[int, Number] = {}
    for i, x in f.items():
        for j, y in g.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _unit(n: int, i: int) -> Monomial:
    """The exponent of the i-th of n variables."""
    return tuple(int(j == i) for j in range(n))


def _eliminate(quotient: HypersurfaceRing, columns: Sequence[Column], degree: int) -> Echelon:
    """The elimination of `columns`, coordinates over the monomial basis of
    the degree-`degree` piece of S/f.  It takes columns, not a `_Products`,
    so a caller can drop the products before the elimination runs (see
    `tricanonical`)."""
    return Echelon(columns, len(quotient.degree_basis(degree)))


def _in_span(image: Echelon, j: int, start: int) -> Optional[dict[int, Fraction]]:
    """The kernel vector of column j of `image` if that column lies in the
    span of the columns before `start`, else None.

    The pivot columns before `start` span those columns, and the pivot
    columns are independent.  So column j lies in that span iff it is no
    pivot and its kernel vector, nonzero only at pivot columns before j and
    at j, has no key in [start, j); its entries before `start` are then
    minus the unique combination of those pivot columns.
    """
    if j in image.pivot_columns:
        return None
    vec = image.kernel_vector(j)
    return None if any(start <= p < j for p in vec) else vec


def _in_rows(rows: Sequence[Column], column: Column) -> bool:
    """Whether `column` lies in the span of `rows`, a reduced echelon basis:
    each row, its positions ascending, has a 1 at its least position and 0
    at the other rows' least positions.

    A combination of the rows reads its coefficient of each row at that
    row's least position, so the only combination that can equal the column
    takes each row times the column's entry there, and the column lies in
    the span iff subtracting that combination leaves zero.
    """
    rest = dict(column)
    for row in rows:
        if a := column.get(next(iter(row))):
            for p, x in row.items():
                rest[p] = rest.get(p, 0) - a * x
    return not any(rest.values())


class _Products:
    """The monomial products of a growable list of homogeneous elements of
    S/f, as coordinate columns, and their eliminations degree by degree,
    each built by `_eliminate`.

    A product is an exponent over `ring`, whose variables T1, T2, ... have
    the elements' degrees.  Each column is the coordinates of the product's
    normal form over the monomial basis of its degree, built once by one
    `HypersurfaceRing.times` from the cached product without its preferred
    factor; the cache keys drop trailing zeros, so they survive `extend`.
    The preferred factor is the first present in one order per space: the
    elements that do not `meets_lead`, which only re-index a column, then
    fewer terms, then the later element.  From degree `floor` on,
    `eliminate` records the pivot products of each degree it eliminates,
    and later degrees eliminate only their `_candidates`.
    """

    def __init__(self, quotient: HypersurfaceRing, elements: Sequence[Poly], floor: int = 0):
        self.quotient = quotient
        self.floor = floor
        self.elements: list[Poly] = []
        self.ring = WeightedRing((), ())
        # pivot products per eliminated degree from the floor on
        self.pivots: dict[int, set[Monomial]] = {}
        self._cache: dict[Monomial, Column] = {(): {0: 1}}
        self._order: list[int] = []
        self.extend(elements)

    def extend(self, elements: Sequence[Poly]) -> None:
        """Append `elements`.  Every recorded pivot gains a zero exponent per
        new element, and a new element of an eliminated degree is a pivot
        there: it was chosen as independent of that degree's products."""
        if not elements:
            return
        pad = (0,) * len(elements)
        self.pivots = {d: {beta + pad for beta in betas} for d, betas in self.pivots.items()}
        self.elements += elements
        weights = self.ring.weights + tuple(e.homogeneous_degree() for e in elements)
        self.ring = WeightedRing([f"T{i + 1}" for i in range(len(weights))], weights)
        for i in range(len(weights) - len(elements), len(weights)):
            if weights[i] in self.pivots:
                self.pivots[weights[i]].add(_unit(len(weights), i))
        self._order = sorted(range(len(weights)), key=lambda i: (
            self.quotient.meets_lead(self.elements[i]), len(self.elements[i].coeffs), -i))

    def _column(self, beta: Monomial, degree: int) -> Column:
        """The coordinate column of the product `beta`, of degree `degree`:
        its preferred factor times the product without it, whose degree is
        carried down the chain."""
        i = len(beta)
        while i and not beta[i - 1]:
            i -= 1
        key = beta[:i]
        got = self._cache.get(key)
        if got is None:
            f = next(f for f in self._order if f < i and key[f])
            lower = degree - self.ring.weights[f]
            got = self._cache[key] = self.quotient.times(
                self._column(key[:f] + (key[f] - 1,) + key[f + 1:], lower), lower,
                self.elements[f])
        return got

    def columns(self, monos: Sequence[Monomial], degree: int) -> list[Column]:
        """The columns of the products `monos`, each of degree `degree`."""
        for beta in monos:
            d = self.ring.degree(beta)
            if d != degree:
                raise ValueError(f"degree mismatch: a product of degree {d}, not {degree}")
        return [self._column(tuple(beta), degree) for beta in monos]

    def eliminate(self, m: int, extra: Sequence[Column] = ()
                  ) -> tuple[list[Monomial], list[Column], Echelon]:
        """The degree-m `_candidates`, their columns, and the elimination of
        those columns followed by the `extra` ones."""
        cands = _candidates(self.ring, m, self.pivots)
        cols = self.columns(cands, m)
        image = _eliminate(self.quotient, cols + list(extra), m)
        if m >= self.floor:
            self.pivots[m] = {cands[j] for j in image.pivot_columns if j < len(cols)}
        return cands, cols, image


@dataclass
class RelationSet:
    # each relation over the presentation ring, with its degree
    relations: list[tuple[Poly, int]]
    # rank of the relation-ideal slice, per degree up to the horizon
    ideal_ranks: dict[int, int]

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, d in self.relations:
            out[d] = out.get(d, 0) + 1
        return out


class Pipeline:
    """All graded computations for one instance, with shared caches.

    Every vector is a sparse {position: entry} mapping, and every matrix is
    eliminated by one `Echelon` and read off it.  Three functions build
    them: `_eliminate` every one over a graded piece of S/f, `descend_space`
    the descent's over the curve ring, and `relations` its own over the
    kernel's coordinates.  Each descent space is read off one kernel
    (`descend_space`), over the residues of the basis monomials, each a
    memoised residue times one residue image, both kept as their two binary
    forms' {b-exponent: coefficient} maps.  Every product of elements of
    S/f (the generators, the reference generators, the quartics, the
    tricanonical gammas, the base-locus ideal) is a column of a `_Products`,
    and an elimination of its products gives the rank, the pivot columns
    (new generators, certificates) and the kernel (relations, the
    tricanonical form) of only the `_candidates`: the products whose every
    one-variable divisor was a pivot of its own degree.  The reference
    image, whose kernel gives the relations, prunes only from
    `_FIRST_RELATION_DEGREE` on, where the relations span the kernel.  A
    relation multiple is its relation's coordinates shifted by a monomial,
    read only at the monomials that are no pivot of the reference image,
    the kernel's own coordinates.  The reference check eliminates nothing
    of its own: a descent space is a reduced echelon basis, and `_in_rows`
    reads membership off it for the listed generators and the pivot
    products with a factor outside the canonical ring.  The base-locus
    search eliminates [products | pure powers] once per degree, and
    `_in_span` reads a member power's certificate off its kernel vector.
    The reference generators' products, whose ring is the presentation
    ring, are set up with the pipeline.  A generator list, the instance's
    reference list or the computed one, is a list of (polynomial, degree)
    pairs.
    """

    def __init__(self, instance: Instance, max_degree: int = 12):
        self.instance = instance
        self.max_degree = max_degree
        self.quotient = instance.quotient
        self.ring = instance.ring
        self._descend: dict[int, list[Column]] = {}
        self._descend_polys: dict[int, list[Poly]] = {}
        self._images = [tuple({b: c for (_, b), c in form.coeffs.items()}
                              for form in (image.first, image.second))
                        for image in instance.residue.images]
        self._residues = {(0,) * self.ring.n: ({0: 1}, {0: 1})}
        self._computed: Optional[list[tuple[Poly, int]]] = None
        self.reference_generators = instance.reference_generators
        self._reference = _Products(self.quotient, [p for p, _ in self.reference_generators],
                                    _FIRST_RELATION_DEGREE)
        self.presentation_ring = self._reference.ring
        self._reference_images: dict[int, tuple[list[Monomial], list[Column], Echelon]] = {}
        self._relations: Optional[RelationSet] = None

    def _residue(self, mono: Monomial) -> tuple[dict[int, Number], dict[int, Number]]:
        """The residue of the ambient monomial `mono` in the curve ring, as
        the {b-exponent: coefficient} maps of its two binary forms: the
        residue of `mono` without its last variable times that variable's
        image, factor by factor."""
        got = self._residues.get(mono)
        if got is None:
            i = max(j for j, e in enumerate(mono) if e)
            lower = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            got = self._residues[mono] = tuple(map(_times, self._residue(lower), self._images[i]))
        return got

    # -- the descent condition ------------------------------------------

    def descend_space(self, m: int) -> list[Column]:
        """Reduced row echelon basis of the degree-m piece (the x whose
        residue lies in the tau subring), over the monomial basis of S/f,
        each row a {basis position: entry} mapping, positions ascending.

        The kernel columns, each over the 2(m + 1) coordinates of the curve
        ring in degree m, are the tau basis vectors, then the residues of
        the basis monomials in reverse order.  A free tau column's kernel
        vector is zero past the tau columns and is dropped.  A free residue
        column's has a 1 there, zeros at the other free columns and nonzeros
        only at pivot columns before it: read backwards, it is a basis row.
        """
        if m < 0:
            raise ValueError("degree must be nonnegative")
        cached = self._descend.get(m)
        if cached is not None:
            return cached
        taus = self.instance.tau.basis_vectors(m)
        cols = list(taus)
        for mono in reversed(self.quotient.degree_basis(m)):
            first, second = self._residue(mono)
            col = dict(first)
            col.update((m + 1 + b, c) for b, c in second.items())
            cols.append(col)
        # kernel column j >= k is basis position top - j
        k = len(taus)
        top = len(cols) - 1
        kernel = Echelon(cols, 2 * (m + 1)).kernel()
        rows = [{top - j: x for j, x in reversed(v.items()) if j >= k}
                for v in reversed(kernel)]
        rows = [row for row in rows if row]
        self._descend[m] = rows
        return rows

    def descend_polys(self, m: int) -> list[Poly]:
        cached = self._descend_polys.get(m)
        if cached is None:
            basis = self.quotient.degree_basis(m)
            cached = [Poly(self.ring, {basis[i]: x for i, x in row.items()}).content_normalized()
                      for row in self.descend_space(m)]
            self._descend_polys[m] = cached
        return cached

    def precompute_descend(self):
        for m in range(self.max_degree + 1):
            self.descend_space(m)

    # -- generators ------------------------------------------------------

    def minimal_generators(self) -> list[tuple[Poly, int]]:
        """Greedy degree-by-degree complement of the product span: the new
        generators of degree m are the descend vectors whose columns are
        pivots of [products | descend vectors].  Returns each generator with
        its degree, in the order found; the product space is dropped.

        The products are the `_candidates` of the generators so far, and
        each new generator is a pivot of its degree: a product with any
        other divisor lies in the span of earlier products."""
        if self._computed is not None:
            return self._computed
        self.precompute_descend()
        space = _Products(self.quotient, [])
        for m in range(2, self.max_degree + 1):
            vectors = self.descend_space(m)
            if vectors:
                _, cols, image = space.eliminate(m, vectors)
                space.extend([self.descend_polys(m)[j - len(cols)]
                              for j in image.pivot_columns if j >= len(cols)])
        self._computed = list(zip(space.elements, space.ring.weights))
        return self._computed

    def _reference_image(self, m: int) -> tuple[list[Monomial], list[Column], Echelon]:
        """The `_candidates` among the degree-m monomials of the presentation
        ring, their images, and the elimination of those.  Only the pivots of
        degrees from `_FIRST_RELATION_DEGREE` on prune: there every product
        kernel vector is in the relation ideal, so each pruned column's
        kernel vector, a variable times one of a lower degree, is a sum of
        relation multiples.  Until the relations are known the image is
        kept, and `relations` releases it once it has read the kernel."""
        got = self._reference_images.get(m)
        if got is None:
            got = self._reference.eliminate(m)
            if self._relations is None:
                self._reference_images[m] = got
        return got

    def verify_reference(self) -> dict:
        """Membership of each listed generator plus graded spanning checks.

        A column lies in the degree-m piece R_m iff `_in_rows` reduces it
        to zero against `descend_space(m)`, a reduced echelon basis, so no
        membership question needs an elimination.  Each degree of a listed
        generator reduces that generator's column.  Each degree m from 2 to
        the horizon reads the pivot products of the reference image: R is a
        subring of S/f, the preimage of the tau subring under the residue
        ring map, so a pivot product whose factors are all members lies in
        R_m untested, and only those with a factor outside are reduced.  The
        k descend vectors are independent, so the products span R_m iff
        their rank is k and every pivot product and listed generator of the
        degree lies in R_m; the pivot products span the products.
        """
        self.precompute_descend()
        gens = self.reference_generators
        checked = range(2, self.max_degree + 1)
        member: dict[int, bool] = {}
        spans = []
        for m in sorted(set(checked).union(d for _, d in gens)):
            descend = self.descend_space(m)
            listed = [idx for idx, (_, d) in enumerate(gens) if d == m]
            # the product with each generator's unit exponent
            targets = self._reference.columns([_unit(len(gens), idx) for idx in listed], m)
            for idx, column in zip(listed, targets):
                member[idx] = _in_rows(descend, column)
            if m in checked:
                cands, cols, image = self._reference_image(m)
                outside = [cols[j] for j in image.pivot_columns
                           if not all(member[i] for i, e in enumerate(cands[j]) if e)]
                spanned = (image.rank == len(descend) and all(member[idx] for idx in listed)
                           and all(_in_rows(descend, column) for column in outside))
                spans.append({"degree": m, "product_rank": image.rank, "dimension": len(descend),
                              "spans": spanned})
        members = [{"index": idx, "degree": d, "polynomial": format_poly(poly),
                    "member": member[idx]} for idx, (poly, d) in enumerate(gens)]
        ok = all(e["member"] for e in members) and all(e["spans"] for e in spans)
        return {"members": members, "spans": spans, "ok": ok}

    # -- relations -------------------------------------------------------

    def relations(self) -> RelationSet:
        """Minimal relations against the reference generator list: each a
        polynomial over the presentation ring with its degree, and the rank
        of the ideal slice per degree from `_FIRST_RELATION_DEGREE` to the
        horizon.

        In each degree m the multiples of the relations found so far span
        the ideal slice, a subspace of the kernel of the product map.  One
        elimination of [multiples | kernel basis vectors] per degree reads
        both: its pivot columns among the multiples are the independent
        multiples, and each later pivot column is a new relation, a kernel
        vector independent of the multiples and of the kernel vectors before
        it.  Its rank is the kernel's dimension, recorded as the rank of the
        ideal slice once the new relations join it.  When the multiples
        alone fill the kernel the elimination stops before the kernel
        columns, and the kernel basis, whose back substitution costs as much
        again as the forward pass, is never built.

        Every vector is read in the kernel's own coordinates: its entries at
        the monomials that are no pivot of the reference image, in monomial
        order.  The pivot products are independent, so a kernel vector that
        is zero there is zero, and the reading is injective on the kernel,
        whose dimension is the number of those monomials.  Ranks and pivot
        columns are therefore those of the full coordinates, and the
        elimination has as many rows as the kernel's dimension and full row
        rank: no row is updated only to end as zero.  A kernel basis vector
        reads as the unit vector at its free column; the new relation itself
        is read off the kernel.

        Both sides take only `_candidates`.  A multiple gamma * r is kept
        when every (gamma - e_i) * r was a pivot multiple in its degree
        (gamma - e_i = 0 is r itself).  The kernel is that of the pruned
        reference image; the multiples span the pruned columns' kernel
        vectors, since the search starts at `_FIRST_RELATION_DEGREE`, the
        floor below which the image prunes nothing.
        """
        if self._relations is not None:
            return self._relations
        tring = self.presentation_ring
        rels: list[tuple[Poly, int]] = []
        # per relation, its pivot multiples' gammas, keyed by degree of gamma
        kept: list[dict[int, set[Monomial]]] = []
        ideal_ranks: dict[int, int] = {}
        for m in range(_FIRST_RELATION_DEGREE, self.max_degree + 1):
            cands, _, image = self._reference_image(m)
            del self._reference_images[m]
            pivots = self._reference.pivots[m]
            free = [mono for mono in tring.monomials(m) if mono not in pivots]
            position = {mono: i for i, mono in enumerate(free)}
            pairs = [(r, gamma) for r, (_, rdeg) in enumerate(rels)
                     for gamma in _candidates(tring, m - rdeg, kept[r])]
            # gamma * rpoly shifts each monomial of rpoly by gamma; the
            # shifts onto pivot monomials are dropped
            multiples = [{i: c for mono, c in rels[r][0].coeffs.items()
                          if (i := position.get(tuple(map(add, gamma, mono)))) is not None}
                         for r, gamma in pairs]
            # the kernel vector of a free candidate is 1 there and nonzero
            # elsewhere only at pivot monomials
            units = [{position[mono]: 1} for mono in cands if mono in position]
            joint = Echelon(multiples + units, len(free))
            for r, (_, rdeg) in enumerate(rels):
                kept[r][m - rdeg] = set()
            for j in joint.pivot_columns:
                if j < len(pairs):
                    r, gamma = pairs[j]
                    kept[r][m - rels[r][1]].add(gamma)
                else:
                    kvec = image.kernel()[j - len(pairs)]
                    poly = Poly(tring, {cands[i]: c for i, c in kvec.items()})
                    rels.append((poly.content_normalized(), m))
                    kept.append({})
            ideal_ranks[m] = joint.rank
        self._relations = RelationSet(rels, ideal_ranks)
        return self._relations

    # -- Hilbert consistency --------------------------------------------

    def expected_dimension(self, m: int) -> int:
        inv = self.instance.expected.get("surface_invariants", {})
        k2 = inv.get("K2", 1)
        chi = inv.get("chi", 1)
        p_g = inv.get("p_g", 0)
        if m == 0:
            return 1
        if m == 1:
            return p_g
        return chi + m * (m - 1) // 2 * k2

    def hilbert_consistency(self) -> list[dict]:
        """Triple per degree: solver dimension, invariant expectation, and
        the presentation count #monomials - dim(ideal slice).

        The relations span the kernel of the product map in every degree up
        to the horizon, so there the presentation count equals the product
        rank by construction; it is read off the ranks `relations` recorded.
        The independent legs are descent against Riemann-Roch.
        """
        self.precompute_descend()
        rels = self.relations()
        out = []
        for m in range(self.max_degree + 1):
            a = len(self.descend_space(m))
            b = self.expected_dimension(m)
            c = len(self.presentation_ring.monomials(m)) - rels.ideal_ranks.get(m, 0)
            out.append({"degree": m, "descend": a, "expected": b,
                        "presentation": c, "agree": a == b == c})
        return out

    # -- tricanonical ----------------------------------------------------

    def tricanonical(self) -> dict:
        """Kernel of the cubic-monomial evaluation in degree 9, matched
        against the bundled reference form over all variable assignments.

        The kernel I of the evaluation Q[z] -> S/f, z_i -> gamma_i, is an
        ideal, and multiplication by g != 0 is injective on Q[z].  So a
        nonzero g in I_d with d < 9 gives g * Q[z]_{9-d} inside I_9, of
        dimension C(12 - d, 3) >= 4 for four variables (at least the number
        of variables in general).  Hence with two or more variables dim I_9
        = 1 forces I_d = 0 for every d < 9, and only degree 9 is eliminated;
        otherwise degrees 1 to 8 are eliminated too, so a FAIL report
        carries their computed kernel dimensions: each is the number of
        monomials less the rank of their `_candidates` products.
        """
        inst = self.instance
        zring = inst.tricanonical_ring
        nvars = zring.n
        gens = self.reference_generators
        gammas = [gens[i][0] for i in inst.tricanonical_indices]
        gdeg = gens[inst.tricanonical_indices[0]][1]
        monos = zring.monomials(9)
        # the products of every lower degree are built on the way to the
        # degree-9 columns and dropped before the elimination; the lower
        # degrees build them again only when they are eliminated too
        nine = _eliminate(self.quotient, _Products(self.quotient, gammas).columns(monos, gdeg * 9),
                          gdeg * 9)
        dims = dict.fromkeys(range(1, 10), 0)
        dims[9] = nine.ncols - nine.rank
        if dims[9] != 1 or nvars == 1:
            space = _Products(self.quotient, gammas)
            for d in range(1, 9):
                dims[d] = len(zring.monomials(d)) - space.eliminate(gdeg * d)[2].rank
        report: dict = {"kernel_dimensions": dims,
                        "lower_degrees_injective": all(dims[d] == 0 for d in range(1, 9)),
                        "kernel_dimension_nine": dims[9]}
        if dims[9] != 1:
            report["status"] = "FAIL"
            return report
        (free,) = set(range(nine.ncols)).difference(nine.pivot_columns)
        form = Poly(zring, {monos[i]: c for i, c in nine.kernel_vector(free).items()})
        lead = form.leading_coefficient()
        form = form.scale(Fraction(1) / Fraction(lead))
        report["computed_form"] = format_poly(form)

        reference = inst.tricanonical_reference.content_normalized()
        # permutations come in lexicographic order, so the first match is the
        # least assignment
        for sigma in permutations(range(nvars)):
            matched = Poly(zring, {tuple(mono[sigma[i]] for i in range(nvars)): c
                                   for mono, c in form.coeffs.items()}).content_normalized()
            if matched == reference:
                break
        else:
            report["status"] = "FAIL"
            report["assignment"] = None
            return report
        assigned = [gammas[sigma[i]] for i in range(nvars)]
        substituted = evaluate(matched, assigned, self.ring.zero(), self.ring.one())
        vanishes = self.quotient.normal_form(substituted).is_zero
        report["assignment"] = list(sigma)
        report["form"] = format_poly(matched)
        report["substitution_vanishes"] = vanishes
        report["status"] = "OK" if (report["lower_degrees_injective"] and vanishes) else "FAIL"
        return report

    # -- four-canonical --------------------------------------------------

    def fourcanonical(self, d_max: int = 5) -> dict:
        """Hilbert function of the quartic subalgebra and its second
        differences.

        h(d) is the dimension of the degree-4d piece V_d of the subalgebra
        generated by the quartics R_4, the homogeneous coordinate ring of the
        4-canonical image.  It is not the Veronese subring R^(4), whose
        degree-d piece is all of R_{4d}, of dimension P_{4d}: h(d) <= P_{4d},
        with strict inequality in low degree (already dim Sym^2 R_4 = 28 <
        29 = P_8).  The second differences therefore reach (4K)^2 only once h
        agrees with its Hilbert polynomial, which may be later than d_max; on
        the shipped instance that is from d = 6 on.

        V_d = R_4 * V_{d-1}, and degree d eliminates only the `_candidates`:
        the monomials beta whose every divisor beta - e_i is a pivot of
        degree d - 1, not every monomial of degree d in the quartics.

        The quartics are taken in `_quartics` order, sparsest first.  h(d)
        is the rank of V_d, which no basis order of R_4 and no term order
        of the products changes, and the candidate rule holds for any
        variable order; only the work depends on the order.  The exponent
        ring lists the powers of its first variables first, so with the
        monomial quartics first each degree starts on near-unit columns
        that pivot without updating anything, and the dense powers come
        last, when most rows are already pivots.
        """
        if d_max < 4:
            raise ValueError("d_max must be at least 4")
        space = _Products(self.quotient, self._quartics())
        h = {0: 1}
        for d in range(1, d_max + 1):
            h[d] = space.eliminate(4 * d)[2].rank
        second = {d: h[d] - 2 * h[d - 1] + h[d - 2] for d in range(3, d_max + 1)}
        return {"h": h, "second_differences": second, "quartic_count": len(space.elements)}

    def _quartics(self) -> list[Poly]:
        """The quartics R_4 by term count, fewest first; the sort is stable,
        so ties keep the descent (RREF) order."""
        return sorted(self.descend_polys(4), key=lambda p: len(p.coeffs))

    # -- base locus ------------------------------------------------------

    def _witness_valid(self, witness: Witness, gens: list[Poly]) -> bool:
        """The point is not zero in Q[t]/(mu) and kills every generator and
        the modulus there."""
        mu = witness.mu
        coords = [divide(c, [mu])[1] for c in witness.coords]
        if all(c.is_zero for c in coords):
            return False
        zero, one = mu.ring.zero(), mu.ring.one()
        return all(divide(evaluate(g, coords, zero, one), [mu])[1].is_zero
                   for g in gens + [self.quotient.modulus])

    def base_locus(self, m: int) -> dict:
        """EMPTY via pure-power certificates, NONEMPTY via a verified
        witness point, otherwise UNDECIDED at the degree bound."""
        if m < 2:
            raise ValueError("m must be at least 2")
        gens = self.descend_polys(m)
        names = self.ring.names
        bound = self.instance.base_locus_bound
        witness = self.instance.base_locus_witnesses.get(m)

        if witness is not None:
            if not self._witness_valid(witness, gens):
                return {"verdict": "UNDECIDED", "bound": bound,
                        "note": "stated witness failed exact verification"}
            ev_bound = self.instance.nonempty_evidence_bound
            found = self._power_search(gens, m, [0], ev_bound)
            return {
                "verdict": "NONEMPTY",
                "witness": {"minimal_polynomial": witness.minimal_polynomial,
                            "point": list(witness.point), "verified": True},
                "evidence": {"variable": names[0], "bound": ev_bound,
                             "pure_power_found": 0 in found},
            }

        found = self._power_search(gens, m, list(range(self.ring.n)), bound)
        missing = [names[i] for i in range(self.ring.n) if i not in found]
        if missing:
            return {"verdict": "UNDECIDED", "bound": bound, "missing": missing}
        return {"verdict": "EMPTY", "bound": bound,
                "certificates": [found[i] for i in range(self.ring.n)]}

    def _power_search(self, gens: list[Poly], m: int, targets: list[int],
                      bound: int) -> dict[int, dict]:
        """Scan ideal slices for pure powers of the target variables.

        Each degree d eliminates once the products x^b * g of a degree-(d - m)
        basis monomial and a generator, then the degree-d powers of the
        variables still sought.  A power lies in the ideal slice iff
        `_in_span` finds it in the span of the products, and then its kernel
        vector is minus the canonical combination of the pivot products
        (free coefficients zero).

        The products are listed generator by generator, each over the basis
        in its term order, and kept by the `_candidates` rule over the
        ambient variables: (b, g) only when each (b - e_k, g) was a pivot of
        degree d - w_k, wherever that degree was eliminated.  Multiplying by
        x_k keeps the term order, and the normal form of a reducible
        monomial has only smaller terms, so a non-pivot (b - e_k, g), a
        combination of earlier products, makes (b, g) one too.  Every pivot
        product is kept, so no certificate changes.

        Returns {variable index: certificate}, each the variable, its power,
        the degree and the combination, which replays as a polynomial
        identity modulo the modulus.
        """
        weights = self.ring.weights
        n = self.ring.n
        quotient = self.quotient
        # products as monomials in the ambient variables followed by the
        # generators
        space = _Products(quotient, [self.ring.variable(i) for i in range(n)] + gens)
        units = [_unit(len(gens), gi) for gi in range(len(gens))]
        # the pivot products of each degree eliminated so far
        pivots: dict[int, set[Monomial]] = {}
        found: dict[int, dict] = {}
        remaining = set(targets)
        for d in range(m, bound + 1):
            if not remaining:
                break
            checkable = [i for i in remaining if d % weights[i] == 0]
            if not checkable:
                continue
            basis = quotient.degree_basis(d - m)
            monos = _divisor_closed([b + unit for unit in units for b in basis],
                                    [pivots.get(d - w) for w in weights])
            # the variables are the first n elements
            powers = [tuple(d // weights[i] if j == i else 0 for j in range(n)) for i in checkable]
            image = _eliminate(quotient, space.columns(monos + powers, d), d)
            pivots[d] = {monos[j] for j in image.pivot_columns if j < len(monos)}
            for t, i in enumerate(checkable):
                kvec = _in_span(image, len(monos) + t, len(monos))
                if kvec is None:
                    continue
                combination = [{"coefficient": str(-c),
                                "monomial": format_poly(Poly(self.ring, {monos[p][:n]: 1})),
                                "generator": monos[p].index(1, n) - n}
                               for p, c in kvec.items() if p < len(monos)]
                found[i] = {"variable": self.ring.names[i], "power": d // weights[i], "degree": d,
                            "combination": combination}
                remaining.discard(i)
        return found
