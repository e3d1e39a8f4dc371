"""Mechanisms of the graded pipeline: descent, product spaces, the pruned
eliminations behind generators, relations, the degree-9 form and the
quartic spans, and the membership questions of the reference check and the
base-locus search, mostly against oracles that eliminate every monomial or
eliminate twice, plus work guards.  The paper's numbers are asserted in
`test_acceptance.py`."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from godeaux import canring, cli, linalg, quotient, residue
from godeaux.canring import Pipeline
from godeaux.instance import load_instance
from godeaux.linalg import Echelon, SpanBuilder, dense
from godeaux.poly import Poly, WeightedRing, evaluate, format_poly, parse_poly
from godeaux.quotient import HypersurfaceRing
from godeaux.residue import TauSubring

RELATION_COUNTS = {6: 6, 7: 12, 8: 18, 9: 12, 10: 6}
GOLDEN = Path(__file__).resolve().parent / "golden"


def dense_descend(pipe, m):
    """The descend rows of degree m as dense vectors, after checking that
    each is a sparse mapping of nonzero Fractions with ascending positions."""
    width = len(pipe.quotient.degree_basis(m))
    rows = pipe.descend_space(m)
    for row in rows:
        assert list(row) == sorted(row)
        assert all(type(x) is Fraction and x for x in row.values())
    return [dense(row, width) for row in rows]


def tau_membership(tau, e):
    """Oracle for descent: the coefficients of e over the tau basis of its
    degree, or None if e lies outside the subring, by `linalg.membership`
    over dense columns."""
    width = 2 * (e.degree + 1)
    return linalg.membership(dense(e.coordinate_vector(), width),
                             [dense(c, width) for c in tau.basis_vectors(e.degree)])


def projected_descend(instance, m):
    """Oracle for `Pipeline.descend_space`: the kernel of [residues | -tau],
    projected onto the residue coordinates and reduced by `rref`."""
    basis = instance.quotient.degree_basis(m)
    width = 2 * (m + 1)
    cols = [dense(instance.residue.residue(Poly(instance.ring, {mono: 1}), m).coordinate_vector(m),
                  width)
            for mono in basis]
    cols += [[-x for x in dense(t, width)] for t in instance.tau.basis_vectors(m)]
    projected = [v[:len(basis)] for v in linalg.kernel_basis(zip(*cols), len(cols))]
    if not projected:
        return []
    reduced = linalg.rref(projected, len(basis))
    return reduced.rows[:reduced.rank]


class TestDescend:
    def test_degree_zero_is_constants(self, pipe):
        polys = pipe.descend_polys(0)
        assert len(polys) == 1
        assert polys[0] == pipe.ring.one()

    def test_degree_one_empty(self, pipe):
        assert pipe.descend_polys(1) == []

    def test_matches_projected_kernel(self):
        instance = load_instance()
        fresh = Pipeline(instance, max_degree=16)
        for m in range(17):
            assert dense_descend(fresh, m) == projected_descend(instance, m), m

    def test_dependent_tau_columns_dropped(self):
        # with both generators u the tau basis vectors of degree m are m + 1
        # copies of u^m, so m of the tau columns are free
        instance = load_instance()
        u = instance.tau.u
        instance.tau = TauSubring(u, u)
        fresh = Pipeline(instance)
        assert linalg.rank_of(zip(*[dense(t, 8) for t in instance.tau.basis_vectors(3)]), 4) == 1
        for m in range(7):
            assert dense_descend(fresh, m) == projected_descend(instance, m), m
        assert any(fresh.descend_space(m) for m in range(2, 7))

    def test_polys_satisfy_descent(self, pipe):
        # residue of every basis element lands in the invariant subring
        tau = pipe.instance.tau
        for m in (2, 3, 4, 5):
            for p in pipe.descend_polys(m):
                value = pipe.instance.residue.residue(p)
                assert tau_membership(tau, value) is not None


class TestProducts:
    def test_columns_are_normal_form_coordinates(self, pipe):
        # each product's column is the coordinates of the normal form of the
        # substituted monomial, in the degree its exponent gives
        space = _quartic_products(pipe)
        quotient = pipe.quotient
        for d in range(3):
            for beta in space.ring.monomials(4 * d):
                value = evaluate(Poly(space.ring, {beta: 1}), space.elements, pipe.ring.zero(),
                                 pipe.ring.one())
                expected = quotient.sparse_coordinates(quotient.normal_form(value), 4 * d)
                assert space.columns([beta], 4 * d) == [expected]

    @pytest.mark.parametrize("stage", ["tricanonical", "power-search"])
    def test_stage_columns_are_normal_form_coordinates(self, monkeypatch, stage):
        # a sample of every product a stage builds, through whichever factor
        # comes first in its space's order, per degree up to 27 for the
        # gammas: each column is the coordinates of the normal form of the
        # evaluated product
        spaces = []

        class Recorded(canring._Products):
            def __init__(self, *args):
                super().__init__(*args)
                spaces.append(self)

        monkeypatch.setattr(canring, "_Products", Recorded)
        fresh = Pipeline(load_instance())
        if stage == "tricanonical":
            assert fresh.tricanonical()["status"] == "OK"
        else:
            # R_2 has a base point, so no pure power is found and every
            # degree up to the bound is built
            assert fresh._power_search(fresh.descend_polys(2), 2, [0, 1, 2, 3], 12) == {}
        quotient = fresh.quotient
        zero, one = fresh.ring.zero(), fresh.ring.one()
        rng = random.Random(69)
        checked = set()
        for space in spaces:
            by_degree = {}
            for key in sorted(space._cache):
                beta = key + (0,) * (space.ring.n - len(key))
                by_degree.setdefault(space.ring.degree(beta), []).append(beta)
            for d, betas in sorted(by_degree.items()):
                for beta in rng.sample(betas, min(6, len(betas))):
                    value = evaluate(Poly(space.ring, {beta: 1}), space.elements, zero, one)
                    expected = quotient.sparse_coordinates(quotient.normal_form(value), d)
                    assert space.columns([beta], d) == [expected]
                    checked.add(d)
        assert max(checked) == (27 if stage == "tricanonical" else 12)

    @pytest.mark.parametrize("stage, most", [("canring", 149), ("fourcanonical", 83),
                                             ("tricanonical", 9)])
    def test_reducing_products_guard(self, monkeypatch, inline_child, stage, most):
        # a product is built through a factor whose terms miss z, the
        # variable of lead(f) = z^2, whenever it has one, and such a factor
        # only re-indexes; through the last factor 965, 565 and 45 products
        # met z, and the count must not rise.  Each product by a factor
        # that meets z is counted through the function its `multiplier`
        # returns.  canring's map checks run in this process
        # (`inline_child`), or their products would go uncounted
        reducing = 0
        multiplier = HypersurfaceRing.multiplier

        def counted(self, element):
            product = multiplier(self, element)
            lead = [v for v, e in enumerate(self.lead) if e]
            if not any(t[v] for t in element.coeffs for v in lead):
                return product

            def reduced(column, d):
                nonlocal reducing
                reducing += 1
                return product(column, d)
            return reduced

        monkeypatch.setattr(HypersurfaceRing, "multiplier", counted)
        if stage == "canring":
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(["canring", "--format", "structured"]) == 0
            assert out.getvalue().encode() == (GOLDEN / "canring.json").read_bytes()
            assert len(inline_child) == 1
        elif stage == "fourcanonical":
            assert Pipeline(load_instance()).fourcanonical(d_max=6)["h"][6] == 276
        else:
            assert Pipeline(load_instance()).tricanonical()["status"] == "OK"
        assert 0 < reducing <= most

    def test_columns_refuse_a_degree_their_products_lack(self, pipe):
        space = _quartic_products(pipe)
        with pytest.raises(ValueError, match="degree mismatch"):
            space.columns(space.ring.monomials(8), 7)
        # a mixed list is refused too, not read at the first entry's degree
        with pytest.raises(ValueError, match="degree mismatch"):
            space.columns(list(space.ring.monomials(8)) + list(space.ring.monomials(4)), 8)

    def test_extend_pads_pivots_and_records_new_elements(self, pipe):
        # after `extend` every recorded pivot has a zero exponent per new
        # element, and a new element of an eliminated degree is a pivot
        # there; a degree never eliminated gains no pivot set
        space = canring._Products(pipe.quotient, pipe.descend_polys(2))
        space.eliminate(2)
        space.eliminate(4)
        before = {d: set(betas) for d, betas in space.pivots.items()}
        assert set(before) == {2, 4} and before[4]
        space.extend([pipe.descend_polys(4)[0], pipe.descend_polys(3)[0]])
        assert space.ring.weights == (2, 2, 4, 3)
        assert space.pivots == {2: {beta + (0, 0) for beta in before[2]},
                                4: {beta + (0, 0) for beta in before[4]} | {(0, 0, 1, 0)}}


class TestRelations:
    def test_early_stop_matches_full_loops(self):
        # oracle: insert every multiple and then every kernel vector, with no
        # stop once the ideal slice fills the kernel
        short = Pipeline(load_instance(), max_degree=11)
        tring = short.presentation_ring
        # the kernels of every monomial's product, not of the pruned image
        kernels = {m: full_image(short._reference, m)[1].kernel() for m in range(4, 12)}
        rels, ranks = [], {}
        for m in range(4, 12):
            monos = tring.monomials(m)
            span = SpanBuilder(len(monos))
            for rpoly, rdeg in rels:
                for gamma in tring.monomials(m - rdeg):
                    shifted = Poly(tring, {gamma: 1}) * rpoly
                    span.insert([shifted.coeffs.get(mono, 0) for mono in monos])
            for kvec in (dense(k, len(monos)) for k in kernels[m]):
                if span.insert(kvec) is not None:
                    poly = Poly(tring, dict(zip(monos, kvec)))
                    rels.append((poly.content_normalized(), m))
            ranks[m] = span.rank
        got = short.relations()
        assert got.relations == rels
        assert got.ideal_ranks == ranks
        for m in range(4, 12):
            assert got.ideal_ranks[m] == len(kernels[m])

    def test_matches_unpruned(self):
        # the relations and ideal ranks found over the non-pivot monomials
        # are those of every multiple over every monomial, at the default
        # horizon (`TestNonGenericReference` runs the oracle at 11)
        fresh = Pipeline(load_instance(), max_degree=12)
        relations, ranks, report = unpruned_presentation(fresh)
        assert fresh.verify_reference() == report
        got = fresh.relations()
        assert [format_poly(p) for p, _ in got.relations] == relations
        assert got.ideal_ranks == ranks

    @staticmethod
    def _prebuilt():
        # the reference images, built before anything is recorded, so that
        # only the eliminations of `relations` are seen
        fresh = Pipeline(load_instance(), max_degree=12)
        for m in range(4, 13):
            fresh._reference_image(m)
        return fresh

    def test_no_dead_rows(self, monkeypatch):
        # one elimination per degree, [multiples | kernel basis vectors],
        # with one row per non-pivot monomial, as many as the kernel's
        # dimension, and full row rank: no row is updated only to end as zero
        fresh = self._prebuilt()
        seen = []

        class Recorded(Echelon):
            def __init__(self, columns, nrows):
                super().__init__(columns, nrows)
                seen.append((nrows, self))

        monkeypatch.setattr(canring, "Echelon", Recorded)
        rels = fresh.relations()
        assert len(seen) == 9
        for m, (nrows, echelon) in zip(range(4, 13), seen):
            dim = len(fresh.presentation_ring.monomials(m)) - len(fresh._reference.pivots[m])
            assert nrows == echelon.rank == dim == rels.ideal_ranks[m], m

    def test_elimination_work_guard(self, monkeypatch):
        # the row updates of one relation search at horizon 12, past the
        # reference images: 15164 over every monomial, 2508 over the
        # non-pivot ones in one elimination per degree, and it must not
        # rise.  An update that bypasses `_cross_eliminate` would count 0
        # and pass vacuously.
        fresh = self._prebuilt()
        calls = 0
        update = linalg._cross_eliminate

        def counted(*args):
            nonlocal calls
            calls += 1
            return update(*args)

        monkeypatch.setattr(linalg, "_cross_eliminate", counted)
        assert len(fresh.relations().relations) == 54
        assert 0 < calls <= 2508


def full_image(space, m, extra=()):
    """Oracle for `_Products.eliminate`: the columns of every degree-m
    product, no candidate pruning, and their elimination followed by the
    `extra` columns."""
    cols = space.columns(space.ring.monomials(m), m)
    return cols, Echelon(cols + list(extra), len(space.quotient.degree_basis(m)))


def full_generators(pipe):
    """Oracle for `Pipeline.minimal_generators`: the greedy complement with
    every degree-m monomial in the generators so far as a column, no
    candidate pruning."""
    space = canring._Products(pipe.quotient, [])
    for m in range(2, pipe.max_degree + 1):
        vectors = pipe.descend_space(m)
        if vectors:
            cols, image = full_image(space, m, vectors)
            space.extend([pipe.descend_polys(m)[j - len(cols)]
                          for j in image.pivot_columns if j >= len(cols)])
    return list(zip(space.elements, space.ring.weights))


def unpruned_presentation(pipe):
    """Oracle for `verify_reference` and `relations`: the algorithm that
    eliminated every monomial of the presentation ring and every relation
    multiple.  Returns the formatted relations, the ideal ranks and the
    reference report."""
    tring = pipe.presentation_ring
    quotient = pipe.quotient
    images = {m: full_image(pipe._reference, m) for m in range(2, pipe.max_degree + 1)}

    def within(d, extra):
        descend = pipe.descend_space(d)
        return Echelon(descend + extra, len(quotient.degree_basis(d))).rank == len(descend)

    members = [{"index": idx, "degree": d, "polynomial": format_poly(poly),
                "member": within(d, [quotient.sparse_coordinates(quotient.normal_form(poly), d)])}
               for idx, (poly, d) in enumerate(pipe.reference_generators)]
    spans = []
    for m in range(2, pipe.max_degree + 1):
        cols, image = images[m]
        dim = len(pipe.descend_space(m))
        spans.append({"degree": m, "product_rank": image.rank, "dimension": dim,
                      "spans": image.rank == dim
                      and within(m, [cols[j] for j in image.pivot_columns])})
    report = {"members": members, "spans": spans,
              "ok": all(e["member"] for e in members) and all(e["spans"] for e in spans)}
    rels, ranks = [], {}
    for m in range(4, pipe.max_degree + 1):
        image = images[m][1]
        monos = tring.monomials(m)
        position = {mono: i for i, mono in enumerate(monos)}
        multiples = [{position[tuple(g + e for g, e in zip(gamma, mono))]: c
                      for mono, c in rpoly.coeffs.items()}
                     for rpoly, rdeg in rels for gamma in tring.monomials(m - rdeg)]
        ideal = Echelon(multiples, len(monos))
        rank = ideal.rank
        if rank < image.ncols - image.rank:
            kernel = image.kernel()
            joint = Echelon([multiples[j] for j in ideal.pivot_columns] + kernel, len(monos))
            for j in joint.pivot_columns[rank:]:
                poly = Poly(tring, {monos[i]: c for i, c in kernel[j - rank].items()})
                rels.append((poly.content_normalized(), m))
            rank = joint.rank
        ranks[m] = rank
    return [format_poly(p) for p, _ in rels], ranks, report


@pytest.fixture(scope="module")
def deep():
    return Pipeline(load_instance(), max_degree=13)


class TestOrderIdealPruning:
    """Each pruned elimination against the same elimination of every
    monomial: a product with a non-pivot divisor is never a pivot, so the
    ranks, pivot products, generators and relations are unchanged."""

    def test_reference_image_matches_all_monomials(self, deep):
        tring = deep.presentation_ring
        for m in range(2, 14):
            cands, _, image = deep._reference_image(m)
            monos = tring.monomials(m)
            full = full_image(deep._reference, m)[1]
            assert image.rank == full.rank, m
            assert ([cands[j] for j in image.pivot_columns]
                    == [monos[j] for j in full.pivot_columns]), m
        # 328 columns for a rank of 67 before the pruning; it must not rise
        assert len(deep._reference_image(12)[0]) <= 79

    def test_minimal_generators_match_full_enumeration(self, deep):
        assert deep.minimal_generators() == full_generators(deep)

    def test_fourcanonical_pivots_match_grown_set(self, monkeypatch):
        # oracle: degree d eliminates beta + e_i for every pivot beta of
        # degree d - 1, the products of any pivot divisor
        fresh = Pipeline(load_instance())
        seen = {}
        eliminate = canring._Products.eliminate

        def recording(space, m, extra=()):
            got = eliminate(space, m, extra)
            seen[m // 4] = [got[0][j] for j in got[2].pivot_columns]
            return got

        monkeypatch.setattr(canring._Products, "eliminate", recording)
        fresh.fourcanonical(d_max=6)
        monkeypatch.undo()
        space = _quartic_products(fresh)
        qring = space.ring
        monos = list(qring.monomials(4))
        for d in range(1, 7):
            image = Echelon(space.columns(monos, 4 * d), len(fresh.quotient.degree_basis(4 * d)))
            pivots = [monos[j] for j in image.pivot_columns]
            assert seen[d] == pivots, d
            grown = {tuple(e + (j == i) for j, e in enumerate(beta))
                     for beta in pivots for i in range(qring.n)}
            monos = sorted(grown, key=qring.sort_key)


def repeat(gens, i):
    """`gens` with the entry at index i listed twice."""
    return gens[:i + 1] + gens[i:]


def swap_first_two(gens):
    return [gens[1], gens[0]] + gens[2:]


def monomial_at(gens, i):
    """`gens` with the entry at index i replaced by the first monomial of
    its degree, which is no member of the canonical ring there."""
    poly, d = gens[i]
    return gens[:i] + [(Poly(poly.ring, {poly.ring.monomials(d)[0]: 1}), d)] + gens[i + 1:]


class TestNonGenericReference:
    # a dependency among the degree-2 generators is no relation, since the
    # search starts at degree 4, so it must not prune the kernel's columns
    @pytest.mark.parametrize("alter, outsiders", [
        pytest.param(lambda g: repeat(g, 0), [], id="degree-2-repeated"),
        pytest.param(lambda g: repeat(g, 6), [], id="degree-4-repeated"),
        pytest.param(swap_first_two, [], id="first-two-swapped"),
        pytest.param(lambda g: monomial_at(g, 0), [0], id="degree-2-non-member"),
    ])
    def test_matches_unpruned(self, alter, outsiders):
        instance = load_instance()
        instance.reference_generators = alter(list(instance.reference_generators))
        pipe = Pipeline(instance, max_degree=11)
        relations, ranks, report = unpruned_presentation(pipe)
        assert pipe.verify_reference() == report
        assert [e["index"] for e in report["members"] if not e["member"]] == outsiders
        got = pipe.relations()
        assert [format_poly(p) for p, _ in got.relations] == relations
        assert got.ideal_ranks == ranks


class TestTricanonical:
    def test_lower_degrees_injective_directly(self, pipe):
        # oracle for the degree-9 shortcut: eliminate degrees 1 to 8
        assert all(dim == 0 for d, dim in all_monomial_kernels(pipe).items() if d < 9)

    def test_repeated_generator_reports_lower_kernels(self):
        # z0 - z1 lies in I_1, so dim I_9 > 1 and degrees 1 to 8 are
        # computed, over the pruned candidates: every kernel dimension is
        # that of every monomial's product
        instance = load_instance()
        instance.tricanonical_indices = [2, 2, 3, 4]
        fresh = Pipeline(instance)
        report = fresh.tricanonical()
        assert report["kernel_dimension_nine"] > 1
        assert report["kernel_dimensions"][1] >= 1
        assert report["kernel_dimensions"] == all_monomial_kernels(fresh)
        assert not report["lower_degrees_injective"]
        assert report["status"] == "FAIL"


def all_monomial_kernels(pipe):
    """Oracle for the tricanonical kernel dimensions: in each degree 1 to 9
    the nullity of the products of every monomial in the gammas."""
    inst = pipe.instance
    gens = pipe.reference_generators
    space = canring._Products(pipe.quotient, [gens[i][0] for i in inst.tricanonical_indices])
    gdeg = gens[inst.tricanonical_indices[0]][1]
    out = {}
    for d in range(1, 10):
        image = Echelon(space.columns(inst.tricanonical_ring.monomials(d), gdeg * d),
                        len(pipe.quotient.degree_basis(gdeg * d)))
        out[d] = image.ncols - image.rank
    return out


@pytest.fixture(scope="module")
def four(pipe):
    """`pipe.fourcanonical()`, computed once for the tests that read it."""
    return pipe.fourcanonical()


class TestFourcanonical:
    def test_hilbert_function(self, four):
        assert four["h"] == {0: 1, 1: 7, 2: 26, 3: 65, 4: 120, 5: 190}

    def test_second_differences(self, four):
        assert four["second_differences"] == {3: 20, 4: 16, 5: 15}

    def test_seven_quartics(self, four):
        assert four["quartic_count"] == 7

    def test_spans_match_all_monomials(self, pipe, four):
        # degree d eliminates only the products whose every divisor is a
        # pivot of degree d - 1; the rank of every monomial product is the
        # reference
        assert four["h"] == {0: 1, **_all_monomial_ranks(pipe, 5)}

    def test_larger_d_max_continues(self):
        grown = Pipeline(load_instance())
        grown.fourcanonical(d_max=5)
        assert grown.fourcanonical(d_max=6) == Pipeline(load_instance()).fourcanonical(d_max=6)

    def test_elimination_work_guard(self, pipe, monkeypatch):
        # the row updates of one forward elimination of every degree-5
        # product of the quartics (211 rows, 462 columns); fill-reducing
        # pivot rows took the count from 4529 to 3675 and the sparsest
        # quartics first from 3675 to 657; it must not rise.
        # The count must also be real: an update that bypasses
        # `_cross_eliminate` would count 0 and pass vacuously.
        space = _quartic_products(pipe)
        cols = space.columns(space.ring.monomials(20), 20)
        calls = 0
        update = linalg._cross_eliminate

        def counted(*args):
            nonlocal calls
            calls += 1
            return update(*args)

        monkeypatch.setattr(linalg, "_cross_eliminate", counted)
        assert Echelon(cols, len(pipe.quotient.degree_basis(20))).rank == 190
        assert 0 < calls <= 657

    def test_pivot_row_bit_guard(self, pipe, monkeypatch):
        # an update by a pivot entry of 1 does not divide the row by its
        # content, so nothing else bounds the entries the pivot rows reach:
        # at most 12 bits on the degree-5 matrix above and 17 on the
        # degree-6 quartic span, the values with the sparsest quartics
        # first (23 and 36 in the descent order, the values when every
        # update was content-reduced)
        def bits(echelon):
            return max(abs(x).bit_length() for _, row in echelon._pivots for x in row.values())

        space = _quartic_products(pipe)
        cols = space.columns(space.ring.monomials(20), 20)
        assert bits(Echelon(cols, len(pipe.quotient.degree_basis(20)))) <= 12
        spans = {}
        eliminate = canring._Products.eliminate

        def recording(space, m, extra=()):
            got = eliminate(space, m, extra)
            spans[m // 4] = got[2]
            return got

        monkeypatch.setattr(canring._Products, "eliminate", recording)
        pipe.fourcanonical(d_max=6)
        assert spans[6].rank == 276
        assert bits(spans[6]) <= 17

    def test_sparsest_first_work_guard(self, monkeypatch):
        # the row updates of a fresh `fourcanonical(d_max=6)`, descent
        # included: 13566 with the quartics in descent order, 2547 with the
        # sparsest first, and it must not rise
        calls = 0
        update = linalg._cross_eliminate

        def counted(*args):
            nonlocal calls
            calls += 1
            return update(*args)

        monkeypatch.setattr(linalg, "_cross_eliminate", counted)
        Pipeline(load_instance()).fourcanonical(d_max=6)
        assert 0 < calls <= 2547

    @pytest.mark.parametrize("order", [
        pytest.param(lambda polys: polys, id="descent"),
        pytest.param(lambda polys: polys[::-1], id="reversed"),
    ])
    def test_quartic_order_is_free(self, four, monkeypatch, order):
        # h is the rank of V_d, so the descent order and its reverse give
        # the Hilbert function and second differences of the sparsest-first
        # order that `four` was computed in
        monkeypatch.setattr(Pipeline, "_quartics", lambda pipe: order(pipe.descend_polys(4)))
        assert Pipeline(load_instance()).fourcanonical() == four

    def test_products_are_never_made_dense(self, monkeypatch):
        # every vector of the pipeline is a sparse mapping eliminated by
        # `Echelon`: no dense reader, dense-to-sparse conversion or dense
        # entry point is reached from the descent (every space to degree 12
        # under paper-generators), the membership and spanning checks, the
        # base-locus certificates, the quartic spans or the relations
        def refuse(*args, **kwargs):
            raise AssertionError("a dense path was taken")

        for module in (linalg, canring, quotient, residue):
            for name in ("dense", "sparse", "rank_of", "membership"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        monkeypatch.setattr(HypersurfaceRing, "coefficient_vector", refuse)
        for target in ("paper-generators", "base-locus"):
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(["verify", target, "--format", "structured"]) == 0
            assert out.getvalue().encode() == (GOLDEN / f"verify-{target}.json").read_bytes()
        fresh = Pipeline(load_instance(), max_degree=10)
        report = fresh.fourcanonical(d_max=6)
        assert report["h"] == {0: 1, 1: 7, 2: 26, 3: 65, 4: 120, 5: 190, 6: 276}
        assert fresh.relations().counts() == RELATION_COUNTS


def _quartic_products(pipe):
    """A fresh `_Products` of the quartics in the order `fourcanonical`
    takes them, whose degree-4d products are the degree-d monomials in
    them."""
    return canring._Products(pipe.quotient, pipe._quartics())


def _all_monomial_ranks(pipe, d_max):
    """h(d) as the rank of the products of every degree-d monomial in the
    quartics, in their descent (RREF) order, the formula used before spans
    were pruned to candidates and the quartics sorted."""
    space = canring._Products(pipe.quotient, pipe.descend_polys(4))
    return {d: full_image(space, 4 * d)[1].rank for d in range(1, d_max + 1)}


class TestBaseLocus:
    def test_low_m_rejected(self, pipe):
        with pytest.raises(ValueError):
            pipe.base_locus(1)


    @pytest.mark.parametrize("bound", [9, 12, 16, 20])
    def test_matches_two_stage_search(self, bound, monkeypatch):
        # every pure-power verdict and certificate of one elimination per
        # degree is that of the products' elimination followed by one more
        # per power; a power can be free only through another power, and
        # then it is no member
        instance = load_instance()
        instance.base_locus_witnesses = {}
        instance.base_locus_bound = bound
        fresh = Pipeline(instance)
        through_power = 0
        in_span = canring._in_span

        def recording(image, j, start):
            nonlocal through_power
            got = in_span(image, j, start)
            through_power += got is None and j not in image.pivot_columns
            return got

        monkeypatch.setattr(canring, "_in_span", recording)
        for m in range(2, 8):
            assert fresh.base_locus(m) == two_stage_base_locus(fresh, m, bound), m
        assert through_power > 0


def two_stage_base_locus(pipe, m, bound):
    """Oracle for `Pipeline.base_locus` without a witness: per degree, the
    pivot products of the ideal slice, then for each pure power a second
    elimination of [pivot products | power], which has a kernel vector iff
    the power lies in the slice; its entries at the pivot products are
    minus the canonical combination."""
    ring, quotient = pipe.ring, pipe.quotient
    n = ring.n
    gens = pipe.descend_polys(m)
    space = canring._Products(quotient, [ring.variable(i) for i in range(n)] + gens)
    found = {}
    for d in range(m, bound + 1):
        checkable = [i for i in range(n) if i not in found and d % ring.weights[i] == 0]
        if not checkable:
            continue
        products = [(bmono, gi) for gi in range(len(gens)) for bmono in quotient.degree_basis(d - m)]
        cols = space.columns([bmono + tuple(int(j == gi) for j in range(len(gens)))
                              for bmono, gi in products], d)
        width = len(quotient.degree_basis(d))
        pivots = Echelon(cols, width).pivot_columns
        for i in checkable:
            k = d // ring.weights[i]
            target = space.columns([tuple(k if j == i else 0 for j in range(n))], d)[0]
            solve = Echelon([cols[j] for j in pivots] + [target], width)
            if solve.rank > len(pivots):
                continue
            found[i] = {"variable": ring.names[i], "power": k, "degree": d, "combination": [
                {"coefficient": str(-c),
                 "monomial": format_poly(Poly(ring, {products[pivots[p]][0]: 1})),
                 "generator": products[pivots[p]][1]}
                for p, c in solve.kernel()[0].items() if p < len(pivots)]}
    missing = [ring.names[i] for i in range(n) if i not in found]
    if missing:
        return {"verdict": "UNDECIDED", "bound": bound, "missing": missing}
    return {"verdict": "EMPTY", "bound": bound, "certificates": [found[i] for i in range(n)]}


class TestSpanQuestions:
    def test_in_span_reads_the_prefix(self):
        # columns e0, e1, e0 + e1, 2 e2, e2: the third lies in the span of
        # the first two, the fifth only through the fourth, a pivot, and
        # the fourth is a pivot itself
        image = Echelon([{0: 1}, {1: 1}, {0: 1, 1: 1}, {2: 2}, {2: 1}], 3)
        assert canring._in_span(image, 2, 2) == {0: -1, 1: -1, 2: 1}
        assert canring._in_span(image, 3, 3) is None
        assert canring._in_span(image, 4, 3) is None
        assert canring._in_span(image, 4, 4) == {3: Fraction(-1, 2), 4: 1}

    def test_in_rows_reads_the_reduced_basis(self):
        # rows e0 + 2 e2 and e1 - 1/2 e2, each 1 at its least position and
        # 0 at the other's: a combination of them is fixed by its entries at
        # positions 0 and 1
        rows = [{0: Fraction(1), 2: Fraction(2)}, {1: Fraction(1), 2: Fraction(-1, 2)}]
        assert canring._in_rows(rows, {0: 3, 1: 4, 2: 4})
        assert canring._in_rows(rows, {1: Fraction(2, 3), 2: Fraction(-1, 3)})
        assert canring._in_rows(rows, {})
        assert not canring._in_rows(rows, {0: 1, 2: 1})
        assert not canring._in_rows(rows, {2: Fraction(1, 5)})
        assert not canring._in_rows(rows, {0: 1, 1: 1, 2: 2, 3: 1})
        assert not canring._in_rows([], {3: 1})

    @pytest.mark.parametrize("args, golden, most", [
        (["canring", "--format", "structured"], "canring.json", 73),
        (["verify", "base-locus", "--format", "structured"], "verify-base-locus.json", 26),
        (["verify", "paper-generators", "--format", "structured"],
         "verify-paper-generators.json", 24),
    ], ids=["canring", "base-locus", "paper-generators"])
    def test_one_elimination_per_degree_guard(self, monkeypatch, inline_child, args, golden,
                                              most):
        # each spanning question is read off one elimination per degree:
        # 138, 67 and 48 `Echelon`s with a rank test per listed generator and
        # a second elimination per pure power, 84, 26 and 35 with one.  The
        # reference check reduces against the descent rows instead of a
        # second elimination per degree: 73, 26 and 24, and it must not
        # rise.  canring's map checks run in this process (`inline_child`),
        # or their eliminations would go uncounted
        built = 0

        class Counted(Echelon):
            def __init__(self, columns, nrows):
                nonlocal built
                built += 1
                super().__init__(columns, nrows)

        monkeypatch.setattr(canring, "Echelon", Counted)
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(args) == 0
        assert out.getvalue().encode() == (GOLDEN / golden).read_bytes()
        assert len(inline_child) == (args[0] == "canring")
        assert 0 < built <= most

    def test_base_locus_product_columns_guard(self, monkeypatch):
        # the columns `verify base-locus` eliminates, products and pure
        # powers: 1030 with every product of a basis monomial and a
        # generator, 708 with only the `_candidates`, and it must not rise
        columns = 0
        eliminate = canring._eliminate

        def counted(quotient, cols, degree):
            nonlocal columns
            columns += len(cols)
            return eliminate(quotient, cols, degree)

        monkeypatch.setattr(canring, "_eliminate", counted)
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["verify", "base-locus", "--format", "structured"]) == 0
        assert out.getvalue().encode() == (GOLDEN / "verify-base-locus.json").read_bytes()
        assert 0 < columns <= 708


def moved(poly):
    """`poly` with z/2 put for z: a polynomial of the shipped instance in the
    coordinates z' = 2z."""
    ring = poly.ring
    half = [ring.variable(i) for i in range(3)] + [ring.variable(3).scale(Fraction(1, 2))]
    return evaluate(poly, half, ring.zero(), ring.one())


def moved_instance():
    """The shipped instance in the coordinates z' = 2z: the modulus and the
    reference generators `moved` (the modulus's lead coefficient becomes
    1/4), the residue image of z doubled, and no witness, so every base
    locus is searched."""
    instance = load_instance()
    ring = instance.ring
    instance.quotient = HypersurfaceRing(ring, moved(instance.quotient.modulus))
    assert instance.quotient.modulus.leading_coefficient() == Fraction(1, 4)
    images = instance.residue.images
    instance.residue = residue.ResidueMap(instance.quotient, instance.curve,
                                          images[:3] + [images[3].scale(2)])
    instance.reference_generators = [(moved(p), d) for p, d in instance.reference_generators]
    instance.base_locus_witnesses = {}
    return instance


def shipped_data():
    return json.loads(resources.files("godeaux.data").joinpath("godeaux.json").read_text())


def canring_document(raw, tmp_path, capsys):
    """The structured `canring` document of the data file `raw`."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["canring", "--instance", str(path), "--format", "structured"]) == 0
    return json.loads(capsys.readouterr().out)


def assert_matches_golden(doc):
    """Every fact `doc` states about the ring is the shipped golden's."""
    golden = json.loads((GOLDEN / "canring.json").read_text())
    for key in ("relations", "hilbert", "checks", "codimension", "tricanonical",
                "fourcanonical_second_differences"):
        assert doc[key] == golden[key], key
    assert {m: locus["verdict"] for m, locus in doc["base_locus"].items()} == \
        {m: locus["verdict"] for m, locus in golden["base_locus"].items()}


class TestMovedCoordinates:
    """The reference check's subring shortcut and the base-locus pruning
    against their oracles off the shipped coordinates, whose modulus is
    not monic and whose columns carry `Fraction` entries."""

    def test_base_locus_matches_two_stage_search(self):
        instance = moved_instance()
        instance.base_locus_bound = 16
        pipe = Pipeline(instance)
        for m in range(2, 6):
            assert pipe.base_locus(m) == two_stage_base_locus(pipe, m, 16), m

    @pytest.mark.parametrize("alter, outsiders", [
        pytest.param(lambda g: g, [], id="moved"),
        pytest.param(lambda g: monomial_at(g, 0), [0], id="moved-degree-2-non-member"),
    ])
    def test_reference_check_matches_unpruned(self, alter, outsiders):
        instance = moved_instance()
        instance.reference_generators = alter(instance.reference_generators)
        pipe = Pipeline(instance, max_degree=11)
        report = unpruned_presentation(pipe)[2]
        assert pipe.verify_reference() == report
        assert [e["index"] for e in report["members"] if not e["member"]] == outsiders

    def test_data_file_matches_golden(self, capsys, tmp_path):
        # `moved_instance` as a data file, with the m = 2 witness's z
        # coordinate doubled too: the `1/4` and the other fractions that
        # `format_poly` writes pass through the parser.  The map is a graded
        # isomorphism of the quotients, so every fact the document states
        # about the ring comes out the same; only the generators, the
        # base-locus certificates and the witness point differ
        raw = shipped_data()
        ring = load_instance().ring
        raw["modulus"] = format_poly(moved(parse_poly(raw["modulus"], ring)))
        assert raw["modulus"].startswith("1/4*z^2+")
        for entry in raw["reference_generators"]:
            entry["polynomial"] = format_poly(moved(parse_poly(entry["polynomial"], ring)))
        raw["residue_images"][3] = [f"2*({text})" for text in raw["residue_images"][3]]
        point = raw["base_locus"]["witnesses"]["2"]["point"]
        assert point[3] == "t"
        point[3] = "2*t"
        assert_matches_golden(canring_document(raw, tmp_path, capsys))

    def test_symmetry_data_file_matches_golden(self, capsys, tmp_path):
        # sigma: x1 <-> x2, z -> -z fixes f.  Swapping the curve's two
        # factors in the residue images gives the images composed with
        # sigma and keeps the tau subring, so the canonical ring is carried
        # onto itself: the reference generators and the m = 2 witness are
        # moved by sigma, and every fact about the ring comes out the same
        raw = shipped_data()
        ring = load_instance().ring
        x1, x2, y, z = (ring.variable(i) for i in range(4))

        def sigma(text):
            return evaluate(parse_poly(text, ring), [x2, x1, y, -z], ring.zero(), ring.one())

        assert sigma(raw["modulus"]) == parse_poly(raw["modulus"], ring)
        for entry in raw["reference_generators"]:
            entry["polynomial"] = format_poly(sigma(entry["polynomial"]))
        first, second = (WeightedRing(names, [1, 1]) for names in raw["curve_factors"])

        def swapped(text, source, target):
            return format_poly(Poly(target, parse_poly(text, source).coeffs))

        images = raw["residue_images"]
        raw["residue_images"] = [[swapped(g, second, first), swapped(f, first, second)]
                                 for f, g in images]
        # the images of x1 and x2 trade places
        assert raw["residue_images"][:2] == images[1::-1]
        point = raw["base_locus"]["witnesses"]["2"]["point"]
        assert point == ["0", "1", "1", "t"]
        raw["base_locus"]["witnesses"]["2"]["point"] = ["1", "0", "1", "-t"]
        assert_matches_golden(canring_document(raw, tmp_path, capsys))
