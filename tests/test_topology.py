"""Chain-complex homology, the glueing sequence solver, and Tietze
simplification."""

import random

import pytest

from godeaux import topology
from godeaux.linalg import rank_of, smith_normal_form
from godeaux.topology import (
    AMBIGUOUS,
    AbelianGroup,
    ChainComplexZ,
    GroupPresentation,
    MayerVietorisData,
    abelianization,
    exponent_matrix,
    homology,
    load_topology_data,
    mayer_vietoris_solve,
    replay_certificate,
    tietze_trivialize,
)


@pytest.fixture(scope="module")
def shipped():
    return load_topology_data()


# -- reference: ranks by rational elimination beside the Smith form ---------


def top_degree(c):
    return len(c.ranks) - 1


def presentation_complex(g):
    """Chain complex of the two-complex with one vertex, a loop per
    generator and a disk per relator."""
    n = len(g.generators)
    k = len(g.relators)
    cols = exponent_matrix(g)
    d2 = [[cols[j][i] for j in range(k)] for i in range(n)]
    return ChainComplexZ([1, n, k], [[[0] * n], d2])


def _cokernel(mat, nrows, ncols):
    if nrows == 0:
        return AbelianGroup(0)
    if ncols == 0:
        return AbelianGroup(nrows)
    diag = smith_normal_form(mat, ncols)
    return AbelianGroup(nrows - len(diag), tuple(d for d in diag if d > 1))


def reference_homology(c):
    out = []
    for i in range(len(c.ranks)):
        if i == 0 or c.ranks[i] == 0 or c.ranks[i - 1] == 0:
            cycles = c.ranks[i]
        else:
            cycles = c.ranks[i] - rank_of(c.boundaries[i - 1], c.ranks[i])
        if i == top_degree(c) or c.ranks[i] == 0 or c.ranks[i + 1] == 0:
            image_rank, torsion = 0, ()
        else:
            diag = smith_normal_form(c.boundaries[i], c.ranks[i + 1])
            image_rank, torsion = len(diag), tuple(d for d in diag if d > 1)
        out.append(AbelianGroup(cycles - image_rank, torsion))
    return out


def reference_mayer_vietoris(data):
    out = []
    for i in range(data.degrees):
        if data.curve[i].torsion or data.surface[i].torsion:
            out.append(AMBIGUOUS)
            continue
        nrows = data.curve[i].free_rank + data.surface[i].free_rank
        coker = _cokernel(data.maps[i], nrows, data.curve_cover[i].free_rank)
        if i == 0:
            kernel_rank = 0
        elif data.curve_cover[i - 1].torsion:
            out.append(AMBIGUOUS)
            continue
        else:
            below_cols = data.curve_cover[i - 1].free_rank
            kernel_rank = below_cols - rank_of(data.maps[i - 1], below_cols)
        out.append(AbelianGroup(coker.free_rank + kernel_rank, coker.torsion))
    return out


def random_unimodular(rng, n):
    """A random integer matrix of determinant 1 and its inverse, as products
    of elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [list(row) for row in u]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return u, inv


def mul(a, b, ncols):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(ncols)] for row in a]


def random_complex(rng):
    """Direct sum of elementary complexes (a free cell, or a pair of cells
    with boundary d * e) in a random basis of each degree."""
    top = rng.randint(1, 4)
    ranks = [0] * (top + 1)
    pairs = []  # (degree, row, column, factor) of each boundary entry d
    for _ in range(rng.randint(0, 7)):
        k = rng.randint(0, top)
        ranks[k] += 1
        if k < top and rng.random() < 0.6:
            pairs.append((k, ranks[k] - 1, ranks[k + 1], rng.choice((1, 1, 2, 3, 4, 6))))
            ranks[k + 1] += 1
    standard = [[[0] * ranks[k + 1] for _ in range(ranks[k])] for k in range(top)]
    for k, row, col, d in pairs:
        standard[k][row][col] = d
    bases = [random_unimodular(rng, r) for r in ranks]
    boundaries = [mul(mul(bases[k][0], standard[k], ranks[k + 1]), bases[k + 1][1], ranks[k + 1])
                  for k in range(top)]
    return ChainComplexZ(ranks, boundaries)


def random_group(rng):
    return AbelianGroup(rng.randint(0, 3), (2,) if rng.random() < 0.15 else ())


def random_mayer_vietoris(rng):
    n = rng.randint(1, 5)
    cover, curve, surface = ([random_group(rng) for _ in range(n)] for _ in range(3))
    maps = tuple([[rng.randint(-3, 3) for _ in range(cover[i].free_rank)]
                  for _ in range(curve[i].free_rank + surface[i].free_rank)]
                 for i in range(n))
    return MayerVietorisData(tuple(cover), tuple(curve), tuple(surface), maps)


class TestAgainstReference:
    def test_homology(self):
        rng = random.Random(20261018)
        for _ in range(200):
            c = random_complex(rng)
            assert homology(c) == reference_homology(c)

    def test_mayer_vietoris(self):
        rng = random.Random(20261019)
        for _ in range(200):
            data = random_mayer_vietoris(rng)
            assert mayer_vietoris_solve(data) == reference_mayer_vietoris(data)


class TestAbelianGroup:
    def test_describe(self):
        assert AbelianGroup(0).describe() == "0"
        assert AbelianGroup(1).describe() == "Z"
        assert AbelianGroup(9).describe() == "Z^9"
        assert AbelianGroup(1, (2, 4)).describe() == "Z + Z/2 + Z/4"

    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup(-1)
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))

    def test_pair_round_trip(self):
        g = AbelianGroup(3, (2, 6))
        assert AbelianGroup(*g.as_pair()) == g


class TestHomology:
    def test_point(self):
        hom = homology(ChainComplexZ([1], []))
        assert hom == [AbelianGroup(1)]

    def test_sphere(self):
        # minimal cell structure: one vertex, no edges, one top cell
        hom = homology(ChainComplexZ([1, 0, 1], [[[]], []]))
        assert hom == [AbelianGroup(1), AbelianGroup(0), AbelianGroup(1)]

    def test_torsion(self):
        # disk glued to a loop by a degree-2 map
        hom = homology(ChainComplexZ([1, 1, 1], [[[0]], [[2]]]))
        assert hom == [AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0)]

    def test_shipped_model(self, shipped):
        hom = homology(shipped["chain_model"])
        assert [g.as_pair() for g in hom] == [
            [1, []], [0, []], [9, []], [1, []], [1, []]]

    def test_one_smith_form_per_boundary(self, shipped, monkeypatch):
        # each boundary's rank and image come from one Smith normal form
        calls = []
        def counted(mat, ncols):
            calls.append(ncols)
            return smith_normal_form(mat, ncols)

        monkeypatch.setattr(topology, "smith_normal_form", counted)
        homology(shipped["chain_model"])
        assert calls == shipped["chain_model"].ranks[1:]

    def test_composition_checked(self):
        with pytest.raises(ValueError):
            ChainComplexZ([1, 1, 1], [[[1]], [[1]]])

    def test_rectangular_composition_checked(self):
        # d1 d2 = [[1]] is a 1 x 1 product of a 1 x 2 and a 2 x 1 map
        with pytest.raises(ValueError):
            ChainComplexZ([1, 2, 1], [[[1, 1]], [[1], [0]]])

    def test_zero_middle_rank(self):
        # both maps are empty, so their composite is the zero 2 x 3 map
        c = ChainComplexZ([2, 0, 3], [[[], []], []])
        assert homology(c) == [AbelianGroup(2), AbelianGroup(0), AbelianGroup(3)]

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            ChainComplexZ([1, 2], [[[0]]])
        with pytest.raises(ValueError):
            ChainComplexZ([1, 1], [])

    def test_elementary_expansion_invariance(self, shipped):
        base = shipped["chain_model"]
        reference = homology(base)
        for k in range(top_degree(base)):
            ranks = list(base.ranks)
            bnd = [[list(row) for row in mat] for mat in base.boundaries]
            # a cancelling cell pair in degrees k and k+1
            ranks[k] += 1
            ranks[k + 1] += 1
            for row in bnd[k]:
                row.append(0)
            bnd[k].append([0] * (ranks[k + 1] - 1) + [1])
            if k > 0:
                # the new degree-k cell is a cycle
                for row in bnd[k - 1]:
                    row.append(0)
            if k + 1 < top_degree(base):
                bnd[k + 1].append([0] * ranks[k + 2])
            expanded = homology(ChainComplexZ(ranks, bnd))
            assert expanded == reference


class TestMayerVietoris:
    def test_shipped_data(self, shipped):
        solved = mayer_vietoris_solve(shipped["mayer_vietoris"])
        assert [g.as_pair() for g in solved] == [
            [1, []], [0, []], [9, []], [1, []], [1, []]]

    def test_all_zero(self):
        zero = (AbelianGroup(0),) * 3
        data = MayerVietorisData(zero, zero, zero, ([], [], []))
        assert mayer_vietoris_solve(data) == [AbelianGroup(0)] * 3

    def test_isomorphism_gives_zero(self):
        one = (AbelianGroup(1),)
        data = MayerVietorisData(one, one, (AbelianGroup(0),), ([[1]],))
        assert mayer_vietoris_solve(data) == [AbelianGroup(0)]

    def test_torsion_side_term_is_ambiguous(self):
        curve_cover = (AbelianGroup(1), AbelianGroup(1))
        curve = (AbelianGroup(1), AbelianGroup(0, (2,)))
        surface = (AbelianGroup(0), AbelianGroup(0))
        data = MayerVietorisData(curve_cover, curve, surface,
                                 ([[1]], []))
        solved = mayer_vietoris_solve(data)
        assert solved[1] == AMBIGUOUS
        assert solved[0] == AbelianGroup(0)

    def test_torsion_below_is_ambiguous(self):
        # kernel under a torsion group cannot be read off the matrices
        curve_cover = (AbelianGroup(0, (2,)), AbelianGroup(1))
        curve = (AbelianGroup(0), AbelianGroup(1))
        surface = (AbelianGroup(0), AbelianGroup(0))
        data = MayerVietorisData(curve_cover, curve, surface,
                                 ([], [[1]]))
        assert mayer_vietoris_solve(data)[1] == AMBIGUOUS

    def test_shape_mismatch_rejected(self):
        one = (AbelianGroup(1),)
        with pytest.raises(ValueError):
            MayerVietorisData(one, one, one, ([[1]],))


class TestPresentation:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            GroupPresentation(("a",), ((0,),))
        with pytest.raises(ValueError):
            GroupPresentation(("a",), ((2,),))
        with pytest.raises(ValueError):
            GroupPresentation(("a", "a"), ())

    def test_abelianization_flagship(self, shipped):
        assert abelianization(shipped["presentation"]).is_trivial

    def test_abelianization_free(self):
        assert abelianization(GroupPresentation(("a", "b"), ())) == AbelianGroup(2)

    def test_abelianization_cyclic(self):
        group = abelianization(GroupPresentation(("a",), ((1, 1),)))
        assert group == AbelianGroup(0, (2,))
        group = abelianization(GroupPresentation(("a",), ((1, 1, 1),)))
        assert group == AbelianGroup(0, (3,))

    def test_complex_matches_abelianization(self, shipped):
        flagship = shipped["presentation"]
        assert homology(presentation_complex(flagship))[1] == abelianization(flagship)

    def test_complex_matches_abelianization_random(self):
        rng = random.Random(20260822)
        names = ["a", "b", "c", "d"]
        for _ in range(40):
            n = rng.randint(1, 4)
            relators = []
            for _ in range(rng.randint(0, 4)):
                length = rng.randint(1, 6)
                relators.append(tuple(
                    rng.choice((1, -1)) * rng.randint(1, n)
                    for _ in range(length)))
            pres = GroupPresentation(tuple(names[:n]), tuple(relators))
            assert homology(presentation_complex(pres))[1] == abelianization(pres)


class TestTietze:
    def test_flagship_trivializes(self, shipped):
        cert = tietze_trivialize(shipped["presentation"])
        assert cert["status"] == "TRIVIAL"
        assert len(cert["steps"]) <= 1000
        final = replay_certificate(shipped["presentation"], cert["steps"])
        assert final.is_empty

    def test_flagship_certificate_shape(self, shipped):
        # conjugate relator reduces, frees one generator, then the other
        cert = tietze_trivialize(shipped["presentation"])
        ops = [s["op"] for s in cert["steps"]]
        assert ops == ["reduce", "eliminate", "eliminate"]

    def test_empty_presentation(self):
        cert = tietze_trivialize(GroupPresentation((), ()))
        assert cert["status"] == "TRIVIAL"
        assert cert["steps"] == []

    def test_nontrivial_stays_unknown(self):
        cert = tietze_trivialize(GroupPresentation(("a",), ((1, 1, 1),)))
        assert cert["status"] == "UNKNOWN"

    def test_free_group_stays_unknown(self):
        cert = tietze_trivialize(GroupPresentation(("a",), ()))
        assert cert["status"] == "UNKNOWN"

    def test_budget_exhausted_stays_unknown(self, shipped, monkeypatch):
        # the flagship needs three steps; two leave it unfinished
        monkeypatch.setattr(topology, "TIETZE_BUDGET", 2)
        cert = tietze_trivialize(shipped["presentation"])
        assert cert == {"status": "UNKNOWN", "reason": "budget exhausted",
                        "steps": cert["steps"]}
        assert [s["op"] for s in cert["steps"]] == ["reduce", "eliminate"]

    def test_replayer_rejects_tampering(self, shipped):
        cert = tietze_trivialize(shipped["presentation"])
        doctored = [dict(s) for s in cert["steps"]]
        assert doctored[1]["op"] == "eliminate"
        doctored[1]["solution"] = [1]
        with pytest.raises(ValueError):
            replay_certificate(shipped["presentation"], doctored)

    def test_product_move_needed(self):
        # no relator isolates the generator until one shortens the other
        pres = GroupPresentation(("a",), ((1, 1), (1, 1, 1)))
        cert = tietze_trivialize(pres)
        assert cert["status"] == "TRIVIAL"
        assert any(step["op"] == "multiply" for step in cert["steps"])
        assert replay_certificate(pres, cert["steps"]).is_empty
