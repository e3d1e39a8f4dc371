"""Integer chain complexes and finitely presented groups.

Homology of a chain-level model of the glued surface via Smith normal
form, a solver for the glueing Mayer-Vietoris sequence, and a bounded
Tietze simplifier that certifies triviality of a group presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Sequence, Union

from .datafile import FieldError, get, load, made, pair, typed
from .linalg import smith_normal_form

MatrixZ = list[list[int]]
Word = tuple[int, ...]

AMBIGUOUS = "AMBIGUOUS"


def _check_matrix(mat: Sequence[Sequence[int]], nrows: int, ncols: int,
                  field: str) -> MatrixZ:
    if len(mat) != nrows:
        raise FieldError(field, f"expected {nrows} rows, got {len(mat)}")
    out = []
    for row in mat:
        if len(row) != ncols:
            raise FieldError(field, f"expected {ncols} columns, got {len(row)}")
        out.append(list(row))
    return out


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion
    coefficients in a divisibility chain d1 | d2 | ..., each >= 2."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion coefficients must be at least 2")
            if prev is not None and d % prev != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
            prev = d

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def as_pair(self) -> list:
        return [self.free_rank, list(self.torsion)]


def _quotient(rank: int, factors: Sequence[int]) -> AbelianGroup:
    """Z^rank modulo the image of a map with these nonzero invariant factors."""
    return AbelianGroup(rank - len(factors), tuple(d for d in factors if d > 1))


class ChainComplexZ:
    """Chain complex of finitely generated free abelian groups.

    ranks[k] is the rank in degree k; boundaries[k] is the matrix of the
    boundary map from degree k+1 to degree k, acting on column vectors,
    so it has ranks[k] rows and ranks[k+1] columns.
    """

    def __init__(self, ranks: Sequence[int], boundaries: Sequence[Sequence[Sequence[int]]]):
        if not ranks:
            raise FieldError("ranks", "a chain complex needs at least one degree")
        if min(ranks) < 0:
            raise FieldError("ranks", "must be nonnegative")
        if len(boundaries) != len(ranks) - 1:
            raise FieldError("boundaries",
                             "expected one map per adjacent pair of degrees")
        self.ranks = list(ranks)
        self.boundaries = [
            _check_matrix(mat, ranks[k], ranks[k + 1], f"boundaries.{k}")
            for k, mat in enumerate(boundaries)
        ]
        for k, (d, d_next) in enumerate(zip(self.boundaries, self.boundaries[1:])):
            if any(sum(map(mul, row, col)) for row in d for col in zip(*d_next)):
                raise FieldError(f"boundaries.{k}",
                                 "its composite with the next boundary map is not zero")


def homology(c: ChainComplexZ) -> list[AbelianGroup]:
    """Homology in every degree, torsion ordered by divisibility.

    The Smith form of each boundary gives both its rank, which cuts the
    cycles out of the degree it leaves, and the quotient by its image in
    the degree it enters."""
    factors = [smith_normal_form(mat, c.ranks[k + 1]) for k, mat in enumerate(c.boundaries)] + [[]]
    return [_quotient(rank - (len(factors[i - 1]) if i else 0), factors[i])
            for i, rank in enumerate(c.ranks)]


# -- Mayer-Vietoris ------------------------------------------------------


@dataclass(frozen=True)
class MayerVietorisData:
    """Homology input for the pushout glueing a curve into a surface.

    Per degree i: the groups of the curve's two-sheeted cover (the space
    glued along), of the target curve, and of the smooth surface, plus
    the matrix of the pair of induced maps out of the cover, stacked as
    curve rows followed by surface rows.  Matrices describe the maps on
    the free parts only.
    """

    curve_cover: tuple[AbelianGroup, ...]
    curve: tuple[AbelianGroup, ...]
    surface: tuple[AbelianGroup, ...]
    maps: tuple[MatrixZ, ...] = field(hash=False)

    def __post_init__(self):
        n = len(self.curve_cover)
        if len(self.curve) != n or len(self.surface) != n or len(self.maps) != n:
            raise ValueError("all per-degree lists must have the same length")
        checked = []
        for i in range(n):
            nrows = self.curve[i].free_rank + self.surface[i].free_rank
            ncols = self.curve_cover[i].free_rank
            checked.append(_check_matrix(self.maps[i], nrows, ncols, f"maps.{i}"))
        object.__setattr__(self, "maps", tuple(checked))

    @property
    def degrees(self) -> int:
        return len(self.curve_cover)


def mayer_vietoris_solve(data: MayerVietorisData) -> list[Union[AbelianGroup, str]]:
    """Homology of the glued space in each degree, where exactness of
    the long sequence pins it down.

    Exactness squeezes the degree-i group between the cokernel of the
    degree-i map and the kernel of the map one degree below.  When that
    kernel is free the extension splits and the group is determined;
    torsion in the side terms leaves the matrices silent about part of
    the maps, so those degrees come back AMBIGUOUS instead of guessed.
    """
    factors = [smith_normal_form(mat, cover.free_rank)
               for mat, cover in zip(data.maps, data.curve_cover)]
    out: list[Union[AbelianGroup, str]] = []
    for i in range(data.degrees):
        side_torsion = data.curve[i].torsion or data.surface[i].torsion
        if side_torsion:
            out.append(AMBIGUOUS)
            continue
        coker = _quotient(data.curve[i].free_rank + data.surface[i].free_rank, factors[i])
        if i == 0:
            kernel_rank = 0
        elif data.curve_cover[i - 1].torsion:
            out.append(AMBIGUOUS)
            continue
        else:
            kernel_rank = data.curve_cover[i - 1].free_rank - len(factors[i - 1])
        out.append(AbelianGroup(coker.free_rank + kernel_rank, coker.torsion))
    return out


# -- group presentations -------------------------------------------------


def _free_reduce(word: Sequence[int]) -> Word:
    out: list[int] = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _cyclic_reduce(word: Sequence[int]) -> Word:
    w = list(_free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _invert(word: Sequence[int]) -> Word:
    return tuple(-s for s in reversed(word))


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation: generator names and relator words given as
    sequences of signed 1-based generator indices."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if len(set(self.generators)) != len(self.generators):
            raise FieldError("generators", "names must be distinct")
        rels = []
        for i, rel in enumerate(self.relators):
            for s in rel:
                if s == 0 or abs(s) > len(self.generators):
                    raise FieldError(f"relators.{i}", f"index {s} out of range")
            rels.append(tuple(rel))
        object.__setattr__(self, "relators", tuple(rels))

    @property
    def is_empty(self) -> bool:
        return not self.generators and not self.relators


def exponent_matrix(g: GroupPresentation) -> MatrixZ:
    """One row per relator, one column per generator, entries the signed
    occurrence counts."""
    rows = []
    for rel in g.relators:
        row = [0] * len(g.generators)
        for s in rel:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(row)
    return rows


def abelianization(g: GroupPresentation) -> AbelianGroup:
    n = len(g.generators)
    return _quotient(n, smith_normal_form(exponent_matrix(g), n))


# -- Tietze simplification ----------------------------------------------


def _solve_single_occurrence(rel: Word, index: int) -> Optional[Word]:
    """If the generator occurs exactly once in rel, the word it equals."""
    spots = [p for p, s in enumerate(rel) if abs(s) == index]
    if len(spots) != 1:
        return None
    p = spots[0]
    u, v = rel[:p], rel[p + 1:]
    if rel[p] > 0:
        return _free_reduce(_invert(u) + _invert(v))
    return _free_reduce(v + u)


def _substitute(rel: Word, index: int, solution: Word) -> Word:
    out: list[int] = []
    for s in rel:
        if abs(s) != index:
            out.append(s)
        elif s > 0:
            out.extend(solution)
        else:
            out.extend(_invert(solution))
    return _free_reduce(tuple(out))


def _renumber(rel: Word, removed: int) -> Word:
    return tuple(s - 1 if s > removed else s + 1 if s < -removed else s
                 for s in rel)


def _best_product(relators: Sequence[Word]) -> Optional[dict]:
    """Shortest strict shortening of one relator by a cyclic conjugate
    of another (or its inverse); None when nothing shortens."""
    best = None
    for i, target in enumerate(relators):
        if not target:
            continue
        for j, source in enumerate(relators):
            if i == j or not source:
                continue
            for invert in (False, True):
                base = _invert(source) if invert else source
                for rot in range(len(base)):
                    conj = base[rot:] + base[:rot]
                    length = len(_free_reduce(target + conj))
                    if length >= len(target):
                        continue
                    key = (length, i, j, invert, rot)
                    if best is None or key < best:
                        best = key
    if best is None:
        return None
    length, i, j, invert, rot = best
    return {"op": "multiply", "target": i, "source": j,
            "invert": invert, "rotation": rot}


def _apply_step(generators: list[str], relators: list[Word], step: dict) -> None:
    """Apply one logged transformation in place, validating its
    preconditions; raises ValueError if the step does not fit."""
    op = step["op"]
    if op == "reduce":
        i = step["index"]
        reduced = _cyclic_reduce(relators[i])
        if reduced == relators[i]:
            raise ValueError("reduce step changes nothing")
        relators[i] = reduced
    elif op == "drop":
        i = step["index"]
        if relators[i]:
            raise ValueError("drop step on a nonempty relator")
        del relators[i]
    elif op == "multiply":
        i, j = step["target"], step["source"]
        if i == j:
            raise ValueError("multiply needs two distinct relators")
        base = _invert(relators[j]) if step["invert"] else relators[j]
        rot = step["rotation"]
        if not 0 <= rot < max(len(base), 1):
            raise ValueError("rotation out of range")
        conj = base[rot:] + base[:rot]
        product = _free_reduce(relators[i] + conj)
        if len(product) >= len(relators[i]):
            raise ValueError("multiply step does not shorten")
        relators[i] = product
    elif op == "eliminate":
        i = step["relator"]
        name = step["generator"]
        index = generators.index(name) + 1
        solution = _solve_single_occurrence(relators[i], index)
        if solution is None:
            raise ValueError("eliminate step needs a single occurrence")
        if tuple(step["solution"]) != solution:
            raise ValueError("logged solution does not match the relator")
        rest = [_substitute(rel, index, solution)
                for p, rel in enumerate(relators) if p != i]
        relators[:] = [_renumber(rel, index) for rel in rest]
        del generators[index - 1]
    else:
        raise ValueError(f"unknown transformation {op!r}")


# the most steps `tietze_trivialize` takes; the shipped presentation needs 3
TIETZE_BUDGET = 1000


def tietze_trivialize(g: GroupPresentation) -> dict:
    """Bounded search for the empty presentation.

    Moves, tried in priority order: cyclic/free reduction, dropping an
    empty relator, eliminating a generator isolated by a relator, and
    shortening one relator by a conjugate of another.  Returns a status
    of TRIVIAL with a replayable step log, or UNKNOWN when the budget of
    `TIETZE_BUDGET` steps runs out or no move applies; never claims
    triviality it cannot certify.
    """
    generators = list(g.generators)
    relators = list(g.relators)
    steps: list[dict] = []
    while len(steps) < TIETZE_BUDGET:
        if not generators and not relators:
            return {"status": "TRIVIAL", "steps": steps}
        step = None
        for i, rel in enumerate(relators):
            if _cyclic_reduce(rel) != rel:
                step = {"op": "reduce", "index": i}
                break
        if step is None:
            for i, rel in enumerate(relators):
                if not rel:
                    step = {"op": "drop", "index": i}
                    break
        if step is None:
            candidates = sorted(range(len(relators)),
                                key=lambda i: (len(relators[i]), i))
            for i in candidates:
                for index in range(1, len(generators) + 1):
                    solution = _solve_single_occurrence(relators[i], index)
                    if solution is not None:
                        step = {"op": "eliminate", "relator": i,
                                "generator": generators[index - 1],
                                "solution": list(solution)}
                        break
                if step is not None:
                    break
        if step is None:
            step = _best_product(relators)
        if step is None:
            return {"status": "UNKNOWN", "steps": steps,
                    "reason": "no applicable transformation"}
        _apply_step(generators, relators, step)
        steps.append(step)
    if not generators and not relators:
        return {"status": "TRIVIAL", "steps": steps}
    return {"status": "UNKNOWN", "steps": steps, "reason": "budget exhausted"}


def replay_certificate(g: GroupPresentation, steps: Sequence[dict]) -> GroupPresentation:
    """Re-run a step log against the starting presentation, validating
    every move; the result is what the log actually proves."""
    generators = list(g.generators)
    relators = list(g.relators)
    for step in steps:
        _apply_step(generators, relators, dict(step))
    return GroupPresentation(tuple(generators), tuple(relators))


# -- shipped data --------------------------------------------------------


def _each(obj: dict, key: str, where: str, item) -> list:
    """`item(value, path)` for each entry of the array field `key` of `obj`."""
    return [item(value, f"{where}.{key}.{i}")
            for i, value in enumerate(get(obj, key, list, where))]


def _matrix(value, where: str) -> MatrixZ:
    return [typed(row, list, f"{where}.{i}", of=int)
            for i, row in enumerate(typed(value, list, where))]


def _group(value, where: str) -> AbelianGroup:
    rank, torsion = pair(value, where)
    return made(where, AbelianGroup, typed(rank, int, f"{where}.0"),
                tuple(typed(torsion, list, f"{where}.1", of=int)))


def _relator(value, where: str) -> Word:
    return tuple(typed(value, list, where, of=int))


def _build(raw: dict) -> dict:
    model = get(raw, "glued_chain_model", dict)
    complex_ = made("glued_chain_model", ChainComplexZ,
                    get(model, "ranks", list, "glued_chain_model", of=int),
                    _each(model, "boundaries", "glued_chain_model", _matrix))
    mv = get(raw, "mayer_vietoris", dict)
    data = made("mayer_vietoris", MayerVietorisData,
                *(tuple(_each(mv, key, "mayer_vietoris", _group))
                  for key in ("curve_cover", "curve", "surface")),
                maps=tuple(_each(mv, "maps", "mayer_vietoris", _matrix)))
    pres = get(raw, "presentation", dict)
    presentation = made("presentation", GroupPresentation,
                        tuple(get(pres, "generators", list, "presentation", of=str)),
                        tuple(_each(pres, "relators", "presentation", _relator)))
    expected = get(raw, "expected", dict, default={})
    if "glued_homology" in expected:
        _each(expected, "glued_homology", "expected", _group)
    for key in ("abelianization_trivial", "presentation_trivializes"):
        get(expected, key, bool, "expected", None)
    return {
        "chain_model": complex_,
        "mayer_vietoris": data,
        "presentation": presentation,
        "expected": expected,
    }


def load_topology_data(path: Optional[str] = None) -> dict:
    """Parse the bundled (or a user-supplied) topology data file into
    typed objects plus the type-checked expectations block."""
    return load("topology.json", path, _build)
