"""Instance configuration: ring, modulus, restriction data, reference lists.

The bundled default describes the flagship surface; any field can be
overridden by pointing the loader at another JSON file of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .datafile import get, load, made, pair, typed
from .poly import Poly, WeightedRing, parse_poly
from .quotient import HypersurfaceRing
from .residue import CurveElement, CurveRing, ResidueMap, TauSubring


@dataclass(frozen=True)
class Witness:
    """A stated base-locus point over Q[t]/(mu): the texts as given, and
    the minimal polynomial and one coordinate per ring variable parsed."""

    minimal_polynomial: str
    point: tuple[str, ...]
    mu: Poly
    coords: tuple[Poly, ...]


# the largest base-locus degree bound and evidence bound accepted: the
# search's time about doubles with every 10 degrees (`verify base-locus`,
# best of two in-process runs, a 2-core Xeon, Python 3.11.7: with the m = 2
# witness dropped, 0.26 s at a degree bound of 30, 0.68 s at 40 and 1.2 s
# at 50; with it kept, 0.04 s at an evidence bound of 12, 0.49 s at 40 and
# 1.1 s at 50)
_MAX_BASE_LOCUS_BOUND = 40


def _checked_expected(raw: dict) -> dict:
    """The block of published values the checks compare with, type-checked."""
    exp = get(raw, "expected", dict, default={})
    for key, kind, of in (("generator_degrees", list, int), ("relation_degrees", dict, int),
                          ("surface_invariants", dict, int), ("base_locus", dict, str),
                          ("codimension", int, None), ("fourcanonical_second_difference", int, None)):
        get(exp, key, kind, "expected", None, of)
    return exp


def _element(curve: CurveRing, where: str, texts) -> CurveElement:
    """The curve element given by the pair of grammar strings at `where`."""
    return made(where, curve.element, *pair(texts, where, of=str))


def _parse_witness(key: str, cfg, nvars: int) -> tuple[int, Witness]:
    """The degree a witness is keyed by, and the witness."""
    where = f"base_locus.witnesses.{key}"
    try:
        degree = int(key)
    except ValueError:
        raise ValueError(f"{where}: the key must be an integer degree") from None
    if degree < 2:
        # `Pipeline.base_locus` asks about m >= 2 only, so such a witness
        # would be read by nothing
        raise ValueError(f"{where}: the degree must be at least 2, got {degree}")
    text = get(typed(cfg, dict, where), "extension_minimal_polynomial", str, where)
    point = get(cfg, "point", list, where, of=str)
    if len(point) != nvars:
        raise ValueError(f"{where}: the point must list one coordinate per ring "
                         f"variable ({nvars}), got {point!r}")
    tring = WeightedRing(["t"], [1])
    mu = made(where, parse_poly, text, tring)
    coords = tuple(made(where, parse_poly, c, tring) for c in point)
    if (mu.degree() or 0) < 1:
        raise ValueError(f"{where}: the minimal polynomial must have degree at least 1")
    return degree, Witness(text, tuple(point), mu, coords)


class Instance:
    """Everything the pipeline needs, parsed and cross-validated."""

    def __init__(self, raw: dict):
        self.name = get(raw, "name", str, default="unnamed")
        ring_cfg = get(raw, "ring", dict)
        self.ring = made("ring", WeightedRing, get(ring_cfg, "names", list, "ring", of=str),
                         get(ring_cfg, "weights", list, "ring", of=int))
        modulus = made("modulus", parse_poly, get(raw, "modulus", str), self.ring)
        self.quotient = HypersurfaceRing(self.ring, modulus)

        factors = pair(get(raw, "curve_factors", list), "curve_factors")
        # each factor's names are checked on their own, so an error names it
        names = [made(f"curve_factors.{i}", WeightedRing,
                      pair(f, f"curve_factors.{i}", of=str), [1, 1]).names
                 for i, f in enumerate(factors)]
        self.curve = CurveRing(*names)
        images = [_element(self.curve, f"residue_images.{i}", texts)
                  for i, texts in enumerate(get(raw, "residue_images", list))]
        self.residue = ResidueMap(self.quotient, self.curve, images)
        taus = pair(get(raw, "tau_generators", list), "tau_generators")
        u, v = (_element(self.curve, f"tau_generators.{i}", texts)
                for i, texts in enumerate(taus))
        self.tau = TauSubring(u, v)

        self.reference_generators: list[tuple[Poly, int]] = []
        for i, entry in enumerate(get(raw, "reference_generators", list)):
            where = f"reference_generators.{i}"
            text = get(typed(entry, dict, where), "polynomial", str, where)
            p = made(f"{where}.polynomial", parse_poly, text, self.ring)
            d = get(entry, "degree", int, where)
            if p.is_zero or p.homogeneous_degree() != d:
                raise ValueError(f"generator {text!r} is not homogeneous of degree {d}")
            self.reference_generators.append((p, d))
        degs = [d for _, d in self.reference_generators]
        if degs != sorted(degs):
            raise ValueError("reference generators must be listed by ascending degree")

        tri = get(raw, "tricanonical", dict)
        names = get(tri, "variables", list, "tricanonical", of=str)
        self.tricanonical_ring = made("tricanonical.variables", WeightedRing,
                                      names, [1] * len(names))
        indices = get(tri, "generator_indices", list, "tricanonical", of=int)
        if not names or len(indices) != len(names):
            raise ValueError(f"tricanonical: one generator index per variable required "
                             f"({len(names)} variables, {len(indices)} indices)")
        if not all(0 <= i < len(degs) for i in indices):
            raise ValueError("tricanonical generator index out of range")
        if len({degs[i] for i in indices}) != 1:
            raise ValueError("tricanonical: the indexed generators must share one degree")
        self.tricanonical_indices = indices
        self.tricanonical_reference = made(
            "tricanonical.reference_form", parse_poly,
            get(tri, "reference_form", str, "tricanonical"), self.tricanonical_ring)

        bl = get(raw, "base_locus", dict)
        for key in ("degree_bound", "nonempty_evidence_bound"):
            if get(bl, key, int, "base_locus") < 0:
                raise ValueError(f"base_locus.{key} must be nonnegative, got {bl[key]}")
            if bl[key] > _MAX_BASE_LOCUS_BOUND:
                raise ValueError(f"base_locus.{key} must be at most {_MAX_BASE_LOCUS_BOUND}, "
                                 f"got {bl[key]}")
        self.base_locus_bound = bl["degree_bound"]
        self.nonempty_evidence_bound = bl["nonempty_evidence_bound"]
        self.base_locus_witnesses = dict(
            _parse_witness(k, v, self.ring.n)
            for k, v in get(bl, "witnesses", dict, "base_locus", {}).items())
        self.expected = _checked_expected(raw)


def load_instance(path: Optional[str] = None) -> Instance:
    """Load an instance file; with no path, the bundled default."""
    return load("godeaux.json", path, Instance)
