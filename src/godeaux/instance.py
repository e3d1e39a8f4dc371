"""Instance configuration: ring, modulus, restriction data, reference lists.

The bundled default describes the flagship surface; any field can be
overridden by pointing the loader at another JSON file of the same shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .poly import Poly, WeightedRing, parse_poly
from .quotient import HypersurfaceRing
from .residue import CurveElement, CurveRing, ResidueMap, TauSubring


class InstanceError(ValueError):
    """Malformed instance file."""


@dataclass(frozen=True)
class Witness:
    """A stated base-locus point over Q[t]/(mu): the texts as given, and
    the minimal polynomial and one coordinate per ring variable parsed."""

    minimal_polynomial: str
    point: tuple[str, ...]
    mu: Poly
    coords: tuple[Poly, ...]


def _parse_witness(key: str, cfg: dict, nvars: int) -> Witness:
    where = f"base_locus.witnesses.{key}"
    tring = WeightedRing(["t"], [1])
    try:
        text, point = cfg["extension_minimal_polynomial"], cfg["point"]
        if not isinstance(point, list) or len(point) != nvars:
            raise InstanceError(f"the point must list one coordinate per ring variable "
                                f"({nvars}), got {point!r}")
        mu = parse_poly(text, tring)
        coords = tuple(parse_poly(c, tring) for c in point)
    except KeyError as exc:
        raise InstanceError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{where}: {exc}") from exc
    if (mu.degree() or 0) < 1:
        raise InstanceError(f"{where}: the minimal polynomial must have degree at least 1")
    return Witness(text, tuple(point), mu, coords)


class Instance:
    """Everything the pipeline needs, parsed and cross-validated."""

    def __init__(self, raw: dict):
        try:
            self._build(raw)
        except InstanceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"bad instance file: {exc}") from exc

    def _build(self, raw: dict):
        self.name = raw.get("name", "unnamed")
        ring_cfg = raw["ring"]
        self.ring = WeightedRing(ring_cfg["names"], ring_cfg["weights"])
        modulus = parse_poly(raw["modulus"], self.ring)
        self.quotient = HypersurfaceRing(self.ring, modulus)

        factors = raw["curve_factors"]
        if len(factors) != 2 or any(len(f) != 2 for f in factors):
            raise InstanceError("curve_factors must be two pairs of names")
        self.curve = CurveRing(factors[0], factors[1])

        images_cfg = raw["residue_images"]
        if len(images_cfg) != self.ring.n:
            raise InstanceError("one residue image per ring variable required")
        images = [self.curve.element(first, second) for first, second in images_cfg]
        self.residue = ResidueMap(self.quotient, self.curve, images)

        tau_cfg = raw["tau_generators"]
        if len(tau_cfg) != 2:
            raise InstanceError("tau_generators must list exactly two elements")
        u = self.curve.element(*tau_cfg[0])
        v = self.curve.element(*tau_cfg[1])
        self.tau = TauSubring(u, v)

        self.reference_generators: list[tuple[Poly, int]] = []
        for entry in raw["reference_generators"]:
            p = parse_poly(entry["polynomial"], self.ring)
            d = entry["degree"]
            if p.is_zero or p.homogeneous_degree() != d:
                raise InstanceError(f"generator {entry['polynomial']!r} is not homogeneous of degree {d}")
            self.reference_generators.append((p, d))
        degs = [d for _, d in self.reference_generators]
        if degs != sorted(degs):
            raise InstanceError("reference generators must be listed by ascending degree")

        tri = raw["tricanonical"]
        names = tri["variables"]
        self.tricanonical_ring = WeightedRing(names, [1] * len(names))
        self.tricanonical_indices = list(tri["generator_indices"])
        for i in self.tricanonical_indices:
            if not 0 <= i < len(self.reference_generators):
                raise InstanceError("tricanonical generator index out of range")
        self.tricanonical_reference = parse_poly(tri["reference_form"], self.tricanonical_ring)

        bl = raw["base_locus"]
        self.base_locus_bound = int(bl["degree_bound"])
        self.nonempty_evidence_bound = int(bl["nonempty_evidence_bound"])
        self.base_locus_witnesses = {int(k): _parse_witness(k, v, self.ring.n)
                                     for k, v in bl.get("witnesses", {}).items()}

        self.expected = raw.get("expected", {})


def load_instance(path: Optional[str] = None) -> Instance:
    """Load an instance file; with no path, the bundled default."""
    if path is None:
        text = resources.files("godeaux.data").joinpath("godeaux.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance file is not valid JSON: {exc}") from exc
    return Instance(raw)
