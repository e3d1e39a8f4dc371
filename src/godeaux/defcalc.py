"""Degree bookkeeping for the glueing cotangent sheaf.

On each component of the double locus of a glued surface the first
cotangent sheaf restricts to a line bundle; its degree is the sum of the
two branch degrees minus the number of pinch-point preimages on the
component.  Everything here is integer arithmetic on shipped
intersection numbers, plus an elementary section-count bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .datafile import get, load, typed

# A degree-1 del Pezzo surface is the plane blown up in eight general
# points; its first-order deformations move exactly those eight points.
DEL_PEZZO_DEFORMATION_DIMENSION = 8


@dataclass(frozen=True)
class BranchData:
    """One branch of the double locus on the normalization: the degree
    of the glueing line bundle on it and how many pinch-point preimages
    it carries."""

    degree: int
    node_preimages: int

    def __post_init__(self):
        if not isinstance(self.degree, int) or isinstance(self.degree, bool):
            raise ValueError("branch degree must be an integer")
        if not isinstance(self.node_preimages, int) or self.node_preimages < 0:
            raise ValueError("node preimage count must be a nonnegative integer")


@dataclass(frozen=True)
class CurveComponent:
    """A component of the double locus with its two branches upstairs.

    The two branches see the same glued points, so their preimage counts
    must agree.
    """

    name: str
    branches: tuple[BranchData, BranchData]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if len(self.branches) != 2:
            raise ValueError("a component carries exactly two branches")
        first, second = self.branches
        if first.node_preimages != second.node_preimages:
            raise ValueError("both branches must carry the same preimage count")

    @property
    def node_preimages(self) -> int:
        return self.branches[0].node_preimages


@dataclass(frozen=True)
class GluedCurveConfig:
    name: str
    components: tuple[CurveComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError("component names must be distinct")


@dataclass(frozen=True)
class T1DegreeReport:
    degrees: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.degrees)


def t1_degrees(config: GluedCurveConfig) -> T1DegreeReport:
    """Per component: branch degree plus paired branch degree minus the
    pinch-point preimages on the component."""
    out = []
    for comp in config.components:
        first, second = comp.branches
        out.append((comp.name, first.degree + second.degree - comp.node_preimages))
    return T1DegreeReport(tuple(out))


def section_bound(degree: int, arithmetic_genus: int) -> int:
    """Upper bound for the section count of a line bundle of the given
    degree on an irreducible curve.

    Negative degree bundles have no sections; a degree-1 bundle on a
    genus-2 curve has at most one; otherwise the crude degree + 1 bound
    applies.
    """
    if degree < 0:
        return 0
    if degree == 1 and arithmetic_genus == 2:
        return 1
    return degree + 1


def config_from_dict(raw: dict) -> GluedCurveConfig:
    components = []
    for comp in raw["components"]:
        branches = tuple(BranchData(b["degree"], b["node_preimages"])
                         for b in comp["branches"])
        components.append(CurveComponent(typed(comp["name"], str, "component name"), branches))
    return GluedCurveConfig(typed(raw["name"], str, "config name"), tuple(components))


def _build(raw: dict) -> dict:
    configs = [config_from_dict(c) for c in raw["configs"]]
    expected = [get(c, "expected_degrees", dict, "configs[*]", None, of=int)
                for c in raw["configs"]]
    cases = get(raw, "section_bounds", list, default=[])
    for case in cases:
        for key in ("degree", "arithmetic_genus"):
            get(typed(case, dict, "section_bounds[*]"), key, int, "section_bounds[*]")
        get(case, "expected", int, "section_bounds[*]", None)
    return {"configs": configs, "expected_degrees": expected, "section_bounds": cases,
            "deformation_dimension": get(raw, "deformation_dimension", int, default=None)}


def load_defcalc_data(path: Optional[str] = None) -> dict:
    """Parse the bundled (or a user-supplied) configuration file."""
    return load("defcalc.json", path, _build)
