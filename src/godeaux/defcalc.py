"""Degree bookkeeping for the glueing cotangent sheaf.

On each component of the double locus of a glued surface the first
cotangent sheaf restricts to a line bundle; its degree is the sum of the
two branch degrees minus the number of pinch-point preimages on the
component.  Everything here is integer arithmetic on shipped
intersection numbers, plus an elementary section-count bound.
"""

from __future__ import annotations

from typing import Optional

from .datafile import get, load, typed

# A degree-1 del Pezzo surface is the plane blown up in eight general
# points; its first-order deformations move exactly those eight points.
DEL_PEZZO_DEFORMATION_DIMENSION = 8


def t1_degrees(config: dict) -> dict[str, int]:
    """Per component: branch degree plus paired branch degree minus the
    pinch-point preimages on the component."""
    return {comp["name"]: first["degree"] + second["degree"] - first["node_preimages"]
            for comp in config["components"] for first, second in [comp["branches"]]}


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


def config_from_dict(raw: dict, where: str = "") -> dict:
    """A glued curve: its name and components, each a distinct name with
    exactly two branches that see the same glued points, so both carry one
    nonnegative pinch-point preimage count.  Errors name the dotted path
    below `where`."""
    components = []
    for i, comp in enumerate(get(raw, "components", list, where)):
        at = f"{where}.components.{i}" if where else f"components.{i}"
        branches = get(typed(comp, dict, at), "branches", list, at)
        if len(branches) != 2:
            raise ValueError(f"{at}: a component carries exactly two branches")
        for j, branch in enumerate(branches):
            path = f"{at}.branches.{j}"
            get(typed(branch, dict, path), "degree", int, path)
            if get(branch, "node_preimages", int, path) < 0:
                raise ValueError(f"{path}.node_preimages must be nonnegative")
        if branches[0]["node_preimages"] != branches[1]["node_preimages"]:
            raise ValueError(f"{at}: both branches must carry the same preimage count")
        components.append({"name": get(comp, "name", str, at), "branches": branches})
    if len({comp["name"] for comp in components}) != len(components):
        raise ValueError(f"{where or 'config'}: component names must be distinct")
    return {"name": get(raw, "name", str, where), "components": components}


def _build(raw: dict) -> dict:
    configs = [typed(c, dict, f"configs.{i}") for i, c in enumerate(get(raw, "configs", list))]
    cases = get(raw, "section_bounds", list, default=[])
    for i, case in enumerate(cases):
        for key in ("degree", "arithmetic_genus"):
            get(typed(case, dict, f"section_bounds.{i}"), key, int, f"section_bounds.{i}")
        get(case, "expected", int, f"section_bounds.{i}", None)
    return {"configs": [config_from_dict(c, f"configs.{i}") for i, c in enumerate(configs)],
            "expected_degrees": [get(c, "expected_degrees", dict, f"configs.{i}", None, of=int)
                                 for i, c in enumerate(configs)],
            "section_bounds": cases,
            "deformation_dimension": get(raw, "deformation_dimension", int, default=None)}


def load_defcalc_data(path: Optional[str] = None) -> dict:
    """Parse the bundled (or a user-supplied) configuration file."""
    return load("defcalc.json", path, _build)
