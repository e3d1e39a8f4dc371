"""Glueing sheaf degree bookkeeping and section bounds."""

import pytest

from godeaux.defcalc import (
    DEL_PEZZO_DEFORMATION_DIMENSION,
    config_from_dict,
    load_defcalc_data,
    section_bound,
    t1_degrees,
)


def branch(degree, nodes):
    return {"degree": degree, "node_preimages": nodes}


def component(name, d1, d2, nodes):
    return {"name": name, "branches": [branch(d1, nodes), branch(d2, nodes)]}


def config(name, *components):
    return config_from_dict({"name": name, "components": list(components)})


@pytest.fixture(scope="module")
def shipped():
    return load_defcalc_data()


class TestDegrees:
    def test_main_surface(self):
        assert t1_degrees(config("main", component("d", 2, 2, 3))) == {"d": 1}

    def test_limit_core(self):
        assert t1_degrees(config("core", component("c", -1, -1, 3))) == {"c": -5}

    def test_limit_arm(self):
        assert t1_degrees(config("arm", component("a", 1, 3, 2))) == {"a": 2}

    def test_shipped_configs(self, shipped):
        for cfg, expected in zip(shipped["configs"], shipped["expected_degrees"]):
            assert t1_degrees(cfg) == expected

    def test_additive_under_disjoint_union(self):
        first = component("p", 2, 2, 3)
        second = component("q", 1, 3, 2)
        separate = {**t1_degrees(config("p", first)), **t1_degrees(config("q", second))}
        assert t1_degrees(config("both", first, second)) == separate

    def test_branch_swap_symmetric(self):
        swapped = {"name": "a", "branches": [branch(3, 2), branch(1, 2)]}
        plain = component("a", 1, 3, 2)
        assert t1_degrees(config("x", plain)) == t1_degrees(config("x", swapped))


class TestValidation:
    def test_mismatched_node_counts(self):
        with pytest.raises(ValueError, match="same preimage count"):
            config("x", {"name": "a", "branches": [branch(1, 2), branch(3, 1)]})

    def test_negative_node_count(self):
        with pytest.raises(ValueError, match=r"components\.0\.branches\.0\.node_preimages"):
            config("x", component("a", 1, 1, -1))

    def test_branch_count(self):
        with pytest.raises(ValueError, match="exactly two branches"):
            config("x", {"name": "a", "branches": [branch(1, 2)]})

    def test_duplicate_component_names(self):
        with pytest.raises(ValueError, match="distinct"):
            config("x", component("a", 1, 1, 1), component("a", 2, 2, 2))

    def test_config_from_dict(self):
        raw = {"name": "x", "description": "ignored", "components": [
            {"name": "a",
             "branches": [{"degree": 1, "node_preimages": 2},
                          {"degree": 3, "node_preimages": 2}]}]}
        cfg = config_from_dict(raw)
        assert cfg["name"] == "x"
        assert t1_degrees(cfg) == {"a": 2}
        raw["components"][0]["branches"][1]["node_preimages"] = True
        with pytest.raises(TypeError, match=r"^c\.components\.0\.branches\.1\.node_preimages "):
            config_from_dict(raw, "c")


class TestSectionBound:
    def test_degree_one_genus_two(self):
        assert section_bound(1, 2) == 1

    def test_negative_degree(self):
        assert section_bound(-5, 2) == 0
        assert section_bound(-1, 0) == 0

    def test_trivial_bundle(self):
        assert section_bound(0, 0) == 1

    def test_generic_bound(self):
        assert section_bound(2, 0) == 3
        assert section_bound(1, 0) == 2

    def test_shipped_cases(self, shipped):
        for case in shipped["section_bounds"]:
            got = section_bound(case["degree"], case["arithmetic_genus"])
            assert got == case["expected"]


def test_deformation_dimension(shipped):
    assert DEL_PEZZO_DEFORMATION_DIMENSION == 8
    assert shipped["deformation_dimension"] == DEL_PEZZO_DEFORMATION_DIMENSION
