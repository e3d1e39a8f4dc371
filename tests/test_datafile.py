"""The input boundary: a damaged data file loads or is refused with
InputError, never with any other exception.

Mutants of each shipped file delete, retype or replace fields anywhere in
the document; Hypothesis runs derandomized, so every run checks the same
mutants.  Every integer recast as a JSON boolean is refused by name.
"""

import json
from copy import deepcopy
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux.datafile import InputError, load
from godeaux.defcalc import load_defcalc_data
from godeaux.instance import load_instance
from godeaux.topology import load_topology_data

LOADERS = {"godeaux.json": load_instance,
           "topology.json": load_topology_data,
           "defcalc.json": load_defcalc_data}

# a value of every JSON type, and near misses of the shipped values
REPLACEMENTS = [None, True, False, 0, 1, -1, 2, 7, 2.5, "", "0", "1", "x1", "t",
                "x1^2-x2^2", "t^", [], [0], [1, 2], ["0", "1"], [[1, []]], {}, {"a": 1}]


def shipped(name):
    return json.loads(resources.files("godeaux.data").joinpath(name).read_text())


def paths(node, prefix=()):
    """The path to every value below the top level of a decoded document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def retyped(value):
    """`value` recast as other JSON types."""
    out = [[value], json.dumps(value)]
    if isinstance(value, int) and not isinstance(value, bool):
        out += [float(value), value != 0]
    elif isinstance(value, dict):
        out.append(list(value.values()))
    elif isinstance(value, list):
        out.append({str(i): x for i, x in enumerate(value)})
    return out


@st.composite
def mutants(draw, name):
    doc = shipped(name)
    for _ in range(draw(st.integers(1, 3))):
        candidates = sorted(paths(doc), key=repr)
        if not candidates:
            break
        # objects and arrays are as likely a target as all the scalars together
        containers = [p for p in candidates if isinstance(at(doc, p), (dict, list))]
        if containers and draw(st.booleans()):
            candidates = containers
        path = draw(st.sampled_from(candidates))
        parent = at(doc, path[:-1])
        key = path[-1]
        action = draw(st.sampled_from(["delete", "retype", "replace"]))
        if action == "delete":
            del parent[key]
        elif action == "retype":
            parent[key] = draw(st.sampled_from(retyped(parent[key])))
        else:
            parent[key] = deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return doc


@pytest.fixture(scope="module")
def mutant_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.json"


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_mutant_loads_or_is_refused(mutant_file, name, data):
    mutant_file.write_text(json.dumps(data.draw(mutants(name))))
    try:
        LOADERS[name](str(mutant_file))
    except InputError as exc:
        assert str(exc).startswith(f"{mutant_file}: ")


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_for_integer_is_refused(tmp_path, name, flag):
    # JSON true/false decode as Python bools, which are ints; each one in
    # place of a shipped integer must be refused naming its dotted path
    doc = shipped(name)
    targets = [p for p in paths(doc) if type(at(doc, p)) is int]
    assert targets
    wrong = []
    for path in targets:
        mutant = deepcopy(doc)
        at(mutant, path[:-1])[path[-1]] = flag
        file = tmp_path / "mutant.json"
        file.write_text(json.dumps(mutant))
        dotted = ".".join(map(str, path))
        try:
            LOADERS[name](str(file))
        except InputError as exc:
            if str(exc) != f"{file}: {dotted} must be an integer, not true or false":
                wrong.append(str(exc))
        else:
            wrong.append(f"{dotted} loaded")
    assert wrong == []


def test_builder_recursion_error_is_a_fault(tmp_path):
    # only the decoder's RecursionError is refused input; one a builder
    # raises is a program fault and keeps its traceback
    file = tmp_path / "flat.json"
    file.write_text("{}")

    def build(raw):
        raise RecursionError("planted")

    with pytest.raises(RecursionError, match="planted"):
        load("godeaux.json", str(file), build)
