"""Source invariants of the program: it imports the standard library only,
a graded command imports no module it does not run, and its arithmetic is
exact (no float, and every division is of a Fraction)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "godeaux").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_fraction(node) -> bool:
    """`Fraction(...)`, possibly negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, \
                f"{path.name}:{node.lineno} imports {name}"


def test_cli_imports_only_the_graded_modules():
    # each command is a process of its own that pays for every import at
    # start-up: `topology` and `defcalc` import their modules when they
    # run, and `dataclasses`, with the `inspect` it loads, is used by
    # topology alone.  The modules the graded commands run are loaded at
    # import, so none of their set-up moves into the first command.
    # `datafile` finds the bundled data through `os.path`, so neither
    # `importlib.resources` (which imports `inspect` from Python 3.12 on)
    # nor the `pathlib`, `tempfile` and `shutil` under it are loaded
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import godeaux.cli\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120, check=True)
    loaded = set(json.loads(result.stdout))
    assert not loaded & {"godeaux.topology", "godeaux.defcalc", "dataclasses", "inspect",
                         "importlib.resources", "pathlib", "tempfile", "shutil"}
    graded = {"canring", "instance", "poly", "quotient", "residue", "linalg", "datafile"}
    assert {f"godeaux.{name}" for name in graded} <= loaded


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    for node in ast.walk(_tree(path)):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), \
            f"{path.name}:{node.lineno} has a float constant"
        assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"), f"{path.name}:{node.lineno} calls float"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_divisions_are_of_fractions(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = [node.value]
        else:
            continue
        assert any(map(_is_fraction, operands)), \
            f"{path.name}:{node.lineno} divides without a Fraction operand"


def test_canring_reads_no_dense_linear_algebra():
    # every vector of the pipeline, the descent's curve-ring columns from
    # residue.py included, is a sparse mapping eliminated by one `Echelon`;
    # the dense entry points and the dense-to-sparse conversion are the
    # tests' API only
    dense_names = {"dense", "sparse", "rank_of", "kernel_basis", "rref", "membership",
                   "SpanBuilder"}
    for path in (p for p in SOURCES if p.name in ("canring.py", "residue.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                used = {alias.name for alias in node.names} & dense_names
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "linalg":
                used = {node.attr} & dense_names
            else:
                continue
            assert not used, f"{path.name}:{node.lineno} reads {used} from linalg"


def test_canring_builds_echelon_in_three_functions():
    # every elimination over a graded piece of S/f is built by `_eliminate`;
    # the descent's curve-ring kernel and the relation search, over the
    # kernel's own coordinates, build theirs; a recorder of eliminations
    # then needs these three hooks only
    builders = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "Echelon":
                builders.add(where)
            visit(child, where)

    (path,) = (p for p in SOURCES if p.name == "canring.py")
    visit(_tree(path), None)
    assert builders == {"_eliminate", "descend_space", "relations"}
