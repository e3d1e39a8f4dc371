"""Source invariants of the program: it imports the standard library only,
and its arithmetic is exact (no float, and every division is of a
Fraction)."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "godeaux").glob("*.py"))


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
