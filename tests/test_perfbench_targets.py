"""Every function the benchmark's traced mode wraps still exists.

`perfbench/tracing.py` lists the wrapped functions in `TRACED` as
(module, attribute path, metric prefix).  A traced run fails to install if
one of them is renamed or deleted, so the list is checked here: it is read
from the file, not imported, and a method must be defined on its class
itself, as `Tracer.install` requires.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in perfbench/tracing.py")


@pytest.mark.parametrize("module_name, path, prefix", _traced(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_traced_target_resolves(module_name, path, prefix):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name)), f"{module_name}.{path}"
    else:
        assert callable(getattr(module, path, None)), f"{module_name}.{path}"
