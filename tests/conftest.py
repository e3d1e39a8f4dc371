"""Fixtures shared across test modules."""

import contextlib
import io

import pytest

from godeaux import cli
from godeaux.canring import Pipeline
from godeaux.instance import load_instance


@pytest.fixture(scope="session")
def pipe():
    """The shipped instance's pipeline at the default horizon 12, built once
    for the graded tests and the acceptance checklist."""
    return Pipeline(load_instance(), max_degree=12)


@pytest.fixture(scope="session")
def canring_structured():
    """Exit code and output of `godeaux canring --format structured` at the
    default horizon, run once for every test that reads it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["canring", "--format", "structured"])
    return code, out.getvalue()
