"""Fixtures shared across test modules."""

import contextlib
import io

import pytest

from godeaux import cli


@pytest.fixture(scope="session")
def canring_structured():
    """Exit code and output of `godeaux canring --format structured` at the
    default horizon, run once for every test that reads it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["canring", "--format", "structured"])
    return code, out.getvalue()


@pytest.fixture(scope="session")
def canring_truncated():
    """Exit code and output of `godeaux canring --max-degree 5 --format
    structured`, a horizon below the relations, run once for every test that
    reads it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["canring", "--max-degree", "5", "--format", "structured"])
    return code, out.getvalue()
