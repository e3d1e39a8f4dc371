"""Fixtures shared across test modules."""

import pytest

from godeaux.canring import Pipeline
from godeaux.instance import load_instance


@pytest.fixture(scope="session")
def pipe():
    """The shipped instance's pipeline at the default horizon 12, built once
    for the graded tests and the acceptance checklist."""
    return Pipeline(load_instance(), max_degree=12)
