"""Fixtures shared across test modules."""

import contextlib

import pytest

from godeaux import cli
from godeaux.canring import Pipeline
from godeaux.instance import load_instance


@pytest.fixture(scope="session")
def pipe():
    """The shipped instance's pipeline at the default horizon 12, built once
    for the graded tests and the acceptance checklist."""
    return Pipeline(load_instance(), max_degree=12)


@pytest.fixture
def inline_child(monkeypatch):
    """Run every `cli._in_child` task in the test's own process, so that a
    test that counts work through `cli.main` also counts canring's map
    checks, which otherwise run in a forked child whose counts never reach
    the test.  Returns the tasks run, for the test to assert that it ran."""
    ran = []

    @contextlib.contextmanager
    def inline(task):
        value = task()
        ran.append(task)
        yield lambda: value

    monkeypatch.setattr(cli, "_in_child", inline)
    return ran
