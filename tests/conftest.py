"""Child interpreters started by the tests (`python -m entcharge`, the
scripts) import entcharge from src/, as the tests do through the
`pythonpath` setting in pyproject.toml, so no installed copy or PYTHONPATH
is needed."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
