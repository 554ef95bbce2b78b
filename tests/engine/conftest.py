import pytest

from repro.engine import Context


@pytest.fixture()
def ctx():
    with Context(backend="serial") as c:
        yield c
