import pytest

from dartlab.experiment import build_world


@pytest.fixture
def fresh_world():
    """The test's cells build their world anew and leave none behind, so a
    world built with a patched builder reaches no other test."""
    build_world.cache_clear()
    yield build_world
    build_world.cache_clear()
