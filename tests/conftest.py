import pytest

from fillpoly.checks import family_runner
from fillpoly.families import twist_polys


@pytest.fixture(scope="session")
def family_runs():
    """Memoized run_family so the expensive fillings happen once per session."""
    return family_runner()


@pytest.fixture
def fresh_twist_polys():
    """An empty twist_polys cache, so a test sees generation from the seeds."""
    twist_polys.cache_clear()
    yield
    twist_polys.cache_clear()
