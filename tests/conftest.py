import pytest

from fillpoly.checks import family_runner


@pytest.fixture(scope="session")
def family_runs():
    """Memoized run_family so the expensive fillings happen once per session."""
    return family_runner()
