"""Every registry check that no acceptance criterion runs, at FULL ranges."""

import collections

import pytest

import test_acceptance
from fillpoly.checks import CHECKS, FULL, run_check

GROUPS = test_acceptance.CRITERION_CHECKS
CLAIMED = [name for group in GROUPS.values() for name in group]
UNCLAIMED = [(name, check) for name, check in CHECKS if name not in CLAIMED]


@pytest.mark.parametrize("name,check", UNCLAIMED,
                         ids=[name for name, _ in UNCLAIMED])
def test_registry_check(name, check, family_runs):
    ok, detail = run_check(check, FULL, family_runs)
    assert ok, detail


def test_every_check_is_claimed_exactly_once():
    runs = collections.Counter(CLAIMED + [name for name, _ in UNCLAIMED])
    assert runs == collections.Counter(name for name, _ in CHECKS)
    assert set(runs.values()) == {1}
    # each criterion group has a test that runs it
    for num in GROUPS:
        assert callable(getattr(test_acceptance, "test_criterion_%d" % num))
