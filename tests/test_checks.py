"""Every registry check that no acceptance criterion runs, at FULL ranges."""

import collections

import pytest

import test_acceptance
from fillpoly.checks import CHECKS, FULL, lowest_terms_failure, run_check
from fillpoly.ptolemy import PVARS
from fillpoly.ratfunc import RatFunc, parse_poly

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


def _raw(num, den):
    """A RatFunc kept exactly as written, with no normalization."""
    return RatFunc(parse_poly(num, PVARS), parse_poly(den, PVARS),
                   _normalized=True)


def test_lowest_terms_certifies_a_reduced_value():
    assert lowest_terms_failure(_raw("L + 2", "L^3 * (L - M)^4 * (M + 1)")) \
        is None


@pytest.mark.parametrize("num,den,detail", [
    ("(L - M) * (L + 2)", "M * (L - M)^2",
     "L - M divides numerator and denominator"),
    ("L + 2", "M * (L - M) * (L + M + 1)",
     "denominator keeps a 3-term factor outside its binomial factors"),
    ("(M + 3) * (L + 2)", "M * (L - M) * (M + 3)",
     "M + 3 divides numerator and denominator"),
    ("M * (L + 2)", "M * (L - 1)", "M divides numerator and denominator"),
], ids=["shared-candidate", "foreign-factor", "found-factor",
        "shared-variable"])
def test_lowest_terms_names_the_shared_factor(num, den, detail):
    assert lowest_terms_failure(_raw(num, den)) == detail
