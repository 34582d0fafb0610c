"""Every registry check that no acceptance criterion runs, at FULL ranges."""

import collections
import dataclasses

import pytest

import test_acceptance
from fillpoly import checks, hn, matchings
from fillpoly.checks import CHECKS, FULL, lowest_terms_failure, run_check
from fillpoly.families import (get_family, numeric_agreement, twist_A,
                               twist_polys)
from fillpoly.matchings import TAIL_VARS
from fillpoly.poly import Poly
from fillpoly.ptolemy import PVARS, Assignment
from fillpoly.quadext import QuadExt
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


def _storing(monkeypatch, family, sign, gname, restore):
    """Make the checks read a chain of the family whose gname value is
    restore(value, radicand), stored as given rather than through bind."""
    spec, real = get_family(family, sign), checks.family_chain

    def family_chain(s):
        chain = real(s)
        if s is not spec:
            return chain
        vals = {name: chain.asg.value(name) for name in chain.asg.names()}
        vals[gname] = restore(vals[gname], chain.asg.rad)
        return chain._replace(asg=Assignment(vals, chain.asg.rad))

    monkeypatch.setattr(checks, "family_chain", family_chain)


def test_normalization_independence_fails_on_an_unreduced_value(monkeypatch):
    # one chain value with a binomial factor left in both parts
    b = Poly.variable(PVARS, "L") - Poly.variable(PVARS, "M")
    _storing(monkeypatch, "pretzel238", "pos", "g_1/2",
             lambda v, rad: RatFunc(v.num * b, v.den * b))
    ok, detail = run_check(dict(CHECKS)["normalization-independence"], FULL,
                           None)
    assert not ok
    assert detail == "pretzel238/pos g_1/2 changes under reduction"


def test_whitehead_purity_fails_on_a_rational_quadext(monkeypatch):
    _storing(monkeypatch, "whitehead", "neg", "g_-1/1", QuadExt.rational)
    ok, detail = run_check(dict(CHECKS)["whitehead-purity"], FULL, None)
    assert not ok
    assert detail == "neg g_-1/1 is stored as a QuadExt with a rational part"


def test_numeric_agreement_fails_on_an_expression_off_by_one(family_runs):
    spec = get_family("pretzel238", "pos")
    result = family_runs("pretzel238", "pos", 1)
    off = dataclasses.replace(result, expression=result.expression + 1)
    assert numeric_agreement(spec, 1, 3, 0, result)
    assert not numeric_agreement(spec, 1, 3, 0, off)

    def family_run(name, sign, m):
        if (name, sign, m) == ("pretzel238", "pos", 1):
            return off
        return family_runs(name, sign, m)

    assert run_check(dict(CHECKS)["pretzel-numeric-agreement"], FULL,
                     family_run) == (False, "mismatch at pos m=1")


def _gaining_a_term(real, size, exps):
    """real, with the monomial of exps added to its value at size."""
    def gained(n):
        value = real(n)
        return value + Poly.monomial(TAIL_VARS, exps) if n == size else value
    return gained


# each polynomial gains a term of its own total degree that it lacks, so
# the identities that read it stay homogeneous
@pytest.mark.parametrize("name, module, real, size, exps, detail", [
    ("matching-step-recurrences", matchings, "matching_sum", 5, (1, 1, 3),
     "single-step recurrence fails at k=5"),
    ("matching-product-recurrence", checks, "matching_sum", 8, (1, 1, 6),
     "two-step recurrence fails at n=4"),
    ("matching-gap-identity", checks, "matching_sum", 8, (1, 1, 6),
     "product gap identity fails at n=5"),
    ("h-product-recurrence", hn, "tail_poly", 6, (1, 1, 10),
     "three-term product identity fails at n=7"),
], ids=["matching-step", "matching-product", "matching-gap", "h-product"])
def test_product_identity_checks_fail_on_a_polynomial_gaining_a_term(
        monkeypatch, name, module, real, size, exps, detail):
    gained = _gaining_a_term(getattr(module, real), size, exps)
    assert exps not in getattr(module, real)(size).terms
    monkeypatch.setattr(module, real, gained)
    assert run_check(dict(CHECKS)[name], FULL, None) == (False, detail)


def _mutate_pos_seed(tw):
    # A_1 = L + M^6 misread as L + M^4
    tw.seqs["pos"][0] = parse_poly("L + M^4", PVARS)


def _mutate_neg_gap(tw):
    tw.gap["neg"] = tw.gap["neg"] * Poly.variable(PVARS, "M")


def _mutate_pos_a5(tw):
    # A_5 one off once generated: the base identities and n = 2, 3 hold
    twist_A(5, "pos")
    tw.seqs["pos"][4] = tw.seqs["pos"][4] + 1


@pytest.mark.parametrize("mutate, detail", [
    (_mutate_pos_seed, "base identity pos"),
    (_mutate_neg_gap, "base identity neg"),
    (_mutate_pos_a5, "pos n=4"),
], ids=["pos-seed", "neg-gap", "pos-a5"])
def test_twist_recurrences_fail_on_mutated_twist_data(fresh_twist_polys,
                                                      mutate, detail):
    mutate(twist_polys())
    assert run_check(dict(CHECKS)["twist-recurrences"], FULL, None) \
        == (False, detail)
