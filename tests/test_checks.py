"""Every registry check that no acceptance criterion runs, at FULL ranges."""

import collections
import dataclasses
import hashlib
import random

import pytest

import test_acceptance
from fillpoly import checks, hn, matchings
from fillpoly.checks import CHECKS, FULL, lowest_terms_failure, run_check
from fillpoly.families import (get_family, numeric_agreement,
                               random_rational_point, run_family_numeric,
                               twist_A, twist_polys)
from fillpoly.matchings import TAIL_VARS
from fillpoly.poly import Poly
from fillpoly.ptolemy import PVARS, Assignment
from fillpoly.quadext import QuadExt
from fillpoly.ratfunc import PoleError, RatFunc, parse_poly

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


@pytest.mark.parametrize("count, error", [(0, ValueError), (-5, ValueError),
                                          (2.5, TypeError), (True, TypeError)])
def test_numeric_agreement_refuses_a_count_that_is_not_a_positive_int(
        count, error, family_runs):
    # a count below 1 used to check nothing and pass, and 2.5 checked 3 points
    result = family_runs("pretzel238", "pos", 1)
    off = dataclasses.replace(result, expression=result.expression + 1)
    with pytest.raises(error):
        numeric_agreement(get_family("pretzel238", "pos"), 1, count, 0, off)


def test_random_rational_point_stream_is_pinned():
    # the first 20 points drawn at seed 0; the oracle's points are drawn
    # from this stream, so it must not move
    rng = random.Random(0)
    drawn = ["%s, %s" % (p["L"], p["M"])
             for p in (random_rational_point(rng) for _ in range(20))]
    assert drawn == [
        "1, -8/3", "2, 4/3", "7/3, -3/2", "1/2, -2", "9/2, 1", "-7/3, 7",
        "3/4, 1", "9/4, 2", "-8, -7/4", "-9/4, 1", "2, -3/2", "-1, 9/4",
        "-7, 1/2", "-2, 3", "-2, 9/2", "3, 6", "4/3, -2/3", "-2, -4",
        "-1/4, -7", "-5/2, -8"]


# sha256 of the replay below: the points numeric_agreement accepted and
# its verdicts on pretzel238, both signs, m = 1, 2, at seeds 1 and 7
ORACLE_REPLAY_SHA256 = (
    "bae59f79c77f83b1fe7453f16b012e1c4d7e821181e81f98622b1dd1ca40f647")


def test_numeric_agreement_replay_is_pinned(family_runs, monkeypatch):
    # any change to the oracle's sampling, its pole filter or its verdicts
    # moves the digest; the off-by-one control's verdict is part of it
    real = Poly.eval_many
    checked = []

    def recording(self, points):
        points = list(points)
        if self is result.expression.num:
            checked.extend(points)
        return real(self, points)

    monkeypatch.setattr(Poly, "eval_many", recording)
    lines = []
    for sign in ("pos", "neg"):
        spec = get_family("pretzel238", sign)
        for m in (1, 2):
            plain = family_runs("pretzel238", sign, m)
            off = dataclasses.replace(plain, expression=plain.expression + 1)
            for seed in (1, 7):
                for result in (plain, off):
                    checked.clear()
                    ok = numeric_agreement(spec, m, 20, seed, result)
                    lines.append("%s m=%d seed=%d %s: %s" % (
                        sign, m, seed, ok, " ".join(
                            "%s,%s" % (p["L"], p["M"]) for p in checked)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ORACLE_REPLAY_SHA256


def _draw_then_check(spec, m, expr, count, seed):
    """The points numeric_agreement checks, drawn one at a time: the first
    count draws where both pipelines have a value."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        point = random_rational_point(rng)
        try:
            expr.evaluate(point)
            run_family_numeric(spec, m, point)
        except (PoleError, ZeroDivisionError):
            continue
        points.append(point)
    return points


# M = 1 is a pole of the expression and of the numeric chain already; the
# numeric chain has a value at (9/4, 2), which seed 0 draws, so M - 2 adds
# a pole that only the symbolic side has
@pytest.mark.parametrize("factor, moves", [("M - 1", False), ("M - 2", True)])
def test_numeric_agreement_replaces_a_symbolic_pole_from_the_same_stream(
        factor, moves, family_runs, monkeypatch):
    spec = get_family("pretzel238", "pos")
    plain = family_runs("pretzel238", "pos", 1)
    expr = plain.expression
    f = parse_poly(factor, PVARS)
    padded = RatFunc(expr.num * f, expr.den * f)
    result = dataclasses.replace(plain, expression=padded)
    count, seed = 12, 0
    want = _draw_then_check(spec, 1, padded, count, seed)
    assert (want != _draw_then_check(spec, 1, expr, count, seed)) == moves
    checked = []
    real = Poly.eval_many

    def recording(self, points):
        points = list(points)
        if self is padded.num:
            checked.extend(points)
        return real(self, points)

    monkeypatch.setattr(Poly, "eval_many", recording)
    assert numeric_agreement(spec, 1, count, seed, result)
    assert checked == want
    off = dataclasses.replace(result, expression=padded + 1)
    assert not numeric_agreement(spec, 1, count, seed, off)


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
