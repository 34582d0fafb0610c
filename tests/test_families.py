import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from fillpoly import families, hn
from fillpoly.families import (FAMILIES, FillingResult, family_chain,
                               get_family, numeric_agreement, run_family,
                               run_family_numeric, run_family_numeric_many,
                               twist_A, twist_divisor, twist_gap,
                               twist_polys)
from fillpoly.farey import (FareyTriangle, Slope, Walk, WordAnatomy,
                            walk_labels)
from fillpoly.hn import (TailEntry, exchange_step, symbolic_tail_values,
                         tail_collapse, tail_poly)
from fillpoly.matchings import TAIL_VARS
from fillpoly.newton import binomial_factors
from fillpoly.poly import Poly, identity_holds, poly_divides
from fillpoly.ptolemy import PVARS, PtolemyEq
from fillpoly.quadext import QuadExt
from fillpoly.ratfunc import (PoleError, RatFunc, parse_poly,
                              parse_ratfunc, substitute_basis)


# The binomials that the denominators of the values entering the four
# tails were built from when the chain kept them unreduced: the factor
# base fillpoly once listed by hand, kept here as expected data
# (test_ptolemy's parsed-text digest and test_poly's BINOMIALS read it).
FAMILY_BINOMIALS = ("L - 1", "M - 1", "M + 1", "L - M", "L + M", "L + M^2",
                    "L^2 - M^3", "L^2 + M^3")


def test_registry_contents():
    assert set(FAMILIES) == {("pretzel238", "pos"), ("pretzel238", "neg"),
                             ("whitehead", "pos"), ("whitehead", "neg")}
    with pytest.raises(ValueError):
        get_family("pretzel238", "up")


def test_family_words_and_names():
    pp = get_family("pretzel238", "pos")
    assert pp.word(1) == "LLRLL"
    assert pp.word(3) == "LLRLLLL"
    assert pp.knot_name(1) == "T(5,-19,2,2)"
    assert pp.basis_rule(2) == (1, -117)
    pn = get_family("pretzel238", "neg")
    assert pn.word(1) == "LLLRR"
    assert pn.knot_name(2) == "T(5,21,2,2)"
    wp = get_family("whitehead", "pos")
    assert wp.word(1) == "LRLL"
    assert wp.knot_name(1) == "J(2,8)"
    assert wp.basis_rule(5) == (-1, -2)
    wn = get_family("whitehead", "neg")
    assert wn.word(2) == "LLRRR"
    assert wn.knot_name(1) == "J(2,-6)"


def test_run_family_rejects_bad_m():
    with pytest.raises(ValueError):
        run_family(get_family("pretzel238", "pos"), 0)


def test_family_chain_is_solved_once_per_spec(monkeypatch):
    calls = {"chain_solve": [], "TailEntry": []}
    for name, seen in calls.items():
        def counting(*args, real=getattr(families, name), seen=seen):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(families, name, counting)
    family_chain.cache_clear()
    spec = get_family("whitehead", "neg")
    for m in (1, 2, 3):
        run_family(spec, m)
    assert {name: len(seen) for name, seen in calls.items()} \
        == {"chain_solve": 1, "TailEntry": 1}
    family_chain.cache_clear()


@pytest.mark.parametrize("name,sign", sorted(FAMILIES))
def test_factored_tail_matches_iterated_exchange(name, sign):
    # n dividing exchanges, one step at a time; both routes reach the same
    # lowest-terms form, so numerators and denominators agree term by term
    entry = family_chain(get_family(name, sign)).entry
    older, newer = entry.o, entry.f
    for n in (1, 2, 3):
        older, newer = newer, exchange_step(newer, older, entry.p)
        got = tail_collapse(entry, n)
        want = newer.a if isinstance(newer, QuadExt) else newer
        assert newer == want
        assert (got.num, got.den) == (want.num, want.den)


def test_pretzel_runs_are_rational(family_runs):
    for sign in ("pos", "neg"):
        res = family_runs("pretzel238", sign, 1)
        assert isinstance(res.expression, RatFunc)
        assert res.conjugate_product is res.expression
        assert res.m == 1 and res.family == "pretzel238"


def test_basis_change_helper_matches_result(family_runs):
    spec = get_family("whitehead", "pos")
    res = family_runs("whitehead", "pos", 1)
    assert (substitute_basis(res.conjugate_product, *spec.basis_rule(1))
            == res.basis_changed)


def test_pretzel_numeric_pipeline_spot(family_runs):
    spec = get_family("pretzel238", "pos")
    point = {"L": Fraction(2), "M": Fraction(3)}
    num = run_family_numeric(spec, 1, point)
    assert num == family_runs("pretzel238", "pos", 1).expression.evaluate(point)
    with pytest.raises(ValueError):
        run_family_numeric(get_family("whitehead", "pos"), 1, point)
    with pytest.raises(ValueError):
        run_family_numeric_many(get_family("whitehead", "pos"), 1, [point])


@pytest.mark.parametrize("sign", ["pos", "neg"])
def test_numeric_list_route_matches_the_one_point_route(sign):
    # L = 0, M = 0 or +-1, and L = +-M are singular for the numeric chain;
    # repeated coordinates share their evaluations in the list route
    spec = get_family("pretzel238", sign)
    coords = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4))
    points = [{"L": L, "M": M} for L in coords for M in coords]
    points += points[:3]
    for m in (1, 2):
        many = run_family_numeric_many(spec, m, points)
        assert len(many) == len(points)
        singular = 0
        for point, value in zip(points, many):
            try:
                one = run_family_numeric(spec, m, point)
            except PoleError:
                one = None
                singular += 1
            assert value == one
        assert 0 < singular < len(points)
    assert run_family_numeric_many(spec, 1, []) == []


@pytest.mark.parametrize("sign", ["pos", "neg"])
def test_numeric_round_evaluates_each_distinct_coefficient_once(sign,
                                                                monkeypatch):
    # the 18 terms of the base and step equations hold 6 distinct
    # coefficients: 1, -1, M, -M^2, -L and L*M
    spec = get_family("pretzel238", sign)
    eqs = spec.equations()
    terms = [coef for label in ("tet0", "tet1") + spec.step_labels
             for coef, _ in eqs[label].terms]
    distinct = {str(coef) for coef in terms}
    assert (len(terms), distinct) == (
        18, {"1", "-1", "M", "-M^2", "-L", "L*M"})
    points = [{"L": Fraction(a), "M": Fraction(b)}
              for a, b in ((2, 3), (-5, 3), (7, 1), (2, -3))]
    want = run_family_numeric_many(spec, 2, points)
    evaluated = []
    real = Poly.eval_many

    def recording(self, pts):
        evaluated.append(str(self))
        return real(self, pts)

    monkeypatch.setattr(Poly, "eval_many", recording)
    assert run_family_numeric_many(spec, 2, points) == want
    assert sorted(evaluated) == sorted(distinct)


@pytest.mark.parametrize("label, gammas, match", [
    ("tet0", ("g_1/0", "g_1/0"), "unexpected term g_1/0\\*g_1/0 in tet0"),
    ("tet1", ("g_4/1", "g_2/1"), "unexpected term g_4/1\\*g_2/1 in tet1"),
    ("step1", ("g_1/1", "g_1/1"), "g_1/1 appears squared"),
])
def test_numeric_pipeline_refuses_an_unexpected_gamma_pair(label, gammas,
                                                           match, monkeypatch):
    # the roles are read before any point, so an empty list raises too
    eqs = dict(get_family("pretzel238", "pos").equations())
    extra = (parse_poly("L", PVARS), gammas)
    eqs[label] = PtolemyEq(label, eqs[label].terms + (extra,))
    monkeypatch.setattr(families.FamilySpec, "equations", lambda self: eqs)
    spec = get_family("pretzel238", "pos")
    for points in ([{"L": Fraction(2), "M": Fraction(3)}], []):
        with pytest.raises(ValueError, match=match):
            run_family_numeric_many(spec, 1, points)


@pytest.mark.parametrize("m", [True, 1.0])
@pytest.mark.parametrize("route", ["run_family", "run_family_numeric",
                                   "run_family_numeric_many",
                                   "tail_collapse", "filling_poly"])
def test_tail_length_must_be_an_int(route, m):
    # True used to run as m = 1, and run_family(spec, True) failed deep in
    # Poly.__pow__
    spec = get_family("pretzel238", "pos")
    point = {"L": Fraction(2), "M": Fraction(3)}
    calls = {
        "run_family": lambda: run_family(spec, m),
        "run_family_numeric": lambda: run_family_numeric(spec, m, point),
        "run_family_numeric_many":
            lambda: run_family_numeric_many(spec, m, [point]),
        "tail_collapse": lambda: tail_collapse(family_chain(spec).entry, m),
        "filling_poly": lambda: hn.filling_poly(family_chain(spec).entry, m),
    }
    with pytest.raises(TypeError, match="is not an int"):
        calls[route]()


def test_numeric_agreement_small(family_runs):
    # the agreement itself is the registry check pretzel-numeric-agreement
    with pytest.raises(ValueError):
        numeric_agreement(get_family("whitehead", "pos"), 1, 1, seed=0,
                          result=family_runs("whitehead", "pos", 1))


def test_twist_sequences_seed_values():
    tw = twist_polys()
    assert twist_A(1, "pos") == parse_poly("L + M^6", PVARS)
    assert twist_A(0, "neg") == parse_poly("1", PVARS)
    # the recurrence generates later terms from the seeds
    assert twist_A(3, "pos") == tw.x * twist_A(2, "pos") - tw.y * twist_A(1, "pos")
    with pytest.raises(ValueError):
        twist_A(0, "pos")
    with pytest.raises(ValueError):
        twist_A(-1, "neg")
    with pytest.raises(ValueError):
        twist_A(1, "up")


@pytest.mark.parametrize("sign", ["pos", "neg"])
def test_twist_recurrence_checks_agree_with_expanded_products(sign):
    # every n the identities allow; a gap off by a factor M must fail
    first = families._TWIST_FIRST[sign]
    for n in range(first + 1, families.MAX_TWIST_N):
        a, gap = twist_A(n, sign), twist_gap(sign, n)
        expanded = twist_A(n - 1, sign) * twist_A(n + 1, sign) == a ** 2 + gap
        assert families.twist_recurrence_check(n, sign) is expanded is True
    for n in (first + 1, 10, families.MAX_TWIST_N - 1):
        a, gap = twist_A(n, sign), twist_gap(sign, n)
        shifted = gap * Poly.variable(PVARS, "M")
        assert not identity_holds([(twist_A(n - 1, sign),
                                    twist_A(n + 1, sign))],
                                  [(a, a), (shifted,)])


def test_twist_recurrences_and_base_identities():
    # the identities themselves are the registry check twist-recurrences
    with pytest.raises(ValueError):
        twist_gap("pos", 1)


def test_twist_gap_out_of_order(fresh_twist_polys):
    tw = twist_polys()
    for sign, first in (("pos", 1), ("neg", 0)):
        for n in [18, *range(first + 1, 19), 5]:
            k = n - first - 1
            assert twist_gap(sign, n) == tw.y ** k * tw.z * tw.gap[sign], \
                (sign, n)


def test_whitehead_divisibility_small():
    # the factorisation itself is the registry check twist-divisibility
    with pytest.raises(ValueError):
        twist_divisor(get_family("pretzel238", "pos"), 1)


def test_divisor_is_proper_factor(family_runs):
    # the twist polynomial is a strict factor, not the whole numerator
    from fillpoly.families import _unit_normal
    spec = get_family("whitehead", "pos")
    res = family_runs("whitehead", "pos", 1)
    divisor = twist_divisor(spec, 1)
    target = _unit_normal(res.basis_changed.num)
    ok, quotient = poly_divides(divisor, target)
    assert ok and not quotient.is_constant()


def test_negative_control_wrong_divisor(family_runs):
    # shifting the twist index must break divisibility
    from fillpoly.families import _unit_normal
    spec = get_family("whitehead", "pos")
    res = family_runs("whitehead", "pos", 1)
    offset, tsign = spec.twist_link
    wrong = _unit_normal(twist_A(1 + offset + 1, tsign))
    target = _unit_normal(res.basis_changed.num)
    assert poly_divides(wrong, target)[0] is False


@pytest.mark.parametrize("sign", ["pos", "neg"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_factorisation_oracle_negative_controls(family_runs, monkeypatch,
                                                sign, m):
    from fillpoly.families import _unit_normal
    spec = get_family("whitehead", sign)
    res = family_runs("whitehead", sign, m)
    assert families.divides_conjugate(spec, m, res)
    changed = res.basis_changed
    entry = family_chain(spec).entry
    nf = _unit_normal(substitute_basis(entry.f, *spec.basis_rule(m)).num)
    assert not nf.is_constant()
    # one more factor L - M or N_f in the numerator: the first twist
    # factor still divides it, but the factorisation no longer holds
    for extra in (parse_poly("L - M", PVARS), nf):
        mutated = dataclasses.replace(res, basis_changed=RatFunc(
            changed.num * extra, changed.den))
        assert poly_divides(twist_divisor(spec, m),
                            _unit_normal(mutated.basis_changed.num))[0]
        assert not families.divides_conjugate(spec, m, mutated)
    # both twist factors taken one index further along
    monkeypatch.setattr(families, "twist_divisor",
                        lambda spec, n, orig=twist_divisor: orig(spec, n + 1))
    assert not families.divides_conjugate(spec, m, res)


def test_factorisation_oracle_fails_on_a_mutated_twist_seed(
        family_runs, fresh_twist_polys):
    spec = get_family("whitehead", "pos")
    res = family_runs("whitehead", "pos", 2)
    assert families.divides_conjugate(spec, 2, res)
    twist_polys.cache_clear()
    # A_1 = L + M^6 misread as L + M^4; A_3 and A_5 follow from the seeds
    twist_polys().seqs["pos"][0] = parse_poly("L + M^4", PVARS)
    assert not families.divides_conjugate(spec, 2, res)


def test_the_factor_base_is_derived_as_measured():
    # each stored tail value's denominator is the monomial and exactly the
    # powers of the entry's factors that its one exponent vector carries,
    # with no constant left over, and the entry carries those factors and
    # no others
    carried = {"pretzel238": {"M - 1", "M + 1", "L - M", "L + M"},
               "whitehead": {"L - 1"}}
    nv = len(PVARS)
    for (name, sign), spec in FAMILIES.items():
        entry = family_chain(spec).entry
        root = entry.p if isinstance(entry.p, RatFunc) else entry.p.b
        held = set()
        for value, factored in zip((entry.f, entry.o, root), entry.factored):
            found, rest = binomial_factors(value.den)
            assert rest.terms == {factored.den[:nv]: 1}, (name, sign)
            assert factored.num == value.num, (name, sign)
            got = {(str(b), e) for b, e in found}
            assert got == {(str(b), e) for b, e in
                           zip(entry.factors, factored.den[nv:]) if e}, \
                (name, sign)
            held |= {b for b, _ in got}
        # K too: every numerator keeps int coefficients for the packed product
        assert all(type(c) is int for v in entry.factored
                   for c in v.num.terms.values()), (name, sign)
        assert held == {str(b) for b in entry.factors} == carried[name], \
            (name, sign)


def _factored_den(den, factors):
    """den as its monomial's exponents, then its multiplicity of each of
    factors; every binomial factor of den must be one of them."""
    found, rest = binomial_factors(den)
    assert len(rest.terms) == 1
    assert all(b in factors for b, _ in found)
    exps = [next((e for b, e in found if b == f), 0) for f in factors]
    return next(iter(rest.terms)) + tuple(exps)


def _support(poly, d_f, d_o, d_p, p_step=1):
    """Entrywise max of i*d_f + j*d_o + (k/p_step)*d_p over the terms
    g_f^i g_o^j g_p^k of poly."""
    return tuple(max(i * a + j * b + k // p_step * c for i, j, k in poly.terms)
                 for a, b, c in zip(d_f, d_o, d_p))


def _denominator_law(d_f, d_o, d_p, m):
    """The support of tail_poly(m) - g_f^(m-1) g_o^m g_p at the vectors."""
    poly = tail_poly(m) - Poly.monomial(TAIL_VARS, (m - 1, m, 1))
    return _support(poly, d_f, d_o, d_p)


def _bumped(d):
    """d with its L entry raised by one."""
    return (d[0] + 1,) + d[1:]


@pytest.mark.parametrize("sign", ["pos", "neg"])
def test_pretzel_denominators_follow_the_tail_polynomial(sign, family_runs):
    # the paper's denominator law in L and M: the expression's denominator
    # is the support function of the filling polynomial's Newton polytope
    # at the entry's denominator vectors
    entry = family_chain(get_family("pretzel238", sign)).entry
    d_f, d_o, d_p = (v.den for v in entry.factored[:3])
    for m in range(1, 5):
        den = family_runs("pretzel238", sign, m).expression.den
        got = _factored_den(den, entry.factors)
        assert got == _denominator_law(d_f, d_o, d_p, m)
        assert got != _denominator_law(_bumped(d_f), d_o, d_p, m)


@pytest.mark.parametrize("sign", ["pos", "neg"])
def test_whitehead_denominators_follow_the_tail_polynomial(sign, family_runs):
    # the same law with p = p.b * sqrt(R): the expression is a + b*sqrt(R)
    # with a = tail_poly(m)(f, o, p), even in g_p, and b = -f^(m-1) o^m p.b.
    # So a's denominator is the support function of tail_poly(m) at
    # (d_f, d_o, d_psq) with p's exponent halved, psq = p.b^2 * R, and b's
    # is (m-1)*d_f + m*d_o + d_root
    entry = family_chain(get_family("whitehead", sign)).entry
    assert [str(b) for b in entry.factors] == ["L - 1"]
    d_f, d_o, d_root = (v.den for v in entry.factored[:3])
    p = entry.p
    d_psq = _factored_den((p.b * p.b * p.rad).den, entry.factors)
    assert d_psq == (0, 6, 4)

    def law_b(d_f, d_o, m):
        return tuple((m - 1) * x + m * y + z
                     for x, y, z in zip(d_f, d_o, d_root))

    for m in range(1, 6):
        expr = family_runs("whitehead", sign, m).expression
        got_a = _factored_den(expr.a.den, entry.factors)
        got_b = _factored_den(expr.b.den, entry.factors)
        assert got_a == _support(tail_poly(m), d_f, d_o, d_psq, p_step=2)
        assert got_b == law_b(d_f, d_o, m)
        # a bumped d_o is no control for a at m = 1: tail_poly(1) has no
        # g_o term
        assert got_a != _support(tail_poly(m), _bumped(d_f), d_o, d_psq,
                                 p_step=2)
        assert got_b != law_b(d_f, _bumped(d_o), m)
        if (sign, m) == ("pos", 1):
            assert (got_a, got_b) == ((0, 12, 6), (0, 5, 3))


@pytest.mark.parametrize("name,sign", sorted(FAMILIES))
def test_numerators_are_the_factored_products(name, sign, family_runs):
    # filling_poly cancels nothing but monomials, so each numerator is the
    # product of its factored parts: for pretzel238 N_(x-p) * S, with
    # S = N_f^(m-1) * N_o^m, and for whitehead a = N_x * S and
    # b = -N_root * S; times L - M, none holds
    entry = family_chain(get_family(name, sign)).entry
    nf, no, root = (v.num for v in entry.factored[:3])
    extra = parse_poly("L - M", PVARS)
    for m in range(1, 5):
        expr = family_runs(name, sign, m).expression
        x = hn._collapsed(entry, m)
        scale = nf ** (m - 1) * no ** m
        if name == "pretzel238":
            pairs = [(expr.num, entry._sub(x, entry.factored[2]).num)]
        else:
            pairs = [(expr.a.num, x.num), (-expr.b.num, root)]
        for num, cofactor in pairs:
            assert identity_holds([(num,)], [(cofactor, scale)])
            assert not identity_holds([(num, extra)], [(cofactor, scale)])


def _value_objects():
    """One instance of each frozen dataclass of the pipeline, by name."""
    f, o, p = symbolic_tail_values()
    t0 = FareyTriangle(Slope(0, 1), Slope(1, 1), Slope(1, 0))
    t1 = FareyTriangle(Slope(0, 1), Slope(1, 1), Slope(1, 2))
    walk = Walk(t0, t1, "LR")
    spec = get_family("whitehead", "pos")
    rf = parse_ratfunc("(L - M)/(M + 1)", PVARS)
    return {
        "Slope": Slope(2, 4),
        "FareyTriangle": t0,
        "Walk": walk,
        "StepLabels": walk_labels(walk)[1],
        "WordAnatomy": WordAnatomy("LLRLL"),
        "TailEntry": TailEntry(f, o, p),
        "PtolemyEq": spec.equations()["step0"],
        "Assignment": spec.base_assignment(),
        "FamilySpec": spec,
        "FillingResult": FillingResult("pretzel238", "pos", 1, rf, rf,
                                       "T(5,-19,2,2)", rf),
    }


@pytest.mark.parametrize("name", sorted(_value_objects()))
def test_copy_and_pickle_round_trip(name):
    value = _value_objects()[name]
    for copier in (copy.copy, copy.deepcopy,
                   lambda v: pickle.loads(pickle.dumps(v))):
        got = copier(value)
        assert type(got) is type(value)
        for fld in dataclasses.fields(value):
            assert getattr(got, fld.name) == getattr(value, fld.name)
        with pytest.raises(AttributeError):
            setattr(got, dataclasses.fields(value)[0].name, None)
    if name in ("Slope", "FareyTriangle"):
        assert got == value
