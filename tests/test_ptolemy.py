import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_families import FAMILY_BINOMIALS
from fillpoly import ptolemy
from fillpoly.families import TwistPolys, family_chain, get_family
from fillpoly.farey import Slope
from fillpoly.poly import Poly
from fillpoly.ptolemy import (PVARS, Assignment, PtolemyEq, chain_solve,
                              check_equation, gamma_name, load_equations,
                              load_values, parse_equations, solve_linear_step,
                              solve_pretzel_base, solve_whitehead_base)
from fillpoly.quadext import QuadExt
from fillpoly.ratfunc import RatFunc, parse_poly, parse_ratfunc


def rf(text):
    return parse_ratfunc(text, PVARS)


def _chains(family, base):
    """Base values, data files, and labels, step equations and solved
    chain of both signs at m = 1."""
    out = {"base": base, "eqs": load_equations(family + ".eqs"),
           "vals": load_values(family + "_values.txt")}
    for sign in ("pos", "neg"):
        chain = family_chain(get_family(family, sign))
        out["labels_" + sign], out["step_" + sign], out[sign] = \
            chain.labels, chain.step_eqs, chain.asg
    return out


@pytest.fixture(scope="module")
def pretzel():
    return _chains("pretzel238", solve_pretzel_base())


@pytest.fixture(scope="module")
def whitehead():
    return _chains("whitehead", solve_whitehead_base())


def test_gamma_name():
    assert gamma_name(Slope.parse("3/1")) == "g_3/1"
    assert gamma_name(Slope.parse("-1/1")) == "g_-1/1"


def test_pretzel_base_values(pretzel):
    base = pretzel["base"]
    assert base.value("g_3/1") == RatFunc.one(PVARS)
    assert base.value("g_1/0") == rf("(L^2 - M^4) / (M * (L^2 - M^2))")
    assert base.value("g_4/1") == rf("(L^2 - M^2) / (L * (1 - M^2))")
    assert base.value("g_1/0") == pretzel["vals"]["g_1/0"]


def test_pretzel_base_satisfies_its_equations(pretzel):
    base, eqs = pretzel["base"], pretzel["eqs"]
    for label in ("tet0", "tet1"):
        assert check_equation(eqs[label], base)


def test_pretzel_pos_chain_matches_stored_values(pretzel):
    for name in ("g_1/1", "g_0/1", "g_1/2"):
        assert pretzel["pos"].value(name) == pretzel["vals"][name]


def test_pretzel_neg_chain_vs_stored_value(pretzel):
    # the stored table's g_-1/1 entry is -1 times the value forced by its
    # own defining equation; the solver output is the equation-forced one
    got = pretzel["neg"].value("g_-1/1")
    assert got == -pretzel["vals"]["g_-1/1"]
    assert got != pretzel["vals"]["g_-1/1"]


def test_pretzel_numeric_spot_values(pretzel):
    pt = {"L": Fraction(2), "M": Fraction(3)}
    base, pos = pretzel["base"], pretzel["pos"]
    assert base.value("g_1/0").evaluate(pt) == Fraction(77, 15)
    assert base.value("g_4/1").evaluate(pt) == Fraction(5, 16)
    assert pos.value("g_2/1").evaluate(pt) == Fraction(91264, 1125)
    assert pos.value("g_1/1").evaluate(pt) == Fraction(8295767071, 1265625)


def _shape(eq):
    """The equation's constant coefficients, summed per sorted gamma pair."""
    out = {}
    for coef, pair in eq.terms:
        key = tuple(sorted(pair))
        out[key] = out.get(key, 0) + coef.constant_value()
    return out


def _labelled_shape(step, sign=1, exchanged=False):
    """sign * ((new)(dropped) + p^2 - f^2), or with p and f exchanged."""
    p, f = gamma_name(step.p), gamma_name(step.f)
    if exchanged:
        p, f = f, p
    return {tuple(sorted((gamma_name(step.h), gamma_name(step.o)))): sign,
            (p, p): sign, (f, f): -sign}


def test_pretzel_step_equations_match_walk_roles(pretzel):
    # every step, step3neg included, has its labelled shape
    for sign in ("pos", "neg"):
        for k, eq in enumerate(pretzel["step_" + sign]):
            assert _shape(eq) == _labelled_shape(pretzel["labels_" + sign][k])


def test_whitehead_base_values(whitehead):
    base, vals = whitehead["base"], whitehead["vals"]
    assert base.value("g_3/1") == rf("(L^2 - M^2) / (L * (1 - M^2))")
    assert base.rad == vals["radicand"]
    g023 = base.value("g_0(23)")
    assert isinstance(g023, QuadExt) and g023.is_pure_root()
    assert g023.b == RatFunc.one(PVARS)
    g21 = base.value("g_2/1")
    assert isinstance(g21, QuadExt) and g21.is_pure_root()
    assert g21.b == rf("(L - M^2) / (M * (L - 1))")


def test_whitehead_pos_chain_matches_stored_values(whitehead):
    pos, vals = whitehead["pos"], whitehead["vals"]
    assert pos.value("g_1/1") == vals["g_1/1"]
    g01 = pos.value("g_0/1")
    assert isinstance(g01, QuadExt) and g01.is_pure_root()
    assert g01.b == vals["g_0/1_root"]
    assert pos.value("g_1/2") == vals["g_1/2"]


def test_whitehead_neg_chain_matches_stored_value(whitehead):
    assert whitehead["neg"].value("g_-1/1") == whitehead["vals"]["g_-1/1"]


def test_whitehead_numeric_spot_values(whitehead):
    pt = {"L": Fraction(3), "M": Fraction(2)}
    assert whitehead["pos"].value("g_1/2").evaluate(pt) \
        == Fraction(-12823, 512)
    assert whitehead["neg"].value("g_-1/1").evaluate(pt) \
        == Fraction(1051, 64)


def test_whitehead_step_audits(whitehead):
    eqs = whitehead["eqs"]
    lp, ln = whitehead["labels_pos"], whitehead["labels_neg"]
    # the deviations from the labelled shape that the module docstring
    # records; the solvers use the equations as transcribed
    assert _shape(eqs["step0"]) == _labelled_shape(lp[0])
    assert _shape(eqs["step1"]) == _labelled_shape(lp[1], sign=-1)
    assert _shape(eqs["step2pos"]) == _labelled_shape(lp[2], exchanged=True)
    assert _shape(eqs["step2neg"]) == _labelled_shape(ln[2], exchanged=True)


def test_chain_solve_refuses_to_rebind(pretzel):
    with pytest.raises(ValueError):
        chain_solve(pretzel["labels_pos"], pretzel["step_pos"],
                    pretzel["pos"])


def test_chain_solve_refuses_more_equations_than_walk_steps(pretzel):
    labels, steps = pretzel["labels_pos"], pretzel["step_pos"]
    extra = steps + (steps[0],) * (len(labels) + 1 - len(steps))
    with pytest.raises(ValueError, match="step equations for a walk of"):
        chain_solve(labels, extra, solve_pretzel_base())


def test_chain_solve_refuses_a_step_that_does_not_close(monkeypatch, pretzel):
    base = solve_pretzel_base()
    real = ptolemy.solve_linear_step
    monkeypatch.setattr(ptolemy, "solve_linear_step",
                        lambda eq, asg, unknown: real(eq, asg, unknown) + 1)
    with pytest.raises(ArithmeticError,
                       match="^step 0 does not close after its solve$"):
        chain_solve(pretzel["labels_pos"], pretzel["step_pos"], base)


def test_base_solve_refuses_values_that_do_not_close(monkeypatch):
    real = ptolemy._solve_head_pair

    def perturbed(*args):
        t, z = real(*args)
        return t + 1, z

    monkeypatch.setattr(ptolemy, "_solve_head_pair", perturbed)
    with pytest.raises(ArithmeticError,
                       match="^tet0 does not close after the base solve$"):
        solve_pretzel_base()


def test_bind_stores_the_reduced_form():
    # a RatFunc is stored reduced, a rational QuadExt as its reduced
    # RatFunc, and a pure root with its root part reduced and its radicand
    # as given; a value that mixes the two is refused
    L, M = (Poly.variable(PVARS, v) for v in PVARS)
    unreduced = RatFunc((L - M) * (L + 2), (L - M) * M)
    assert unreduced.reduced() is not unreduced
    rad = RatFunc(L - M, M + 1)
    root = QuadExt.pure_root(unreduced, rad)
    asg = (Assignment().bind("g_a", unreduced)
           .bind("g_b", QuadExt.rational(unreduced, rad)).bind("g_c", root))
    for name in ("g_a", "g_b"):
        got = asg.value(name)
        assert isinstance(got, RatFunc)
        assert (got.num, got.den) == (L + 2, M)
    got = asg.value("g_c")
    assert isinstance(got, QuadExt) and got.rad is rad and asg.rad is rad
    assert (got.b.num, got.b.den) == (L + 2, M) and got.a.is_zero()
    for v in (asg.value("g_a"), got.a, got.b):
        assert v.reduced() is v
    with pytest.raises(ValueError, match="g_d mixes rational and root parts"):
        asg.bind("g_d", QuadExt(unreduced, unreduced, rad))


def _ones(*names):
    asg = Assignment()
    for name in names:
        asg = asg.bind(name, RatFunc.one(PVARS))
    return asg


@pytest.mark.parametrize("text,message", [
    ("e: g_a^2 - g_b*g_c = 0", "g_a appears squared in e"),
    ("e: g_b*g_c - g_b^2 = 0", "g_a does not appear in e"),
    ("e: g_a*g_b - g_a*g_c + g_b^2 = 0",
     "linear coefficient of g_a vanishes in e")])
def test_solve_linear_step_errors(text, message):
    eq = parse_equations(text)["e"]
    with pytest.raises(ValueError, match=message):
        solve_linear_step(eq, _ones("g_b", "g_c"), "g_a")


def test_solve_linear_step_sums_every_linear_term():
    eq = parse_equations("e: g_a*g_b + L*g_c*g_a - g_b^2 = 0")["e"]
    assert solve_linear_step(eq, _ones("g_b", "g_c"), "g_a") \
        == rf("1 / (1 + L)")


_HEAD = ("g_0(23)", "g_0(23)")


@pytest.mark.parametrize("keep,extra,message", [
    (lambda pair: True, [("g_0(23)", "g_1/0")],
     r"g_0\(23\) appears unsquared in link3"),
    (lambda pair: pair != _HEAD, [], r"link3 does not determine g_0\(23\)"),
    (lambda pair: pair == _HEAD, [], "radicand vanishes")])
def test_whitehead_radicand_step_errors(keep, extra, message):
    # link3 cut to the terms keep accepts, plus a unit term per extra pair
    eqs = dict(load_equations("whitehead.eqs"))
    eqs["link3"] = PtolemyEq("link3", tuple(
        t for t in eqs["link3"].terms if keep(t[1]))
        + tuple((Poly.one(PVARS), pair) for pair in extra))
    with pytest.raises(ValueError, match=message):
        solve_whitehead_base(eqs)


# family -> (base solver, its two head labels, a product of no head-term
# shape)
BASE_HEADS = {
    "pretzel238": (solve_pretzel_base, ("tet0", "tet1"), ("g_1/0", "g_1/0")),
    "whitehead": (solve_whitehead_base, ("link1", "link2"),
                  ("g_3/1", "g_3/1")),
}


@pytest.mark.parametrize("family", sorted(BASE_HEADS))
def test_base_solver_rejects_a_head_term_of_another_shape(family):
    solve, heads, extra = BASE_HEADS[family]
    eqs = dict(load_equations(family + ".eqs"))
    first = eqs[heads[0]]
    eqs[heads[0]] = PtolemyEq(first.label,
                              first.terms + ((Poly.one(PVARS), extra),))
    with pytest.raises(ValueError, match="unexpected term"):
        solve(eqs)


@pytest.mark.parametrize("family", sorted(BASE_HEADS))
def test_base_solver_rejects_a_singular_head_system(family):
    solve, heads, _ = BASE_HEADS[family]
    eqs = dict(load_equations(family + ".eqs"))
    eqs[heads[1]] = eqs[heads[0]]
    with pytest.raises(ValueError, match="singular"):
        solve(eqs)


@pytest.mark.parametrize("family,heads", [
    ("pretzel238", ("tet0", "tet1")),
    ("whitehead", ("link1", "link2", "link3"))])
def test_each_base_and_step_equation_is_checked_once(monkeypatch, family,
                                                     heads):
    checked = []
    real = ptolemy.check_equation

    def counting(eq, asg):
        checked.append(eq.label)
        return real(eq, asg)

    monkeypatch.setattr(ptolemy, "check_equation", counting)
    spec = get_family(family, "pos")
    family_chain.__wrapped__(spec)      # a fresh solve, past the memo
    assert sorted(checked) == sorted(heads + spec.step_labels)


def test_parse_equations_sums_the_terms_of_each_gamma_pair():
    eq = parse_equations(
        "e: L*g_a*g_1/0 - g_-1/1^2 + 2*g_1/0*g_a*M + g_0(23)*g_a = 0")["e"]
    assert [(str(coef), pair) for coef, pair in eq.terms] == [
        ("L + 2*M", ("g_a", "g_1/0")), ("-1", ("g_-1/1", "g_-1/1")),
        ("1", ("g_a", "g_0(23)"))]


@pytest.mark.parametrize("text, message", [
    ("e: L*g_a*g_b - g_b*L*g_a = 0", "has no terms"),
    ("e: g_a^2 + M*g_a*g_b - g_a*g_a - g_b*M*g_a = 0", "has no terms"),
    ("e: g_a*g_b + g_c = 0", "gamma degree 1"),
    ("e: (g_a + 1)*g_b*g_c = 0", "gamma degree 3")])
def test_parse_equations_refuses_a_line_without_gamma_pairs(text, message):
    with pytest.raises(ValueError, match=message):
        parse_equations(text)


def test_parse_equations_division_by_zero_is_a_value_error():
    with pytest.raises(ValueError, match="division by zero"):
        parse_equations("e: (1/0)*g_a*g_b + g_c^2 = 0")


# equation lines, well formed or not; coefficients stay small
_eq_terms = st.tuples(
    st.sampled_from(["", "L*", "(M - 1)*", "2*", "(1/0)*", "(L*", "Q*"]),
    st.lists(st.sampled_from(["g_a", "g_b", "g_1/0", "g_c^2", ""]),
             min_size=1, max_size=3).map("*".join)).map("".join)
_eq_lines = st.one_of(
    st.tuples(st.sampled_from(["e: ", "f: ", ": ", "e ", "# "]),
              st.lists(_eq_terms, min_size=1, max_size=3).map(
                  lambda ts: " + ".join(ts).replace("+ g_b", "- g_b")),
              st.sampled_from([" = 0", " = 1", ""])).map("".join),
    st.text(alphabet="eg_:+-=0 *L", max_size=12))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(_eq_lines, max_size=3).map("\n".join))
def test_parse_equations_returns_a_value_or_raises_value_error(text):
    try:
        eqs = parse_equations(text)
    except ValueError:
        return
    assert all(isinstance(eq, PtolemyEq) for eq in eqs.values())


# sha256 of every text the package parses, as parsed: the values files'
# entries, the equations' terms (coefficient and sorted gamma pair, in
# order), the families' factor base and the twist seeds
PARSED_TEXTS_SHA256 = \
    "3155391787b8abd85fc5773de5184eaecac987758063524640c6c4fb09b454df"


def test_the_package_texts_parse_as_pinned():
    lines = []
    for name in ("pretzel238_values.txt", "whitehead_values.txt"):
        for key, value in load_values(name).items():
            lines.append("%s %s %s" % (name, key, value))
    for name in ("pretzel238.eqs", "whitehead.eqs"):
        for label, eq in load_equations(name).items():
            for coef, pair in eq.terms:
                lines.append("%s %s %s %s" % (name, label, coef, sorted(pair)))
    lines.extend(str(parse_poly(t, PVARS)) for t in FAMILY_BINOMIALS)
    tw = TwistPolys()
    lines.extend(map(str, (tw.x, tw.y, tw.z, *tw.seqs["pos"], *tw.seqs["neg"],
                           tw.gap["pos"], tw.gap["neg"])))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PARSED_TEXTS_SHA256
