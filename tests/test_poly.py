import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_families import FAMILY_BINOMIALS
from fillpoly import poly as poly_mod
from fillpoly.checks import divides_roundtrip, ring_axioms
from fillpoly.families import divides_conjugate, family_chain, get_family
from fillpoly.hn import tail_poly
from fillpoly.matchings import TAIL_VARS
from fillpoly.poly import Poly, divide_out, poly_divides
from fillpoly.ptolemy import PVARS
from fillpoly.ratfunc import RatFunc, parse_poly, parse_ratfunc

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(vars, terms):
    return Poly(vars, terms)


coefs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


coefs_nonzero = coefs.filter(bool)


def poly_strategy(vars, max_deg=3, max_terms=5):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_deg)
                       for _ in vars])
    return st.dictionaries(exps, coefs, max_size=max_terms).map(
        lambda d: Poly(vars, d))


polys2 = poly_strategy(XY)
polys3 = poly_strategy(XYZ, max_deg=2, max_terms=4)


def test_constructor_cleans_terms():
    p = P(XY, {(1, 0): Fraction(4, 2), (0, 1): 0, (2, 2): Fraction(1, 3)})
    assert p.terms == {(1, 0): 2, (2, 2): Fraction(1, 3)}
    assert isinstance(p.terms[(1, 0)], int)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Poly(("x", "x"), {})
    with pytest.raises(ValueError):
        P(XY, {(1,): 1})
    with pytest.raises(ValueError):
        P(XY, {(-1, 0): 1})


@pytest.mark.parametrize("coef", [2.5, 1.0, True, False, Decimal("0.5"),
                                  Decimal(3), "1"])
def test_constructor_rejects_inexact_coefficients(coef):
    with pytest.raises(TypeError):
        P(("x",), {(1,): coef})
    with pytest.raises(TypeError):
        Poly.monomial(XY, (1, 0), coef)


@pytest.mark.parametrize("exp", [1.5, 2.0, True, Fraction(2), Decimal(2)])
def test_constructor_rejects_non_int_exponents(exp):
    # 1.5 would print as x^1 and square to x^3; True would be a stored key
    with pytest.raises(TypeError):
        P(("x",), {(exp,): 1})
    with pytest.raises(TypeError):
        P(XY, {(exp, 2): 3})
    with pytest.raises(TypeError):
        Poly.monomial(XY, (1, exp))


@pytest.mark.parametrize("value", [0.1, 0.0, 2.0, Decimal("0.5"), Decimal(0),
                                   True, False, "1", "1/2", "0.1"])
def test_const_rejects_what_the_constructor_rejects(value):
    # Fraction() would take a float or a string and return a value
    with pytest.raises(TypeError):
        Poly.const(XY, value)
    with pytest.raises(TypeError):
        RatFunc.const(XY, value)
    # comparing is not constructing: a value that is no coefficient is unequal
    assert Poly.one(XY) != value
    assert RatFunc.one(XY) != value


@pytest.mark.parametrize("value", [True, False])
def test_arithmetic_rejects_a_bool_scalar(value):
    # as the constructor does: p * True must not quietly return p
    p = Poly.variable(XY, "x") + 1
    for op in (lambda: p * value, lambda: value * p,
               lambda: p + value, lambda: p - value, lambda: value - p):
        with pytest.raises(TypeError):
            op()


def test_variable_and_monomial():
    x = Poly.variable(XY, "x")
    assert x.terms == {(1, 0): 1}
    assert Poly.monomial(XY, (2, 3), -5).terms == {(2, 3): -5}
    with pytest.raises(ValueError):
        Poly.variable(XY, "w")


def test_mixed_var_tables_rejected():
    with pytest.raises(ValueError):
        Poly.one(XY) + Poly.one(XYZ)


def test_add_sub_mul_basics():
    x = Poly.variable(XY, "x")
    y = Poly.variable(XY, "y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p * Poly.zero(XY) == Poly.zero(XY)
    assert -(-p) == p


def test_scalar_arithmetic():
    x = Poly.variable(XY, "x")
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x + 1) - 1 == x


def test_pow():
    x = Poly.variable(XY, "x")
    y = Poly.variable(XY, "y")
    assert (x + y) ** 0 == Poly.one(XY)
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3


@pytest.mark.parametrize("terms", [
    {(1, 0): 1, (0, 1): -1},
    {(2, 0): -7, (0, 0): 3},
    {(3, 1): Fraction(2, 3), (0, 2): Fraction(-5, 4)},
    {(1, 1): Fraction(1, 2), (0, 0): 2},
])
def test_two_term_pow_is_repeated_multiplication(terms):
    p = P(XY, terms)
    assert len(p) == 2
    product = Poly.one(XY)
    for k in range(38):
        if k in (0, 1, 2, 37):
            assert p ** k == product
        product = product * p


def test_divide_out_strips_the_multiplicity_up_to_the_limit():
    x = Poly.variable(XY, "x")
    y = Poly.variable(XY, "y")
    d = x - y
    rest = x**2 + y
    p = rest * d * d * d
    assert divide_out(d, p) == (3, rest)
    assert divide_out(d, p, limit=5) == (3, rest)
    assert divide_out(d, p, limit=2) == (2, rest * d)
    assert divide_out(d, p, limit=0) == (0, p)
    # a non-divisor leaves p as it is
    assert divide_out(x + y, p) == (0, p)
    assert divide_out(x, p) == (0, p)
    # over the rationals: (x - 1/2)^2 = (2x - 1)^2 / 4
    half = x - Fraction(1, 2)
    assert divide_out(2 * x - 1, half * half) == (2, Poly.const(XY, Fraction(1, 4)))
    zero = Poly.zero(XY)
    assert divide_out(d, zero, limit=4) == (4, zero)
    with pytest.raises(ValueError):
        divide_out(d, zero)
    with pytest.raises(ValueError):
        divide_out(Poly.const(XY, 2), p)


def test_str_canonical_order():
    x = Poly.variable(XY, "x")
    y = Poly.variable(XY, "y")
    p = y**2 - x**2 + 3 * x * y - Fraction(1, 2)
    assert str(p) == "-x^2 + 3*x*y + y^2 - 1/2"


def _coef_text(c):
    if type(c) is int:
        return str(c)
    return "%d/%d" % (c.numerator, c.denominator)


def _str_by_terms(p):
    """Reference renderer: each term formatted on its own, factor by factor."""
    if not p.terms:
        return "0"
    parts = []
    for i, (exps, coef) in enumerate(sorted(p.terms.items(), reverse=True)):
        factors = []
        for v, e in zip(p.vars, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append("%s^%d" % (v, e))
        a = abs(coef)
        if not factors:
            body = _coef_text(a)
        elif a == 1:
            body = "*".join(factors)
        else:
            body = "%s*%s" % (_coef_text(a), "*".join(factors))
        neg = coef < 0
        if i == 0:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


_str_coefs = st.one_of(
    st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.fractions(max_denominator=50),
)


_x = Poly.variable(XY, "x")


@pytest.mark.parametrize("p", [
    Poly.zero(XY), Poly.zero(()), Poly.const((), 5),
    Poly.const((), Fraction(-7, 3)), Poly.const(XY, -1), Poly.const(XYZ, 1),
    _x - 1, 1 - _x, -_x + Fraction(1, 2),
    P(XYZ, {(1, 1, 1): 1, (0, 0, 12): -1, (10, 0, 0): 11,
            (0, 2, 0): Fraction(-1, 10), (0, 0, 0): -1}),
], ids=str)
def test_str_fixed_cases_match_term_by_term_rendering(p):
    assert str(p) == _str_by_terms(p)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_str_matches_term_by_term_rendering(data):
    vars = data.draw(st.sampled_from([(), ("x",), XY, XYZ]))
    exps = st.tuples(*[st.integers(min_value=0, max_value=12) for _ in vars])
    p = Poly(vars, data.draw(st.dictionaries(exps, _str_coefs, max_size=8)))
    assert str(p) == _str_by_terms(p)


def test_degrees_and_content():
    p = P(XY, {(2, 1): 4, (3, 2): -6})
    assert p.max_degrees() == (3, 2)
    assert p.monomial_content() == (2, 1)
    assert p.shift_down((2, 1)).terms == {(0, 0): 4, (1, 1): -6}
    assert p.shift_down((0, 0)) == p
    assert P((), {(): 3}).shift_down(()) == P((), {(): 3})
    for shift in ((3, 0), (0, 2), (2, 2)):
        with pytest.raises(ValueError):
            p.shift_down(shift)
    c, prim = p.primitive()
    assert c == 2 and prim.terms == {(2, 1): 2, (3, 2): -3}


def _content_by_terms(p):
    """Reference for content: gcd of numerators over lcm of denominators."""
    num, den = 0, 1
    for c in map(Fraction, p.terms.values()):
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    return Fraction(num, den)


@pytest.mark.parametrize("terms, expected", [
    ({(2, 1): 4, (3, 2): -6, (0, 0): 10}, Fraction(2)),
    ({(1, 0): Fraction(3, 4), (0, 1): 6, (0, 0): Fraction(9, 2)},
     Fraction(3, 4)),
    ({(1, 0): -4, (0, 1): -6}, Fraction(2)),
    ({(2, 2): -7}, Fraction(7)),
    ({(2, 2): Fraction(-7, 3)}, Fraction(7, 3)),
    ({}, Fraction(0)),
])
def test_content_int_and_fraction_coefficients(terms, expected):
    p = P(XY, terms)
    c = p.content()
    assert type(c) is Fraction and c == expected == _content_by_terms(p)


@given(polys2)
def test_content_matches_term_reference(p):
    assert p.content() == _content_by_terms(p)


def test_eval_at_matches_direct_substitution():
    p = P(XY, {(2, 1): 3, (0, 0): -7, (1, 3): Fraction(5, 2)})
    a, b = Fraction(2, 3), Fraction(-5, 4)
    direct = 3 * a**2 * b - 7 + Fraction(5, 2) * a * b**3
    assert p.eval_at({"x": a, "y": b}) == direct


def test_eval_at_integer_point():
    p = P(XY, {(1, 1): 1, (0, 0): 1})
    assert p.eval_at({"x": 3, "y": 4}) == 13


def _eval_by_terms(p, point):
    """Reference for eval_at: substitute term by term in Fractions."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        t = Fraction(c)
        for v, e in zip(p.vars, exps):
            t *= Fraction(point[v]) ** e
        total += t
    return total


@st.composite
def _eval_cases(draw):
    """A polynomial in 0-3 variables, some of degree 0, and a point for it."""
    vars = ("x", "y", "z")[:draw(st.integers(0, 3))]
    tops = [draw(st.integers(0, 5)) for _ in vars]
    exps = st.tuples(*(st.integers(0, top) for top in tops))
    coef = st.one_of(coefs, st.integers(-10**30, 10**30))
    p = Poly(vars, draw(st.dictionaries(exps, coef, max_size=12)))
    coord = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-6, max_value=6, max_denominator=7))
    return p, {v: draw(coord) for v in vars}


@settings(max_examples=150, deadline=None, database=None)
@given(_eval_cases())
@example((P(XY, {}), {"x": Fraction(1, 3), "y": -2}))
@example((P(XY, {(0, 0): Fraction(-7, 3)}), {"x": 0, "y": Fraction(5, 2)}))
@example((P(XYZ, {(2, 0, 1): 3, (0, 0, 4): Fraction(1, 2)}),
          {"x": Fraction(-2, 3), "y": Fraction(4, 5), "z": 0}))
@example((P((), {(): 5}), {}))
def test_eval_at_equals_term_by_term_substitution(case):
    p, point = case
    got = p.eval_at(point)
    assert type(got) is Fraction
    assert got == _eval_by_terms(p, point)


@st.composite
def _eval_many_cases(draw):
    """A polynomial in 1-3 variables, some of degree 0, and a list of points
    for it whose coordinates come from a pool of at most three values, zero
    often among them, so that coordinates and whole points repeat."""
    vars = XYZ[:draw(st.integers(1, 3))]
    tops = [draw(st.integers(0, 5)) for _ in vars]
    exps = st.tuples(*(st.integers(0, top) for top in tops))
    coef = st.one_of(coefs, st.integers(-10**30, 10**30))
    p = Poly(vars, draw(st.dictionaries(exps, coef, max_size=12)))
    value = st.one_of(st.just(0), st.integers(-6, 6),
                      st.fractions(min_value=-6, max_value=6, max_denominator=7))
    coord = st.sampled_from(draw(st.lists(value, min_size=1, max_size=3)))
    points = st.fixed_dictionaries({v: coord for v in vars})
    return p, draw(st.lists(points, max_size=8))


@settings(max_examples=150, deadline=None, database=None)
@given(_eval_many_cases())
@example((P(("x",), {(3,): 2, (0,): -1}), [{"x": 0}, {"x": Fraction(1, 2)}]))
@example((P(XY, {}), [{"x": 1, "y": 2}, {"x": 0, "y": 2}]))
@example((P(XY, {(0, 0): Fraction(-7, 3)}), [{"x": 0, "y": 5}, {"x": 1, "y": 0}]))
@example((P(XYZ, {(2, 0, 1): 3, (0, 3, 4): Fraction(1, 2), (1, 1, 0): -5}),
          [{"x": x, "y": Fraction(4, 5), "z": 2} for x in (0, 1, -3, 0)]
          + [{"x": 1, "y": Fraction(4, 5), "z": 0}]))
@example((P(XYZ, {(1, 2, 3): 1}), []))
def test_eval_many_equals_term_by_term_substitution(case):
    p, points = case
    got = p.eval_many(points)
    assert all(type(v) is Fraction for v in got)
    assert got == [_eval_by_terms(p, point) for point in points]
    assert got == [p.eval_at(point) for point in points]


@st.composite
def _plus_minus_cases(draw):
    """A polynomial in 1-3 variables, its coefficients drawn with Fractions
    of up to 10^6 in the denominator, and a list of points whose
    coordinates come from a pool of signed values: each magnitude (zero
    often among them) enters with +, - or both signs, so some classes of
    |y| hold both signs and some one."""
    vars = XYZ[:draw(st.integers(1, 3))]
    tops = [draw(st.integers(0, 5)) for _ in vars]
    exps = st.tuples(*(st.integers(0, top) for top in tops))
    coef = st.one_of(coefs, st.integers(-10**30, 10**30),
                     st.fractions(max_denominator=10**6))
    p = Poly(vars, draw(st.dictionaries(exps, coef, max_size=12)))
    size = st.one_of(st.just(0), st.integers(1, 6),
                     st.fractions(min_value=0, max_value=6, max_denominator=7))
    pool = [s * a for a in draw(st.lists(size, min_size=1, max_size=3))
            for s in draw(st.sampled_from([(1,), (-1,), (1, -1)]))]
    coord = st.sampled_from(pool)
    points = st.fixed_dictionaries({v: coord for v in vars})
    return p, draw(st.lists(points, max_size=8))


@settings(max_examples=150, deadline=None, database=None)
@given(_plus_minus_cases())
@example((P(XY, {(1, 3): 2, (2, 2): Fraction(-1, 3), (0, 1): 5, (0, 0): 1}),
          [{"x": 1, "y": Fraction(3, 2)}, {"x": 2, "y": Fraction(-3, 2)},
           {"x": 1, "y": Fraction(-3, 2)}, {"x": 1, "y": -2}]))
@example((P(XYZ, {(1, 1, 1): 3, (0, 4, 2): Fraction(1, 2), (2, 0, 0): -1}),
          [{"x": 2, "y": y, "z": z} for y in (-1, 1, 0) for z in (-3, 3)]))
@example((P(XY, {(0, 1): 1}), [{"x": 0, "y": 0}, {"x": 1, "y": 0}]))
@example((P(("x",), {(2,): Fraction(7, 5)}), [{"x": -2}, {"x": 2}]))
def test_eval_many_over_plus_minus_classes_equals_term_by_term_substitution(
        case):
    p, points = case
    got = p.eval_many(points)
    assert all(type(v) is Fraction for v in got)
    assert got == [_eval_by_terms(p, point) for point in points]


def test_eval_many_builds_one_table_per_value_and_one_pass_per_group(
        monkeypatch):
    # the classes are (|y|, z): (1/2, 2) holds y = +-1/2 and reads the
    # terms of even and of odd y-exponent once each with the table of
    # +1/2; (1/2, 0) holds only y = -1/2 and (0, 0) only y = 0, and each
    # reads every term once with its signed table; x's table for 1 serves
    # every class
    p = P(XYZ, {(2, 1, 0): 3, (0, 2, 1): -1, (1, 0, 3): Fraction(1, 2),
                (1, 3, 1): 2})
    half = Fraction(1, 2)
    points = [{"x": 1, "y": half, "z": 2}, {"x": 3, "y": -half, "z": 2},
              {"x": 1, "y": -half, "z": 0}, {"x": 1, "y": half, "z": 2},
              {"x": 1, "y": 0, "z": 0}]
    want = [_eval_by_terms(p, point) for point in points]
    tables, degrees, passes = [], [], []
    real_table, real_degrees = poly_mod._power_table, Poly.max_degrees
    real_sums = poly_mod._first_sums

    def table(a, b, d):
        tables.append((a, b, d))
        return real_table(a, b, d)

    def max_degrees(self):
        degrees.append(self)
        return real_degrees(self)

    def first_sums(terms, size, ts):
        passes.append(sorted(exps for exps, _ in terms))
        return real_sums(terms, size, ts)

    monkeypatch.setattr(poly_mod, "_power_table", table)
    monkeypatch.setattr(Poly, "max_degrees", max_degrees)
    monkeypatch.setattr(poly_mod, "_first_sums", first_sums)
    assert p.eval_many(points) == want
    assert sorted(tables) == [(-1, 2, 3), (0, 1, 3), (0, 1, 3), (1, 1, 2),
                              (1, 2, 3), (2, 1, 3), (3, 1, 2)]
    assert len(degrees) == 1
    every = sorted(p.terms)
    even = [(0, 2, 1), (1, 0, 3)]
    odd = [(1, 3, 1), (2, 1, 0)]
    assert sorted(passes) == [even, every, every, odd]


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("bad, error", [
    ({"x": 1}, ValueError), ({"y": 1, "z": 2}, ValueError),
    ({"x": 1, "y": "2"}, TypeError), ({"x": 0.5, "y": 1}, TypeError),
    ({"x": 1, "y": True}, TypeError)])
def test_eval_many_checks_every_point_before_any_term_work(bad, error, at,
                                                            monkeypatch):
    p = P(XY, {(2, 1): 3, (0, 0): 1})
    points = [{"x": 1, "y": 2}, {"x": Fraction(1, 2), "y": 2},
              {"x": 3, "y": -1}, {"x": 0, "y": 0}]
    points.insert(at, bad)

    def term_work(*args):
        raise AssertionError("term work before every point was checked")

    monkeypatch.setattr(Poly, "max_degrees", term_work)
    monkeypatch.setattr(poly_mod, "_power_table", term_work)
    with pytest.raises(error):
        p.eval_many(points)
    with pytest.raises(error):
        p.eval_many(iter(points))


def test_eval_at_needs_every_variable():
    p = P(XYZ, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="no value for variable 'z'"):
        p.eval_at({"x": 1, "y": 2})


@pytest.mark.parametrize("value", ["1/2", "3", 0.1, 2.0, True, False,
                                   Decimal("0.5"), Decimal(3)])
def test_eval_at_takes_exact_point_values_only(value):
    # Fraction() would parse the string, take the float's binary value and
    # read True as 1; a point value is read as a coefficient is
    p = Poly(("L", "M"), {(2, 0): 1, (0, 1): 3})
    for point in ({"L": value, "M": 1}, {"L": 1, "M": value}):
        with pytest.raises(TypeError):
            p.eval_at(point)
        with pytest.raises(TypeError):
            parse_ratfunc("L/(M - 1)", ("L", "M")).evaluate(point)
    # a value of an absent variable is not read, and a zero polynomial
    # still checks its own
    assert P(("x",), {(1,): 2}).eval_at({"x": Fraction(1, 2), "L": value}) == 1
    with pytest.raises(TypeError):
        Poly.zero(("L",)).eval_at({"L": value})


# pretzel238 pos m=1: the numerator and denominator of its expression at
# five (L, M) points, computed by an independent evaluation (a numerator and
# a cofactor power table per variable, every term multiplied out on its own).
# The denominator vanishes at L = 0.
_PRETZEL_POS_M1_VALUES = (
    ((Fraction(-3, 2), Fraction(5, 3)),
     "38526100099344778033175603958972505764468632897507235616099614373115140879725346337"
     "536166281/480750919492208594228522473763579071699206998666830174380667390918656",
     "71608162190867370653023352810145932982711126804351806640625/50942200500934239941546"
     "384362494052431234465563756113516560384"),
    ((2, Fraction(-1, 4)),
     "25013200072024725839067360872686907125919255230589578100435845840759256544247588284"
     "9/26959946667150639794667015087019630673637144422540572481103610249216",
     "761980254861808537233969197595223486424516089565665653965020130625/6277101735386680"
     "763835789423207666416102355444464034512896"),
    ((Fraction(7, 3), -2),
     "759270847157669158826697622149792466414853256939523179977320892918646193/1824800363"
     "140073127359051977856583921",
     "753574238050173051984644867264433953171681837056/278128389443693511257285776231761"),
    ((0, Fraction(3, 2)),
     "41745579179292917813953351511015323088870709282081/20282409603651670423947251286016",
     "0"),
    ((Fraction(-9, 4), Fraction(-2, 7)),
     "17668196864514793131416835368536316308355381129084228611085882485573096767219333714"
     "91529714113062338025216416484010081105137675148350899689830839633941650390625/22482"
     "47980674879770715858755517047579689440402606833927611344919991482710346901834915244"
     "2574415011312756027049058077359828123084138441380724736",
     "35069969817467112804599815183971000977213728915270087542550642579933834103705174381"
     "65504911135826890464537791558541357517242431640625/35096789618791079348034690003080"
     "31812913134708557367252359197874828927508824491310225905613780324151336933157537537"
     "06496"),
)


def test_eval_at_pins_the_pretzel_pos_m1_values(family_runs):
    expr = family_runs("pretzel238", "pos", 1).expression
    for (L, M), num, den in _PRETZEL_POS_M1_VALUES:
        point = {"L": L, "M": M}
        assert expr.num.eval_at(point) == Fraction(num)
        assert expr.den.eval_at(point) == Fraction(den)


@settings(max_examples=60, deadline=None)
@given(polys3, polys3, polys3)
def test_ring_axioms(p, q, r):
    assert ring_axioms(p, q, r) is None


@settings(max_examples=40, deadline=None)
@given(polys2, polys2)
def test_poly_divides_roundtrip(d, q):
    if d.is_zero():
        d = Poly.one(XY)
    assert divides_roundtrip(d, q) is None


def test_poly_divides_simple_cases():
    x = Poly.variable(XY, "x")
    y = Poly.variable(XY, "y")
    ok, q = poly_divides(x + y, x**2 - y**2)
    assert ok and q == x - y
    ok, q = poly_divides(x - y, x**3 - y**3)
    assert ok and q == x**2 + x * y + y**2
    # divisibility is over the rationals: 2x divides x
    ok, q = poly_divides(2 * x, x)
    assert ok and q == Poly.const(XY, Fraction(1, 2))


def test_poly_divides_rejections():
    x = Poly.variable(XY, "x")
    y = Poly.variable(XY, "y")
    assert poly_divides(x + y, x**2 + y**2)[0] is False
    assert poly_divides(x**2, x)[0] is False
    assert poly_divides(x + 1, x * y + 2)[0] is False


def test_poly_divides_zero_and_monomials():
    x = Poly.variable(XY, "x")
    ok, q = poly_divides(x, Poly.zero(XY))
    assert ok and q.is_zero()
    with pytest.raises(ZeroDivisionError):
        poly_divides(Poly.zero(XY), x)
    ok, q = poly_divides(Poly.monomial(XY, (1, 1), 2),
                         Poly.monomial(XY, (2, 3), 5))
    assert ok and q == Poly.monomial(XY, (1, 2), Fraction(5, 2))
    assert poly_divides(Poly.monomial(XY, (2, 0)),
                        Poly.monomial(XY, (1, 5)))[0] is False


def test_poly_divides_three_vars_fraction_coefs():
    p = P(XYZ, {(1, 0, 0): Fraction(1, 2), (0, 1, 1): -3, (0, 0, 0): 1})
    q = P(XYZ, {(2, 1, 0): 5, (0, 0, 2): Fraction(-2, 7)})
    ok, got = poly_divides(p, p * q)
    assert ok and got == q


def _no_dict_mul(*args):
    raise AssertionError("dict convolution taken")


def test_large_multiplication_consistency(monkeypatch):
    # cross-check the packed multiplication against a plain baseline
    x = Poly.variable(XY, "x")
    y = Poly.variable(XY, "y")
    a = (x + 2 * y + 1) ** 9
    b = (3 * x - y + 2) ** 9
    check = Poly.zero(XY)
    for exps, c in b.terms.items():
        check = check + a * Poly.monomial(XY, exps, c)
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    assert a * b == check


def _assert_canonical(r):
    """r is as the validating constructor would build it, to the type."""
    assert r == Poly(r.vars, dict(r.terms))
    for c in r.terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("engine", ["dict", "packed"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arithmetic_results_are_canonical(engine, data):
    vars = data.draw(st.sampled_from([("x",), XY, XYZ]))
    p = data.draw(poly_strategy(vars))
    q = data.draw(poly_strategy(vars))
    k = data.draw(st.integers(min_value=0, max_value=4))
    with pytest.MonkeyPatch.context() as mp:
        if engine == "dict":
            mp.setattr(poly_mod, "_packed_mul", lambda a, b: None)
        else:
            # try packing on every product; a sparse box or a Fraction
            # coefficient still falls back to dict convolution
            mp.setattr(poly_mod, "_PACK_MIN_PAIRS", 0)
        results = [p + q, p - q, -p, p * q, p ** k, (p + q) ** k,
                   # cancelling: every term of p, the cross terms of the
                   # product, and Fractions whose product is integral
                   p - (p + q), (p + q) * (p - q), (p * 2) * (q * Fraction(1, 2)),
                   p * Fraction(2, 3) * Fraction(3, 2)]
        if engine == "packed":
            results.append(poly_mod._packed_mul(p, q) or p * q)
    for r in results:
        _assert_canonical(r)


def test_fraction_product_collapses_to_int():
    x, y = (Poly.variable(XY, v) for v in XY)
    r = (x * Fraction(1, 2)) * (2 * y)
    assert r.terms == {(1, 1): 1}
    assert type(r.terms[(1, 1)]) is int
    r = (x * Fraction(1, 2) + y) ** 2 - x * x * Fraction(1, 4)
    assert r.terms == {(1, 1): 1, (0, 2): 1}
    assert all(type(c) is int for c in r.terms.values())


def _dense_box_poly(data, vars, coefs):
    """Every monomial of a drawn degree box, each with a nonzero coefficient.

    A product of two such polynomials has at least as many term pairs as
    its degree box has slots, so _packed_mul never declines it as sparse.
    """
    degs = data.draw(st.tuples(*[st.integers(0, 6 // len(vars))
                                 for _ in vars]))
    box = list(product(*[range(d + 1) for d in degs]))
    values = data.draw(st.lists(coefs, min_size=len(box), max_size=len(box)))
    return Poly(vars, dict(zip(box, values)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_product_matches_dict(data):
    vars = data.draw(st.sampled_from([("x",), XY, XYZ]))
    coefs = st.integers(min_value=-10 ** 60, max_value=10 ** 60).filter(bool)
    a = _dense_box_poly(data, vars, coefs)
    b = _dense_box_poly(data, vars, coefs)
    got = poly_mod._packed_mul(a, b)
    assert got is not None
    assert got == a._mul_dict(b)


def test_packed_product_drops_cancelled_slots(monkeypatch):
    x = Poly.variable(("x",), "x")
    a, b = (x - 1) ** 5, (x + 1) ** 5
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    assert (a * b).terms == {(2 * k,): (-1) ** (5 - k) * c
                             for k, c in enumerate([1, 5, 10, 10, 5, 1])}


def _lattice_poly(data, lattice, coefs):
    """Every point of a lattice, each with a nonzero coefficient.

    lattice holds, per variable, (offset, stride, count): the exponents
    offset, offset + stride, ... .  The product of two such polynomials
    with the same strides has at least as many term pairs as its deflated
    box has slots, so _packed_mul never declines it as sparse.
    """
    box = list(product(*[range(lo, lo + g * n, g) for lo, g, n in lattice]))
    values = data.draw(st.lists(coefs, min_size=len(box), max_size=len(box)))
    return Poly(tuple("xyz"[:len(lattice)]), dict(zip(box, values)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_deflated_packed_product_matches_dict(data):
    # per variable one stride for both operands, and each operand its own
    # lowest exponent, so a and b may sit in even and odd powers; a count
    # of 1 in every variable makes an operand a monomial or a constant
    nv = data.draw(st.integers(1, 3))
    coefs = st.integers(min_value=-10 ** 30, max_value=10 ** 30).filter(bool)
    strides = data.draw(st.tuples(*[st.sampled_from([1, 2, 3])] * nv))
    lattices = [[(data.draw(st.integers(0, 4)), g,
                  data.draw(st.integers(1, 6 // nv))) for g in strides]
                for _ in "ab"]
    a, b = (_lattice_poly(data, lat, coefs) for lat in lattices)
    got = poly_mod._packed_mul(a, b)
    assert got is not None
    assert got == a._mul_dict(b)
    assert poly_mod._packed_mul(a, a) == a._mul_dict(a)


def test_deflation_packs_what_the_full_box_would_not(monkeypatch):
    x = Poly.variable(("x",), "x")
    a, b = x ** 3 * (x ** 4 - 1) ** 5, (x ** 4 + 1) ** 5
    expected = x ** 3 * (x ** 8 - 1) ** 5
    # 36 term pairs: 44 slots over [0, 43], 11 over x^3, x^7, ..., x^43
    full_box = a.max_degrees()[0] + b.max_degrees()[0] + 1
    assert full_box > len(a) * len(b) >= poly_mod._PACK_MIN_PAIRS
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    assert a * b == expected


def test_pow_squares_by_packing_alone(monkeypatch):
    x, y = (Poly.variable(XY, v) for v in XY)
    p = x * y ** 2 * (x ** 2 - 3 * y ** 2 + 7) ** 4
    expected = p._mul_dict(Poly(XY, dict(p.terms)))
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    assert p ** 2 == expected
    assert p * p == expected


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sheared_packed_product_matches_dict(data):
    # two operands on strips of slope s: row i holds the second exponents
    # lo + g1*(s*i + k*j) for j < width, so the deflated box is slanted,
    # and with k > 1 the sheared values are spaced too; each operand has
    # its own lowest exponents, both the same steps
    s = data.draw(st.integers(-4, 4))
    steps = data.draw(st.tuples(*[st.sampled_from([1, 2, 3])] * 2))
    k = data.draw(st.sampled_from([1, 2, 3]))
    coefs = st.integers(min_value=-10 ** 30, max_value=10 ** 30).filter(bool)

    def strip():
        (g0, g1), rows, width = steps, data.draw(st.integers(1, 4)), \
            data.draw(st.integers(1, 4))
        lo0 = data.draw(st.integers(0, 3))
        lo1 = data.draw(st.integers(0, 3)) + g1 * max(0, -s) * (rows - 1)
        box = [(lo0 + g0 * i, lo1 + g1 * (s * i + k * j))
               for i in range(rows) for j in range(width)]
        values = data.draw(st.lists(coefs, min_size=len(box),
                                    max_size=len(box)))
        return Poly(XY, dict(zip(box, values)))

    a, b = strip(), strip()
    got = poly_mod._packed_mul(a, b)
    assert got is not None
    assert got == a._mul_dict(b)
    assert poly_mod._packed_mul(a, a) == a._mul_dict(a)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shear_descent_finds_the_least_radix(data):
    # against brute force, on scattered and slanted operands
    slope = data.draw(st.integers(-3, 3))
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
        lambda e: (e[0], e[1] + slope * e[0] + 18))
    a, b = (Poly(XY, dict.fromkeys(data.draw(st.sets(exps, min_size=1,
                                                     max_size=12)), 1))
            for _ in "ab")
    square = data.draw(st.booleans())
    if square:
        b = a
    cols_a, cols_b = ([list(c) for c in zip(*p.terms)] for p in (a, b))
    mins_a, mins_b = list(map(min, cols_a)), list(map(min, cols_b))
    steps = [gcd(*[e - la for e in ca], *[e - lb for e in cb]) or 1
             for ca, cb, la, lb in zip(cols_a, cols_b, mins_a, mins_b)]

    def deflated(p, mins):
        return [tuple((e - lo) // g for e, lo, g in zip(exps, mins, steps))
                for exps in p.terms]

    def radix(s):
        width = 0
        for p, mins in ((a, mins_a), (b, mins_b)):
            v = [u1 + s * u0 for u0, u1 in deflated(p, mins)]
            width += max(v) - min(v)
        return width + 1

    # every shear from -8 to 8, and further when the second deflated
    # exponents span S > 2 in an operand: with |s| > 3*S an operand of two
    # or more rows is wider than the whole radix at s = 0.  Strides make
    # such slopes: exponents (0, 9), (0, 10), (3, 0) pack tightest at s = 9
    span = max(max(u1 for _, u1 in deflated(p, mins))
               for p, mins in ((a, mins_a), (b, mins_b)))
    bound = max(8, 3 * span)
    brute = {s: radix(s) for s in range(-bound, bound + 1)}
    ua, ub = ([list(c) for c in zip(*deflated(p, mins))]
              for p, mins in ((a, mins_a), (b, mins_b)))
    cols, groups = ([ua], [(0, 0)]) if square else ([ua, ub], [(0, 1)])
    s, f = poly_mod._shear([c[0] for c in cols], [c[1] for c in cols],
                           groups, [0], [0],
                           poly_mod._span([c[1] for c in cols], groups, [0]))
    fa, fb = f[0], f[-1]
    assert (fa, fb) == tuple([u1 + s * u0 for u0, u1 in deflated(p, mins)]
                             for p, mins in ((a, mins_a), (b, mins_b)))
    # the sheared column, deflated again: the product's values of
    # u1 + s*u0 are v, v + h, ..., r of them
    v, h, offsets, w, r = poly_mod._deflate(f, groups, [0])
    assert offsets == [0]
    assert r == max(w[0]) + max(w[-1]) + 1
    assert (r - 1) * h + 1 == brute[s] == min(brute.values())
    assert v == min(fa) + min(fb)
    # the values of u1 + s*u0 are spaced by h, and by no larger step
    offsets = [f - min(fa) for f in fa] + [f - min(fb) for f in fb]
    assert h == (gcd(*offsets) or 1 if s else 1)


def test_shear_descent_has_no_window():
    # strides turn a slope of 3 in the exponents into 9 in the deflated
    # ones: b's are (0, 9), (0, 10) and (1, 0), narrowest at s = 9
    a = Poly(XY, {(0, 18): 1})
    b = Poly(XY, {(0, 18): 1, (0, 19): 1, (3, 9): 1})
    pair = [(0, 1)]
    assert poly_mod._deflate([[0], [0, 0, 3]], pair, [0]) == (
        0, 3, [0], [[0], [0, 0, 1]], 2)
    assert poly_mod._deflate([[18], [18, 19, 9]], pair, [0]) == (
        27, 1, [0], [[0], [9, 10, 0]], 11)
    s, f = poly_mod._shear([[0], [0, 0, 1]], [[0], [9, 10, 0]], pair,
                           [0], [0], 10)
    assert (s, f) == (9, [[0], [9, 10, 9]])
    # lowest values 0 and 9, step 1, a radix of 2
    assert poly_mod._deflate(f, pair, [0]) == (9, 1, [0], [[0], [0, 1, 0]], 2)
    assert poly_mod._packed_mul(b, b) == b._mul_dict(b)
    assert a * b == b * a == b._mul_dict(a)


def test_sheared_values_are_deflated(monkeypatch):
    # x^i*y^(i + 2j): deflation finds no common step in y, but after the
    # shear y^e -> y^(e - i) every exponent of y is even
    x, y = (Poly.variable(XY, v) for v in XY)
    t = x * y
    a = (1 + y ** 2 + y ** 4) * (1 + t + t ** 2)
    b = (1 - y ** 2 + y ** 4) * (1 - t + t ** 2)
    cols = [[e[i] for e in a.terms] for i in (0, 1)]
    square = [(0, 0)]
    assert [poly_mod._deflate([c], square, [0])[:2] for c in cols] == [
        (0, 1), (0, 1)]
    s, f = poly_mod._shear([cols[0]], [cols[1]], square, [0], [0],
                           2 * max(cols[1]))
    assert s == -1 and len(f) == 1
    v, h, offsets, w, r = poly_mod._deflate(f, square, [0])
    assert (v, h, r) == (0, 2, 5)
    assert r == poly_mod._span(w, square, offsets) + 1
    expected = [(1 + y ** 4 + y ** 8) * (1 + t ** 2 + t ** 4),
                (1 + y ** 2 + y ** 4) ** 2 * (1 + t + t ** 2) ** 2]
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    assert [a * b, a * a] == expected


def test_shear_packs_what_the_deflated_box_would_not(monkeypatch):
    x, y = (Poly.variable(XY, v) for v in XY)
    t = x * y ** 3
    a = (1 + y + y ** 2) * (1 + t + t ** 2)
    b = (1 - y + y ** 2) * (1 - t + t ** 2)
    expected = (1 + y ** 2 + y ** 4) * (1 + t ** 2 + t ** 4)
    # 81 term pairs: the deflated box has 5 x 17 slots, sheared by
    # y^j -> y^(j - 3i) it has 5 x 5
    deflated_box = 5 * (a.max_degrees()[1] + b.max_degrees()[1] + 1)
    assert deflated_box > len(a) * len(b) >= poly_mod._PACK_MIN_PAIRS
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    assert a * b == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int digit limit")
def test_packed_mul_falls_back_past_int_digit_limit():
    # a digit group wider than int() may read must go to dict convolution
    x, y = (Poly.variable(XY, v) for v in XY)
    base = (x + y + 1) ** 4
    p = base * 10 ** 5000
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert poly_mod._packed_mul(p, p) is None
        assert p * p == (base * base) * 10 ** 10000
    finally:
        sys.set_int_max_str_digits(old)


def test_sparse_box_takes_dict_path():
    # 23,874 term pairs against 40,425 slots of the deflated box (every
    # exponent is even; 309,465 slots undeflated); the constant terms make
    # the operands inhomogeneous, so no column is dropped
    a, b = tail_poly(18) + 1, tail_poly(16) + 1
    assert len(a) * len(b) >= poly_mod._PACK_MIN_PAIRS
    assert poly_mod._packed_mul(a, b) is None


def test_homogeneous_product_packs_in_one_variable_fewer(monkeypatch):
    # the same product through __mul__: both tails are homogeneous, so it
    # is packed over (g_f, g_o) alone
    a, b = tail_poly(18), tail_poly(16)
    expected = a._mul_dict(b)
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    assert a * b == expected


def _homogeneous_poly(data, vars, coefs):
    """A polynomial whose terms all have one total degree.

    The exponents of all but the last variable are drawn, and the last is
    the drawn degree, at least the largest of their sums, less their sum.
    """
    heads = st.tuples(*[st.integers(min_value=0, max_value=3)
                        for _ in vars[1:]])
    terms = data.draw(st.dictionaries(heads, coefs, min_size=1, max_size=12))
    degree = max(map(sum, terms)) + data.draw(st.integers(0, 2))
    return Poly(vars, {h + (degree - sum(h),): c for h, c in terms.items()})


@pytest.mark.parametrize("engine", ["default", "packed"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_homogeneous_product_matches_dict(engine, data):
    vars = data.draw(st.sampled_from([XYZ, ("w", "x", "y", "z")]))
    ints = st.integers(min_value=-10 ** 20, max_value=10 ** 20).filter(bool)
    coefs = data.draw(st.sampled_from([ints, coefs_nonzero]))
    a = _homogeneous_poly(data, vars, coefs)
    b = _homogeneous_poly(data, vars, coefs)
    # b with a term one degree above its own takes the general path
    mixed = b + Poly.monomial(
        vars, (0,) * (len(vars) - 1) + (sum(next(iter(b.terms))) + 1,))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        if engine == "packed":
            mp.setattr(poly_mod, "_PACK_MIN_PAIRS", 0)
        mul = Poly.__mul__
        mp.setattr(Poly, "__mul__",
                   lambda p, q: calls.append(1) or mul(p, q))
        got = [a * b, a * a, a * mixed]
        # one product is one __mul__ call, so traced product counts stay
        assert len(calls) == 3
        got.append(a ** 3)
    a2 = a._mul_dict(Poly(vars, dict(a.terms)))
    assert got == [a._mul_dict(b), a2, a._mul_dict(mixed), a2._mul_dict(a)]
    for r in got:
        _assert_canonical(r)


# --- the packed identity test: a*b == c*d + e ------------------------------

# small, large and flat coefficients; with all coefficients equal, the
# middle coefficient of a product reaches the Cauchy-Schwarz bound
_identity_coefs = st.sampled_from([
    st.integers(-9, 9).filter(bool),
    st.integers(-10 ** 30, 10 ** 30).filter(bool),
    st.just(10 ** 12 - 1)])


def _identity_operand(data, strides, coefs, reach=3):
    """Every point of a lattice with the given steps and a drawn offset of
    at most reach, so the lowest exponents are often nonzero."""
    lattice = [(data.draw(st.integers(0, reach)), g,
                data.draw(st.integers(1, 4 // len(strides) + 1)))
               for g in strides]
    return _lattice_poly(data, lattice, coefs)


def _expanded(a, b, c, d, e):
    return a._mul_dict(b) == c._mul_dict(d) + e


def _holds(a, b, c, d, e):
    """a*b == c*d + e, asked of identity_holds."""
    return poly_mod.identity_holds([(a, b)], [(c, d), (e,)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_identity_holds_matches_expanded(data):
    nv = data.draw(st.integers(1, 3))
    strides = data.draw(st.tuples(*[st.sampled_from([1, 2, 3])] * nv))
    coefs = data.draw(_identity_coefs)
    a, b, c = (_identity_operand(data, strides, coefs) for _ in "abc")
    d = c if data.draw(st.booleans()) else _identity_operand(data, strides,
                                                              coefs)
    mode = data.draw(st.sampled_from(["exact", "zero", "other", "near"]))
    vars = a.vars
    if mode == "zero":
        c, d, e = a, b, Poly.zero(vars)
    elif mode == "other":
        # on its own lattice, possibly off the products' or outside their box
        own = data.draw(st.tuples(*[st.sampled_from([1, 2, 5])] * nv))
        e = _identity_operand(data, own, coefs, reach=12)
    else:
        e = a._mul_dict(b) - c._mul_dict(d)
        if mode == "near":
            stray = data.draw(st.tuples(*[st.integers(0, 12)] * nv))
            e = e + Poly.monomial(vars, stray,
                                  data.draw(st.sampled_from([1, -1])))
    expected = _expanded(a, b, c, d, e)
    assert _holds(a, b, c, d, e) is expected
    if not expected:
        return
    # mutations of a true identity: one coefficient of e or of a moved by
    # one, e times a monomial, e negated
    unit = Poly.monomial(vars, next(iter(a.terms)), 1)
    for sign in (1, -1):
        assert not _holds(a, b, c, d, e + sign * unit)
        assert not _holds(a + sign * unit, b, c, d, e)
    if e.terms:
        shift = Poly.monomial(vars, data.draw(st.tuples(
            *[st.integers(0, 2)] * nv).filter(any)))
        assert not _holds(a, b, c, d, e * shift)
        assert not _holds(a, b, c, d, -e)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_identity_holds_compares_two_sums_of_products(data):
    # up to three products a side, each one or two factors, some shared or
    # zero; the sums as drawn, then with the difference moved onto a side
    nv = data.draw(st.integers(1, 3))
    strides = data.draw(st.tuples(*[st.sampled_from([1, 2, 3])] * nv))
    coefs = data.draw(_identity_coefs)
    pool = [_identity_operand(data, strides, coefs) for _ in range(4)]
    pool.append(Poly.zero(pool[0].vars))
    factor = st.sampled_from(range(len(pool)))
    sides = [[tuple(pool[k] for k in ks) for ks in data.draw(st.lists(
        st.lists(factor, min_size=1, max_size=2), max_size=3))]
        for _ in "lr"]
    lhs, rhs = (sum((fs[0]._mul_dict(fs[1]) if len(fs) == 2 else fs[0]
                     for fs in side), Poly.zero(pool[0].vars))
                for side in sides)
    assert poly_mod.identity_holds(*sides) is (lhs == rhs)
    assert poly_mod.identity_holds(*sides[::-1]) is (lhs == rhs)
    diff = lhs - rhs
    assert poly_mod.identity_holds(sides[0], sides[1] + [(diff,)])
    assert poly_mod.identity_holds(sides[0] + [(-diff,)], sides[1])
    stray = Poly.monomial(pool[0].vars, data.draw(st.tuples(
        *[st.integers(0, 12)] * nv)))
    assert not poly_mod.identity_holds(sides[0],
                                       sides[1] + [(diff,), (stray,)])


def test_identity_holds_packs_without_expanding(monkeypatch):
    # every case here packs: the test fails if a product is expanded
    x, y, z = (Poly.variable(XYZ, v) for v in XYZ)
    f, g = (x + 2 * y - 3 * z) ** 3, (x * y - 5 * z ** 2 + y * z) ** 2
    h, k = (x - y) ** 4 * z, (3 * x + y + z) * x
    m = k * k + x * y * z * x
    u, v = (Poly.variable(XY, w) for w in XY)
    sheared = (u * v ** 3 + 1 - v) ** 3
    cases = [(f, g, h, k), (k, k * k * k, m, m), (h, k, k, h),
             (sheared, sheared ** 2, sheared ** 3, Poly.one(XY))]
    expected = [(p._mul_dict(q), r._mul_dict(s)) for p, q, r, s in cases]
    # e starts 3 above the products in v and reaches 2 above their top, so
    # a radix that left out its offset would put v^6 on u*v
    t = (1 + u + v) ** 2
    diff = v ** 3 + 2 * u * v ** 4 + 5 * u * v
    above = (t, t, Poly.one(XY), t._mul_dict(t) - diff)
    moved = diff - 5 * u * v + 5 * v ** 6
    strays = [((u + v + 1) ** 4 * (u * v) ** 2, (u - 2 * v + 3) ** 4),
              ((u ** 2 + v ** 2 + 1) ** 4, (u ** 2 - 2 * v ** 2 + 3) ** 4)]
    monkeypatch.setattr(Poly, "__mul__", _no_dict_mul)
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    for (a, b, c, d), (ab, cd) in zip(cases, expected):
        e = ab - cd
        assert _holds(a, b, c, d, e)
        # moved by a monomial of the products' degree, so still homogeneous
        unit = Poly.monomial(a.vars, next(iter(ab.terms)))
        assert not _holds(a, b, c, d, e + unit)
        assert not _holds(a, b, c, d, -e) or not e.terms
        # four products, two a side, and e alone on the left
        assert poly_mod.identity_holds([(a, b), (c, d)], [(c, d), (c, d),
                                                          (e,)])
        assert poly_mod.identity_holds([(a, b)], [(e,), (d, c)])
    # the homogeneous drop: f*g and h*k both have total degree 7
    assert poly_mod._lattice([f, g, h, k], [(0, 1), (2, 3)])[0] == 7
    # e = 0, and an e below the products' box or off their lattice (the
    # products of p and q have even exponents only)
    assert _holds(f, g, g, f, Poly.zero(XYZ))
    assert _holds(*above, diff)
    assert not _holds(*above, moved)
    for a, b in strays:
        assert _holds(a, b, b, a, Poly.zero(XY))
        for stray in (Poly.one(XY), Poly.variable(XY, "x")):
            assert not _holds(a, b, b, a, stray)


def test_packing_encodes_each_distinct_operand_once(monkeypatch):
    # a square, or an operand passed twice, is one Decimal: libmpdec then
    # transforms it once
    x, y = (Poly.variable(XY, v) for v in XY)
    p, q = (x + 2 * y + 3) ** 5, (x - y + 1) ** 4
    c, d = (2 * x + y - 1) ** 3, (x * y + y - 2) ** 2
    square, pq = p._mul_dict(Poly(XY, dict(p.terms))), p._mul_dict(q)
    e1 = pq - c._mul_dict(c)
    e2 = square - c._mul_dict(d)
    encoded = []
    encode = poly_mod._encode

    def counted(op, *args):
        encoded.append(op)
        return encode(op, *args)

    monkeypatch.setattr(poly_mod, "_encode", counted)
    monkeypatch.setattr(Poly, "_mul_dict", _no_dict_mul)
    cases = [(lambda: p * p, square, [p]),
             (lambda: p ** 2, square, [p]),
             (lambda: p * q, pq, [p, q]),
             (lambda: _holds(p, q, c, c, e1), True, [p, q, c, e1]),
             (lambda: _holds(p, p, c, d, e2), True, [p, c, d, e2]),
             (lambda: poly_mod.identity_holds([(c, d), (e2,), (p, p)],
                                              [(c, d), (p, p), (e2,)]),
              True, [c, d, e2, p])]
    for call, expected, operands in cases:
        encoded.clear()
        assert call() == expected
        assert list(map(id, encoded)) == list(map(id, operands))


def test_identity_holds_zero_operands_and_fractions():
    x, y = (Poly.variable(XY, v) for v in XY)
    zero = Poly.zero(XY)
    p = (x + y + 1) ** 3
    assert _holds(zero, p, zero, p, zero)
    assert _holds(zero, p, p, zero, zero)
    assert _holds(zero, p, p, p, -(p * p))
    assert not _holds(p, p, zero, zero, zero)
    assert not _holds(zero, zero, zero, p, p)
    half = p * Fraction(1, 2)
    assert _holds(half, p, half, p, zero)
    assert not _holds(half, p, p, p, zero)
    with pytest.raises(ValueError):
        _holds(p, p, p, p, Poly.zero(XYZ))
    # an empty side is 0, and a product with a zero factor drops out
    assert poly_mod.identity_holds([], [])
    assert poly_mod.identity_holds([(zero, p)], [])
    assert poly_mod.identity_holds([(p, p), (-(p * p),)], [])
    assert poly_mod.identity_holds([(half, p)], [(p * half,), (p, zero)])
    assert not poly_mod.identity_holds([], [(p,)])
    assert not poly_mod.identity_holds([(half,)], [(p, half)])
    # a product has one or two factors, over one variable table
    for bad in ([()], [(p, p, p)]):
        with pytest.raises(ValueError):
            poly_mod.identity_holds(bad, [(p,)])
    with pytest.raises(ValueError):
        poly_mod.identity_holds([], [(zero,), (Poly.one(XYZ),)])


# --- binomial divisors: +-x^a plus a term free of x ----------------------

# (divisor text, variable table, variable the divisor is monic in, degree)
BINOMIALS = [(t, PVARS, None, None) for t in FAMILY_BINOMIALS] + [
    ("L - M^2", PVARS, None, None),
    ("L - M^4", PVARS, None, None),
    ("-L + M", PVARS, "M", 1),
    ("1 - M", PVARS, "M", 1),
    ("M^3 - L^2", PVARS, "M", 3),
    ("g_f - g_o", TAIL_VARS, "g_f", 1),
    ("-g_p^2 + g_f*g_o", TAIL_VARS, "g_p", 2),
    ("g_o^3 + 1/2*g_f*g_p^2", TAIL_VARS, "g_o", 3),
]


def _monic_var(d, xname=None):
    """(index, degree) of a variable d is monic in, up to sign."""
    for exps, c in d.terms.items():
        nz = [i for i, e in enumerate(exps) if e]
        if abs(c) != 1 or len(nz) != 1:
            continue
        if xname is not None and d.vars[nz[0]] != xname:
            continue
        (other,) = [e for e in d.terms if e != exps]
        if not other[nz[0]]:
            return nz[0], exps[nz[0]]
    raise AssertionError("%s is not +-x^a plus a term free of x" % (d,))


def _divisor(spec):
    text, vars, xname, a = spec
    d = parse_poly(text, vars)
    xi, deg = _monic_var(d, xname)
    assert a is None or deg == a
    return d, xi, deg


# halves make running sums like 3/2 - 1/2 come out integral
half_coefs = st.one_of(st.integers(min_value=-9, max_value=9),
                       st.integers(min_value=-9, max_value=9).map(
                           lambda k: Fraction(k, 2)))


def _terms(nv, max_deg, coef, min_size=0, cap=None):
    degs = [st.integers(min_value=0, max_value=max_deg) for _ in range(nv)]
    if cap is not None:
        xi, a = cap
        degs[xi] = st.integers(min_value=0, max_value=a - 1)
    return st.dictionaries(st.tuples(*degs), coef, min_size=min_size,
                           max_size=6)


def _assert_clean(q):
    for c in q.terms.values():
        assert c
        assert type(c) is int or c.denominator != 1


@pytest.mark.parametrize("spec", BINOMIALS, ids=[b[0] for b in BINOMIALS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_binomial_divisor_hits(spec, data):
    d, _, _ = _divisor(spec)
    vars = d.vars
    q = Poly(vars, data.draw(_terms(len(vars), 4, half_coefs)))
    ok, got = poly_divides(d, q * d)
    assert ok
    assert got.terms == q.terms
    _assert_clean(got)


@pytest.mark.parametrize("spec", BINOMIALS, ids=[b[0] for b in BINOMIALS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_binomial_divisor_misses(spec, data):
    d, xi, a = _divisor(spec)
    vars = d.vars
    nonzero = half_coefs.filter(bool)
    q = Poly(vars, data.draw(_terms(len(vars), 4, half_coefs)))
    r = Poly(vars, data.draw(_terms(len(vars), 4, nonzero, 1, (xi, a))))
    # r has x-degree below a, so it is the unique remainder of q*d + r
    assert poly_divides(d, q * d + r) == (False, None)


def test_binomial_divisor_fixed_cases():
    M = Poly.variable(PVARS, "M")
    L = Poly.variable(PVARS, "L")
    # 3/2 - 1/2 cancels to an integral Fraction, which must be stored as int
    q = M**2 * Fraction(1, 2) + M + Fraction(1, 2)
    ok, got = poly_divides(M + 1, q * (M + 1))
    assert ok and got.terms == {(0, 2): Fraction(1, 2), (0, 1): 1,
                                (0, 0): Fraction(1, 2)}
    assert type(got.terms[(0, 1)]) is int
    # a -1 on the pure power flips the quotient's sign
    ok, got = poly_divides(1 - M, M**2 - 1)
    assert ok and got == -M - 1
    ok, got = poly_divides(M**3 - L**2, M**6 - L**4)
    assert ok and got == M**3 + L**2
    ok, got = poly_divides(L - M, Poly.zero(PVARS))
    assert ok and got.is_zero()
    assert poly_divides(L - M, L**2 - M) == (False, None)
    # x-degree below the divisor's: nothing to divide
    assert poly_divides(L**2 - M, L + 1) == (False, None)
    # the remainder's g_p-degree outgrows the dividend's; packed exponent
    # keys must not let g_p alias g_o
    gf, go, gp = (Poly.variable(TAIL_VARS, v) for v in TAIL_VARS)
    assert poly_divides(gf - gp, gf - go) == (False, None)


# --- other divisors --------------------------------------------------------

VARSETS = [("x",), XY, XYZ]


def _divides_monomial(a, b):
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_divisor_hits_and_misses(data):
    vars = data.draw(st.sampled_from(VARSETS))
    nv = len(vars)
    d = Poly(vars, data.draw(_terms(nv, 3, half_coefs.filter(bool), 3)))
    q = Poly(vars, data.draw(_terms(nv, 3, half_coefs)))
    lead = d.leading_term()[0]
    rterms = {e: c for e, c in
              data.draw(_terms(nv, 5, half_coefs.filter(bool), 1)).items()
              if not _divides_monomial(lead, e)}
    assume(rterms)
    r = Poly(vars, rterms)
    ok, got = poly_divides(d, q * d)
    assert ok and got.terms == q.terms
    _assert_clean(got)
    # no term of r is divisible by d's leading monomial, so r is the unique
    # remainder of q*d + r by d, and it is not zero
    assert poly_divides(d, q * d + r) == (False, None)


def test_sparse_divisor_fixed_cases():
    x, y = (Poly.variable(XY, v) for v in XY)
    d = x * y**2 + y + 1
    # the remainder's leading y-exponent (0) is below the divisor's (2):
    # its packed key minus the divisor's borrows across the y slot
    assert poly_divides(d, d + x**2) == (False, None)
    assert poly_divides(d, d * (x + 1) + x**2 * y) == (False, None)
    # a quotient term above the box: its products with d leave the packed
    # box and alias the terms of p
    assert poly_divides(x - y - 1, x**2 * y + x**2 - 3 * x * y - 2 * x) == (False, None)
    # only the min-degree bound fails: 3x(x + 1) against (3x - 2)(x + 1)
    assert poly_divides(3 * x**2 + 3 * x, 3 * x**2 + x - 2) == (False, None)
    # the x-span of p (1) is below that of d (2)
    assert poly_divides(x**2 + x + 1, x**3 * y + x**2) == (False, None)
    # the leading coefficients do not divide, though every monomial fits
    assert poly_divides(2 * x + 1, 3 * x + 1) == (False, None)
    assert poly_divides(3 * x**2 - 1, 2 * x**3 - 3 * x**2 + 1) == (False, None)
    # an integral dividend that is not primitive, against a divisor whose
    # leading coefficient is not +-1
    assert poly_divides(2 * x + 1, 6 * x + 3) == (True, Poly.const(XY, 3))
    assert poly_divides(4 * x + 2, 2 * x + 1) == (True, Poly.const(XY, Fraction(1, 2)))
    assert poly_divides(2 * x + 1, 4 * x + 3) == (False, None)
    # the keys the division adds (x^3*y^3, x^2*y^6, x*y^9, x*y^4) fall
    # between the dividend's (x^4, x^2*y, y^12, y^7)
    d, q = x - y**3, x**3 + x**2 * y**3 + x * y**6 + x * y + y**9 + y**4
    assert d * q == x**4 + x**2 * y - y**7 - y**12
    assert poly_divides(d, d * q) == (True, q)
    assert poly_divides(d, d * q + x * y**2) == (False, None)
    L = Poly.variable(PVARS, "L")
    M = Poly.variable(PVARS, "M")
    d = (L - 2 * M + 3) ** 3
    q = (2 * L + M - 5) ** 6
    ok, got = poly_divides(d, d * q)
    assert ok and got == q
    assert max(abs(c) for c in got.terms.values()) > 10**4
    assert poly_divides(d, d * q + 1) == (False, None)
    ok, got = poly_divides(d * Fraction(1, 3), d * q * Fraction(1, 2))
    assert ok and got == q * Fraction(3, 2)


@pytest.mark.parametrize("text", ["L*M - 1", "2*L - 3*M", "L^2 - M^2*L"])
def test_two_term_divisors_of_other_shapes(text):
    # two terms, but not +-x^a plus a term free of x
    d = parse_poly(text, PVARS)
    L = Poly.variable(PVARS, "L")
    M = Poly.variable(PVARS, "M")
    q = L**2 * Fraction(1, 2) - 3 * L * M + M**3 - 7
    ok, got = poly_divides(d, q * d)
    assert ok and got == q
    assert poly_divides(d, q * d + M) == (False, None)


# --- the remainder walk ----------------------------------------------------


def _walk_fails(*args):
    raise AssertionError("a division reached its remainder walk")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_remainder_walk_hits_and_misses(data):
    vars = data.draw(st.sampled_from(VARSETS))
    nv = len(vars)
    d = Poly(vars, data.draw(_terms(nv, 3, half_coefs.filter(bool), 1)))
    if data.draw(st.booleans()):
        d = -d
    q = Poly(vars, data.draw(_terms(nv, 3, half_coefs)))
    # r is often empty (a hit) and otherwise usually a miss
    r = Poly(vars, data.draw(_terms(nv, 4, half_coefs)))
    p = q * d + r
    ok, got = poly_divides(d, p)
    if r.is_zero():
        assert ok and got == q
    if ok:
        assert got * d == p
        _assert_clean(got)
    else:
        assert got is None


def test_heap_walk_fixed_cases():
    x, y, z = (Poly.variable(XYZ, v) for v in XYZ)
    # x^2 + y^2 leaves 2*y^2 by x - y, whose x-exponent is below the
    # divisor's leading one: a nonzero remainder below kmin
    assert poly_divides(x - y, x**2 + y**2) == (False, None)
    # the leading x*z^2 asks for the quotient term z^2, whose z-exponent is
    # above the box's z^1
    assert poly_divides(x + z, x * z**2 + y) == (False, None)
    # a Fraction dividend and a negative leading coefficient
    d, q = -2 * x * y + z + 3, x * z * Fraction(1, 2) - y**2
    assert poly_divides(d, q * d) == (True, q)
    assert poly_divides(d, q * d + z * Fraction(1, 3)) == (False, None)


def test_empty_quotient_box_takes_no_walk(monkeypatch):
    monkeypatch.setattr(poly_mod, "_heap_walk", _walk_fails)
    x, y = (Poly.variable(XY, v) for v in XY)
    # x-degree of p below d's; y-degree of p below d's; y content of d
    # above p's
    assert poly_divides(x**2 + 1, x + 1) == (False, None)
    assert poly_divides(x + y**2, x * y + 1) == (False, None)
    assert poly_divides(x * y + y, x + 1) == (False, None)


def test_divisor_check_divides_nothing(family_runs, monkeypatch):
    # the twist-factor oracle is one packed comparison, even on whitehead
    # pos m = 4's 2,947-term numerator
    spec = get_family("whitehead", "pos")
    result = family_runs("whitehead", "pos", 4)
    family_chain(spec)              # solving the chain divides; do it first
    monkeypatch.setattr(poly_mod, "_sparse_divide", _walk_fails)
    assert divides_conjugate(spec, 4, result)


def test_sparse_chain_value_takes_the_heap_walk():
    # 212 terms times L - M: 424 terms in a 40 x 62 box
    f = family_chain(get_family("pretzel238", "pos")).entry.f.num
    d = parse_poly("L - M", PVARS)
    assert poly_divides(d, f * d) == (True, f)
