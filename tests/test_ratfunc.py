import time
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from fillpoly import families, poly, ptolemy, ratfunc
from fillpoly.checks import evaluate_ring_hom
from fillpoly.poly import Poly
from fillpoly.ratfunc import (MAX_POWER_DEGREE, PoleError, RatFunc, parse_poly,
                              parse_ratfunc, substitute_basis)

LM = ("L", "M")
XY = ("x", "y")


def rf(text):
    return parse_ratfunc(text, LM)


def test_normalization_strips_shared_monomials_and_content():
    L = Poly.variable(LM, "L")
    M = Poly.variable(LM, "M")
    r = RatFunc(2 * L * M, 4 * M * M)
    assert r.num == L
    assert r.den == 2 * M
    # denominator leading coefficient is kept positive
    r2 = RatFunc(L, -M)
    assert r2.den == M and r2.num == -L


def test_no_full_gcd_in_normalization():
    # the raw constructor leaves (L^2 - M^2)/(L - M) uncancelled ...
    r = RatFunc(parse_poly("L^2 - M^2", LM), parse_poly("L - M", LM))
    assert r.den != 1
    # ... but it compares equal to its reduced form by cross-multiplication
    assert r == rf("L + M")
    # the '/' operator, by contrast, does cross-cancel matched factors
    assert rf("(L^2 - M^2)/(L - M)").den == 1


def test_cross_multiplication_equality():
    assert RatFunc(parse_poly("L*M - M", LM), parse_poly("M^2 - M", LM)) \
        == rf("(L - 1)/(M - 1)")
    assert rf("L/M") != rf("M/L")
    assert rf("3/2") == RatFunc.const(LM, Fraction(3, 2))


def test_arithmetic():
    a = rf("L/(M + 1)")
    b = rf("1/(M + 1)")
    assert a + b == rf("(L + 1)/(M + 1)")
    assert a - a == RatFunc.zero(LM)
    assert a * b == rf("L/(M^2 + 2*M + 1)")
    assert a / b == rf("L")
    assert (1 / rf("L/M")) == rf("M/L")
    assert rf("L") ** -2 == rf("1/L^2")
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero(LM).reciprocal()


def test_mul_add_cross_cancellation_keeps_results_small():
    # multiplication cancels matching factors across the two fractions,
    # so chained products do not accumulate junk
    a = rf("(L + M)/(L - M)")
    b = rf("(L - M)/(L + M)")
    prod = a * b
    assert prod.num == 1 and prod.den == 1
    # addition over a common denominator does not cancel num against den,
    # but the result still compares equal to 1
    s = rf("L/(L - M)") + rf("-M/(L - M)")
    assert s == RatFunc.one(LM)
    assert str(s) == "(L - M)/(L - M)"


def test_mul_cancels_each_numerator_into_the_other_denominator():
    x, y = Poly.variable(XY, "x"), Poly.variable(XY, "y")
    # neither denominator divides the other operand's numerator; only the
    # numerator x + 2 divides the other operand's denominator, once from
    # each side as the operands swap
    left = RatFunc(x, (y + 1) * (x + 2))
    right = RatFunc(x + 2, y)
    for prod in (left * right, right * left):
        assert (prod.num, prod.den) == (x, y * y + y)


def test_division_cancels_divisor_denominator():
    # dividing by o = A/B multiplies by B/A; B cancels into the dividend's
    # denominator instead of piling onto its numerator
    a = rf("L/((M - 1) * (L - M)^2)")
    o = rf("(M + 2)/(L - M)")
    q = a / o
    assert (q.num, q.den) == (parse_poly("L", LM),
                              parse_poly("(M - 1) * (L - M) * (M + 2)", LM))


def test_reduced_cancels_listed_factors():
    r = RatFunc(parse_poly("(M - 1)^2 * L", LM),
                parse_poly("(M - 1) * (M + 1)", LM))
    out = r.reduced()
    assert out == r
    assert out.den == parse_poly("M + 1", LM)


def test_reduced_cancels_only_the_smaller_power():
    r = RatFunc(parse_poly("L * (M - 1)^3", LM), parse_poly("(M - 1)^5", LM))
    out = r.reduced()
    assert (out.num, out.den) == (parse_poly("L", LM),
                                  parse_poly("(M - 1)^2", LM))
    r = RatFunc(parse_poly("(M - 1)^5", LM), parse_poly("L * (M - 1)^3", LM))
    out = r.reduced()
    assert (out.num, out.den) == (parse_poly("(M - 1)^2", LM),
                                  parse_poly("L", LM))


def test_reduced_of_zero_is_zero():
    zero = RatFunc(Poly.zero(LM), parse_poly("(M - 1)^2", LM))
    out = zero.reduced()
    assert out.is_zero() and out.den == Poly.one(LM)


def test_evaluate_and_poles():
    r = rf("(L^2 - 1)/(M - 2)")
    assert r.evaluate({"L": 3, "M": 4}) == 4
    assert r.evaluate({"L": Fraction(1, 2), "M": 0}) == Fraction(3, 8)
    with pytest.raises(PoleError):
        r.evaluate({"L": 1, "M": 2})


points = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@settings(max_examples=40, deadline=None)
@given(points)
def test_evaluate_is_a_ring_homomorphism(pt):
    a = rf("(L + 2*M)/(M^2 + 1)")
    b = rf("(L*M - 3)/(L^2 + 2)")
    assert evaluate_ring_hom(a, b, {"L": pt[0], "M": pt[1]}) is None


def test_parser_round_trips():
    for text in ["(L^2 - M)/(2*M + 1)", "L", "-L*M^3 + 1/2", "(L + M)^2/L"]:
        r = rf(text)
        assert parse_ratfunc(str(r), LM) == r


def test_parser_negative_powers_and_division():
    assert rf("L^-2") == rf("1/L^2")
    assert rf("L/M/2") == rf("L/(2*M)")
    with pytest.raises(ValueError):
        parse_ratfunc("L + ", LM)
    with pytest.raises(ValueError):
        parse_ratfunc("Q + 1", LM)
    with pytest.raises(ValueError):
        parse_poly("1/(M + 1)", LM)
    assert parse_poly("(L^2 - M^2)/(L + M)", LM) == parse_poly("L - M", LM)


def test_parser_division_by_zero_is_a_value_error():
    for text in ("1/0", "(L-L)^-2", "L/(M - M)", "0^-1"):
        with pytest.raises(ValueError, match="division by zero"):
            parse_ratfunc(text, LM)
    with pytest.raises(ValueError, match="division by zero"):
        parse_poly("(L + 1)/(0*M)", LM)


@pytest.mark.parametrize("text", [
    "L**2", "+L", "L # 1", "2 L", "(L)(M)", "L^M", "L^(1/2)", "L^2^3",
    "L.real", "L[0]", "abs(L)", "1.5", "0x10", "1_0", '"L"', "L % 2",
    "L // 2", "~L", "007", "L if M else 1", "not L", "True", "2j", "1e5",
    "L -", "L) + (M", "L + + M", ""])
def test_parser_rejects_what_the_whitelist_leaves_out(text):
    with pytest.raises(ValueError):
        parse_ratfunc(text, LM)


@pytest.mark.parametrize("text", ["(" * 300 + "L" + ")" * 300,
                                  "-" * 3000 + "L"])
def test_parser_deep_nesting_is_a_value_error(text):
    with pytest.raises(ValueError):
        parse_ratfunc(text, LM)


@pytest.mark.parametrize("text, value", [
    ("L - -M", "L + M"),
    ("2 - 3 - 4 + 1", "-4"),
    ("-L^2 - M", "-(L^2) - M"),
    ("(L - 1)-M+(M)", "L - 1"),
    ("L*-M - 1", "-(L*M) - 1"),
    ("L^-2-1", "1/L^2 - 1"),
    ("L^(2)", "L^2"),
    ("L^(-2)", "1/L^2"),
    ("\tL *\n M\r\n- 1 ", "L*M - 1"),
])
def test_parser_splits_the_sum_at_binary_signs_only(text, value):
    assert rf(text) == rf(value)


def test_parser_reads_a_sum_longer_than_ast_parse_nests():
    # ast.parse alone fails near 3,000 terms; the sum is split first
    p = Poly(LM, {(i, j): (-1) ** (i + j) * (i + 2 * j + 1)
                  for i in range(60) for j in range(59)})
    assert len(p.terms) == 3540
    assert parse_poly(str(p), LM) == p


@pytest.mark.parametrize("text", [
    "(L+1)^99999", "((L + 1)^30)^40", "((L*M - 2)^-20)^60", "2^99999999",
    "(L + M + 1)^1001", "(1/(L - 1))^-1001"])
def test_parser_refuses_a_power_above_the_degree_bound(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="power of degree"):
        parse_ratfunc(text, LM)
    assert time.perf_counter() - start < 1


def test_parser_power_bound_admits_unit_monomials_and_the_bound():
    assert parse_poly("L^99999", LM) == Poly.monomial(LM, (99999, 0))
    assert rf("(L^2/M)^-400") == rf("M^400/L^800")
    assert len(parse_poly("(L + 1)^%d" % MAX_POWER_DEGREE, LM)) == 1001
    assert parse_poly("(-1)^1000 - 2^1000", LM) == 1 - 2 ** 1000


@pytest.mark.parametrize("text", ["(L + M + 1)^400", "(L + M + 1)^1000"])
def test_parser_refuses_a_power_above_the_size_bound(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="terms above"):
        parse_ratfunc(text, LM)
    assert time.perf_counter() - start < 1


def test_parser_power_size_bound_in_two_variables():
    assert ratfunc.MAX_POWER_TERMS == MAX_POWER_DEGREE + 1
    assert len(parse_poly("(L + M + 1)^43", LM)) == 990
    with pytest.raises(ValueError, match="1035 terms above 1001"):
        parse_poly("(L + M + 1)^44", LM)
    # a sparse power is estimated from its base's term count, not its box
    assert len(parse_poly("(L - M)^31", LM)) == 32
    assert len(parse_poly("(L*M + 1)^500", LM)) == 501
    for k in (400, 1000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="terms above 1001"):
            parse_poly("(L + M + 1)^%d" % k, LM)
        assert time.perf_counter() - start < 1


def test_every_fixture_parses_under_the_power_bound(monkeypatch):
    # the data files and twist seeds raise a base other than a unit
    # monomial to degree 17 at most, far below the bound: they still parse
    # with the bound set at 17
    monkeypatch.setattr(ratfunc, "MAX_POWER_DEGREE", 17)
    for name in ("pretzel238.eqs", "whitehead.eqs"):
        assert ptolemy.load_equations.__wrapped__(name)
    for name in ("pretzel238_values.txt", "whitehead_values.txt"):
        assert ptolemy.load_values.__wrapped__(name)
    families.TwistPolys()
    monkeypatch.setattr(ratfunc, "MAX_POWER_DEGREE", 16)
    with pytest.raises(ValueError, match="power of degree 17"):
        ptolemy.load_values.__wrapped__("pretzel238_values.txt")


# Exponents stay small: a power applies to an atom only, at most cubed, and
# token soup joins single digits with spaces, so no digit string grows.
_atoms = st.sampled_from(["L", "M", "0", "1", "2", "(L - L)", "(M - 1)"])
_powers = st.tuples(_atoms, st.sampled_from(["", "^0", "^3", "^-1", "^-2"]))
_expressions = st.recursive(
    _powers.map("".join),
    lambda inner: st.tuples(inner, st.sampled_from(" + | - | * | / ".split("|")),
                            inner).map(lambda t: "(%s)" % "".join(t)),
    max_leaves=6)
_token_soup = st.lists(st.sampled_from(
    ["L", "M", "0", "2", "3", "+", "-", "*", "/", "^", "(", ")", "Q", "$"]),
    max_size=14).map(" ".join)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_expressions, _token_soup))
def test_parse_ratfunc_returns_a_value_or_raises_value_error(text):
    try:
        value = parse_ratfunc(text, LM)
    except ValueError:
        return
    assert isinstance(value, RatFunc)


def test_reading_a_polynomial_normalizes_a_fixed_number_of_times(
        monkeypatch):
    counts = []
    real = ratfunc._normalize

    def counting(num, den):
        counts[-1] += 1
        return real(num, den)

    monkeypatch.setattr(ratfunc, "_normalize", counting)
    for rows in (2, 20):
        # 10 * rows terms, each a product of a coefficient and two powers
        p = Poly(LM, {(i, j): (-1) ** j * (i + j + 2)
                      for i in range(rows) for j in range(10)})
        counts.append(0)
        assert parse_poly(str(p), LM) == p
    assert len(p) == 200
    assert counts[0] == counts[1] <= 2


def test_substitute_basis_values_match():
    r = rf("(L^2 - M)/(L + M^3)")
    out = substitute_basis(r, -1, 2)
    # substituting L -> -L*M^2 must commute with evaluation
    for L0, M0 in [(2, 3), (Fraction(1, 2), -2), (-3, Fraction(2, 5))]:
        want = r.evaluate({"L": -L0 * M0**2, "M": M0})
        assert out.evaluate({"L": L0, "M": M0}) == want


def test_substitute_basis_round_trip():
    r = rf("(L^3 - 2*M + 1)/(M^2 + L)")
    back = substitute_basis(substitute_basis(r, -1, 2), -1, -2)
    assert back == r


def test_substitute_basis_rejects_bad_sign():
    with pytest.raises(ValueError):
        substitute_basis(rf("L"), 2, 1)


_SHIFTED = Poly(("x", "y"), {(2, 1): 1, (3, 2): 5})


@pytest.mark.parametrize("call, error", [
    # 1.5 printed as (L*M^1 + M)/(M - 1) with keys (1, 1.5) and (0, 1.0)
    (lambda: substitute_basis(rf("(L + M)/(M - 1)"), 1, 1.5), TypeError),
    (lambda: substitute_basis(rf("(L + M)/(M - 1)"), True, 1), TypeError),
    (lambda: substitute_basis(rf("(L + M)/(M - 1)"), 1, True), TypeError),
    (lambda: substitute_basis(rf("(L + M)/(M - 1)"), 1.0, 1), TypeError),
    # printed 5*x^2*y^2 + x^1*y
    (lambda: _SHIFTED.shift_down((0.5, 0)), TypeError),
    (lambda: _SHIFTED.shift_down((True, 0)), TypeError),
    # multiplied by y instead of dividing
    (lambda: _SHIFTED.shift_down((1, -1)), ValueError),
    # one-entry keys, whose str() raised IndexError
    (lambda: _SHIFTED.shift_down((1,)), ValueError),
    (lambda: _SHIFTED.shift_down((1, 0, 0)), ValueError),
    # each returned its base
    (lambda: _SHIFTED ** True, TypeError),
    (lambda: rf("(L + M)/(M - 1)") ** True, TypeError),
    (lambda: _SHIFTED ** 2.0, TypeError),
], ids=["basis-e-float", "basis-sign-bool", "basis-e-bool",
        "basis-sign-float", "shift-float", "shift-bool", "shift-negative",
        "shift-short", "shift-long", "poly-pow-bool", "ratfunc-pow-bool",
        "poly-pow-float"])
def test_exponent_arguments_are_non_negative_ints_of_the_right_length(
        call, error):
    with pytest.raises(error):
        call()


def _substitute_by_terms(r, sign, e):
    """Reference: map each term, then build and normalize the result anew."""
    vars = r.vars
    li, mi = vars.index("L"), vars.index("M")
    lift = max(0, max(-exps[mi] - e * exps[li]
                      for p in (r.num, r.den) for exps in p.terms))

    def mapped(p):
        out = {}
        for exps, c in p.terms.items():
            ne = list(exps)
            ne[mi] += e * exps[li] + lift
            out[tuple(ne)] = c * sign ** exps[li]
        return Poly(vars, out)

    return RatFunc(mapped(r.num), mapped(r.den))


def _assert_same_form(got, want):
    for a, b in ((got.num, want.num), (got.den, want.den)):
        assert a.terms == b.terms
        assert [type(c) for c in a.terms.values()] == [
            type(b.terms[k]) for k in a.terms]


@pytest.mark.parametrize("text, sign, e, expected", [
    # a shared power of M appears, and is stripped
    ("L/(M + L^2)", 1, 1, "(L)/(L^2*M + 1)"),
    # negative powers of M are lifted
    ("M/L", 1, -1, "(M^2)/(L)"),
    # the denominator's leading term changes sign
    ("1/(L + 1)", -1, 0, "(-1)/(L - 1)"),
    # both at once
    ("(L^2 - M)/(L + M^3)", -1, 2, "(-L^2*M^3 + 1)/(L*M - M^2)"),
    # rational coefficients are scaled out before the map
    ("(L/2 - 1/3)/(M^2 + L)", -1, -1, "(3*L + 2*M)/(6*L - 6*M^3)"),
])
def test_substitute_basis_fixed_cases(text, sign, e, expected):
    r = rf(text)
    got = substitute_basis(r, sign, e)
    _assert_same_form(got, _substitute_by_terms(r, sign, e))
    assert str(got) == expected


def _side(vars):
    coefs = st.one_of(st.integers(-9, 9),
                      st.fractions(min_value=-5, max_value=5,
                                   max_denominator=6))
    exps = st.tuples(*[st.integers(0, 4) for _ in vars])
    return st.dictionaries(exps, coefs, max_size=6).map(
        lambda d: Poly(vars, d))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_substitute_basis_matches_term_by_term_route(data):
    # ("M", "L") orders M first, so the map can move the leading term
    vars = data.draw(st.sampled_from([LM, ("M", "L"), ("L", "x", "M")]))
    num = data.draw(_side(vars))
    den = data.draw(_side(vars).filter(lambda p: not p.is_zero()))
    r = RatFunc(num, den)
    sign = data.draw(st.sampled_from([1, -1]))
    e = data.draw(st.integers(-3, 3))
    _assert_same_form(substitute_basis(r, sign, e),
                      _substitute_by_terms(r, sign, e))


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_a_sum_is_its_terms_added_one_at_a_time(data):
    # polynomial terms, quotients over a constant and quotients over a
    # polynomial, each in parentheses; some come back with the other sign,
    # so partial sums cancel
    side = _side(LM).map("({})".format)
    dens = st.sampled_from(["3", "(L - 1)", "(L - M)", "(M^2 + 2*L)",
                            "((L - 1)^2*M)"])
    quotient = st.tuples(side, dens).map("/".join)
    terms = data.draw(st.lists(st.tuples(st.sampled_from([add, sub]),
                                         st.one_of(side, quotient)),
                               min_size=1, max_size=6))
    back = data.draw(st.lists(st.sampled_from(terms), max_size=3))
    terms += [(sub if op is add else add, t) for op, t in back]
    text = " ".join("%s %s" % ("+" if op is add else "-", t)
                    for op, t in terms).removeprefix("+ ")
    want = RatFunc.zero(LM)
    for op, t in terms:
        want = op(want, rf(t))
    assert rf(text) == want


def test_immutability():
    r = rf("L/M")
    with pytest.raises(AttributeError):
        r.num = Poly.one(LM)


def test_reduced_strips_full_common_multiplicity_and_no_more():
    r = RatFunc(parse_poly("(L - M)^3 * (M + 1)", LM),
                parse_poly("(L - M)^2 * (M - 1) * (L + 1)", LM))
    out = r.reduced()
    assert out.num == parse_poly("(L - M) * (M + 1)", LM)
    assert out.den == parse_poly("(M - 1) * (L + 1)", LM)
    r = rf("(L - M)^3 * (M + 1) / ((L - M)^2 * M)")
    out = r.reduced()
    assert (out.num, out.den) == (parse_poly("(L - M) * (M + 1)", LM),
                                  parse_poly("M", LM))
    assert str(out) == "(L*M + L - M^2 - M)/(M)"


def test_reduced_tries_the_numerator_before_the_denominator(monkeypatch):
    # the denominator's (L - M)^17 is not in the numerator: one failed
    # division per edge binomial, and no strip of the denominator
    r = rf("(L^2 + L*M + 3*M^2 + 1)/((L - M)^17 * (M - 1))")
    calls = []
    real = poly._sparse_divide

    def counting(p, d):
        calls.append(1)
        return real(p, d)

    monkeypatch.setattr(poly, "_sparse_divide", counting)
    assert r.reduced() is r
    assert len(calls) <= 2
    # the edge of M - 1 has length 3, so the numerator gives up three
    # factors and the denominator holds only two: one goes back
    r = RatFunc(parse_poly("L * (M - 1)^3", LM),
                parse_poly("(M - 1)^2 * (M - 2)", LM))
    out = r.reduced()
    assert (out.num, out.den) == (parse_poly("L * (M - 1)", LM),
                                  parse_poly("M - 2", LM))
