import time
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from fillpoly.checks import lowest_terms_failure
from fillpoly.matchings import TAIL_VARS
from fillpoly.newton import MAX_ROOT_END, binomial_factors, hull
from fillpoly.poly import Poly
from fillpoly.ptolemy import PVARS
from fillpoly.ratfunc import RatFunc, parse_poly, parse_ratfunc


def pp(text):
    return parse_poly(text, PVARS)


def _split(text):
    found, rest = binomial_factors(pp(text))
    return [(str(b), e) for b, e in found], str(rest)


def test_hull_drops_inner_and_collinear_points():
    square = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0), (0, 1)]
    assert hull(square) == [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert hull([(0, 0), (1, 1), (3, 3)]) == [(0, 0), (3, 3)]
    assert hull([(4, 1)]) == []
    assert hull([]) == []


@pytest.mark.parametrize("text,found,rest", [
    ("2*L - 3*M", [("2*L - 3*M", 1)], "1"),
    ("(L - M)^3", [("L - M", 3)], "1"),
    ("L^2 - M^2", [("L - M", 1), ("L + M", 1)], "1"),
    ("M^2 - 1", [("M - 1", 1), ("M + 1", 1)], "1"),
    ("-6 * L^3 * M * (L - 1)^2", [("L - 1", 2)], "-6*L^3*M"),
    ("(L^2 + M^3) * (L - M) * (M + 1)^2",
     [("M + 1", 2), ("L^2 + M^3", 1), ("L - M", 1)], "1"),
    ("(L + M + 1) * (L - M^2)", [("L - M^2", 1)], "L + M + 1"),
    ("L + M + 1", [], "L + M + 1"),
    ("L^2 + M^2 + 1", [], "L^2 + M^2 + 1"),
    ("L^2 + M^2", [], "L^2 + M^2"),
    ("3*L^2*M", [], "3*L^2*M"),
    ("7", [], "7"),
    ("0", [], "0"),
], ids=["non-unit-ratio", "repeated", "non-primitive-edge", "one-variable",
        "monomial-content", "one-variable-first", "non-binomial-rest",
        "three-terms", "no-rational-root", "irreducible-binomial", "one-term",
        "constant", "zero"])
def test_binomial_factors(text, found, rest):
    assert _split(text) == (found, rest)


def test_only_two_variables_are_split():
    p = parse_poly("(g_f - g_o)^2 * g_p", TAIL_VARS)
    assert binomial_factors(p) == ([], p)
    q = parse_poly("x - 1", ("x",))
    assert binomial_factors(q) == ([], q)


def _binomial(step, ratio):
    """b*x^(s+) - a*x^(s-) with a positive leading coefficient."""
    (s0, s1), (a, b) = step, ratio
    terms = {(max(s0, 0), max(s1, 0)): b, (max(-s0, 0), max(-s1, 0)): -a}
    p = Poly(PVARS, terms)
    return -p if p.leading_term()[1] < 0 else p


def _step(s):
    return gcd(*s) == 1


def _ratio(r):
    return r[0] and gcd(*r) == 1


_binomials = st.builds(
    _binomial,
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(_step),
    st.tuples(st.integers(-3, 3), st.integers(1, 3)).filter(_ratio))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.tuples(_binomials, st.integers(1, 3)), min_size=1,
                max_size=4, unique_by=lambda t: str(t[0])),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_binomial_factors_finds_exactly_the_drawn_binomials(drawn, mono):
    cofactor = Poly.monomial(PVARS, mono) * pp("L^2 + L*M + 3")
    p = prod((b ** e for b, e in drawn), start=cofactor)
    found, rest = binomial_factors(p)
    assert sorted((str(b), e) for b, e in found) \
        == sorted((str(b), e) for b, e in drawn)
    assert rest == cofactor
    for b, _ in found:
        u, v = b.terms
        assert gcd(u[0] - v[0], u[1] - v[1]) == 1


def test_a_length_one_edge_reads_its_root_at_any_size():
    # every edge of (c*L + M)*(M - 1) has lattice length 1, so each root is
    # read off, not searched for; trial division up to sqrt(c) took 6 s at
    # c = 10^14
    c = 10 ** 40
    value = parse_ratfunc("(L + 1)/((%d*L + M)*(M - 1))" % c, PVARS)
    start = time.perf_counter()
    assert value.reduced() is value
    assert _split("2 * (%d*L + M) * (M - 1)" % c) \
        == ([("M - 1", 1), ("%d*L + M" % c, 1)], "2")
    assert time.perf_counter() - start < 1


def test_a_longer_edge_past_the_bound_proposes_nothing():
    # (k*L - M)(k*L + M) lies along one edge of length 2 with end
    # coefficients k^2 and -1; past MAX_ROOT_END neither binomial is
    # proposed, so the factor stays in the rest: reduced() keeps the value
    # unreduced and the lowest-terms check reports it
    for k, split in ((10, True), (10 ** 20, False)):
        assert (k * k <= MAX_ROOT_END) == split
        b = pp("%d*L - M" % k)
        den = b * pp("%d*L + M" % k)
        found, rest = binomial_factors(den)
        assert (found, rest) == (([(b, 1), (pp("%d*L + M" % k), 1)], pp("1"))
                                 if split else ([], den))
        value = RatFunc(b * pp("L + 2"), den)
        got = value.reduced()
        assert got == value and (got is value) != split
        assert (lowest_terms_failure(got) is None) == split
