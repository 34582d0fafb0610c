import random
from fractions import Fraction

import pytest

from test_families import FAMILY_BINOMIALS
from fillpoly import hn
from fillpoly.hn import (TailEntry, exchange_step, filling_poly,
                         h_recurrence_check, iterate_exchange,
                         symbolic_tail_values, tail_collapse, tail_poly)
from fillpoly.matchings import TAIL_VARS
from fillpoly.poly import Poly
from fillpoly.ptolemy import PVARS
from fillpoly.quadext import QuadExt
from fillpoly.ratfunc import RatFunc, parse_ratfunc


def rf(text):
    return parse_ratfunc(text, TAIL_VARS)


def test_tail_poly_small_forms():
    g_f = Poly.variable(TAIL_VARS, "g_f")
    g_o = Poly.variable(TAIL_VARS, "g_o")
    g_p = Poly.variable(TAIL_VARS, "g_p")
    assert tail_poly(1) == g_f ** 2 - g_p ** 2
    assert tail_poly(2) == (g_f ** 4 - 2 * g_f ** 2 * g_p ** 2
                            - g_o ** 2 * g_p ** 2 + g_p ** 4)


def test_exchange_step_on_fractions():
    assert exchange_step(Fraction(3), Fraction(2), Fraction(1)) == 4
    with pytest.raises(ZeroDivisionError):
        exchange_step(Fraction(3), Fraction(0), Fraction(1))
    # works on symbolic values too
    f, o, p = symbolic_tail_values()
    assert exchange_step(f, o, p) == rf("(g_f^2 - g_p^2)/g_o")


def test_iterate_exchange_symbolic_collapse():
    # the collapse itself is the registry check laurent-denominator
    f, o, p = symbolic_tail_values()
    with pytest.raises(ValueError):
        iterate_exchange(f, o, p, 0)


def _rand_ratfunc(rng):
    def poly():
        p = Poly.zero(TAIL_VARS)
        for _ in range(rng.randint(1, 2)):
            exps = tuple(rng.randint(0, 1) for _ in TAIL_VARS)
            p = p + Poly.monomial(TAIL_VARS, exps, rng.randint(-3, 3))
        return p
    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return RatFunc(num, den)


def _closed_form_at(n, f, o, psq):
    """tail_poly(n)(f, o, p) from psq = p*p, one RatFunc term at a time."""
    return sum((c * f ** ef * o ** eo * psq ** (ep // 2)
                for (ef, eo, ep), c in tail_poly(n).terms.items()),
               RatFunc.zero(TAIL_VARS))


def test_two_evaluation_routes_agree_on_random_values():
    # filling_poly runs the linear recurrence; the closed form is summed
    # term by term
    rng = random.Random(7)
    done = 0
    while done < 6:
        f, o = _rand_ratfunc(rng), _rand_ratfunc(rng)
        p = _rand_ratfunc(rng)
        if f.is_zero() or o.is_zero():
            continue
        n = rng.randint(1, 4)
        scale = f ** (n - 1) * o ** n
        assert filling_poly(TailEntry(f, o, p), n) \
            == _closed_form_at(n, f, o, p * p) - scale * p
        done += 1


def test_tail_context_validation():
    f, o, p = symbolic_tail_values()
    entry = TailEntry(f, o, p)
    with pytest.raises(ValueError):
        filling_poly(entry, 0)
    with pytest.raises(TypeError):
        tail_collapse(entry, 1.5)
    with pytest.raises(TypeError):
        TailEntry(Poly.one(TAIL_VARS), o, p)
    with pytest.raises(TypeError):
        TailEntry(f, o, "g_p")
    mixed = QuadExt(rf("1"), rf("1"), rf("g_f"))
    with pytest.raises(ValueError):
        TailEntry(f, o, mixed)


def test_tail_collapse_matches_iterated_exchange():
    f, o, p = symbolic_tail_values()
    entry = TailEntry(f, o, p)
    for n in range(1, 9):
        assert tail_collapse(entry, n) == iterate_exchange(f, o, p, n)


def _pvars_entry():
    """An entry whose f denominator holds all of FAMILY_BINOMIALS."""
    L, M = (RatFunc.variable(PVARS, v) for v in ("L", "M"))
    den = parse_ratfunc(" * ".join("(%s)" % t for t in FAMILY_BINOMIALS),
                        PVARS)
    return TailEntry(L / den, M, RatFunc.one(PVARS))


def _repeated_power(b, e):
    """b^e as e repeated products, independent of Poly.__pow__."""
    out = Poly.one(b.vars)
    for _ in range(e):
        out = out * b
    return out


def test_expand_is_the_product_of_base_powers():
    entry = _pvars_entry()
    factors = entry.factors
    assert sorted(map(str, factors)) == sorted(FAMILY_BINOMIALS)
    # the pairs are found by multiplying, and include (M-1)(M+1) and
    # (L-M)(L+M)
    paired = {str(prod) for _, _, prod in entry.pairs}
    assert {"M^2 - 1", "L^2 - M^2"} <= paired
    # the one exponent vector holds the powers of L and M, then one power
    # per factor
    nb = len(factors)
    for e in (0, 1, 2, 37, 102):
        for i, b in enumerate(factors):
            exps = tuple(e if j == i else 0 for j in range(nb))
            assert entry.expand((0, 0) + exps) == _repeated_power(b, e)
        for i, j, prod in entry.pairs:
            for ei, ej in ((e, e), (e, 2), (1, e)):
                exps = tuple(ei if k == i else ej if k == j else 0
                             for k in range(nb))
                want = (_repeated_power(factors[i], ei)
                        * _repeated_power(factors[j], ej))
                assert entry.expand((0, 0) + exps) == want
    exps = (3, 2, 5, 4, 4, 1, 2, 0)
    want = Poly.monomial(PVARS, (2, 7))
    for b, e in zip(factors, exps):
        want = want * _repeated_power(b, e)
    assert entry.expand((2, 7) + exps) == want


@pytest.mark.parametrize("f,o,p", [
    ("1/(L + M + 1)", "M", "L"),
    ("(L - 2)/((L + M + 1)*(M - 1)^2)", "(M + 3)/(L*(L + M + 1)^2)",
     "L/(2*L - 3*M^2)"),
    ("L/(3*L + 3*M)", "(L - M)/(L^2 - M^3)^2", "M/(L + M + 1)")])
def test_factor_outside_the_base_keeps_the_value(f, o, p):
    # a denominator factor that is not a binomial becomes one lumped
    # factor, and the tail gives the dividing exchange's value
    f, o, p = (parse_ratfunc(t, PVARS) for t in (f, o, p))
    entry = TailEntry(f, o, p)
    # a power of it met later is carried as a power of the same factor
    lumped = [b for b in entry.factors if len(b) > 2]
    assert lumped == [parse_ratfunc("L + M + 1", PVARS).num]
    for n in (1, 2, 3):
        want = (iterate_exchange(f, o, p, n) - p) * f ** (n - 1) * o ** n
        assert filling_poly(entry, n) == want


def test_entry_takes_its_values_as_given():
    # values are reduced when an assignment stores them (Assignment.bind);
    # an entry built from unreduced ones keeps them, carries the factor
    # they share, and still matches the dividing exchange
    L, M = (Poly.variable(PVARS, v) for v in PVARS)
    f = RatFunc((L - 1) * (L + 2), (L - 1) * M)
    o = RatFunc(M + 2, L)
    assert f.den == (L - 1) * M
    root = QuadExt.pure_root(RatFunc((M + 1) * L, (M + 1) * M), RatFunc(L + M))
    for p in (RatFunc(L + 3, M + 1), root):
        entry = TailEntry(f, o, p)
        assert entry.f is f and entry.o is o and entry.p is p
        assert L - 1 in entry.factors
        for n in (1, 2, 3):
            want = (iterate_exchange(f, o, p, n) - p) * f ** (n - 1) * o ** n
            assert filling_poly(entry, n) == want


def test_filling_poly_rational_p():
    f, o, p = symbolic_tail_values()
    got = filling_poly(TailEntry(f, o, p), 2)
    want = RatFunc(tail_poly(2)) - rf("g_f * g_o^2 * g_p")
    assert got == want


@pytest.mark.parametrize("n", [3, 4])
def test_linear_tail_passes_through_a_zero_value(n):
    # with p = f the exchange sequence o, f, 0, -f, -o passes through 0,
    # which the exchange would divide by next; the linear recurrence never
    # divides and must still match the closed form
    for f, o in (symbolic_tail_values()[:2],
                 (rf("(g_f + 1)/g_p"), rf("g_o/(g_f - 2*g_p)"))):
        assert tail_collapse(TailEntry(f, o, f), 1).is_zero()
        assert tail_collapse(TailEntry(f, o, f), 2) == -f
        got = filling_poly(TailEntry(f, o, f), n)
        # tail_poly(n)(f, o, f), expanded with g_p's exponents moved onto g_f
        h = Poly.zero(TAIL_VARS)
        for (ef, eo, ep), c in tail_poly(n).terms.items():
            h = h + Poly.monomial(TAIL_VARS, (ef + ep, eo, 0), c)
        head = sum((c * f ** ef * o ** eo for (ef, eo, _), c in h.terms.items()),
                   RatFunc.zero(TAIL_VARS))
        assert got == head - f ** (n - 1) * o ** n * f


@pytest.mark.parametrize("f,o", [
    ("0", "g_o"), ("g_f", "0"), ("0", "(g_o + 1)/g_p"),
    ("(g_f - g_p)/g_o", "0")])
def test_filling_poly_with_vanishing_f_or_o(f, o):
    # K = (f^2 + o^2 - p^2)/(f*o) is undefined, so the tail is refused
    # before filling_poly can run
    for p in (rf("g_p"), QuadExt.pure_root(rf("1"), rf("g_p"))):
        with pytest.raises(ValueError, match="nonzero"):
            TailEntry(rf(f), rf(o), p)


def test_filling_poly_pure_root_p():
    f, o, _ = symbolic_tail_values()
    rad = rf("g_p")
    p = QuadExt.pure_root(rf("1"), rad)
    for n in (1, 2, 3, 4):
        got = filling_poly(TailEntry(f, o, p), n)
        assert isinstance(got, QuadExt)
        assert got.rad == rad
        # rational part: the tail numerator with p^2 = rad; root part:
        # -f^(n-1)*o^n
        assert got.b == -(f ** (n - 1) * o ** n)
        assert got.a == _closed_form_at(n, f, o, rad)
        if n == 2:
            assert got.b == rf("-g_f * g_o^2")
            assert got.a == (rf("g_f^4") - 2 * rf("g_f^2") * rad
                             - rf("g_o^2") * rad + rad * rad)
        # squaring out the root reproduces the conjugate product
        cp = got.conj_product()
        assert cp == got.a * got.a - got.b * got.b * rad


def test_filling_poly_rational_quadext_p():
    # a QuadExt p must be a pure root; a rational one is passed as RatFunc
    f, o, _ = symbolic_tail_values()
    rad = rf("g_p")
    for p in (QuadExt.rational(rf("g_p"), rad),
              QuadExt.rational(RatFunc.zero(TAIL_VARS), rad)):
        with pytest.raises(ValueError, match="pure root"):
            TailEntry(f, o, p)


def test_h_recurrence():
    # the identity itself is the registry check h-product-recurrence
    with pytest.raises(ValueError):
        h_recurrence_check(3)
    # its products are homogeneous, so they multiply in (g_f, g_o) alone,
    # and from n = 5 on they pack there
    assert all(h_recurrence_check(n) for n in range(4, 25))


@pytest.mark.parametrize("var", TAIL_VARS)
def test_h_recurrence_fails_with_the_cross_term_times_a_variable(
        monkeypatch, var):
    # identity_holds gets (cross, cross) on the left; with cross times a
    # variable the identity must fail
    real = hn.identity_holds
    v = Poly.variable(TAIL_VARS, var)

    def scaled(lhs, rhs):
        (tails, (cross, _)) = lhs
        return real([tails, (cross * v, cross * v)], rhs)

    monkeypatch.setattr(hn, "identity_holds", scaled)
    assert not any(h_recurrence_check(n) for n in range(4, 20))


def test_difference_lifts_both_sides_to_the_common_denominator():
    # the recurrence's differences always have the larger exponents on the
    # left, so each order is checked here directly
    f, o = (parse_ratfunc(t, PVARS) for t in ("3/(M - 1)", "L/(2*(L - M)^2*M^3)"))
    entry = TailEntry(f, o, RatFunc.one(PVARS))
    ff, fo = entry.factored[:2]
    assert entry._ratfunc(entry._sub(ff, fo)) == f - o
    assert entry._ratfunc(entry._sub(fo, ff)) == o - f
