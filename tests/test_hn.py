import random
from fractions import Fraction

import pytest

from fillpoly.hn import (TailContext, _eval_tail_by_exchange, _eval_tail_poly,
                         exchange_step, filling_poly, h_recurrence_check,
                         iterate_exchange, symbolic_tail_values, tail_collapse,
                         tail_poly)
from fillpoly.matchings import TAIL_VARS
from fillpoly.poly import Poly
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


def test_two_evaluation_routes_agree_on_random_values():
    rng = random.Random(7)
    done = 0
    while done < 6:
        f, o = _rand_ratfunc(rng), _rand_ratfunc(rng)
        p = _rand_ratfunc(rng)
        if f.is_zero() or o.is_zero():
            continue
        n = rng.randint(1, 3)
        try:
            by_exchange = _eval_tail_by_exchange(n, f, o, p * p)
        except ZeroDivisionError:
            continue
        assert by_exchange == _eval_tail_poly(n, f, o, p * p)
        done += 1


def test_tail_context_validation():
    f, o, p = symbolic_tail_values()
    with pytest.raises(ValueError):
        TailContext(f, o, p, 0)
    with pytest.raises(TypeError):
        TailContext(Poly.one(TAIL_VARS), o, p, 2)
    with pytest.raises(TypeError):
        TailContext(f, o, "g_p", 2)
    mixed = QuadExt(rf("1"), rf("1"), rf("g_f"))
    with pytest.raises(ValueError):
        TailContext(f, o, mixed, 2)


def test_tail_collapse_matches_iterated_exchange():
    f, o, p = symbolic_tail_values()
    for n in (1, 2, 3):
        ctx = TailContext(f, o, p, n)
        assert tail_collapse(ctx) == iterate_exchange(f, o, p, n)


def test_filling_poly_rational_p():
    f, o, p = symbolic_tail_values()
    ctx = TailContext(f, o, p, 2)
    got = filling_poly(ctx)
    want = RatFunc(tail_poly(2)) - rf("g_f * g_o^2 * g_p")
    assert got == want


@pytest.mark.parametrize("n", [3, 4])
def test_filling_poly_falls_back_to_closed_form(n):
    # with p = f the second exchange gives 0 and the third divides by it,
    # so filling_poly must take the closed-form route
    for f, o in (symbolic_tail_values()[:2],
                 (rf("(g_f + 1)/g_p"), rf("g_o/(g_f - 2*g_p)"))):
        with pytest.raises(ZeroDivisionError):
            _eval_tail_by_exchange(n, f, o, f * f)
        got = filling_poly(TailContext(f, o, f, n))
        # tail_poly(n)(f, o, f), expanded with g_p's exponents moved onto g_f
        h = Poly.zero(TAIL_VARS)
        for (ef, eo, ep), c in tail_poly(n).terms.items():
            h = h + Poly.monomial(TAIL_VARS, (ef + ep, eo, 0), c)
        head = sum((c * f ** ef * o ** eo for (ef, eo, _), c in h.terms.items()),
                   RatFunc.zero(TAIL_VARS))
        assert got == head - f ** (n - 1) * o ** n * f


def test_filling_poly_rejects_flipped_tip():
    f, o, p = symbolic_tail_values()
    ctx = TailContext(f, o, p, 2, tip_matches_tail=False)
    with pytest.raises(ValueError):
        filling_poly(ctx)


def test_filling_poly_pure_root_p():
    f, o, _ = symbolic_tail_values()
    rad = rf("g_p")
    p = QuadExt.pure_root(rf("1"), rad)
    ctx = TailContext(f, o, p, 2)
    got = filling_poly(ctx)
    assert isinstance(got, QuadExt)
    assert got.rad == rad
    # rational part: the tail numerator with p^2 = rad; root part: -f*o^2
    assert got.b == rf("-g_f * g_o^2")
    want_a = (rf("g_f^4") - 2 * rf("g_f^2") * rad - rf("g_o^2") * rad
              + rad * rad)
    assert got.a == want_a
    # squaring out the root reproduces the conjugate product
    cp = got.conj_product()
    assert cp == got.a * got.a - got.b * got.b * rad


def test_filling_poly_rational_quadext_p():
    f, o, _ = symbolic_tail_values()
    rad = rf("g_p")
    p = QuadExt.rational(rf("g_p"), rad)
    ctx = TailContext(f, o, p, 2)
    got = filling_poly(ctx)
    want = filling_poly(TailContext(f, o, rf("g_p"), 2))
    assert got == want


def test_h_recurrence():
    # the identity itself is the registry check h-product-recurrence
    with pytest.raises(ValueError):
        h_recurrence_check(3)
