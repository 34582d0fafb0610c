import copy
import pickle
from fractions import Fraction

import pytest

from fillpoly.checks import norm_multiplicative
from fillpoly.quadext import QuadExt
from fillpoly.ratfunc import RatFunc, parse_ratfunc

LM = ("L", "M")


def rf(text):
    return parse_ratfunc(text, LM)


RAD = rf("1 - L")


def qe(a, b, rad=RAD):
    return QuadExt(rf(a) if isinstance(a, str) else a,
                   rf(b) if isinstance(b, str) else b, rad)


def test_constructor_and_predicates():
    v = qe("L", "M")
    assert v.a == rf("L") and v.b == rf("M") and v.rad == RAD
    assert not v.is_rational() and not v.is_pure_root() and not v.is_zero()
    assert QuadExt.rational(rf("L"), RAD).is_rational()
    assert QuadExt.pure_root(rf("M"), RAD).is_pure_root()
    assert qe(0, 0).is_zero()
    with pytest.raises(ValueError):
        QuadExt(rf("L"), rf("M"), RatFunc.zero(LM))
    with pytest.raises(TypeError):
        QuadExt(rf("L"), rf("M"), "1 - L")


def test_promotion_of_plain_values():
    v = qe("L", "0")
    assert v == rf("L")
    assert v + 1 == qe("L + 1", "0")
    assert Fraction(1, 2) * qe("0", "2") == qe("0", "1")


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        qe("L", "1") + qe("L", "1", rad=rf("M"))
    with pytest.raises(ValueError):
        qe("L", "1") == qe("L", "1", rad=rf("M"))


def test_arithmetic():
    u = qe("1", "1")
    v = qe("1", "-1")
    # (1 + r)(1 - r) = 1 - rad
    assert u * v == qe("L", "0")
    assert u + v == qe("2", "0")
    assert u - u == qe("0", "0")
    assert -u == qe("-1", "-1")
    # squaring brings the radicand down to the rational part
    w = qe("M", "L")
    assert w * w == qe("M^2 + L^2*(1 - L)", "2*L*M")


def test_conjugate_and_conj_product():
    v = qe("M", "L + 1")
    cp = v.conj_product()
    assert isinstance(cp, RatFunc)
    assert cp == rf("M^2 - (L + 1)^2 * (1 - L)")


def test_conj_product_is_multiplicative():
    u = qe("L", "M - 1")
    v = qe("M + 2", "L^2")
    assert norm_multiplicative(u, v) is None


def test_reciprocal_and_division():
    v = qe("1", "1")
    r = v.reciprocal()
    assert v * r == qe("1", "0")
    assert (qe("L", "M") / v) * v == qe("L", "M")
    with pytest.raises(ZeroDivisionError):
        qe("0", "0").reciprocal()


def test_str():
    v = qe("L", "M")
    assert str(v) == "(L)/(1) + (M)/(1)*sqrt((-L + 1)/(1))"


def test_immutability():
    v = qe("L", "M")
    with pytest.raises(AttributeError):
        v.a = rf("1")


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(copier):
    v = qe("L/(M + 1)", "3/2*M^2 - L")
    for value in (v.b.num, v.a, v):
        got = copier(value)
        assert type(got) is type(value) and got == value
    assert (got.a.num, got.a.den, got.rad) == (v.a.num, v.a.den, v.rad)
    with pytest.raises(AttributeError):
        got.a = v.b
