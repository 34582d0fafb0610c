"""Values of the form a + b*sqrt(R) over the rational-function field.

One pipeline run works inside a single quadratic extension: every QuadExt
it produces shares the same radicand R (a RatFunc).  Mixing two values with
different radicands is an error, not a silent promotion.  Rational values
embed with b == 0, and arithmetic with plain RatFunc, Poly, int or
Fraction operands promotes them on the fly.
"""

from fractions import Fraction

from .poly import Poly
from .ratfunc import RatFunc


class QuadExt:
    """a + b*sqrt(rad), with a, b and rad all RatFunc over one variable table."""

    __slots__ = ("a", "b", "rad")

    def __init__(self, a, b, rad):
        if not isinstance(rad, RatFunc):
            raise TypeError("radicand must be a RatFunc")
        if rad.is_zero():
            raise ValueError("radicand must be nonzero")
        a = _to_ratfunc(a, rad.vars)
        b = _to_ratfunc(b, rad.vars)
        if a.vars != rad.vars or b.vars != rad.vars:
            raise ValueError("components and radicand use different variable tables")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):
        # copy and pickle would otherwise restore the slots via __setattr__
        return QuadExt, (self.a, self.b, self.rad)

    # --- constructors -----------------------------------------------------

    @classmethod
    def rational(cls, value, rad):
        return cls(value, RatFunc.zero(rad.vars), rad)

    @classmethod
    def pure_root(cls, b, rad):
        return cls(RatFunc.zero(rad.vars), b, rad)

    # --- views --------------------------------------------------------------

    @property
    def vars(self):
        return self.rad.vars

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def is_rational(self):
        return self.b.is_zero()

    def is_pure_root(self):
        return self.a.is_zero() and not self.b.is_zero()

    def _check_rad(self, other):
        if self.rad != other.rad:
            raise ValueError("mixing values from different quadratic extensions: "
                             "sqrt(%s) vs sqrt(%s)" % (self.rad, other.rad))

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            self._check_rad(other)
            return other
        if (isinstance(other, (int, Fraction, Poly, RatFunc))
                and type(other) is not bool):
            return QuadExt(_to_ratfunc(other, self.vars),
                           RatFunc.zero(self.vars), self.rad)
        return None

    # --- arithmetic -----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    __hash__ = None

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.rad)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.a + other.a, self.b + other.b, self.rad)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuadExt(a1 * a2 + b1 * b2 * self.rad,
                       a1 * b2 + b1 * a2,
                       self.rad)

    __rmul__ = __mul__

    def conj_product(self):
        """Product with the conjugate: a^2 - b^2 * rad, as a plain RatFunc.

        The squares are powers, not products: RatFunc.__mul__ would try
        to cross-cancel a value against itself, which cannot succeed on a
        value in lowest terms.
        """
        return self.a ** 2 - self.b ** 2 * self.rad

    def reciprocal(self):
        n = self.conj_product()
        if n.is_zero():
            raise ZeroDivisionError("reciprocal of a zero-norm value")
        return QuadExt(self.a / n, -self.b / n, self.rad)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    # --- rendering ---------------------------------------------------------

    def __str__(self):
        return "%s + %s*sqrt(%s)" % (self.a, self.b, self.rad)

    def __repr__(self):
        return "QuadExt(%s)" % (self,)


def _to_ratfunc(value, vars):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, Poly):
        return RatFunc(value)
    if isinstance(value, (int, Fraction)):
        return RatFunc.const(vars, value)
    raise TypeError("cannot treat %r as a rational function" % (value,))
