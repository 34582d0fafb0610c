"""Rational functions as normalized fractions of sparse polynomials.

A RatFunc keeps a numerator and denominator Poly over the same variable
table.  Normalization is deliberately light: common monomial factors and
rational content are stripped, coefficients are scaled to be integers with
no common factor across the pair, and the denominator's leading
coefficient is made positive.  No full multivariate gcd is computed, so a
common non-monomial factor can survive; equality therefore always goes
through cross-multiplication.

Multiplication and division try exact cross-cancellation through
poly_divides first, over all four numerator/denominator pairs of the two
operands: each denominator against the other numerator, and each
numerator against the other denominator.  So dividing by a value cancels
its numerator into the dividend's numerator and its denominator into the
dividend's denominator, instead of multiplying the latter into the
numerator.  That keeps the dividing exchange (hn.iterate_exchange, which
the checks compare the tail against) fully reduced, where the
denominators must stay plain monomials.  The tail itself carries its
denominators factored (hn.TailEntry) and uses RatFunc only for K and its
outputs.  Sums are not cancelled this way, so reduced() cancels the
binomial factors of the denominator (newton.edge_binomials), each as
often as it divides both parts.  substitute_basis maps the exponent
columns of the basis change L -> +-L*M^e and keeps the normal form it is
given, fixing only the shared power of M and the denominator's leading
sign.

poly_divides has one route for every divisor, binomials such as L - M
and the factors of the cross-cancellation alike: sparse division of
packed monomial keys, with one remainder walk, a dict merged with a
max-heap.  It is sound because in an integral domain the leading term
of a product is the product of the leading terms and degrees add per
variable, so any failed step proves non-divisibility.
"""

import ast
import re
from fractions import Fraction
from itertools import repeat
from math import comb, prod
from operator import add, and_, itemgetter, mul, sub, truediv

from .newton import edge_binomials
from .poly import Poly, divide_out, exact_coef, exact_int, poly_divides


class PoleError(ArithmeticError):
    """Raised when evaluating a rational function where its denominator vanishes."""


class RatFunc:
    """Quotient of two Polys over a shared variable table."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if not isinstance(num, Poly):
            raise TypeError("numerator must be a Poly")
        if den is None:
            den = Poly.one(num.vars)
        if not isinstance(den, Poly):
            raise TypeError("denominator must be a Poly")
        num._check_same_vars(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        # copy and pickle would otherwise restore the slots via __setattr__
        return RatFunc, (self.num, self.den, True)

    # --- constructors ---------------------------------------------------

    @classmethod
    def const(cls, vars, value):
        value = Fraction(exact_coef(value))
        return cls(Poly.const(vars, value.numerator),
                   Poly.const(vars, value.denominator))

    @classmethod
    def zero(cls, vars):
        return cls(Poly.zero(vars))

    @classmethod
    def one(cls, vars):
        return cls(Poly.one(vars))

    @classmethod
    def variable(cls, vars, name):
        return cls(Poly.variable(vars, name))

    # --- views ------------------------------------------------------------

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    # --- promotion --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            return RatFunc.const(self.vars, other)
        return None

    # --- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num is other.num and self.den is other.den:
            return True
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        ok, q = poly_divides(self.den, other.den)
        if ok:
            return RatFunc(self.num * q + other.num, other.den)
        ok, q = poly_divides(other.den, self.den)
        if ok:
            return RatFunc(self.num + other.num * q, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

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
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if n1.is_zero() or n2.is_zero():
            return RatFunc.zero(self.vars)
        # cross-cancel all four pairs before multiplying; this is what keeps
        # chained exchanges reduced instead of piling up matched factors
        one = Poly.one(self.vars)
        if not d2.is_constant():
            ok, q = poly_divides(d2, n1)
            if ok:
                n1, d2 = q, one
        if not d1.is_constant():
            ok, q = poly_divides(d1, n2)
            if ok:
                n2, d1 = q, one
        if not n2.is_constant() and not d1.is_constant():
            ok, q = poly_divides(n2, d1)
            if ok:
                d1, n2 = q, one
        if not n1.is_constant() and not d2.is_constant():
            ok, q = poly_divides(n1, d2)
            if ok:
                d2, n1 = q, one
        return RatFunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.num.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return RatFunc(self.den, self.num)

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

    def __pow__(self, n):
        if exact_int(n) < 0:
            return self.reciprocal() ** (-n)
        return RatFunc(self.num ** n, self.den ** n, _normalized=True)

    # --- extra reduction ---------------------------------------------------

    def reduced(self):
        """Cancel every binomial factor of the denominator as often as it
        divides both parts.

        Normalization does no multivariate gcd, so a sum can keep such a
        common factor.  Each edge binomial b of the denominator
        (newton.edge_binomials) divides it at most g times, so the
        numerator is divided first, at most g times; only when that gives
        e > 0 is the denominator divided, at most e times, and if it held
        only k < e, b^(e-k) goes back into the numerator.  A denominator
        factor the numerator lacks costs one failed division, not a full
        strip.  Value-preserving in all cases; self when nothing cancels.
        """
        num, den = self.num, self.den
        for b, g in edge_binomials(den):
            e, q = divide_out(b, num, limit=g)
            if e:
                k, den = divide_out(b, den, limit=e)
                if k:
                    num = q if k == e else q * b ** (e - k)
        if den is self.den:
            return self
        return RatFunc(num, den)

    # --- evaluation ----------------------------------------------------------

    def evaluate(self, point):
        """Exact Fraction value at a point dict; PoleError on a vanishing den."""
        d = self.den.eval_at(point)
        if d == 0:
            raise PoleError("denominator vanishes at %r" % (point,))
        return self.num.eval_at(point) / d

    # --- rendering --------------------------------------------------------

    def __str__(self):
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFunc(%s)" % (self,)


def _normalize(num, den):
    """Shared-monomial strip, content normalization, den sign convention."""
    if num.is_zero():
        return num, Poly.one(num.vars)
    mn = num.monomial_content()
    md = den.monomial_content()
    shift = tuple(min(a, b) for a, b in zip(mn, md))
    if any(shift):
        num = num.shift_down(shift)
        den = den.shift_down(shift)
    cn, pn = num.primitive()
    cd, pd = den.primitive()
    ratio = cn / cd
    num = pn if ratio.numerator == 1 else pn * ratio.numerator
    den = pd if ratio.denominator == 1 else pd * ratio.denominator
    _, lead = den.leading_term()
    if lead < 0:
        num, den = -num, -den
    return num, den


# --- basis change -----------------------------------------------------------


def substitute_basis(rf, sign, e):
    """Apply the monomial basis change  L -> sign * L * M**e.

    sign must be +1 or -1 and e an int, which may be negative; a float
    or a bool is a TypeError.  Negative powers of M
    produced by the substitution are cleared by the smallest value-preserving
    power of M applied to numerator and denominator together.

    The map works a column of exponents at a time.  It is one-to-one on
    monomials and only flips coefficient signs, so rf's normal form
    survives it but for two things, which are fixed here: the power of M
    the two sides share, and the sign of the denominator's leading term.
    """
    exact_int(e)
    if exact_int(sign) not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    vars = rf.vars
    li, mi = vars.index("L"), vars.index("M")
    sides = []
    for p in (rf.num, rf.den):
        cols = [list(map(itemgetter(i), p.terms)) for i in range(len(vars))]
        cols[mi] = list(map(add, cols[mi], map(mul, cols[li], repeat(e))))
        sides.append((p, cols))
    # the lowest power of M on either side becomes M^0: a negative one
    # lifts, a positive one is the shared monomial normalization strips
    low = min(min(cols[mi]) for _, cols in sides if cols[mi])
    out = []
    for p, cols in sides:
        if low:
            cols[mi] = map(sub, cols[mi], repeat(low))
        coefs = p.terms.values()
        if sign == -1:
            coefs = map(mul, coefs, map((1, -1).__getitem__,
                                        map(and_, cols[li], repeat(1))))
        out.append(Poly._raw(vars, dict(zip(zip(*cols), coefs))))
    num, den = out
    if den.leading_term()[1] < 0:
        num, den = -num, -den
    return RatFunc(num, den, _normalized=True)


# --- parsing -----------------------------------------------------------------
#
# Every text the package reads (the transcribed fixtures in factored form,
# polynomial constants, test expressions) is Python arithmetic with '^' for
# powers.  It may use only ASCII letters, digits, '_', '+ - * / ^ ( )' and
# whitespace.  '^' becomes '**', the top-level sum is cut at the +/- that
# follow an operand outside parentheses, and ast.parse reads each term, so
# a sum's length costs no parser depth.  The walk accepts only + - * /, **
# by a decimal int or its negation, unary minus, names from the table and
# decimal ints; anything else is an error.  A term is read with Poly
# arithmetic and becomes a RatFunc only at a '/' or a negative power, so a
# polynomial term builds and normalizes no RatFunc.

# The largest degree a power of a base other than a unit monomial (such as
# L, M^3 or 1/L) may reach, a constant base counting as degree 1: text such
# as (L + 1)^99999 or ((L + 1)^30)^40 is refused before it is computed.  A
# unit monomial's power is one term at any exponent.  The data files and
# twist seeds take other bases to degree 17 at most, (L - M)^-17 in
# pretzel238_values.txt, and unit monomials to 30; the tests read unit
# monomials up to degree 59.
MAX_POWER_DEGREE = 1000
# The most terms such a power may hold: as many as (L + 1)^MAX_POWER_DEGREE
# holds.  It is estimated before the power is computed as the smaller of
# two upper bounds: the product over the variables of |k| times the base's
# degree in that variable, plus one, and the number of monomials of degree
# |k| in t unknowns, C(|k| + t - 1, t - 1), for a base of t terms.  In two
# variables that admits (L + M + 1)^43 (990 terms) and refuses
# (L + M + 1)^44 (1,035); a binomial's power holds |k| + 1, so
# (L*M + 1)^500 is read, and the data files' largest power, (L - M)^-17,
# is estimated at 18.
MAX_POWER_TERMS = MAX_POWER_DEGREE + 1

_ALPHABET = re.compile(r"[A-Za-z0-9_+\-*/^() ]*")
_MARKS = re.compile(r"[()]|(?<=[\w)]) ?([+-]) ?")
_BINOPS = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: truediv}


def _terms(text):
    """Yield (add or sub, text) for each term of the top-level sum."""
    depth = start = 0
    op = add
    for m in _MARKS.finditer(text):
        if m[1] is None:            # a parenthesis
            depth += 1 if m[0] == "(" else -1
        elif not depth:
            yield op, text[start:m.start()]
            op, start = (add if m[1] == "+" else sub), m.end()
    yield op, text[start:]


def _power(base, k, term):
    """base ** k for a Poly or RatFunc base, refused unless base is a unit
    monomial or the power stays within MAX_POWER_DEGREE (a constant counts
    as degree 1) and MAX_POWER_TERMS.  A negative k gives a RatFunc."""
    sides = (base.num, base.den) if type(base) is RatFunc else (base,)
    coefs = {abs(c) for p in sides for c in p.terms.values()}
    if any(len(p.terms) != 1 for p in sides) or coefs != {1}:
        degree = max([1, *(sum(e) for p in sides for e in p.terms)]) * abs(k)
        if degree > MAX_POWER_DEGREE:
            raise ValueError("power of degree %d above %d in %r"
                             % (degree, MAX_POWER_DEGREE, term))
        t = max(1, *map(len, sides))        # a zero base counts as 1
        size = min(prod(abs(k) * max(d) + 1
                        for d in zip(*map(Poly.max_degrees, sides))),
                   comb(abs(k) + t - 1, t - 1))
        if size > MAX_POWER_TERMS:
            raise ValueError("power of up to %d terms above %d in %r"
                             % (size, MAX_POWER_TERMS, term))
    return _ratfunc(base) ** k if k < 0 else base ** k


def _read_term(term, vars):
    """The value of one term: a Poly, or a RatFunc once a '/' or a
    negative power has made one."""
    def decimal(node):
        return (type(node) is ast.Constant
                and term[node.col_offset:node.end_col_offset].isdigit())

    def exponent(node):
        neg = type(node) is ast.UnaryOp and type(node.op) is ast.USub
        if not decimal(node.operand if neg else node):
            raise ValueError("bad exponent in %r" % (term,))
        return -node.operand.value if neg else node.value

    def walk(node):
        # a chain of + - * / is walked down its left side in a loop: its
        # length costs no recursion, and deep recursion is slow
        chain = []
        while type(node) is ast.BinOp and type(node.op) in _BINOPS:
            chain.append(node)
            node = node.left
        kind = type(node)
        if kind is ast.BinOp and type(node.op) is ast.Pow:
            value = _power(walk(node.left), exponent(node.right), term)
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            value = -walk(node.operand)
        elif kind is ast.Name:
            value = Poly.variable(vars, node.id)
        elif decimal(node):
            value = Poly.const(vars, node.value)
        else:
            raise ValueError("unsupported %s in %r" % (kind.__name__, term))
        for link in reversed(chain):
            op, right = _BINOPS[type(link.op)], walk(link.right)
            # both sides become RatFunc together, so a quotient is built as
            # it would be from two RatFunc operands
            if op is truediv or RatFunc in (type(value), type(right)):
                value, right = _ratfunc(value), _ratfunc(right)
            value = op(value, right)
        return value

    return walk(ast.parse(term, mode="eval").body)


def _ratfunc(value):
    return value if type(value) is RatFunc else RatFunc(value)


def _sum(pieces, vars):
    """The sum of (add or sub, Poly or RatFunc) pieces.

    A polynomial, or a quotient over a constant, is summed into one term
    map; every other quotient is added in order, and the map is added once
    at the end, so a long polynomial costs one normalization.
    """
    total, quotients = {}, RatFunc.zero(vars)
    get = total.get
    for op, value in pieces:
        if type(value) is RatFunc:
            if not value.den.is_constant():
                quotients = op(quotients, value)
                continue
            value = value.num * Fraction(1, value.den.constant_value())
        for e, c in value.terms.items():
            c = op(get(e, 0), c)
            if c:
                total[e] = c
            else:
                del total[e]
    return quotients + RatFunc(Poly(vars, total))


def parse_ratfunc(text, vars):
    """Parse an expression (negative powers and '/' allowed) into a RatFunc."""
    vars = tuple(vars)
    clean = " ".join(text.split())
    if not _ALPHABET.fullmatch(clean) or "**" in clean:
        raise ValueError("unexpected character in %r" % (text,))
    try:
        return _sum(((op, _read_term(term, vars))
                     for op, term in _terms(clean.replace("^", "**"))), vars)
    except ZeroDivisionError:
        raise ValueError("division by zero in %r" % (text,)) from None
    except (SyntaxError, RecursionError, MemoryError):
        raise ValueError("cannot parse %r" % (text,)) from None


def parse_poly(text, vars):
    """Parse an expression that must reduce to a polynomial into a Poly."""
    rf = parse_ratfunc(text, vars)
    if not rf.den.is_constant():
        raise ValueError("expression %r is not a polynomial" % (text,))
    c = rf.den.constant_value()
    if c == 1:
        return rf.num
    return rf.num * Fraction(1, c)
