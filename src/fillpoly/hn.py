"""The collapsed tail of a walk: closed form, exchange iteration, filling.

Repeatedly exchanging the oldest slope value for a new one through
    new = (f*f - p*p) / o
collapses a run of same-direction steps into a single rational function.
Its numerator has a closed binomial form (tail_poly below, a polynomial in
g_f, g_o, g_p equal to the weighted matching sum of the doubled ladder)
and its denominator is the exact monomial g_f^(n-1) * g_o^n.

The exchange x+ * x- = x^2 - p^2 is a rank-2 cluster exchange, so
K = (x+ + x-)/x stays (f^2 + o^2 - p^2)/(f*o) along the run, the linear
recurrence of friezes.  A TailEntry takes f, o and p as given (a
family's are reduced when its assignment stores them), divides once to
get K, and rejects a vanishing f or o, where K is undefined; for a
positive int n, tail_collapse(entry, n) steps x+ = K*x - x- n times with
no further division, and filling_poly(entry, n) turns the collapsed run
plus the final folding condition into the one polynomial whose vanishing
characterizes the filled tail.  tail_poly stays the closed form the
checks compare against, and iterate_exchange keeps the dividing exchange
as the independent route of the numeric pipeline and the
Laurent-denominator check.

After K the recurrence never divides, so every tail value is a
polynomial in K, f and o, and the filling expression one in those and p:
each denominator is a product of the denominators of those four entry
values.  The tail therefore carries each value as a numerator over one
exponent vector: the powers of the variables, then one power per factor,
for num / (monomial * prod factor_i^e_i), with any constant of the
denominator folded into num.  The entry factors the four denominators
once into binomials (newton.binomial_factors), a product adds exponent
vectors, a difference takes their elementwise maximum and multiplies
each numerator by its cofactor, and each result's denominator is
expanded once, factor pairs such as (M - 1)(M + 1) as one binomial
power (Poly.__pow__).  The products of factored values cancel nothing,
so a result is in lowest terms exactly when that common multiple is the
true denominator; for the families it is (the lowest-terms check
certifies every output).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import NamedTuple

from .matchings import TAIL_VARS, count_subsets
from .newton import binomial_factors
from .poly import Poly, divide_out, identity_holds
from .quadext import QuadExt
from .ratfunc import RatFunc

# Largest n tail_poly builds.  tail_poly(n) has n(n+1)/2 + 1 terms, and
# its text grows about as n^3: 0.02 s and 261 kB at n = 100, against 17 s
# and 157 MB at n = 1000 (2-vCPU Xeon).  h_recurrence_check reaches
# n = 24 in the tests.
MAX_TAIL_N = 100


def tail_poly(n):
    """Closed form for the collapsed-tail numerator after n exchanges.

    The polynomial in TAIL_VARS is even in every variable:
        f^(2n) + sum over a+b <= n-1 of
            (-1)^(n-a-b) count_subsets(n, a, b) f^(2a) o^(2b) p^(2(n-a-b))
    with count_subsets(n, a, b) = C(n-1-a, b) C(n-b, a).
    """
    if n < 1:
        raise ValueError("tail length must be at least 1")
    if n > MAX_TAIL_N:
        raise ValueError("tail length %d too large: the closed form allows "
                         "at most %d" % (n, MAX_TAIL_N))
    terms = {(2 * a, 2 * b, 2 * (n - a - b)):
             (-1) ** (n - a - b) * count_subsets(n, a, b)
             for a in range(n) for b in range(n - a)}
    terms[2 * n, 0, 0] = 1
    return Poly(TAIL_VARS, terms)


def exchange_step(f, o, p):
    """One exchange: trade the oldest value o for (f*f - p*p) / o.

    Works over anything with ring operations and division: RatFunc,
    QuadExt, Fraction.  A vanishing o is an error.
    """
    is_zero = o.is_zero() if hasattr(o, "is_zero") else o == 0
    if is_zero:
        raise ZeroDivisionError("exchange against a vanishing value")
    return (f * f - p * p) / o


def iterate_exchange(f, o, p, n):
    """n exchanges in sequence, each feeding the previous two values."""
    if n < 1:
        raise ValueError("need at least one exchange")
    older, newer = o, f
    for _ in range(n):
        older, newer = newer, exchange_step(newer, older, p)
    return newer


class _Factored(NamedTuple):
    """A tail value num / (x^den[:nv] * prod factors[i]^den[nv + i]).

    den is one exponent vector: the powers of the nv variables, then one
    power per factor of the TailEntry the value belongs to.  A constant
    in the denominator is folded into num, so num keeps int coefficients
    (which the packed product takes) when that constant is 1, as on every
    family value.
    """

    num: Poly
    den: tuple


def _strip(num, den):
    """The value with the monomial that num and x^den[:nv] share cancelled."""
    if num.is_zero():
        return _Factored(num, (0,) * len(den))
    shift = tuple(map(min, num.monomial_content(), den))
    if any(shift):
        num = num.shift_down(shift)
        den = tuple(map(sub, den, shift)) + den[len(shift):]
    return _Factored(num, den)


def _mul(a, b):
    return _strip(a.num * b.num, tuple(map(add, a.den, b.den)))


def _pow(a, e):
    return _Factored(a.num ** e, tuple(x * e for x in a.den))


def _factor(value, factors):
    """value as a _Factored over factors, which may grow.

    Strips the monomial, then the binomial factors of the rest
    (newton.binomial_factors), appending each new one to factors, then
    each factor met before as often as it divides, so that a non-binomial
    one met again is carried as a power.  A non-constant rest is appended
    as one more factor, so any denominator is carried exactly; the
    constant left over divides the numerator.
    """
    den = value.den
    mono = den.monomial_content()
    found, rest = binomial_factors(den.shift_down(mono))
    for b in factors:
        e, rest = divide_out(b, rest)
        if e:
            found.append((b, e))
    if rest.is_constant():
        c = rest.constant_value()
    else:
        c, rest = rest.primitive()
        found.append((rest, 1))
    num = value.num if c == 1 else value.num * Fraction(1, c)
    exps = [0] * len(factors)
    for b, e in found:
        if b not in factors:
            factors.append(b)
            exps.append(0)
        exps[factors.index(b)] = e
    return _Factored(num, mono + tuple(exps))


def _binomial_pairs(factors):
    """(i, j, factors[i] * factors[j]) for disjoint pairs whose product
    has two terms, such as (M - 1)(M + 1) = M^2 - 1."""
    pairs = []
    free = set(range(len(factors)))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if i in free and j in free:
                prod = factors[i] * factors[j]
                if len(prod.terms) == 2:
                    pairs.append((i, j, prod))
                    free -= {i, j}
    return tuple(pairs)


@dataclass(frozen=True, slots=True, repr=False)
class TailEntry:
    """Values entering a tail of any length: the carried f, o, p roles.

    f and o must be nonzero RatFunc, so that K (below) is defined; p may
    be RatFunc or a pure-root QuadExt.  f, o and p are taken as given: a
    family's come reduced, as its assignment stores them (Assignment.bind),
    and unreduced ones give the same values, possibly not in lowest terms.
    K = (f^2 + o^2 - p^2)/(f*o) and the factored f, o, p (p.b for a root)
    and K are worked out once, here, for every tail length.  factors lists
    the binomial factors of their denominators in the order met, and one
    more entry for each non-binomial rest not met before; each factored
    value's exponent vector holds the powers of the variables, then one
    power per entry of factors, all padded to the same length.
    """

    f: RatFunc
    o: RatFunc
    p: object
    factors: tuple = field(init=False, compare=False)
    pairs: tuple = field(init=False, compare=False)
    factored: tuple = field(init=False, compare=False)   # f, o, p or p.b, K

    def __post_init__(self):
        f, o, p = self.f, self.o, self.p
        if not isinstance(f, RatFunc) or not isinstance(o, RatFunc):
            raise TypeError("f and o must be RatFunc")
        if f.is_zero() or o.is_zero():
            raise ValueError("f and o must be nonzero")
        if not isinstance(p, (RatFunc, QuadExt)):
            raise TypeError("p must be RatFunc or QuadExt")
        if isinstance(p, QuadExt) and not p.is_pure_root():
            raise ValueError("a QuadExt p must be a pure root")
        if isinstance(p, RatFunc):
            root, psq = p, p * p
        else:
            root, psq = p.b, p.b * p.b * p.rad
        k = (f * f + o * o - psq) / (f * o)
        factors = []
        factored = [_factor(v, factors) for v in (f, o, root, k)]
        width = len(f.vars) + len(factors)
        factored = tuple(_Factored(v.num, v.den + (0,) * (width - len(v.den)))
                         for v in factored)
        for name, value in (("factors", tuple(factors)),
                            ("pairs", _binomial_pairs(factors)),
                            ("factored", factored)):
            object.__setattr__(self, name, value)

    def expand(self, den):
        """x^den[:nv] * prod factors[i]^den[nv + i], as one Poly.

        Each binomial pair is expanded as one binomial power, the rest of
        each factor's exponent as a power of that factor, and the parts
        are multiplied smallest first.  The pairs change only speed: the
        six pretzel238 apoly jobs at m = 1..3, run in one process, took
        0.282-0.314 s with them against 0.324-0.331 s without (min of 5
        per round, 6 alternating rounds, faster in all 6; 2-vCPU Xeon,
        Python 3.11.7).
        """
        vars = self.f.vars
        exps = list(den[len(vars):])
        parts = []
        for i, j, binomial in self.pairs:
            e = min(exps[i], exps[j])
            if e:
                parts.append(binomial ** e)
                exps[i] -= e
                exps[j] -= e
        parts += [b ** e for b, e in zip(self.factors, exps) if e]
        out = Poly.monomial(vars, den[:len(vars)])
        for part in sorted(parts, key=len):
            out = out * part
        return out

    def _sub(self, a, b):
        """a - b over the least common multiple of their factored forms."""
        den = tuple(map(max, a.den, b.den))

        def lift(v):
            """v's numerator times its cofactor in the common denominator."""
            cof = tuple(map(sub, den, v.den))
            return v.num * self.expand(cof) if any(cof) else v.num

        return _strip(lift(a) - lift(b), den)

    def _ratfunc(self, v):
        return RatFunc(v.num, self.expand(v.den))


def _collapsed(entry, n):
    """x_(n+1) of x+ = K*x - x- from (x-, x) = (o, f), in factored form."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("tail length must be a positive integer")
    f, o, _, k = entry.factored
    older, newer = o, f
    for _ in range(n):
        older, newer = newer, entry._sub(_mul(k, newer), older)
    return newer


def tail_collapse(entry, n):
    """Value of the collapsed tail: tail_poly(n)(f, o, p) / (f^(n-1) o^n).

    n steps of x+ = K*x - x- from (x-, x) = (o, f).  The exchange
    x+ * x- = x^2 - p^2 keeps K = (x+ + x-)/x fixed at
    (f^2 + o^2 - p^2)/(f*o), which the entry divides out once, so every
    step is a product and a subtraction of factored values.
    """
    return entry._ratfunc(_collapsed(entry, n))


def filling_poly(entry, n):
    """The filling expression: tail_poly(n)(f, o, p) - f^(n-1) o^n p.

    With S = f^(n-1) o^n and x the collapsed tail (tail_collapse), the
    value is (x - p)*S for rational p and QuadExt(x*S, -S*p.b, rad) for
    pure-root p, each worked out in factored form and expanded once.  By
    the Laurent phenomenon the expression is a polynomial in f, o and p,
    so its denominator is a product of theirs.  The factored route
    reaches exactly that denominator on every family run, so the runs
    come out in lowest terms with no reduction here (the lowest-terms
    check certifies that).
    """
    x = _collapsed(entry, n)
    f, o, p, _ = entry.factored
    scale = _mul(_pow(f, n - 1), _pow(o, n))
    if isinstance(entry.p, QuadExt):
        return QuadExt(entry._ratfunc(_mul(x, scale)),
                       -entry._ratfunc(_mul(scale, p)), entry.p.rad)
    return entry._ratfunc(_mul(entry._sub(x, p), scale))


def h_recurrence_check(n):
    """Three-term product identity between collapsed tails (n >= 4):

        T(n-1) T(n-3) == T(n-2)^2 - (g_f^(n-3) g_o^(n-2) g_p)^2

    checked by one poly.identity_holds test, so no tail product is expanded.
    """
    if n < 4:
        raise ValueError("identity needs n >= 4")
    cross = Poly.monomial(TAIL_VARS, (n - 3, n - 2, 1))
    mid = tail_poly(n - 2)
    return identity_holds(
        [(tail_poly(n - 1), tail_poly(n - 3)), (cross, cross)], [(mid, mid)])


def symbolic_tail_values():
    """The generic starting values (f, o, p) as plain RatFunc variables."""
    return tuple(RatFunc.variable(TAIL_VARS, v) for v in TAIL_VARS)
