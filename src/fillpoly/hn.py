"""The collapsed tail of a walk: closed form, exchange iteration, filling.

Repeatedly exchanging the oldest slope value for a new one through
    new = (f*f - p*p) / o
collapses a run of same-direction steps into a single rational function.
Its numerator has a closed binomial form (tail_poly below, a polynomial in
g_f, g_o, g_p equal to the weighted matching sum of the doubled ladder)
and its denominator is the exact monomial g_f^(n-1) * g_o^n.

The exchange x+ * x- = x^2 - p^2 is a rank-2 cluster exchange, so
K = (x+ + x-)/x stays (f^2 + o^2 - p^2)/(f*o) along the run, the linear
recurrence of friezes.  tail_collapse and filling_poly divide once to
get K and then step x+ = K*x - x- with no further division; only when f
or o vanishes, where K is undefined, do they sum the closed form instead.
filling_poly turns the collapsed run plus the final folding condition
into the one polynomial whose vanishing characterizes the filled tail.
iterate_exchange keeps the dividing exchange as the independent route
of the numeric pipeline and the Laurent-denominator check.
"""

from dataclasses import dataclass

from .matchings import TAIL_VARS, binom
from .poly import Poly
from .quadext import QuadExt
from .ratfunc import RatFunc


def tail_poly(n, vars=TAIL_VARS):
    """Closed form for the collapsed-tail numerator after n exchanges.

    The polynomial is even in every variable:
        f^(2n) + sum over a+b <= n-1 of
            (-1)^(n-a-b) C(n-1-a, b) C(n-b, a) f^(2a) o^(2b) p^(2(n-a-b))
    """
    if n < 1:
        raise ValueError("tail length must be at least 1")
    f, o, p = (Poly.variable(vars, v) for v in vars[:3])
    total = f ** (2 * n)
    for a in range(n):
        for b in range(n - a):
            c = binom(n - 1 - a, b) * binom(n - b, a)
            if not c:
                continue
            sign = 1 if (n - a - b) % 2 == 0 else -1
            total = total + Poly.monomial(
                vars,
                _exps(vars, 2 * a, 2 * b, 2 * (n - a - b)),
                sign * c)
    return total


def _exps(vars, ef, eo, ep):
    lookup = dict(zip(vars[:3], (ef, eo, ep)))
    return tuple(lookup.get(v, 0) for v in vars)


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


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class TailContext:
    """Values entering a tail of length n: the carried f, o, p roles.

    f and o must be RatFunc; p may be RatFunc or a pure-root QuadExt.
    tip_matches_tail records whether the walk's final letter continues the
    tail run, which filling_poly requires.
    """

    f: RatFunc
    o: RatFunc
    p: object
    n: int
    tip_matches_tail: bool = True

    def __post_init__(self):
        f, o, p, n = self.f, self.o, self.p, self.n
        if not isinstance(n, int) or n < 1:
            raise ValueError("tail length must be a positive integer")
        if not isinstance(f, RatFunc) or not isinstance(o, RatFunc):
            raise TypeError("f and o must be RatFunc")
        if not isinstance(p, (RatFunc, QuadExt)):
            raise TypeError("p must be RatFunc or QuadExt")
        if isinstance(p, QuadExt) and not (p.is_rational() or p.is_pure_root()):
            raise ValueError("mixed rational+root p values are not supported")
        object.__setattr__(self, "tip_matches_tail", bool(self.tip_matches_tail))


def _p_square(p):
    """p*p as a RatFunc, for RatFunc or pure-root QuadExt p."""
    if isinstance(p, RatFunc):
        return p * p
    if p.is_rational():
        return p.a * p.a
    return p.b * p.b * p.rad


def _eval_tail_poly(n, f, o, psq):
    """tail_poly(n) at RatFunc values, summed term by term.

    The polynomial only involves f^2, o^2 and p^2, so it is evaluated from
    psq = p*p directly; that is what lets a pure-root p stay exact.  Only
    used when f or o vanishes, where the exchange invariant K is undefined.
    """
    fsq, osq = f * f, o * o
    total = RatFunc.zero(f.vars)
    for (ef, eo, ep), c in tail_poly(n).terms.items():
        total = total + (c * fsq ** (ef // 2) * osq ** (eo // 2)
                         * psq ** (ep // 2))
    return total


def _linear_tail(n, f, o, psq):
    """The collapsed tail: n steps of x+ = K*x - x- from (x-, x) = (o, f).

    The exchange x+ * x- = x^2 - p^2 keeps K = (x+ + x-)/x fixed at
    (f^2 + o^2 - p^2)/(f*o), so after that one division every step is a
    product and a subtraction.  f and o must be nonzero.
    """
    k = (f * f + o * o - psq) / (f * o)
    older, newer = o, f
    for _ in range(n):
        older, newer = newer, k * newer - older
    return newer


def tail_collapse(ctx):
    """Value of the collapsed tail: tail_poly(n)(f, o, p) / (f^(n-1) o^n).

    This is n steps of the linear recurrence, or the closed form over the
    scale when f or o vanishes (then the scale vanishes too unless n = 1
    and o is nonzero, and the division raises ZeroDivisionError).
    """
    f, o, n = ctx.f, ctx.o, ctx.n
    psq = _p_square(ctx.p)
    if f.is_zero() or o.is_zero():
        return _eval_tail_poly(n, f, o, psq) / (f ** (n - 1) * o ** n)
    return _linear_tail(n, f, o, psq)


def filling_poly(ctx):
    """The filling expression: tail_poly(n)(f, o, p) - f^(n-1) o^n p.

    Requires the walk tip to continue the tail run; a flipped tip would
    need one extra exchanged step first, and nothing here builds that.
    With S = f^(n-1) o^n and x the collapsed tail (tail_collapse), the
    value is (x - p)*S for rational p (p.a for a rational QuadExt) and
    QuadExt(x*S, -S*p.b, rad) for pure-root p.  When f or o vanishes,
    K is undefined and the closed form tail_poly(n)(f, o, p) is summed
    instead.  The products cross-cancel all four numerator and denominator
    pairs, so the family runs come out in lowest terms with no reduction
    here (the lowest-terms check certifies that).
    """
    if not ctx.tip_matches_tail:
        raise ValueError("walk tip breaks the tail run; filling_poly needs "
                         "tip_matches_tail")
    f, o, n, p = ctx.f, ctx.o, ctx.n, ctx.p
    rational_p = p.a if isinstance(p, QuadExt) else p
    psq, scale = _p_square(p), f ** (n - 1) * o ** n
    if f.is_zero() or o.is_zero():
        head = _eval_tail_poly(n, f, o, psq) - scale * rational_p
    else:
        head = (_linear_tail(n, f, o, psq) - rational_p) * scale
    if isinstance(p, QuadExt) and p.is_pure_root():
        return QuadExt(head, -(scale * p.b), p.rad)
    return head


def h_recurrence_check(n):
    """Three-term product identity between collapsed tails (n >= 4):

        T(n-1) T(n-3) == T(n-2)^2 - (g_f^(n-3) g_o^(n-2) g_p)^2
    """
    if n < 4:
        raise ValueError("identity needs n >= 4")
    lhs = tail_poly(n - 1) * tail_poly(n - 3)
    cross = Poly.monomial(TAIL_VARS, (n - 3, n - 2, 1))
    rhs = tail_poly(n - 2) ** 2 - cross * cross
    return lhs == rhs


def symbolic_tail_values(vars=TAIL_VARS):
    """The generic starting values (f, o, p) as plain RatFunc variables."""
    return (RatFunc.variable(vars, vars[0]),
            RatFunc.variable(vars, vars[1]),
            RatFunc.variable(vars, vars[2]))
