"""The collapsed tail of a walk: closed form, exchange iteration, filling.

Repeatedly exchanging the oldest slope value for a new one through
    new = (f*f - p*p) / o
collapses a run of same-direction steps into a single rational function.
Its numerator has a closed binomial form (tail_poly below, a polynomial in
g_f, g_o, g_p equal to the weighted matching sum of the doubled ladder)
and its denominator is the exact monomial g_f^(n-1) * g_o^n.  filling_poly
turns the collapsed run plus the final folding condition into the one
polynomial whose vanishing characterizes the filled tail.
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
    psq = p*p directly; that is what lets a pure-root p stay exact.
    """
    fsq, osq = f * f, o * o
    total = RatFunc.zero(f.vars)
    for (ef, eo, ep), c in tail_poly(n).terms.items():
        total = total + (c * fsq ** (ef // 2) * osq ** (eo // 2)
                         * psq ** (ep // 2))
    return total


def _eval_tail_by_exchange(n, f, o, psq):
    """Same value as _eval_tail_poly, built by iterating the exchange.

    Each exchange divides out the previous collapsed value, so on concrete
    inputs the intermediates stay as small as the answer instead of piling
    up one giant common denominator.  RatFunc products cancel all four
    numerator/denominator pairs of their operands, so dividing by the older
    value cancels its numerator into the new numerator and its denominator
    into the new denominator; the exchanges and the final scaling need no
    separate reduction.  Raises ZeroDivisionError when an intermediate
    collapsed value vanishes; callers fall back to the closed form
    then.
    """
    older, newer = o, f
    for _ in range(n):
        older, newer = newer, (newer * newer - psq) / older
    return newer * (f ** (n - 1) * o ** n)


def _tail_value(n, f, o, psq):
    """Collapsed-tail numerator value, by exchange where no intermediate
    value vanishes, else by the closed form."""
    if not f.is_zero() and not o.is_zero():
        try:
            return _eval_tail_by_exchange(n, f, o, psq)
        except ZeroDivisionError:
            pass
    return _eval_tail_poly(n, f, o, psq)


def tail_collapse(ctx):
    """Value of the collapsed tail: tail_poly(n)(f, o, p) / (f^(n-1) o^n)."""
    num = _tail_value(ctx.n, ctx.f, ctx.o, _p_square(ctx.p))
    den = ctx.f ** (ctx.n - 1) * ctx.o ** ctx.n
    return num / den


def filling_poly(ctx):
    """The filling expression: tail_poly(n)(f, o, p) - f^(n-1) o^n p.

    Requires the walk tip to continue the tail run; a flipped tip would
    need one extra exchanged step first, and nothing here builds that.
    Returns a RatFunc for rational p, or a QuadExt with the same radicand
    for pure-root p.  The products cross-cancel all four numerator and
    denominator pairs, so the family runs come out in lowest terms with no
    reduction here (the lowest-terms check certifies that).
    """
    if not ctx.tip_matches_tail:
        raise ValueError("walk tip breaks the tail run; filling_poly needs "
                         "tip_matches_tail")
    head = _tail_value(ctx.n, ctx.f, ctx.o, _p_square(ctx.p))
    scale = ctx.f ** (ctx.n - 1) * ctx.o ** ctx.n
    p = ctx.p
    if isinstance(p, RatFunc):
        return head - scale * p
    if p.is_rational():
        return head - scale * p.a
    return QuadExt(head, -(scale * p.b), p.rad)


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
