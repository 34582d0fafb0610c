"""The collapsed tail of a walk: closed form, exchange iteration, filling.

Repeatedly exchanging the oldest slope value for a new one through
    new = (f*f - p*p) / o
collapses a run of same-direction steps into a single rational function.
Its numerator has a closed binomial form (tail_poly below, a polynomial in
g_f, g_o, g_p equal to the weighted matching sum of the doubled ladder)
and its denominator is the exact monomial g_f^(n-1) * g_o^n.

The exchange x+ * x- = x^2 - p^2 is a rank-2 cluster exchange, so
K = (x+ + x-)/x stays (f^2 + o^2 - p^2)/(f*o) along the run, the linear
recurrence of friezes.  tail_collapse divides once to get K and then
steps x+ = K*x - x- with no further division; TailContext rejects a
vanishing f or o, where K is undefined.  filling_poly turns the collapsed
run plus the final folding condition into the one polynomial whose
vanishing characterizes the filled tail.  tail_poly stays the closed form
the checks compare against, and iterate_exchange keeps the dividing
exchange as the independent route of the numeric pipeline and the
Laurent-denominator check.
"""

from dataclasses import dataclass

from .matchings import TAIL_VARS, count_subsets
from .poly import Poly
from .quadext import QuadExt
from .ratfunc import RatFunc


def tail_poly(n, vars=TAIL_VARS):
    """Closed form for the collapsed-tail numerator after n exchanges.

    The polynomial is even in every variable:
        f^(2n) + sum over a+b <= n-1 of
            (-1)^(n-a-b) count_subsets(n, a, b) f^(2a) o^(2b) p^(2(n-a-b))
    with count_subsets(n, a, b) = C(n-1-a, b) C(n-b, a).
    """
    if n < 1:
        raise ValueError("tail length must be at least 1")
    f, o, p = (Poly.variable(vars, v) for v in vars[:3])
    total = f ** (2 * n)
    for a in range(n):
        for b in range(n - a):
            c = count_subsets(n, a, b)
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

    f and o must be nonzero RatFunc, so that K (below) is defined; p may
    be RatFunc or a pure-root QuadExt.
    """

    f: RatFunc
    o: RatFunc
    p: object
    n: int

    def __post_init__(self):
        f, o, p, n = self.f, self.o, self.p, self.n
        if not isinstance(n, int) or n < 1:
            raise ValueError("tail length must be a positive integer")
        if not isinstance(f, RatFunc) or not isinstance(o, RatFunc):
            raise TypeError("f and o must be RatFunc")
        if f.is_zero() or o.is_zero():
            raise ValueError("f and o must be nonzero")
        if not isinstance(p, (RatFunc, QuadExt)):
            raise TypeError("p must be RatFunc or QuadExt")
        if isinstance(p, QuadExt) and not p.is_pure_root():
            raise ValueError("a QuadExt p must be a pure root")


def tail_collapse(ctx):
    """Value of the collapsed tail: tail_poly(n)(f, o, p) / (f^(n-1) o^n).

    n steps of x+ = K*x - x- from (x-, x) = (o, f).  The exchange
    x+ * x- = x^2 - p^2 keeps K = (x+ + x-)/x fixed at
    (f^2 + o^2 - p^2)/(f*o), so after that one division every step is a
    product and a subtraction.
    """
    f, o, p = ctx.f, ctx.o, ctx.p
    psq = p * p if isinstance(p, RatFunc) else p.b * p.b * p.rad
    k = (f * f + o * o - psq) / (f * o)
    older, newer = o, f
    for _ in range(ctx.n):
        older, newer = newer, k * newer - older
    return newer


def filling_poly(ctx):
    """The filling expression: tail_poly(n)(f, o, p) - f^(n-1) o^n p.

    With S = f^(n-1) o^n and x the collapsed tail (tail_collapse), the
    value is (x - p)*S for rational p and QuadExt(x*S, -S*p.b, rad) for
    pure-root p.  The products cross-cancel all four numerator and
    denominator pairs, so the family runs come out in lowest terms with no
    reduction here (the lowest-terms check certifies that).
    """
    p = ctx.p
    scale = ctx.f ** (ctx.n - 1) * ctx.o ** ctx.n
    x = tail_collapse(ctx)
    if isinstance(p, QuadExt):
        return QuadExt(x * scale, -(scale * p.b), p.rad)
    return (x - p) * scale


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
