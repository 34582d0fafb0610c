"""End-to-end pipelines for the two published knot families.

A FamilySpec bundles everything one family+direction needs: the starting
triangles of the Farey walk, the transcribed equations, the chain order,
the expected tail slopes, the knot-name template and the basis-change
rule.  run_family drives base solve -> chain -> collapsed tail -> filling
expression.  run_family_numeric_many repeats the whole computation in
plain Fractions at a list of sample points, with a different tail
algorithm on purpose (repeated dividing exchange steps instead of the
linear recurrence), so the two pipelines check each other.

The twist-knot A-polynomial recurrence lives here too: twist_A generates
the sequences from their seeds and twist_recurrence_check verifies the
three-term product identities that the generated polynomials satisfy,
A_(n-1)*A_(n+1) = A_n^2 + gap, like a cluster exchange relation.  Each is
one exact poly.identity_holds test: the products of both sides are packed
on one lattice and the two sides compared as two integers, so the products
are never expanded into terms.  The proof's base identity of each sign is
the recurrence at the sign's first n plus one.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import random
from typing import NamedTuple

from .farey import FareyTriangle, Slope, Walk, WordAnatomy, walk_labels
from .hn import TailEntry, filling_poly, iterate_exchange
from .poly import Poly, exact_int, identity_holds
from .ptolemy import (BASE_EQ_LABELS, PVARS, chain_solve, gamma_name,
                      load_equations, solve_pretzel_base,
                      solve_whitehead_base)
from .quadext import QuadExt
from .ratfunc import PoleError, parse_poly, substitute_basis


def _pp(text):
    return parse_poly(text, PVARS)


@dataclass(frozen=True, slots=True, eq=False)
class FamilySpec:
    """Static description of one family and filling direction.

    The triangles and tail slopes are given as slope strings ("3/1") and
    stored parsed.
    """

    name: str
    sign: str
    triangle0: FareyTriangle
    triangle1: FareyTriangle
    body_word: str
    tail_letter: str
    step_labels: tuple
    tail_slopes: tuple
    knot_fmt: str
    knot_coefs: tuple
    basis_sign: int
    basis_coefs: tuple
    twist_link: tuple | None = None

    def __post_init__(self):
        for name in ("triangle0", "triangle1"):
            slopes = (Slope.parse(s) for s in getattr(self, name))
            object.__setattr__(self, name, FareyTriangle(*slopes))
        object.__setattr__(self, "step_labels", tuple(self.step_labels))
        object.__setattr__(self, "tail_slopes",
                           tuple(Slope.parse(s) for s in self.tail_slopes))

    def word(self, m):
        """Walk word for tail length m: body, then the tail run and tip."""
        return self.body_word + self.tail_letter * (m + 1)

    def knot_name(self, m):
        a, b = self.knot_coefs
        return self.knot_fmt % (a * m + b)

    def basis_rule(self, m):
        a, b = self.basis_coefs
        return self.basis_sign, a * m + b

    def equations(self):
        return load_equations(self.name + ".eqs")

    def base_assignment(self):
        if self.name == "pretzel238":
            return solve_pretzel_base(self.equations())
        return solve_whitehead_base(self.equations())

    def __repr__(self):
        return "FamilySpec(%s, %s)" % (self.name, self.sign)


FAMILIES = {
    ("pretzel238", "pos"): FamilySpec(
        "pretzel238", "pos",
        ("3/1", "4/1", "1/0"), ("3/1", "1/0", "2/1"),
        "LLR", "L",
        ("step0", "step1", "step2", "step3pos"),
        ("1/2", "1/1", "0/1"),
        "T(5,%d,2,2)", (-5, -14),
        1, (-25, -67)),
    ("pretzel238", "neg"): FamilySpec(
        "pretzel238", "neg",
        ("3/1", "4/1", "1/0"), ("3/1", "1/0", "2/1"),
        "LLL", "R",
        ("step0", "step1", "step2", "step3neg"),
        ("-1/1", "1/0", "0/1"),
        "T(5,%d,2,2)", (5, 11),
        1, (25, 58)),
    ("whitehead", "pos"): FamilySpec(
        "whitehead", "pos",
        ("3/1", "2/1", "1/0"), ("2/1", "1/0", "1/1"),
        "LR", "L",
        ("step0", "step1", "step2pos"),
        ("1/2", "1/1", "0/1"),
        "J(2,%d)", (2, 6),
        -1, (0, -2),
        twist_link=(3, "pos")),
    ("whitehead", "neg"): FamilySpec(
        "whitehead", "neg",
        ("3/1", "2/1", "1/0"), ("2/1", "1/0", "1/1"),
        "LL", "R",
        ("step0", "step1", "step2neg"),
        ("-1/1", "1/0", "0/1"),
        "J(2,%d)", (-2, -4),
        -1, (0, -2),
        twist_link=(2, "neg")),
}


def get_family(name, sign):
    try:
        return FAMILIES[(name, sign)]
    except KeyError:
        raise ValueError("unknown family %r with sign %r (have: %s)"
                         % (name, sign,
                            ", ".join("%s/%s" % k for k in sorted(FAMILIES)))) from None


@dataclass(frozen=True, slots=True, eq=False)
class FillingResult:
    """Output of one run: the filling expression plus its derived forms."""

    family: str
    sign: str
    m: int
    expression: object
    conjugate_product: object
    knot: str
    basis_changed: object

    def __repr__(self):
        return "FillingResult(%s/%s, m=%d, %s)" % (
            self.family, self.sign, self.m, self.knot)


class FamilyChain(NamedTuple):
    """What every tail length of one family shares (see family_chain)."""

    labels: tuple
    step_eqs: tuple
    asg: object
    entry: TailEntry


@lru_cache(maxsize=None)
def family_chain(spec):
    """Walk labels, consumed step equations, solved chain and tail entry.

    labels are the walk's labels for tail length 1, step_eqs the step
    equations in step order, asg the assignment after solving every step
    before the tail, and entry the values entering the tail, as the
    assignment stores them (reduced; a rational one as a RatFunc), with
    the binomial factors of their denominators as its factors.  The
    tail length only adds steps after the tail starts, so all four are
    the same for every m: each spec is solved once per process, and every
    caller gets the same objects, which none mutates (Assignment.bind
    returns a new assignment).
    """
    labels = tuple(walk_labels(Walk(spec.triangle0, spec.triangle1,
                                    spec.word(1))))
    eqs = spec.equations()
    step_eqs = tuple(eqs[label] for label in spec.step_labels)
    asg = chain_solve(labels, step_eqs, spec.base_assignment())
    tail = labels[len(spec.step_labels)]
    assert (tail.f, tail.o, tail.p) == spec.tail_slopes
    entry = TailEntry(*(asg.value(gamma_name(s))
                        for s in (tail.f, tail.o, tail.p)))
    return FamilyChain(labels, step_eqs, asg, entry)


def run_family(spec, m):
    """Full pipeline for one filling: base solve, chain, collapsed tail.

    m is the tail length (m >= 1); the walk word is the spec's body plus
    m+1 copies of the tail letter, so the tip always continues the run.
    """
    if exact_int(m) < 1:
        raise ValueError("m must be a positive integer tail length")
    wa = WordAnatomy(spec.word(m))
    assert len(wa.tail) == m and wa.tip_matches_tail
    assert wa.tail_start_step == len(spec.step_labels)
    expr = filling_poly(family_chain(spec).entry, m)
    if isinstance(expr, QuadExt):
        conj = expr.conj_product()
    else:
        conj = expr
    changed = substitute_basis(conj, *spec.basis_rule(m))
    return FillingResult(spec.name, spec.sign, m, expr, conj,
                         spec.knot_name(m), changed)


# --- the independent numeric pipeline -------------------------------------


# The slot each term of a pretzel head equation fills: with the 3/1 value
# set to 1, s the 1/0 value and w the 4/1 value, the two head equations
# only involve the products s*w and w, and a constant.
_HEAD_SLOTS = {frozenset(("g_1/0", "g_4/1")): 0,
               frozenset(("g_4/1", "g_3/1")): 1,
               frozenset(("g_3/1",)): 2}


def _head_slots(eq, coef_index):
    """(coefficient index, slot) of each term of a head equation."""
    out = []
    for coef, (x, y) in eq.terms:
        slot = _HEAD_SLOTS.get(frozenset((x, y)))
        if slot is None:
            raise ValueError("unexpected term %s*%s in %s" % (x, y, eq.label))
        out.append((coef_index(coef), slot))
    return out


def _step_roles(eq, unknown, coef_index):
    """A step equation's terms linear in the unknown, as (coefficient index,
    the other gamma), and its constant terms, as (coefficient index, gamma,
    gamma)."""
    lin, const = [], []
    for coef, (x, y) in eq.terms:
        hits = (x == unknown) + (y == unknown)
        if hits == 2:
            raise ValueError("%s appears squared" % (unknown,))
        if hits:
            lin.append((coef_index(coef), y if x == unknown else x))
        else:
            const.append((coef_index(coef), x, y))
    return lin, const


def _numeric_pretzel_base(heads, checks, cv):
    """Base values at one point, by a 2x2 Cramer solve in (s*w, w).

    heads holds each head equation's (coefficient index, slot) pairs
    (_head_slots), checks each base equation's (coefficient index, gamma,
    gamma) terms, and cv the coefficient values at the point.  The same
    solve as the symbolic base solver, done apart from it: in Fraction
    arithmetic at one point, with its own residual check of every base
    equation, and followed by the tail's iterated exchange rather than the
    collapsed recurrence.  Singular points raise PoleError.
    """
    rows = []
    for head in heads:
        row = [Fraction(0)] * 3
        for k, slot in head:
            row[slot] += cv[k]
        rows.append(row)
    (a1, b1, c1), (a2, b2, c2) = rows
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise PoleError("singular base system at this point")
    u = (b1 * c2 - b2 * c1) / det    # u = s * w
    w = (a2 * c1 - a1 * c2) / det
    if w == 0:
        raise PoleError("vanishing 4/1 value at this point")
    vals = {"g_3/1": Fraction(1), "g_4/1": w, "g_1/0": u / w}
    for terms in checks:
        if sum(cv[k] * vals[x] * vals[y] for k, x, y in terms) != 0:
            raise ArithmeticError("numeric base solve left a residual")
    return vals


def _numeric_linear_step(lin, const, vals, cv):
    """The unknown of one step equation at a point: -const / lin."""
    a = sum(cv[k] * vals[other] for k, other in lin)
    if a == 0:
        raise PoleError("vanishing linear coefficient at this point")
    return -sum(cv[k] * vals[x] * vals[y] for k, x, y in const) / a


def run_family_numeric_many(spec, m, points):
    """The whole pipeline in plain Fractions at each of a list of (L, M)
    points: the values in input order, None at a singular point.

    Only rational chains are supported (the pretzel family); the tail is
    collapsed by actually iterating exchange steps rather than through the
    closed form.  The equations, their terms' roles and the walk's labels
    are read once: which of the s*w, w and constant slots each head term
    fills, and which terms of each step equation are linear in its unknown.
    Each distinct coefficient polynomial is evaluated at every point by
    one Poly.eval_many, so a point then costs only Fraction arithmetic.
    """
    if spec.name != "pretzel238":
        raise ValueError("the numeric pipeline supports rational chains only")
    if exact_int(m) < 1:
        raise ValueError("m must be a positive integer tail length")
    points = list(points)
    eqs = spec.equations()
    coefs = {}

    def coef_index(coef):
        key = frozenset(coef.terms.items())
        return coefs.setdefault(key, (len(coefs), coef))[0]

    base = [eqs[label] for label in BASE_EQ_LABELS["pretzel238"]]
    heads = [_head_slots(eq, coef_index) for eq in base[:2]]
    checks = [[(coef_index(coef), x, y) for coef, (x, y) in eq.terms]
              for eq in base]
    word = spec.word(m)
    labels = walk_labels(Walk(spec.triangle0, spec.triangle1, word))
    steps = []
    for label, step in zip(labels, spec.step_labels):
        unknown = gamma_name(label.h)
        steps.append((unknown, *_step_roles(eqs[step], unknown, coef_index)))
    tail = labels[WordAnatomy(word).tail_start_step]
    roles = [gamma_name(s) for s in (tail.f, tail.o, tail.p)]
    columns = [coef.eval_many(points) for _, coef in coefs.values()]
    values = []
    for cv in zip(*columns):
        try:
            vals = _numeric_pretzel_base(heads, checks, cv)
            for unknown, lin, const in steps:
                vals[unknown] = _numeric_linear_step(lin, const, vals, cv)
            f, o, p = (vals[name] for name in roles)
            collapsed = iterate_exchange(f, o, p, m)
        except (PoleError, ZeroDivisionError):
            values.append(None)
            continue
        values.append((collapsed - p) * f ** (m - 1) * o ** m)
    return values


def run_family_numeric(spec, m, point):
    """run_family_numeric_many at one point; PoleError where it is singular."""
    value, = run_family_numeric_many(spec, m, [point])
    if value is None:
        raise PoleError("the numeric pipeline is singular at %r" % (point,))
    return value


# The numerators random_rational_point draws from.
_NUMERATORS = [n for n in range(-9, 10) if n]


def random_rational_point(rng):
    """A small random rational (L, M) pair with nonzero entries."""
    def pick():
        num = rng.choice(_NUMERATORS)
        den = rng.randint(1, 4)
        return Fraction(num, den)
    return {"L": pick(), "M": pick()}


def numeric_agreement(spec, m, count, seed, result):
    """Symbolic vs numeric pipeline at `count` non-singular sample points;
    result is run_family(spec, m).

    The points come from random_rational_point in rounds: each round draws
    as many as are still missing and keeps those where the numeric value
    exists and the symbolic denominator is nonzero, so the points checked
    are exactly the first `count` non-singular draws of the seed's stream.
    count must be an int of at least 1.
    """
    count = exact_int(count)
    if count < 1:
        raise ValueError("count must be at least 1, got %d" % count)
    expr = result.expression
    if isinstance(expr, QuadExt):
        raise ValueError("numeric agreement is defined for rational results only")
    rng = random.Random(seed)
    checked = 0
    while checked < count:
        points = [random_rational_point(rng) for _ in range(count - checked)]
        numeric = run_family_numeric_many(spec, m, points)
        dens = expr.den.eval_many(points)
        kept = [i for i, (v, d) in enumerate(zip(numeric, dens))
                if v is not None and d != 0]
        nums = expr.num.eval_many([points[i] for i in kept])
        if any(n / dens[i] != numeric[i] for n, i in zip(nums, kept)):
            return False
        checked += len(kept)
    return True


# --- twist-knot A-polynomial recurrences -----------------------------------


_X_TEXT = ("-L + L^2 + 2*L*M^2 + M^4 + 2*L*M^4 + L^2*M^4 + 2*L*M^6"
           " + M^8 - L*M^8")
_Y_TEXT = "M^4 * (L + M^2)^4"
_Z_TEXT = "L * (M^2 - 1)^3 * (M^2 + 1)^2 * (L - M^4)"
_A1_POS_TEXT = "L + M^6"
_A2_POS_TEXT = ("-L^2 + L^3 + 2*L^2*M^2 + L*M^4 + 2*L^2*M^4 - L*M^6"
                " - L^2*M^8 + 2*L*M^10 + L^2*M^10 + 2*L*M^12 + M^14"
                " - L*M^14")
_A1_NEG_TEXT = "-L + L*M^2 + M^4 + 2*L*M^4 + L^2*M^4 + L*M^6 - L*M^8"


# The n of each sequence's first seed.
_TWIST_FIRST = {"pos": 1, "neg": 0}

# Largest n twist_A generates.  A_n has about 4n^2 terms: `twist --n 30`
# takes 0.3 s and `twist verify --max-n 30` 3.8 s, against 3.4 s and 11 s
# at n = 60 and 40 (2-vCPU Xeon).  The identities workload generates up
# to n = 19.
MAX_TWIST_N = 32


class TwistPolys:
    """The twist-knot sequences and their recurrence data.

    Both sequences obey  A_n = x*A_(n-1) - y*A_(n-2).  seqs[sign] holds
    A_first, A_(first+1), ... as far as twist_A has generated them, and
    gap[sign] is the extra factor of the sign's product identity.
    gaps[sign] is (n, that identity's right side at n) for the last n
    twist_gap produced; the right side at n + 1 is y times it.
    """

    def __init__(self):
        self.x = _pp(_X_TEXT)
        self.y = _pp(_Y_TEXT)
        self.z = _pp(_Z_TEXT)
        self.seqs = {"pos": [_pp(_A1_POS_TEXT), _pp(_A2_POS_TEXT)],
                     "neg": [Poly.one(PVARS), _pp(_A1_NEG_TEXT)]}
        self.gap = {"pos": _pp("M^4 * (L + M^2)^3"), "neg": _pp("L + M^2")}
        self.gaps = {}


@lru_cache(maxsize=None)
def twist_polys():
    return TwistPolys()


def _twist_first(sign):
    try:
        return _TWIST_FIRST[sign]
    except KeyError:
        raise ValueError("sign must be 'pos' or 'neg'") from None


def twist_A(n, sign):
    """n-th twist-knot A-polynomial: sign 'pos' for J(2,2n), 'neg' for J(2,-2n)."""
    first = _twist_first(sign)
    if n < first:
        raise ValueError("the %s sequence starts at n=%d" % (sign, first))
    if n > MAX_TWIST_N:
        raise ValueError("n=%d too large: twist_A allows at most %d"
                         % (n, MAX_TWIST_N))
    tw = twist_polys()
    seq = tw.seqs[sign]
    while len(seq) <= n - first:
        seq.append(tw.x * seq[-1] - tw.y * seq[-2])
    return seq[n - first]


def twist_gap(sign, n):
    """Right side of the product identity: y^(n-first-1) * z * gap[sign]."""
    first = _twist_first(sign)
    if n <= first:
        raise ValueError("the %s identity needs n > %d" % (sign, first))
    tw = twist_polys()
    k, gap = tw.gaps.get(sign, (n + 1, None))
    if k > n:
        k, gap = first + 1, tw.z * tw.gap[sign]
    while k < n:
        k, gap = k + 1, tw.y * gap
    tw.gaps[sign] = k, gap
    return gap


def twist_recurrence_check(n, sign):
    """Does A_(n-1) * A_(n+1) == A_n^2 + the sign's gap term, exactly?"""
    a = twist_A(n, sign)
    return identity_holds([(twist_A(n - 1, sign), twist_A(n + 1, sign))],
                          [(a, a), (twist_gap(sign, n),)])


def twist_identities(max_n):
    """(name, thunk) for the twist-knot base identities and recurrences,
    in the order `twist verify` prints them; max_n must be at least 1,
    and below MAX_TWIST_N, since the identity at n uses A_(n+1)."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1, got %d" % max_n)
    if max_n >= MAX_TWIST_N:
        raise ValueError("max_n %d too large: the identities use A_(max_n+1)"
                         " and twist_A allows at most %d"
                         % (max_n, MAX_TWIST_N))
    # the proof's seed identity, x*A_a*A_b - y*A_a^2 - A_b^2 = gap at b,
    # with a the sign's first n and b = a + 1, is the recurrence at b,
    # since A_(b+1) = x*A_b - y*A_a
    checks = [("base identity %s" % sign,
               lambda sign=sign, b=first + 1: twist_recurrence_check(b, sign))
              for sign, first in _TWIST_FIRST.items()]
    for sign, first in _TWIST_FIRST.items():
        checks += [("%s n=%d" % (sign, n),
                    lambda n=n, sign=sign: twist_recurrence_check(n, sign))
                   for n in range(first + 1, max_n + 1)]
    return checks


# --- the factorisation bridge between the two pipelines ---------------------


def _unit_normal(p):
    """Strip monomial and integer content; make the leading coefficient positive."""
    if p.is_zero():
        raise ValueError("zero polynomial has no unit-normal form")
    p = p.shift_down(p.monomial_content())
    _, p = p.primitive()
    lead = p.terms[max(p.terms)]
    if (lead if isinstance(lead, int) else lead.numerator) < 0:
        p = -p
    return p


def twist_divisor(spec, m):
    """Normalized twist polynomial expected inside the basis-changed output."""
    if spec.twist_link is None:
        raise ValueError("family %s/%s has no twist-knot divisor"
                         % (spec.name, spec.sign))
    offset, tsign = spec.twist_link
    return _unit_normal(twist_A(m + offset, tsign))


def divides_conjugate(spec, m, result):
    """Is the basis-changed conjugate numerator the paper's product of
    twist-knot A-polynomials?  result is run_family(spec, m).

    The family's basis change carries the conjugate product into the frame
    the twist-knot sequences are written in.  There, in unit-normal form
    (no monomial or integer content, leading coefficient positive), its
    numerator must equal N_f^(2(m-1)) * N_o^(2m) * twist_divisor(spec, m)
    * twist_divisor(spec, m - 2), with N_f and N_o the unit-normal,
    basis-changed numerators of the tail entry's f and o.  The tail's
    product puts those powers into every output; the twist factors come
    from the twist sequences alone.  A product of unit-normal polynomials
    is unit-normal, so the two sides are compared as they are, by one
    packed comparison (poly.identity_holds) and no division.  The identity
    implies that twist_divisor(spec, m) divides the numerator.
    """
    entry = family_chain(spec).entry
    rule = spec.basis_rule(m)
    nf, no = (_unit_normal(substitute_basis(v, *rule).num)
              for v in (entry.f, entry.o))
    return identity_holds(
        [(nf ** (2 * (m - 1)) * no ** (2 * m),
          twist_divisor(spec, m) * twist_divisor(spec, m - 2))],
        [(_unit_normal(result.basis_changed.num),)])
