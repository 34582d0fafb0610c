"""Step-by-step solving of the transcribed triangulation equations.

Every equation used here was transcribed once into a data file and is
consumed verbatim: each is a polynomial in L, M and the gamma names,
read by the package's one polynomial reader (ratfunc.parse_poly) with
each gamma name as a variable, and each of its terms holds exactly two
gamma factors.  parse_equations groups the terms by their gamma pair,
each group's coefficient a polynomial in L and M.  One collector
reads every equation: it sums the terms by the unknown names each holds,
multiplying out the bound values, and each solver reads the parts it
expects from that sum.  A check is the part with no unknowns; a step
solve divides the part without the unknown by the part linear in it.
The base solvers pin down the starting values from the two- or
three-equation systems of each family, both through one 2x2 Cramer solve
of the head pair and an exact check of every base equation.  chain_solve
then walks the step equations in walk order, binding one new value per
step by solving the equation that is linear in it, and checks that
equation once the value is bound.

The step equations are close to, but not always exactly, the shape
  (new)(dropped) + (carried p)^2 - (carried f)^2 = 0
suggested by the walk labels.  Compared term by term with that shape,
whitehead step1 has the opposite global sign, step2pos and step2neg have
the p and f squares exchanged, and whitehead step0 and every pretzel238
step, step3neg included, match it.  The solvers never normalize those
differences away.
"""

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .poly import Poly
from .quadext import QuadExt
from .ratfunc import RatFunc, parse_poly, parse_ratfunc

PVARS = ("L", "M")

# Each family's base equations, the head pair first: the base solvers
# solve that pair and check every one.
BASE_EQ_LABELS = {"pretzel238": ("tet0", "tet1"),
                  "whitehead": ("link1", "link2", "link3")}


def gamma_name(slope):
    """The variable name used for the value at a slope."""
    return "g_%s" % slope


@dataclass(frozen=True, slots=True, eq=False)
class PtolemyEq:
    """One transcribed equation: sum of (coefficient, gamma pair) terms."""

    label: str
    terms: tuple

    def __post_init__(self):
        label = self.label
        checked = []
        for coef, gammas in self.terms:
            if not isinstance(coef, Poly):
                raise TypeError("coefficient must be a Poly")
            gammas = tuple(gammas)
            if len(gammas) != 2:
                raise ValueError("term in %r has gamma degree %d, want exactly 2"
                                 % (label, len(gammas)))
            checked.append((coef, gammas))
        if not checked:
            raise ValueError("equation %r has no terms" % (label,))
        object.__setattr__(self, "terms", tuple(checked))


def parse_equations(text):
    """Parse an equation file into an ordered dict label -> PtolemyEq.

    Lines look like  label: sum = 0,  a polynomial in L, M and the gamma
    names g_<slope> (such as g_1/0, g_-1/1 or g_0(23)).  Each gamma name
    becomes a placeholder variable, the sum is read as one polynomial, and
    its terms are grouped by the gamma pair each holds, in order of first
    appearance; PtolemyEq refuses a term of another gamma degree.
    """
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError("missing label in %r" % (line,))
        label, rest = line.split(":", 1)
        label = label.strip()
        rest = rest.strip()
        if not rest.endswith("= 0"):
            raise ValueError("equation %r must end with '= 0'" % (label,))
        if label in out:
            raise ValueError("duplicate label %r" % (label,))
        try:
            terms = _gamma_terms(rest[:-3])
        except ValueError as err:
            raise ValueError("%s, reading %r" % (err, line)) from None
        out[label] = PtolemyEq(label, terms)
    return out


# A gamma name: g_ and a slope, or a name such as g_0(23).  Every name that
# starts g_ is a gamma, so the placeholders g_0, g_1, ... meet no name of
# the text.
_GAMMA = re.compile(r"\bg_-?[\w/]+(?:\(\w+\))?")


def _gamma_terms(body):
    """(coefficient, gamma pair) terms of a sum: the terms that hold the same
    gammas are summed, and each gamma pair is written in the order its
    names first appear."""
    names = {}
    body = _GAMMA.sub(
        lambda m: "g_%d" % names.setdefault(m[0], len(names)), body)
    vars = PVARS + tuple("g_%d" % i for i in range(len(names)))
    n = len(PVARS)
    coefs = {}
    for exps, c in parse_poly(body, vars).terms.items():
        pair = tuple(name for name, k in zip(names, exps[n:])
                     for _ in range(k))
        coefs.setdefault(pair, {})[exps[:n]] = c
    return [(Poly(PVARS, terms), pair) for pair, terms in coefs.items()]


@lru_cache(maxsize=None)
def load_equations(filename):
    """Equations from the package data directory, parsed once."""
    text = resources.files(__package__).joinpath("data", filename).read_text()
    return parse_equations(text)


@lru_cache(maxsize=None)
def load_values(filename):
    """Reference values from a sectioned data file, parsed into RatFunc."""
    text = resources.files(__package__).joinpath("data", filename).read_text()
    out = {}
    section = None
    chunks = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section in chunks:
                raise ValueError("duplicate section %r" % (section,))
            chunks[section] = []
            continue
        if section is None:
            raise ValueError("content before first section: %r" % (line,))
        chunks[section].append(line)
    for name, lines in chunks.items():
        out[name] = parse_ratfunc(" ".join(lines), PVARS)
    return out


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Assignment:
    """Immutable map from gamma names to exact values.

    Values are RatFunc or QuadExt; all QuadExt values in one assignment
    must share a radicand, which the assignment carries once bound.
    bind stores each value in one normal form: a RatFunc reduced
    (RatFunc.reduced), a QuadExt with a zero root part as that reduced
    RatFunc, and a pure root b*sqrt(rad) with b reduced and rad as given.
    It refuses a value with both parts nonzero.  Every reader takes the
    values as stored.
    """

    _vals: dict = field(default_factory=dict)
    rad: object = None

    def __post_init__(self):
        object.__setattr__(self, "_vals", dict(self._vals or {}))

    def bind(self, name, value):
        if name in self._vals:
            raise ValueError("%s is already bound" % (name,))
        if not isinstance(value, (RatFunc, QuadExt)):
            raise TypeError("value for %s must be RatFunc or QuadExt" % (name,))
        rad = self.rad
        if isinstance(value, QuadExt):
            if rad is None:
                rad = value.rad
            elif rad != value.rad:
                raise ValueError("radicand of %s differs from the assignment's"
                                 % (name,))
            if value.is_rational():
                value = value.a
            elif value.is_pure_root():
                value = QuadExt.pure_root(value.b.reduced(), value.rad)
            else:
                raise ValueError("value for %s mixes rational and root parts"
                                 % (name,))
        if isinstance(value, RatFunc):
            value = value.reduced()
        vals = dict(self._vals)
        vals[name] = value
        return Assignment(vals, rad)

    def value(self, name):
        try:
            return self._vals[name]
        except KeyError:
            raise KeyError("no value bound for %s" % (name,)) from None

    def __contains__(self, name):
        return name in self._vals

    def names(self):
        return sorted(self._vals)

    def __str__(self):
        return "{%s}" % ", ".join(self.names())


def _collect(eq, asg, unknowns=()):
    """The equation's terms summed by the unknown names each holds.

    Keys are the sorted tuple of a term's names in unknowns, values the
    coefficient times the term's other, bound values.  An unbound name
    outside unknowns is a KeyError, as in Assignment.value.
    """
    out = {}
    for coef, gammas in eq.terms:
        term = RatFunc(coef)
        held = []
        for name in gammas:
            if name in unknowns:
                held.append(name)
            else:
                term = term * asg.value(name)
        key = tuple(sorted(held))
        out[key] = out[key] + term if key in out else term
    return out


def check_equation(eq, asg):
    """Is the equation exactly satisfied?  Unbound names are an error."""
    return _collect(eq, asg)[()].is_zero()


def solve_linear_step(eq, asg, unknown):
    """Solve one equation that is linear in the unknown gamma.

    Errors: the unknown appearing squared, the unknown missing entirely,
    or a vanishing linear coefficient.
    """
    parts = _collect(eq, asg, (unknown,))
    if (unknown, unknown) in parts:
        raise ValueError("%s appears squared in %s" % (unknown, eq.label))
    lin = parts.get((unknown,))
    if lin is None:
        raise ValueError("%s does not appear in %s" % (unknown, eq.label))
    if lin.is_zero():
        raise ValueError("linear coefficient of %s vanishes in %s"
                         % (unknown, eq.label))
    return -(parts.get((), RatFunc.zero(PVARS)) / lin)


# --- base solvers -------------------------------------------------------------


def _solve_head_pair(eqs, labels, partial, single, pair):
    """Cramer solve of two head equations a*t + b*z + c = 0.

    partial binds the unit value to 1; every term must then hold the name
    single (t is its value), both names in pair (z is their product) or
    neither.  Returns (t, z); a term of another shape or a singular system
    is a ValueError.
    """
    rows = []
    zero = RatFunc.zero(PVARS)
    for label in labels:
        parts = _collect(eqs[label], partial, (single,) + pair)
        rows.append(tuple(parts.pop(key, zero)
                          for key in ((single,), tuple(sorted(pair)), ())))
        if parts:
            raise ValueError("unexpected term %s in %s"
                             % ("*".join(min(parts)), label))
    (a1, b1, c1), (a2, b2, c2) = rows
    det = a1 * b2 - a2 * b1
    if det.is_zero():
        raise ValueError("singular base system")
    return (b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det


def _check_closes(eqs, labels, asg):
    """asg, after checking that every named base equation closes exactly."""
    for label in labels:
        if not check_equation(eqs[label], asg):
            raise ArithmeticError("%s does not close after the base solve"
                                  % (label,))
    return asg


def solve_pretzel_base(equations=None):
    """Base values for the pretzel pipeline from its two gluing equations.

    The value at 3/1 is set to 1.  Both equations are linear in the value
    w at 4/1 and in the product s*w, where s is the value at 1/0, so a 2x2
    solve fixes both and s = (s*w)/w.
    """
    eqs = equations or load_equations("pretzel238.eqs")
    labels = BASE_EQ_LABELS["pretzel238"]
    single, pair = "g_4/1", ("g_1/0", "g_4/1")
    partial = Assignment().bind("g_3/1", RatFunc.one(PVARS))
    w, sw = _solve_head_pair(eqs, labels[:2], partial, single, pair)
    asg = partial.bind("g_1/0", sw / w).bind(single, w)
    return _check_closes(eqs, labels, asg)


def solve_whitehead_base(equations=None):
    """Base values for the Whitehead pipeline from its three link equations.

    The value at 1/0 is set to 1.  The first two equations are linear in
    the value at 3/1 and in the product of the two remaining unknowns, so
    a 2x2 solve fixes both; the third equation then gives the square of
    the value named g_0(23).  That square is the shared radicand R, and
    g_0(23) is +sqrt(R).
    """
    eqs = equations or load_equations("whitehead.eqs")
    labels = BASE_EQ_LABELS["whitehead"]
    single, pair = "g_3/1", ("g_0(23)", "g_2/1")
    partial = Assignment().bind("g_1/0", RatFunc.one(PVARS))
    t, z = _solve_head_pair(eqs, labels[:2], partial, single, pair)
    # the third equation gives the squared head's coefficient and, from
    # every other term, the radicand
    eq3 = eqs[labels[2]]
    head = pair[0]
    partial = partial.bind(single, t)
    parts = _collect(eq3, partial, (head,))
    if (head,) in parts:
        raise ValueError("%s appears unsquared in %s" % (head, eq3.label))
    sq_coef = parts.get((head, head))
    if sq_coef is None or sq_coef.is_zero():
        raise ValueError("%s does not determine %s" % (eq3.label, head))
    rad = -(parts.get((), RatFunc.zero(PVARS)) / sq_coef)
    if rad.is_zero():
        raise ValueError("radicand vanishes; the root would be rational")
    root = QuadExt.pure_root(RatFunc.one(PVARS), rad)
    second = QuadExt.rational(z, rad) / root
    asg = partial.bind(head, root).bind(pair[1], second)
    return _check_closes(eqs, labels, asg)


# --- the walk chain ------------------------------------------------------------


def chain_solve(labels, step_eqs, base):
    """Bind the new value of each walk step from its transcribed equation.

    labels come from walk_labels; step_eqs holds one PtolemyEq per step,
    in step order, transcribed verbatim, and may stop before the walk
    does.  Each step binds the gamma at that step's new slope, and its
    equation is checked once right after the bind: values are immutable
    and never rebound, so an equation that closed stays closed.  Values
    must stay pure, entirely rational or an exact multiple of the shared
    root, as Assignment.bind requires.
    """
    if len(step_eqs) > len(labels):
        raise ValueError("%d step equations for a walk of %d steps"
                         % (len(step_eqs), len(labels)))
    asg = base
    for k, (label, eq) in enumerate(zip(labels, step_eqs)):
        unknown = gamma_name(label.h)
        if unknown in asg:
            raise ValueError("step %d wants to rebind %s" % (k, unknown))
        asg = asg.bind(unknown, solve_linear_step(eq, asg, unknown))
        if not check_equation(eq, asg):
            raise ArithmeticError("step %d does not close after its solve" % (k,))
    return asg
