"""The invariant battery: one registry that `fillpoly selftest` and the
test suite both run, so each invariant is written once.

CHECKS is the ordered list of (name, check).  A check takes a Ranges record
and a family_run provider, `family_run(name, sign, m) -> FillingResult`,
and returns (ok, detail); run_check turns a raised exception into a
failure.  FULL holds the ranges of a plain `selftest` and of the test
suite, QUICK the shrunken ones of `selftest --quick`.

Each seeded random check is one predicate over one drawn input, which
returns the failure detail or None.  The generators here feed the
predicates from a seeded Random; the hypothesis tests feed them drawn
inputs.
"""

import io
import random
from dataclasses import dataclass
from fractions import Fraction

from .cli import _apoly_payload, _emit_json_doc
from .families import (FAMILIES, MAX_TWIST_N, divides_conjugate,
                       family_chain, get_family, numeric_agreement,
                       run_family, twist_identities)
from .farey import (ORACLE_MAX_BOUND, FareyTriangle, Slope, Walk, _new_slope,
                    WordAnatomy, crossing_count, crossing_count_oracle,
                    is_neighbor, walk_labels)
from .hn import (TailEntry, h_recurrence_check, iterate_exchange,
                 symbolic_tail_values, tail_collapse, tail_poly)
from .matchings import (MAX_ENUM_RUNGS, TAIL_VARS, count_subsets,
                        count_subsets_oracle, enumerate_matchings,
                        matching_step_check, matching_sum)
from .newton import binomial_factors
from .poly import Poly, identity_holds, poly_divides
from .ptolemy import (BASE_EQ_LABELS, PVARS, check_equation, gamma_name,
                      load_values)
from .quadext import QuadExt
from .ratfunc import PoleError, RatFunc, parse_ratfunc


def _slope_pool(max_entry):
    pool = [Slope(1, 0)]
    for q in range(1, max_entry + 1):
        for p in range(-max_entry, max_entry + 1):
            s = Slope(p, q)
            if abs(s.p) <= max_entry and s.q <= max_entry and s not in pool:
                pool.append(s)
    return pool


# Largest --samples and --max-m that selftest accepts.  Each sets the run
# time of a plain selftest (2-vCPU Xeon, Python 3.11.7, one run each):
# --samples 20 / 100 / 400 / 1,000 took 5.2 / 7.7 / 15.9 / 38.0 s, about
# 0.03 s a draw; --max-m 4 / 6 / 8 took 5.2 / 10.3 / 24.7 s, about 1.5x
# per unit of m, as the family runs grow.
MAX_SAMPLES = 1000
MAX_M = 8


@dataclass(frozen=True)
class Ranges:
    """How far each check reaches.

    A size beyond what a check's module accepts is refused here, so that
    selftest rejects it before any check runs.
    """

    samples: int            # random draws per sampled check
    max_n: int              # size ceiling of the symbolic checks
    max_m: int              # largest tail length of the family runs
    h_recurrence_top: int   # collapsed-tail product recurrence, n = 4..top
    fibonacci_top: int      # matching counts, n = 1..top rungs
    step_top: int           # single-step matching recurrence, k = 2..top
    product_top: int        # two-step matching recurrence, n = 3..top
    gap_top: int            # matching product gap identity, n = 4..top
    coefficient_top: int    # coefficient counts of P(2n), n = 1..top
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be at least 1")
        if self.samples > MAX_SAMPLES:
            raise ValueError("sample count %d is above the limit of %d"
                             % (self.samples, MAX_SAMPLES))
        if self.max_n < 1 or self.max_m < 1:
            raise ValueError("size limits must be at least 1")
        if self.max_m > MAX_M:
            raise ValueError("max_m %d is above the family runs' limit of %d"
                             % (self.max_m, MAX_M))
        if 2 * self.max_n > MAX_ENUM_RUNGS:
            raise ValueError("max_n %d needs %d ladder rungs in "
                             "hn-equals-matching-sum; enumeration stops at %d"
                             % (self.max_n, 2 * self.max_n, MAX_ENUM_RUNGS))
        if self.max_n >= MAX_TWIST_N:
            raise ValueError("max_n %d needs A_%d in twist-recurrences; "
                             "twist polynomials stop at n = %d"
                             % (self.max_n, self.max_n + 1, MAX_TWIST_N))
        bound = self.oracle_bound()
        if bound > ORACLE_MAX_BOUND:
            raise ValueError("crossing-oracle bound %d is above the oracle's "
                             "limit of %d" % (bound, ORACLE_MAX_BOUND))

    def oracle_bound(self):
        """The oracle needs abs(p) + q of both slopes of a pair, summed,
        which over the slope pool of max_n is at most 4 * max_n."""
        return 4 * self.max_n + 1


FULL = Ranges(samples=20, max_n=8, max_m=4, h_recurrence_top=10,
              fibonacci_top=12, step_top=10, product_top=8, gap_top=8,
              coefficient_top=8)
QUICK = Ranges(samples=6, max_n=4, max_m=1, h_recurrence_top=6,
               fibonacci_top=8, step_top=6, product_top=5, gap_top=6,
               coefficient_top=4)


def family_runner():
    """A run_family provider that runs each (name, sign, m) once."""
    runs = {}

    def family_run(name, sign, m):
        key = (name, sign, m)
        if key not in runs:
            runs[key] = run_family(get_family(name, sign), m)
        return runs[key]

    return family_run


def run_check(check, ranges, family_run):
    """(ok, detail) of one check; a raised exception is a failure."""
    try:
        return check(ranges, family_run)
    except Exception as exc:
        return False, "raised %s: %s" % (type(exc).__name__, exc)


# --- seeded generators -------------------------------------------------------

XY = ("x", "y")
XYZ = ("x", "y", "z")


def _rand_coef(rng, allow_fraction=True):
    c = rng.randint(-6, 6)
    if allow_fraction and rng.random() < 0.25:
        return Fraction(c, rng.randint(2, 4))
    return c


def _rand_poly(rng, vars, max_deg=3, max_terms=4, allow_fraction=True,
               nonzero=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in vars)
        c = _rand_coef(rng, allow_fraction)
        if c:
            terms[exps] = terms.get(exps, 0) + c
    p = Poly(vars, terms)
    if nonzero and p.is_zero():
        return Poly.const(vars, rng.randint(1, 5))
    return p


def _rand_ratfunc(rng, vars=XY):
    num = _rand_poly(rng, vars, allow_fraction=False)
    den = _rand_poly(rng, vars, allow_fraction=False, nonzero=True)
    return RatFunc(num, den)


def _rand_point(rng, vars):
    return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in vars}


def _rand_unimodular(rng):
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            k = rng.randint(-3, 3)
            a, b = a + k * c, b + k * d
        else:
            a, b, c, d = -c, -d, a, b
    if rng.random() < 0.5:
        a, b = -a, -b   # flips the determinant to -1
    return a, b, c, d


def _apply_matrix(mat, s):
    a, b, c, d = mat
    return Slope(a * s.p + b * s.q, c * s.p + d * s.q)


def _rand_triangle(rng):
    base = (Slope(0, 1), Slope(1, 1), Slope(1, 0))
    mat = _rand_unimodular(rng)
    return tuple(_apply_matrix(mat, s) for s in base)


def _rand_walk(rng, min_len=2, max_len=10, forced_tail=0):
    o0, p0, f0 = _rand_triangle(rng)
    order = rng.sample((o0, p0, f0), 3)
    o0, p0, f0 = order
    h0 = _new_slope(o0, p0, f0)
    word = "".join(rng.choice("LR")
                   for _ in range(rng.randint(min_len, max_len)))
    if forced_tail:
        word += word[-1] * forced_tail
    return Walk(FareyTriangle(o0, p0, f0), FareyTriangle(h0, p0, f0), word)


# --- predicates over one drawn input -----------------------------------------


def ring_axioms(p, q, r):
    if (p + q) - q != p:
        return "p+q-q != p for p=%s q=%s" % (p, q)
    if p * q != q * p:
        return "p*q != q*p"
    if (p * q) * r != p * (q * r):
        return "(p*q)*r != p*(q*r)"
    if p * (q + r) != p * q + p * r:
        return "p*(q+r) != p*q+p*r"


def divides_roundtrip(d, q):
    """poly_divides(d, d*q) finds q; d must be nonzero."""
    ok, got = poly_divides(d, d * q)
    if not ok or got != q:
        return "d=%s q=%s" % (d, q)


def norm_multiplicative(x, y):
    if (x * y).conj_product() != x.conj_product() * y.conj_product():
        return "norm not multiplicative for %s, %s" % (x, y)


def evaluate_ring_hom(p, q, point):
    """Raises PoleError when the point is a pole of p, q, p*q or p+q."""
    vp, vq = p.evaluate(point), q.evaluate(point)
    vmul = (p * q).evaluate(point)
    vadd = (p + q).evaluate(point)
    if vmul != vp * vq:
        return "evaluate(p*q) != evaluate(p)*evaluate(q)"
    if vadd != vp + vq:
        return "evaluate(p+q) != evaluate(p)+evaluate(q)"


def walk_roles(walk):
    """Each step keeps two slopes of the previous triangle as p and f,
    drops the third as o, and adds a new h that is a neighbor of both."""
    labels = walk_labels(walk)
    for k in range(1, len(labels)):
        prev, cur = labels[k - 1], labels[k]
        prev_tri = {prev.h, prev.p, prev.f}
        if {cur.o, cur.p, cur.f} != prev_tri or cur.h in prev_tri:
            return "role sets broken at step %d of %s" % (k, walk)
        if not (is_neighbor(cur.h, cur.p) and is_neighbor(cur.h, cur.f)):
            return "step %d of %s leaves the Farey triangulation" % (k, walk)


def crossing_symmetric(s, h):
    """The count is symmetric, and zero exactly for Farey neighbors."""
    count = crossing_count(s, h)
    if count != crossing_count(h, s):
        return "asymmetric at (%s, %s)" % (s, h)
    if (count == 0) != is_neighbor(s, h):
        return "zero count and neighborhood disagree at (%s, %s)" % (s, h)


def crossing_unimodular(s, h, mat):
    """The count is invariant under the matrix (a, b, c, d), det +-1."""
    if crossing_count(s, h) != crossing_count(_apply_matrix(mat, s),
                                              _apply_matrix(mat, h)):
        return "not invariant at (%s, %s) under %s" % (s, h, mat)


# --- the checks, in registry order ------------------------------------------


CHECKS = []


def _check(name):
    """Append the decorated function to CHECKS as the check `name`."""
    def register(check):
        CHECKS.append((name, check))
        return check
    return register


def _sampled(predicate, draw, reps, detail):
    """The predicate over `reps` draws: the first failure, or the detail."""
    for _ in range(reps):
        failure = predicate(*draw())
        if failure:
            return False, failure
    return True, detail


@_check("poly-ring-axioms")
def _poly_ring_axioms(r, family_run):
    rng = random.Random(r.seed + 1)
    return _sampled(ring_axioms, lambda: [_rand_poly(rng, XYZ) for _ in "pqr"],
                    r.samples, "%d random triples" % r.samples)


def _agree_at_points(rng, a, b, want, count=20):
    """Does pointwise equality at `count` non-singular points equal `want`?"""
    seen_diff = False
    done = 0
    while done < count:
        point = _rand_point(rng, a.vars)
        try:
            va = a.evaluate(point)
            vb = b.evaluate(point)
        except PoleError:
            continue
        done += 1
        if va != vb:
            seen_diff = True
            if not want:
                return True     # expected a difference and found one
    return (not seen_diff) == want


@_check("ratfunc-eq-vs-eval")
def _ratfunc_eq_vs_eval(r, family_run):
    rng = random.Random(r.seed + 2)
    reps = max(2, r.samples // 4)
    for _ in range(reps):
        a = _rand_ratfunc(rng)
        junk = _rand_poly(rng, a.vars, allow_fraction=False, nonzero=True)
        same = RatFunc(a.num * junk, a.den * junk)
        if a != same:
            return False, "cross-multiplication rejects an equal pair"
        if not _agree_at_points(rng, a, same, True):
            return False, "equal pair disagrees at a sample point"
        other = a + RatFunc.one(a.vars)
        if a == other:
            return False, "cross-multiplication accepts p and p+1"
        if not _agree_at_points(rng, a, other, False):
            return False, "unequal pair agrees at 20 sample points"
    return True, "%d pairs, 20 points each" % reps


@_check("poly-divides-roundtrip")
def _poly_divides_roundtrip(r, family_run):
    rng = random.Random(r.seed + 3)
    return _sampled(divides_roundtrip,
                    lambda: [_rand_poly(rng, XY, nonzero=True) for _ in "dq"],
                    r.samples, "%d random (d, q) pairs" % r.samples)


@_check("quadext-norm-multiplicative")
def _quadext_norm(r, family_run):
    rng = random.Random(r.seed + 4)
    reps = max(2, r.samples // 4)
    rad = parse_ratfunc("1 - L", PVARS)
    return _sampled(norm_multiplicative,
                    lambda: [QuadExt(_rand_ratfunc(rng, PVARS),
                                     _rand_ratfunc(rng, PVARS), rad)
                             for _ in "xy"],
                    reps, "%d random pairs" % reps)


@_check("evaluate-ring-hom")
def _evaluate_ring_hom(r, family_run):
    rng = random.Random(r.seed + 5)
    done = 0
    while done < r.samples:
        p = _rand_ratfunc(rng)
        q = _rand_ratfunc(rng)
        try:
            failure = evaluate_ring_hom(p, q, _rand_point(rng, p.vars))
        except PoleError:
            continue
        done += 1
        if failure:
            return False, failure
    return True, "%d points" % r.samples


@_check("walk-role-sets")
def _walk_role_sets(r, family_run):
    rng = random.Random(r.seed + 6)
    return _sampled(walk_roles, lambda: [_rand_walk(rng)], r.samples,
                    "%d random walks" % r.samples)


@_check("walk-tail-roles")
def _walk_tail_roles(r, family_run):
    rng = random.Random(r.seed + 7)
    for _ in range(r.samples):
        walk = _rand_walk(rng, forced_tail=rng.randint(2, 4))
        labels = walk_labels(walk)
        wa = WordAnatomy(walk.word)
        k = wa.tail_start_step
        run = len(wa.tail) + (1 if wa.tip_matches_tail else 0)
        for j in range(1, run):
            cur = labels[k + j]
            if cur.p != labels[k].p:
                return False, "pivot moved inside the tail of %s" % (walk,)
            if cur.f != labels[k + j - 1].h:
                return False, "fan is not the previous new slope"
            older = labels[k + j - 2].h if j >= 2 else labels[k].f
            if cur.o != older:
                return False, "dropped slope is not the older new slope"
    return True, "%d tailed walks" % r.samples


@_check("crossing-symmetry")
def _crossing_symmetry(r, family_run):
    rng = random.Random(r.seed + 8)
    pool = _slope_pool(12)
    return _sampled(crossing_symmetric, lambda: rng.sample(pool, 2),
                    r.samples, "%d random pairs" % r.samples)


@_check("crossing-unimodular-invariance")
def _crossing_unimodular(r, family_run):
    rng = random.Random(r.seed + 9)
    pool = _slope_pool(12)
    return _sampled(crossing_unimodular,
                    lambda: rng.sample(pool, 2) + [_rand_unimodular(rng)],
                    r.samples, "%d pair/matrix draws" % r.samples)


@_check("crossing-oracle-stability")
def _crossing_oracle(r, family_run):
    pool = _slope_pool(r.max_n)
    bound = r.oracle_bound()
    pairs = 0
    for i, s in enumerate(pool):
        for h in pool[i + 1:]:
            c = crossing_count(s, h)
            for b in (bound, bound + 1):
                if c != crossing_count_oracle(s, h, b):
                    return False, "oracle bound %d disagrees at (%s, %s)" % (b, s, h)
            pairs += 1
    return True, "%d pairs at bounds %d and %d" % (pairs, bound, bound + 1)


@_check("matching-step-recurrences")
def _matching_steps(r, family_run):
    for k in range(2, r.step_top + 1):
        if not matching_step_check(k):
            return False, "single-step recurrence fails at k=%d" % k
    return True, "k = 2..%d" % r.step_top


@_check("matching-product-recurrence")
def _matching_product(r, family_run):
    f2, o2, p2 = (Poly.variable(TAIL_VARS, v) ** 2 for v in TAIL_VARS)
    for n in range(3, r.product_top + 1):
        if not identity_holds(
                [(matching_sum(2 * n),), (f2 * o2, matching_sum(2 * n - 4))],
                [(matching_sum(2 * n - 2), f2 + o2 - p2)]):
            return False, "two-step recurrence fails at n=%d" % n
    return True, "n = 3..%d" % r.product_top


@_check("matching-gap-identity")
def _matching_gap(r, family_run):
    for n in range(4, r.gap_top + 1):
        cross = Poly.monomial(TAIL_VARS, (n - 3, n - 2, 1))
        mid = matching_sum(2 * n - 4)
        if not identity_holds(
                [(matching_sum(2 * n - 2), matching_sum(2 * n - 6)),
                 (cross, cross)], [(mid, mid)]):
            return False, "product gap identity fails at n=%d" % n
    return True, "n = 4..%d" % r.gap_top


@_check("matching-coefficient-counts")
def _matching_coefficients(r, family_run):
    """P(2n) is the sum over a + b <= n of +-count_subsets(n, a, b) times
    f^(2a) o^(2b) p^(2(n-a-b)) and has no other terms; the closed count
    equals the enumerated one for every a, b <= n."""
    top = r.coefficient_top
    for n in range(1, top + 1):
        left = dict(matching_sum(2 * n).terms)
        for a in range(n + 1):
            for b in range(n + 1):
                want = count_subsets(n, a, b)
                if want != count_subsets_oracle(n, a, b):
                    return False, "closed form vs oracle at (%d,%d,%d)" % (n, a, b)
                if a + b > n:
                    continue
                exps = (2 * a, 2 * b, 2 * (n - a - b))
                sign = 1 if (n - a - b) % 2 == 0 else -1
                if left.pop(exps, 0) * sign != want:
                    return False, "coefficient (%d,%d) of P(%d)" % (a, b, 2 * n)
        if left:
            return False, "P(%d) has unexpected terms %s" % (2 * n, sorted(left))
    return True, "all (a, b) for n <= %d" % top


@_check("matching-fibonacci-counts")
def _fibonacci(r, family_run):
    fa, fb = 1, 1   # F(1), F(2)
    for n in range(1, r.fibonacci_top + 1):
        fa, fb = fb, fa + fb
        if len(enumerate_matchings(n)) != fa:
            return False, "count at n=%d is not Fibonacci(%d)" % (n, n + 1)
    return True, "n = 1..%d" % r.fibonacci_top


@_check("hn-equals-matching-sum")
def _hn_equals_pn(r, family_run):
    for n in range(1, r.max_n + 1):
        if tail_poly(n) != matching_sum(2 * n):
            return False, "H(%d) != P(%d)" % (n, 2 * n)
    return True, "n = 1..%d" % r.max_n


@_check("laurent-denominator")
def _laurent_denominator(r, family_run):
    f, o, p = symbolic_tail_values()
    for n in range(1, r.max_n + 1):
        val = iterate_exchange(f, o, p, n)
        den = Poly.monomial(TAIL_VARS, (n - 1, n, 0))
        if val.den != den:
            return False, "denominator at n=%d is %s" % (n, val.den)
        if any(Fraction(c).denominator != 1 for c in val.num.terms.values()):
            return False, "non-integer numerator coefficient at n=%d" % n
        if val * RatFunc(den) != RatFunc(tail_poly(n)):
            return False, "iterated exchange != H(%d) / (f^%d o^%d)" % (n, n - 1, n)
    return True, "n = 1..%d" % r.max_n


@_check("tail-linear-recurrence")
def _tail_linear_recurrence(r, family_run):
    """x_(k+1) + x_(k-1) == K x_k along the iterated exchange x_0 = o,
    x_1 = f, and tail_collapse, which runs that linear recurrence, gives
    the same x_(n+1) as n exchanges."""
    f, o, p = symbolic_tail_values()
    entry = TailEntry(f, o, p)
    invariant = (f * f + o * o - p * p) / (f * o)
    older, x = o, f
    for n in range(1, r.max_n + 1):
        newer = iterate_exchange(f, o, p, n)
        if newer + older != invariant * x:
            return False, "x_%d + x_%d != K x_%d" % (n + 1, n - 1, n)
        if tail_collapse(entry, n) != newer:
            return False, "tail_collapse != iterate_exchange at n=%d" % n
        older, x = x, newer
    return True, "k = 1..%d" % r.max_n


@_check("collapse-crossing-exponents")
def _collapse_crossings(r, family_run):
    entry = TailEntry(*symbolic_tail_values())
    for n in range(1, r.max_n + 1):
        got = tail_collapse(entry, n).den.max_degrees()
        h = Slope(1, n)
        want = (crossing_count(Slope(1, 0), h),
                crossing_count(Slope(-1, 1), h),
                0 if Slope(0, 1) == h else crossing_count(Slope(0, 1), h))
        if got != want:
            return False, "denominator exponents %s != crossings %s at n=%d" \
                % (got, want, n)
    return True, "n = 1..%d" % r.max_n


@_check("h-product-recurrence")
def _h_recurrence(r, family_run):
    for n in range(4, r.h_recurrence_top + 1):
        if not h_recurrence_check(n):
            return False, "three-term product identity fails at n=%d" % n
    return True, "n = 4..%d" % r.h_recurrence_top


@_check("chain-back-audit")
def _chain_back_audit(r, family_run):
    for (name, sign), spec in FAMILIES.items():
        eqs = spec.equations()
        chain = family_chain(spec)
        for label in BASE_EQ_LABELS[name]:
            if not check_equation(eqs[label], chain.asg):
                return False, "%s/%s: %s residual nonzero" % (name, sign, label)
        for k, eq in enumerate(chain.step_eqs):
            if not check_equation(eq, chain.asg):
                return False, "%s/%s: step %d residual nonzero" % (name, sign, k)
    return True, "every consumed equation, all four runs"


@_check("fixture-table-audit")
def _fixture_table_audit(r, family_run):
    """Substitute the transcribed closed forms into their defining equations.

    The stored closed form for g_-1/1 is known to be -1 times the value
    equation step3neg forces (the chain-solved value), so that one
    residual is expected to be nonzero; it is reported as the failure it
    is rather than patched over.
    """
    fixtures = load_values("pretzel238_values.txt")
    bad = []
    for sign in ("pos", "neg"):
        spec = get_family("pretzel238", sign)
        eqs = spec.equations()
        chain = family_chain(spec).asg
        asg = spec.base_assignment().bind("g_2/1", chain.value("g_2/1"))
        for fname in ("g_1/1", "g_0/1", "g_1/2" if sign == "pos" else "g_-1/1"):
            if gamma_name(Slope.parse(fname[2:])) != fname:
                return False, "fixture name %r does not round-trip" % fname
            asg = asg.bind(fname, fixtures[fname])
        if fixtures["g_1/0"] != asg.value("g_1/0"):
            bad.append("%s: stored g_1/0 differs from the derived value" % sign)
        for label in BASE_EQ_LABELS["pretzel238"] + spec.step_labels:
            if not check_equation(eqs[label], asg):
                bad.append("%s: %s residual nonzero" % (sign, label))
    if bad:
        note = ""
        if all("step3neg" in b for b in bad):
            note = (" (known discrepancy: the stored closed form for g_-1/1"
                    " is -1 times the value its own equation forces)")
        return False, "; ".join(bad) + note
    return True, "all transcribed values satisfy their equations"


@_check("normalization-independence")
def _normalization_independence(r, family_run):
    """Every RatFunc part of every chain value is in its stored form: one
    that RatFunc.reduced returns unchanged, as the same object."""
    for (name, sign), spec in FAMILIES.items():
        asg = family_chain(spec).asg
        for gname in asg.names():
            v = asg.value(gname)
            parts = (v,) if isinstance(v, RatFunc) else (v.a, v.b)
            if any(x.reduced() is not x for x in parts):
                return False, "%s/%s %s changes under reduction" \
                    % (name, sign, gname)
    return True, "chain values are normalization-independent"


@_check("whitehead-purity")
def _whitehead_purity(r, family_run):
    for sign in ("pos", "neg"):
        asg = family_chain(get_family("whitehead", sign)).asg
        for gname in asg.names():
            v = asg.value(gname)
            if isinstance(v, QuadExt) and not v.is_pure_root():
                return False, "%s %s is stored as a QuadExt with a rational" \
                    " part" % (sign, gname)
    return True, "every bound value is pure rational or pure root"


@_check("whitehead-conjugate-rational")
def _whitehead_conjugate(r, family_run):
    for sign in ("pos", "neg"):
        result = family_run("whitehead", sign, 1)
        expr = result.expression
        if not isinstance(expr, QuadExt):
            return False, "%s expression lost its root part" % sign
        if expr.b.is_zero():
            return False, "%s expression has a zero root part" % sign
        if not isinstance(result.conjugate_product, RatFunc):
            return False, "%s conjugate product is not rational" % sign
        if expr.conj_product() != result.conjugate_product:
            return False, "%s conjugate product is not the expression's" % sign
    return True, "root part present, conjugate product rational"


@_check("twist-divisibility")
def _twist_divisibility(r, family_run):
    for sign in ("pos", "neg"):
        spec = get_family("whitehead", sign)
        for m in range(1, r.max_m + 1):
            if not divides_conjugate(spec, m, family_run("whitehead", sign, m)):
                return False, "factorisation fails at %s m=%d" % (sign, m)
    return True, "both signs, m = 1..%d" % r.max_m


@_check("twist-recurrences")
def _twist_recurrences(r, family_run):
    for name, holds in twist_identities(r.max_n):
        if not holds():
            return False, name
    return True, "pos 2..%d, neg 1..%d, both base identities" % (r.max_n, r.max_n)


@_check("pretzel-numeric-agreement")
def _numeric_agreement(r, family_run):
    for sign in ("pos", "neg"):
        spec = get_family("pretzel238", sign)
        for m in range(1, r.max_m + 1):
            result = family_run("pretzel238", sign, m)
            if not numeric_agreement(spec, m, r.samples, r.seed + m, result):
                return False, "mismatch at %s m=%d" % (sign, m)
    return True, "both signs, m = 1..%d, %d points each" % (r.max_m, r.samples)


def lowest_terms_failure(value):
    """Certify that a RatFunc is in lowest terms, or say why not.

    Strips the binomial factors of the denominator
    (newton.binomial_factors); what remains must be a single term, no
    stripped factor may divide the numerator, and the two sides may share
    no variable in their monomial content.  Each binomial factor is
    irreducible (its Newton polygon is a segment with no lattice point
    inside), so that proves gcd 1 without computing a gcd.  Returns the
    failure detail or None.
    """
    found, den = binomial_factors(value.den)
    if len(den.terms) != 1:
        return ("denominator keeps a %d-term factor outside its binomial"
                " factors" % len(den.terms))
    for b, _ in found:
        if poly_divides(b, value.num)[0]:
            return "%s divides numerator and denominator" % b
    shared = [v for v, a, b in zip(value.vars, value.num.monomial_content(),
                                   value.den.monomial_content()) if a and b]
    if shared:
        return "%s divides numerator and denominator" % shared[0]


@_check("lowest-terms")
def _lowest_terms(r, family_run):
    """Every rational part of every output is certified in lowest terms.

    basis_changed is not checked: it is the conjugate product under the
    unimodular monomial map L -> +-L*M^e, which keeps coprimality in the
    Laurent ring, so it inherits the certificate.
    """
    values = 0
    for name, sign in FAMILIES:
        for m in range(1, r.max_m + 1):
            result = family_run(name, sign, m)
            expr = result.expression
            parts = [("expression", expr)] if isinstance(expr, RatFunc) else \
                [("expression.a", expr.a), ("expression.b", expr.b),
                 ("expression.rad", expr.rad)]
            if result.conjugate_product is not expr:
                parts.append(("conjugate_product", result.conjugate_product))
            for part, value in parts:
                failure = lowest_terms_failure(value)
                if failure:
                    return False, "%s/%s m=%d %s: %s" \
                        % (name, sign, m, part, failure)
                values += 1
    return True, "%d values, both families and signs, m = 1..%d" \
        % (values, r.max_m)


@_check("render-determinism")
def _render_determinism(r, family_run):
    result = family_run("pretzel238", "pos", 1)
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        _emit_json_doc(buf.write, _apoly_payload(result))
        outs.append(buf.getvalue())
    if outs[0] != outs[1]:
        return False, "same payload rendered differently"
    return True, "%d bytes, byte-identical twice" % len(outs[0])
