"""Weighted perfect matchings of ladder graphs.

A ladder with n rungs has perfect matchings in bijection with the subsets
of {1..n-1} without consecutive elements: each selected position i pairs
rungs i and i+1 through the two horizontal edges, and every unpaired rung
is matched by its own rung edge.  Rung i carries weight (-1)^(i+1) * g_p,
a horizontal pair at position i carries g_f^2 for odd i and g_o^2 for even
i.  The weighted sum over all matchings gives a three-variable polynomial
whose coefficients have a closed binomial form, verified here by brute
force.

Every edge weight is a single term, so a matching's weight is one term
too: its exponents are the sum of its edges' exponents and its
coefficient the product of theirs.  matching_sum walks every matching and
adds its term into one dict, with no binomials and nothing shared between
sub-ladders, so it stays an independent check of H(n) and of the
two-term recurrence.
"""

from math import comb, prod

from .poly import Poly, identity_holds

TAIL_VARS = ("g_f", "g_o", "g_p")

# enumeration is exponential by design; refuse sizes past this
MAX_ENUM_RUNGS = 24


def enumerate_matchings(n):
    """All no-consecutive subsets of {1..n-1}, as sorted tuples.

    These are exactly the perfect matchings of the n-rung ladder.  The
    count is the Fibonacci number F(n+1) with F(1) = F(2) = 1.  A
    depth-first walk visits each subset before its extensions and those
    before its next sibling, so the list comes out sorted.
    """
    if n < 1:
        raise ValueError("ladder needs at least one rung")
    if n > MAX_ENUM_RUNGS:
        raise ValueError("refusing to enumerate %d rungs (limit %d)"
                         % (n, MAX_ENUM_RUNGS))
    out = []

    def walk(sel, start):
        out.append(sel)
        for i in range(start, n):
            walk(sel + (i,), i + 2)

    walk((), 1)
    return out


def pair_weight(i):
    """Weight of the horizontal pair joining rungs i and i+1."""
    name = "g_f" if i % 2 else "g_o"
    return Poly.variable(TAIL_VARS, name) ** 2


def rung_weight(i):
    """Weight of the rung edge at rung i; signs alternate starting +."""
    g_p = Poly.variable(TAIL_VARS, "g_p")
    return g_p if i % 2 else -g_p


def matching_weights(n, selections):
    """Weights of matchings of the n-rung ladder, one per selection.

    The ladder's edge weights are built once for the whole list.
    """
    weights = _edge_weights(n)
    out = []
    for selection in selections:
        covered = set()
        for i in selection:
            if not 1 <= i <= n - 1:
                raise ValueError("pair position %d out of range for %d rungs"
                                 % (i, n))
            if i in covered or i + 1 in covered:
                raise ValueError("overlapping pairs in %r" % (selection,))
            covered.add(i)
            covered.add(i + 1)
        exps, coef = _weigh(n, selection, weights)
        out.append(Poly(TAIL_VARS, {exps: coef}))
    return out


def _term(weight):
    """The (exponents, coefficient) of a one-term edge weight."""
    (term,) = weight.terms.items()
    return term


def _edge_weights(n):
    """The n-rung ladder's pair and rung weights as terms, indexed from 1."""
    return ([None] + [_term(pair_weight(i)) for i in range(1, n)],
            [None] + [_term(rung_weight(j)) for j in range(1, n + 1)])


def _weigh(n, selection, weights):
    """Product of the edge weights of a valid matching, as one term."""
    pairs, rungs = weights
    covered = set(selection).union([i + 1 for i in selection])
    edges = [pairs[i] for i in selection]
    edges += [rungs[j] for j in range(1, n + 1) if j not in covered]
    return (tuple(map(sum, zip(*[e for e, _ in edges]))),
            prod([c for _, c in edges]))


def matching_sum(n):
    """Sum of matching weights over the whole ladder, by enumeration."""
    weights = _edge_weights(n)
    terms = {}
    for sel in enumerate_matchings(n):
        exps, coef = _weigh(n, sel, weights)
        terms[exps] = terms.get(exps, 0) + coef
    return Poly(TAIL_VARS, terms)


def _sum_or_one(k):
    return Poly.one(TAIL_VARS) if k == 0 else matching_sum(k)


def matching_step_check(k):
    """Does the parity-matched two-term recurrence hold at step k (k >= 2)?

    Splitting on whether the last rung is paired gives
      odd  k:  S(k) =  g_p * S(k-1) + g_o^2 * S(k-2)
      even k:  S(k) = -g_p * S(k-1) + g_f^2 * S(k-2)
    with S(0) = 1.
    """
    if k < 2:
        raise ValueError("recurrence needs k >= 2")
    g_p = Poly.variable(TAIL_VARS, "g_p")
    pair = Poly.variable(TAIL_VARS, "g_o" if k % 2 else "g_f") ** 2
    return identity_holds([(matching_sum(k),)],
                          [(g_p if k % 2 else -g_p, _sum_or_one(k - 1)),
                           (pair, _sum_or_one(k - 2))])


def binom(x, k):
    """Binomial with the convention C(x, 0) = 1 for every integer x."""
    if k == 0:
        return 1
    if k < 0 or x < 0 or k > x:
        return 0
    return comb(x, k)


def count_subsets(n, a, b):
    """Closed form for the number of no-consecutive subsets of {1..2n-1}
    with exactly a odd and b even elements."""
    if n < 1 or a < 0 or b < 0:
        raise ValueError("need n >= 1 and non-negative a, b")
    return binom(n - 1 - a, b) * binom(n - b, a)


def count_subsets_oracle(n, a, b):
    """The same count by direct enumeration."""
    if n < 1 or a < 0 or b < 0:
        raise ValueError("need n >= 1 and non-negative a, b")
    hits = 0
    for sel in enumerate_matchings(2 * n):
        odd = sum(1 for i in sel if i % 2)
        if odd == a and len(sel) - odd == b:
            hits += 1
    return hits
