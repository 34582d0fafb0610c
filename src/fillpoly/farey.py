"""Slopes, Farey neighbors, triangle walks and crossing counts.

Slopes are reduced fractions p/q with q >= 0, plus the slope at infinity
stored as 1/0.  Two slopes are neighbors when |determinant| of their
coordinate vectors is 1; triples of mutual neighbors form triangles, and a
walk is a start triangle, the adjacent triangle entered first, and a word
over {L, R} describing which way the path continues through the triangle
fan at each subsequent vertex.

walk_labels assigns each step of the walk four slopes with fixed roles:
the slope just dropped (o), the new slope (h), and the two carried along
(p and f).  The recurrence for these roles, together with the convention
that the initial step is labelled like a step to the right, determines
every label from the two starting triangles alone.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

# Each part of a slope's text, as the polynomial reader takes an integer:
# decimal digits only, where int() would also take underscores and
# non-ASCII digits.
_DECIMAL_INT = re.compile(r"-?[0-9]+")


@dataclass(frozen=True, slots=True)
class Slope:
    """A reduced rational slope p/q with q >= 0; infinity is 1/0."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q == 0:
            if p == 0:
                raise ValueError("0/0 is not a slope")
            p = 1
        else:
            if q < 0:
                p, q = -p, -q
            g = gcd(abs(p), q)
            p //= g
            q //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text):
        num, slash, den = text.partition("/")
        parts = num.strip(), den.strip() if slash else "1"
        if not all(map(_DECIMAL_INT.fullmatch, parts)):
            raise ValueError("not a slope: %r (expected p/q or an integer)"
                             % (text,))
        return cls(*map(int, parts))

    def __str__(self):
        return "%d/%d" % (self.p, self.q)

    def __repr__(self):
        return "Slope(%s)" % (self,)


def det(s, t):
    return s.p * t.q - t.p * s.q


def is_neighbor(s, t):
    """Farey neighbors: determinant of the coordinate vectors is +-1."""
    return abs(det(s, t)) == 1


def _combine(a, b, sub=False):
    """Vector sum or difference of two slopes, as a normalized Slope."""
    if sub:
        return Slope(a.p - b.p, a.q - b.q)
    return Slope(a.p + b.p, a.q + b.q)


@dataclass(frozen=True, slots=True, init=False, eq=False)
class FareyTriangle:
    """Three mutually neighboring slopes; equal when the slope sets are."""

    slopes: tuple

    def __init__(self, a, b, c):
        slopes = (a, b, c)
        if len({(s.p, s.q) for s in slopes}) != 3:
            raise ValueError("triangle needs three distinct slopes")
        for i in range(3):
            for j in range(i + 1, 3):
                if not is_neighbor(slopes[i], slopes[j]):
                    raise ValueError("%s and %s are not Farey neighbors"
                                     % (slopes[i], slopes[j]))
        object.__setattr__(self, "slopes", slopes)

    def slope_set(self):
        return frozenset(self.slopes)

    def __eq__(self, other):
        if not isinstance(other, FareyTriangle):
            return NotImplemented
        return self.slope_set() == other.slope_set()

    __hash__ = None

    def __str__(self):
        return "{%s}" % ", ".join(str(s) for s in self.slopes)

    __repr__ = __str__


# Most letters a walk word may hold.  Each label of an alternating word
# is a pair of Fibonacci-sized slopes, so a label's text grows linearly
# with the step and a walk's trace quadratically: `farey walk` printed
# 0.87 MB for 1,000 alternating letters in 0.17 s, and 53.8 MB for 8,000
# in 2.0 s (a fresh process each, 2-vCPU Xeon, Python 3.11.7).
MAX_WALK_LETTERS = 1000


@dataclass(frozen=True, slots=True, eq=False)
class Walk:
    """A start triangle, the triangle entered first, and an L/R word of
    at most MAX_WALK_LETTERS letters."""

    t0: FareyTriangle
    t1: FareyTriangle
    word: str

    def __post_init__(self):
        t0, t1 = self.t0, self.t1
        if not isinstance(t0, FareyTriangle) or not isinstance(t1, FareyTriangle):
            raise TypeError("walk endpoints must be FareyTriangle")
        shared = t0.slope_set() & t1.slope_set()
        if len(shared) != 2:
            raise ValueError("triangles must share exactly one edge, got %s and %s"
                             % (t0, t1))
        word = str(self.word)
        if len(word) > MAX_WALK_LETTERS:
            raise ValueError("walk word of %d letters too large: walks allow "
                             "at most %d" % (len(word), MAX_WALK_LETTERS))
        if any(ch not in "LR" for ch in word):
            raise ValueError("walk word must use only L and R: %r" % (word,))
        object.__setattr__(self, "word", word)

    def __str__(self):
        return "%s -> %s word=%s" % (self.t0, self.t1, self.word or "(empty)")


@dataclass(frozen=True, slots=True, eq=False)
class StepLabels:
    """Role assignment of one walk step: dropped o, new h, carried p and f."""

    index: int
    o: Slope
    h: Slope
    p: Slope
    f: Slope

    def __str__(self):
        return "step %d: o=%s h=%s p=%s f=%s" % (self.index, self.o, self.h,
                                                 self.p, self.f)

    __repr__ = __str__


def _circular_key(s):
    """Sort key on the circle through all slopes, with 1/0 as the maximum."""
    if s.q == 0:
        return (1, Fraction(0))
    return (0, Fraction(s.p, s.q))


def walk_labels(walk):
    """Labels for steps 0..len(word) of the walk.

    Step 0 drops the slope of t0 absent from t1 and pulls in the slope of
    t1 absent from t0; the two shared slopes get the p and f roles, with p
    taken as the first shared slope encountered going up around the circle
    from h (the right-step convention for the initial step).  Later steps
    permute roles by whether the walk keeps turning the same way, and the
    new slope is always the vector sum or difference of p and f that is
    not the slope being dropped.
    """
    t0set = walk.t0.slope_set()
    t1set = walk.t1.slope_set()
    (o0,) = t0set - t1set
    (h0,) = t1set - t0set
    shared = sorted(t0set & t1set, key=_circular_key)
    kh = _circular_key(h0)
    after = [s for s in shared if _circular_key(s) > kh]
    ordered = after + [s for s in shared if _circular_key(s) <= kh]
    p0, f0 = ordered[0], ordered[1]
    if _new_slope(o0, p0, f0) != h0:
        raise ValueError("inconsistent step: %s,%s do not combine to %s and %s"
                         % (p0, f0, o0, h0))
    labels = [StepLabels(0, o0, h0, p0, f0)]
    prev_letter = "R"
    for k, letter in enumerate(walk.word, start=1):
        prev = labels[-1]
        if letter == prev_letter:
            o, p, f = prev.f, prev.p, prev.h
        else:
            o, p, f = prev.p, prev.f, prev.h
        h = _new_slope(o, p, f)
        labels.append(StepLabels(k, o, h, p, f))
        prev_letter = letter
    return labels


def _new_slope(o, p, f):
    plus = _combine(p, f)
    minus = _combine(p, f, sub=True)
    if plus == o:
        h = minus
    elif minus == o:
        h = plus
    else:
        raise ValueError("dropped slope %s is not a combination of %s and %s"
                         % (o, p, f))
    if not (is_neighbor(h, p) and is_neighbor(h, f)):
        raise ValueError("new slope %s fails the neighbor check" % (h,))
    return h


@dataclass(frozen=True, slots=True, eq=False)
class WordAnatomy:
    """Split of a walk word into body + tail + tip.

    The tip is the last letter, the tail is the maximal constant run
    immediately before it, and the body is whatever precedes the tail.
    The first tail step is step len(body) + 1 of the walk.
    """

    word: str
    body: str = field(init=False)
    tail: str = field(init=False)
    tip: str = field(init=False)
    tail_start_step: int = field(init=False)
    tip_matches_tail: bool = field(init=False)

    def __post_init__(self):
        word = str(self.word)
        if len(word) < 2:
            raise ValueError("word must have at least two letters: %r" % (word,))
        if any(ch not in "LR" for ch in word):
            raise ValueError("word must use only L and R: %r" % (word,))
        tip = word[-1]
        i = len(word) - 2
        ch = word[i]
        while i > 0 and word[i - 1] == ch:
            i -= 1
        body, tail = word[:i], word[i:-1]
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "tip", tip)
        object.__setattr__(self, "tail_start_step", len(body) + 1)
        object.__setattr__(self, "tip_matches_tail", tip == tail[0])

    def __str__(self):
        return "%s|%s|%s" % (self.body, self.tail, self.tip)


def anatomy(word):
    return WordAnatomy(word)


# --- crossing counts ---------------------------------------------------------


def crossing_count(s, h):
    """Number of triangulation edges separating two distinct slopes.

    Computed by moving s to infinity with a determinant-1 change of
    coordinates.  Each step of the mediant walk from the two integers
    around the image a/b down to it crosses one edge separating a/b from
    1/0.  The walk turns at the partial quotients [0; a1, ..., ak] of
    a/b's fractional part and takes a1 + ... + ak - 1 steps, a sum that
    Euclid's algorithm gives in O(log b) steps.
    """
    if not isinstance(s, Slope) or not isinstance(h, Slope):
        raise TypeError("crossing_count expects two Slopes")
    if s == h:
        raise ValueError("crossing count needs two distinct slopes")
    # unimodular map sending s to 1/0: (a, b) -> (u*a + v*b, -q*a + p*b)
    u, v = _bezout(s.p, s.q)
    a = u * h.p + v * h.q
    b = -s.q * h.p + s.p * h.q
    if b < 0:
        a, b = -a, -b
    if b == 0:
        raise ValueError("slopes coincide after reduction")
    if b == 1:
        return 0
    count = -1
    r, t = b, a % b
    while t:
        count += r // t
        r, t = t, r % t
    return count


def _bezout(p, q):
    """(u, v) with u*p + v*q == 1 for coprime p and q >= 0."""
    if not q:
        return p, 0     # p is 1 or -1
    u = pow(p, -1, q)
    return u, (1 - u * p) // q


# Largest bound crossing_count_oracle accepts.  The edge table grows
# roughly with bound^2 (561k edges built in about 0.2 s at bound 480, 1.19M
# in 0.4 s at 700, on a 2-vCPU Xeon; one count takes about half the build),
# and _edge_table's descent recurses about bound deep, so a bound near the
# interpreter's recursion limit would raise RecursionError.
ORACLE_MAX_BOUND = 500


def crossing_count_oracle(s, h, bound):
    """Brute-force crossing count: enumerate edges and test separation.

    Every edge of the triangulation whose endpoint entries stay within
    bound in absolute value is generated explicitly; the count is the
    number of such edges with s and h strictly on opposite sides.  The
    bound must dominate the entries of s and h combined, or the result
    could silently miss edges, so that is an error, and it may not
    exceed ORACLE_MAX_BOUND.
    """
    need = abs(s.p) + abs(s.q) + abs(h.p) + abs(h.q)
    if bound < need:
        raise ValueError("bound %d too small: need at least %d" % (bound, need))
    if bound > ORACLE_MAX_BOUND:
        raise ValueError("bound %d too large: the oracle allows at most %d"
                         % (bound, ORACLE_MAX_BOUND))
    if s == h:
        raise ValueError("crossing count needs two distinct slopes")
    sp, sq, hp, hq = s.p, s.q, h.p, h.q
    ends = {(sp, sq), (hp, hq)}
    count = 0
    # an edge separates s and h when exactly one of them lies strictly
    # between its ends a < b and neither is an end; 1/0 is never between
    for ap, aq, bp, bq in _edge_table(bound):
        if ((ap * sq < sp * aq and sp * bq < bp * sq)
                != (ap * hq < hp * aq and hp * bq < bp * hq)
                and (ap, aq) not in ends and (bp, bq) not in ends):
            count += 1
    return count


# Both callers in the package (`farey cross --oracle-bound` and the
# crossing-oracle-stability check) compare bound with bound + 1, and a
# table at ORACLE_MAX_BOUND holds 609k edges in about 70 MB, so two
# tables are cached and no more.
@lru_cache(maxsize=2)
def _edge_table(bound):
    """All triangulation edges with entries within bound.

    Returns a tuple of rows (ap, aq, bp, bq) with a < b going up around
    the circle; the vertical edge from n/1 to 1/0 is the row (n, 1, 1, 0).
    """
    edges = [(n, 1, 1, 0) for n in range(-bound, bound + 1)]

    def descend(ap, aq, bp, bq):
        mp, mq = ap + bp, aq + bq
        if abs(mp) > bound or mq > bound:
            return
        edges.append((ap, aq, mp, mq))
        edges.append((mp, mq, bp, bq))
        descend(ap, aq, mp, mq)
        descend(mp, mq, bp, bq)

    for n in range(-bound, bound):
        edges.append((n, 1, n + 1, 1))
        descend(n, 1, n + 1, 1)
    return tuple(edges)
