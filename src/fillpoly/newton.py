"""Binomial factors of a polynomial in two variables, from its Newton polygon.

By Ostrowski's theorem the Newton polygon of a product is the Minkowski
sum of its factors' polygons.  A binomial b*x^(s+) - a*x^(s-), with s a
primitive step (the gcd of its entries is 1) and s+ and s- its positive
and negative parts, has for its polygon a segment parallel to s.  So it
lies parallel to an edge of the polygon of every polynomial it divides,
and a/b is a rational root of that edge's polynomial: the coefficients
read along the edge in steps of s, as a polynomial in one variable.
The segment holds no lattice point inside, so the binomial cannot split
into two non-monomial factors: it is irreducible.

edge_binomials reads every edge, and takes each rational root by the
rational root test: read off directly on an edge of lattice length 1,
searched on a longer one whose end coefficients are at most MAX_ROOT_END
(a longer edge past it proposes nothing).  The binomial's multiplicity
in p is at most that root's multiplicity, so at most the edge's lattice
length g (the gcd of its step): the edge polynomial has degree g.
binomial_factors strips each binomial by exact division
(poly.divide_out), at most g times.  The one-variable binomials are
stripped first: on the 40 output denominators of the family runs at
m <= 4, taking L -+ M before M -+ 1 made the stripping four times slower
(1.6 s against 0.38 s, 2-vCPU Xeon, Python 3.11.7).
"""

from math import gcd, isqrt

from .poly import Poly, divide_out


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points):
    """Vertices of the convex hull of 2-D integer points, counterclockwise
    from the lex-smallest, with no three collinear (Andrew's monotone
    chain).  One point gives no vertex, a segment its two ends."""
    def half(pts):
        out = []
        for q in pts:
            while len(out) > 1 and _cross(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    pts = sorted(set(points))
    return half(pts) + half(reversed(pts))


# Largest end coefficient of an edge of lattice length 2 or more whose
# rational roots are searched.  The search trial-divides both end
# coefficients up to their square roots, at most 1,000 steps each here;
# past the bound the edge proposes no binomial, so such a factor stays in
# binomial_factors' rest.  No family run meets an end coefficient above 1.
MAX_ROOT_END = 10 ** 6


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if not n % d]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_roots(coefs):
    """Coprime (a, b), b > 0, with sum c_i a^i b^(g-i) == 0: the roots a/b
    of sum c_i t^i, whose end coefficients are nonzero ints.  The roots of
    an edge of length 2 or more are searched only up to MAX_ROOT_END."""
    content = gcd(*coefs)
    coefs = [c // content for c in coefs]
    if len(coefs) == 2:
        c0, c1 = coefs
        yield (-c0, c1) if c1 > 0 else (c0, -c1)
        return
    if max(abs(coefs[0]), abs(coefs[-1])) > MAX_ROOT_END:
        return
    g = len(coefs) - 1
    heads = _divisors(coefs[0])
    for b in _divisors(coefs[-1]):
        for a in heads:
            if gcd(a, b) != 1:
                continue
            for a in (a, -a):
                if not sum(c * a ** i * b ** (g - i)
                           for i, c in enumerate(coefs) if c):
                    yield a, b


def edge_binomials(p):
    """[(binomial, g)] for the binomials b*x^(s+) - a*x^(s-) that the edges
    of p's Newton polygon admit, g the lattice length of the shortest edge
    that gives each, the one-variable binomials first.

    Each binomial is primitive with a positive leading coefficient.  Every
    binomial factor of p is among them, unless the edge it lies along is
    longer than 1 and has an end coefficient past MAX_ROOT_END, and
    divides p at most g times; a binomial listed need not divide p.  Only
    a polynomial in exactly two variables has edges; any other gives [].
    """
    if len(p.vars) != 2:
        return []
    terms = p.primitive()[1].terms
    vertices = hull(terms)
    cands = {}
    for u, v in zip(vertices, vertices[1:] + vertices[:1]):
        g = gcd(v[0] - u[0], v[1] - u[1])
        s = ((v[0] - u[0]) // g, (v[1] - u[1]) // g)
        coefs = [terms.get((u[0] + i * s[0], u[1] + i * s[1]), 0)
                 for i in range(g + 1)]
        plus = (max(s[0], 0), max(s[1], 0))
        minus = (max(-s[0], 0), max(-s[1], 0))
        for a, b in _rational_roots(coefs):
            binomial = Poly(p.vars, {plus: b, minus: -a})
            if binomial.leading_term()[1] < 0:
                binomial = -binomial
            key = str(binomial)
            if key not in cands or g < cands[key][1]:
                cands[key] = (binomial, g)
    return sorted(cands.values(), key=lambda bg: all(bg[0].max_degrees()))


def binomial_factors(p):
    """([(binomial, multiplicity)], rest) with p == rest * prod b^e.

    The binomials are those of edge_binomials(p) that divide p, in its
    order.  rest keeps p's content, its monomial content and every other
    factor; a polynomial in other than two variables comes back whole.
    """
    found = []
    for binomial, g in edge_binomials(p):
        e, p = divide_out(binomial, p, limit=g)
        if e:
            found.append((binomial, e))
    return found, p
