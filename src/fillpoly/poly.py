"""Sparse multivariate polynomials with exact rational coefficients.

A Poly owns an ordered tuple of variable names (the variable table) and a
dict mapping exponent tuples to nonzero coefficients.  Coefficients are
plain Python ints whenever they are integral and fractions.Fraction
otherwise, so all arithmetic is exact; the constructor and const refuse
any other coefficient type (float, Decimal, bool, str).  The monomial
order is lexicographic in the variable order; it fixes the canonical text
form and the sign convention used by RatFunc.

Exponents are ints (the constructor refuses any other type, bool
included) and never negative here.  Expressions with negative powers live
one level up, in RatFunc.
"""

import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, count, product, repeat
from math import comb, gcd, isqrt, prod
from operator import add, floordiv, itemgetter, lt, mul, sub


def _clean_coef(c):
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def exact_coef(c):
    """c as a Poly stores it; TypeError unless an int (no bool) or a Fraction.

    A float, Decimal or bool would enter inexact arithmetic and fail far
    from here, and Fraction() would quietly turn a float or a string into
    a value.
    """
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError("%r is neither an int nor a Fraction" % (c,))
    return _clean_coef(c)


def exact_int(n):
    """n itself; TypeError unless an int (a bool is not one).

    Exponents, shifts and signs are read through it, so that 1.5 or True
    cannot pass for an int.
    """
    if type(n) is not int:
        raise TypeError("%r is not an int" % (n,))
    return n


def _canonical(vars, terms):
    """Wrap terms built from canonical operands, collapsing integral Fractions.

    The arithmetic below drops zero sums as it goes and builds keys as sums
    of valid exponent tuples, so only the coefficient type can be off, and
    only when the result holds a Fraction.
    """
    if Fraction in set(map(type, terms.values())):
        terms = {e: _clean_coef(c) for e, c in terms.items()}
    return Poly._raw(vars, terms)


def _power_table(a, b, d):
    """([a^e * b^(d-e) for e in 0..d], b^d): x^e = T[e] / b^d for x = a/b."""
    apow = [1] * (d + 1)
    bpow = [1] * (d + 1)
    for i in range(1, d + 1):
        apow[i] = apow[i - 1] * a
        bpow[i] = bpow[i - 1] * b
    return [ae * be for ae, be in zip(apow, reversed(bpow))], bpow[d]


def _first_sums(terms, size, tables):
    """sums[e1] = the sum of c * T2[e2] * ... * Tn[en] over the (exps, c)
    terms, with T2..Tn the tables given (Poly.eval_many's one pass)."""
    sums = [0] * size
    # every family output is in (L, M) and every tail polynomial in
    # (g_f, g_o, g_p); unpacking the exponents makes a pass 2-3x faster
    # than the general loop's zip
    if len(tables) == 1:
        t1, = tables
        for (e0, e1), c in terms:
            sums[e0] += c * t1[e1]
    elif len(tables) == 2:
        t1, t2 = tables
        for (e0, e1, e2), c in terms:
            sums[e0] += c * t1[e1] * t2[e2]
    else:
        for exps, c in terms:
            for t, e in zip(tables, exps[1:]):
                c *= t[e]
            sums[exps[0]] += c
    return sums


class Poly:
    """Sparse exact polynomial in a fixed ordered set of variables.

    The constructor validates its input; the arithmetic builds its results
    in canonical form and wraps them without a second pass.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        vars = tuple(vars)
        nv = len(vars)
        if len(set(vars)) != nv:
            raise ValueError("duplicate variable names: %r" % (vars,))
        clean = {}
        if terms:
            for exps, c in terms.items():
                if type(c) is not int:
                    c = exact_coef(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != nv:
                    raise ValueError("exponent tuple %r does not match %d variables"
                                     % (exps, nv))
                if any(type(e) is not int for e in exps):
                    raise TypeError("exponent tuple %r holds a non-int"
                                    % (exps,))
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in %r" % (exps,))
                clean[exps] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle would otherwise restore the slots via __setattr__
        return Poly, (self.vars, self.terms)

    # --- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, vars, terms):
        """Internal: wrap an already-clean term dict without re-validating."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, value):
        value = exact_coef(value)
        if not value:
            return cls(vars, {})
        return cls(vars, {(0,) * len(tuple(vars)): value})

    @classmethod
    def one(cls, vars):
        return cls.const(vars, 1)

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        if name not in vars:
            raise ValueError("unknown variable %r (table is %r)" % (name, vars))
        exps = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exps: 1})

    @classmethod
    def monomial(cls, vars, exps, coef=1):
        return cls(vars, {tuple(exps): coef})

    # --- predicates and views -----------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        """The value of a constant polynomial, as int or Fraction."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def __len__(self):
        return len(self.terms)

    def max_degrees(self):
        """Componentwise maximum exponent vector."""
        if not self.terms:
            return (0,) * len(self.vars)
        # one C-level pass per variable; zip(*terms) builds a call with one
        # argument per term and is nearly 3x slower on 13,521 terms
        return tuple(max(map(itemgetter(i), self.terms))
                     for i in range(len(self.vars)))

    def leading_term(self):
        """(exponents, coefficient) of the lex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    # --- arithmetic -----------------------------------------------------

    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise ValueError("variable tables differ: %r vs %r"
                             % (self.vars, other.vars))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        # a bool is no coefficient, and compares unequal as a float does
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            return self.__eq__(Poly.const(self.vars, other))
        return NotImplemented

    __hash__ = None

    def __neg__(self):
        return Poly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                other = Poly.const(self.vars, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        self._check_same_vars(other)
        out = dict(self.terms)
        get = out.get
        for exps, c in other.terms.items():
            s = get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                del out[exps]
        return _canonical(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                other = exact_coef(other)           # TypeError for a bool
                if not other:
                    return Poly.zero(self.vars)
                return _canonical(self.vars,
                                  {e: c * other for e, c in self.terms.items()})
            if not isinstance(other, Poly):
                return NotImplemented
        self._check_same_vars(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.vars)
        if len(self.terms) * len(other.terms) >= _PACK_MIN_PAIRS:
            packed = _packed_mul(self, other)
            if packed is not None:
                return packed
        return self._mul_dict(other)

    __rmul__ = __mul__

    def _mul_dict(self, other):
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = {}
        get = out.get
        for eb, cb in b.items():
            for ea, ca in a.items():
                key = tuple(map(add, ea, eb))
                s = get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _canonical(self.vars, out)

    def __pow__(self, n):
        if exact_int(n) < 0:
            raise ValueError("Poly exponent must be non-negative")
        if len(self.terms) == 2:
            # the binomial theorem: the 48 two-term powers of the six pretzel
            # runs (both signs, m = 1..3) took 0.0035 s, and 0.030 s by
            # repeated squaring (2-vCPU Xeon, Python 3.11.7); the exponent
            # vectors of distinct i differ, so no two terms meet
            (ea, ca), (eb, cb) = self.terms.items()
            return _canonical(self.vars, {
                tuple(i * x + (n - i) * y for x, y in zip(ea, eb)):
                    comb(n, i) * ca ** i * cb ** (n - i)
                for i in range(n + 1)})
        if not n:
            return Poly.one(self.vars)
        # repeated squaring; the first factor is taken as it is, not
        # multiplied into 1
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # --- content and monomial normalization ------------------------------

    def content(self):
        """Positive rational content: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(0)
        if Fraction not in set(map(type, self.terms.values())):
            return Fraction(gcd(*self.terms.values()))
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            if isinstance(c, Fraction):
                num_gcd = gcd(num_gcd, c.numerator)
                den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
            else:
                num_gcd = gcd(num_gcd, c)
        return Fraction(num_gcd, den_lcm)

    def primitive(self):
        """(content, primitive part): prim has coprime integer coefficients."""
        c = self.content()
        if not c:
            return Fraction(0), self
        if c == 1:
            return c, self
        if c.denominator == 1:
            k = c.numerator
            terms = {e: coef // k if isinstance(coef, int) else _clean_coef(coef / k)
                     for e, coef in self.terms.items()}
        else:
            inv = 1 / c
            terms = {e: _clean_coef(coef * inv) for e, coef in self.terms.items()}
        return c, Poly._raw(self.vars, terms)

    def monomial_content(self):
        """Componentwise minimum exponent vector over all terms."""
        if not self.terms:
            return (0,) * len(self.vars)
        return tuple(min(map(itemgetter(i), self.terms))
                     for i in range(len(self.vars)))

    def shift_down(self, shift):
        """Divide by the monomial with the given exponent vector (must divide).

        The vector holds one non-negative int per variable.  A column of
        exponents at a time: each shifted variable's lowest exponent is
        checked once, and the column moved down by map.
        """
        if len(shift) != len(self.vars):
            raise ValueError("shift %r does not match %d variables"
                             % (shift, len(self.vars)))
        cols = []
        for i, s in enumerate(map(exact_int, shift)):
            col = list(map(itemgetter(i), self.terms))
            if s:
                if s < 0 or col and min(col) < s:
                    raise ValueError("monomial %r does not divide all terms"
                                     % (shift,))
                col = map(sub, col, repeat(s))
            cols.append(col)
        exps = zip(*cols) if cols else [()] * len(self.terms)
        return Poly._raw(self.vars, dict(zip(exps, self.terms.values())))

    # --- evaluation ------------------------------------------------------

    def eval_at(self, point):
        """Exact value at a point, given as a dict varname -> int/Fraction:
        eval_many of the one point."""
        return self.eval_many((point,))[0]

    def eval_many(self, points):
        """Exact values at a sequence of points, in input order; each point
        is a dict varname -> int/Fraction.

        Every point is checked before any term is read: each variable must
        have a value, and each value is taken as exact_coef takes a
        coefficient, so a float, Decimal, bool or string is a TypeError,
        not read as a number.

        Works in plain integers over one common denominator, which is much
        faster than Fraction arithmetic per term on big polynomials.  Each
        variable x = a/b of top degree d gets one table T[e] = a^e * b^(d-e)
        per distinct value, so a term c * x1^e1 * ... * xn^en is
        c * T1[e1] * ... * Tn[en] over the product of the b^d.  Terms are
        summed by their first exponent, sums[e1] += c * T2[e2] * ... *
        Tn[en] (_first_sums), and each nonzero sum is multiplied by T1[e1]
        once, so a term costs one product per variable after the first.

        The sums depend only on the values of x2..xn, and x2 = -a/b has the
        table of a/b with its odd entries negated.  So the points are
        grouped into classes by |x2| and the values of x3..xn.  A class
        holding both signs of a nonzero x2 reads the terms once, split by
        the parity of e2: the sums at +a/b and -a/b are even + odd and
        even - odd.  A class of one sign reads them once with its signed
        table.  Either way a class costs one pass however many points it
        holds, and is finished before the next starts, so one class's sums
        and x2 table are alive at a time; the x1 and x3..xn tables last the
        call.  A point given twice is evaluated once.  Fraction
        coefficients make their sums Fractions, which stays exact.
        """
        vars = self.vars
        rows = []
        for point in points:
            for v in vars:
                if v not in point:
                    raise ValueError("no value for variable %r" % (v,))
            xs = [exact_coef(point[v]) for v in vars]
            # (a, b) pairs hash in C; a Fraction hashes in Python
            rows.append(tuple([(x.numerator, x.denominator) for x in xs]))
        if not self.terms:
            return [Fraction(0)] * len(rows)
        if not vars:
            return [Fraction(self.terms[()])] * len(rows)
        degs = self.max_degrees()
        # the classes: |x2| and the values of x3..xn (nothing in one
        # variable); then the sign of x2, then the distinct values of x1
        classes = {}
        for row in rows:
            key, neg = row[1:], 0
            if key and key[0][0] < 0:
                a, b = key[0]
                key, neg = ((-a, b),) + key[1:], 1
            classes.setdefault(key, ({}, {}))[neg][row[0]] = None
        tables = [{} for _ in vars]    # x1's and x3..xn's

        def table(k, ab):
            got = tables[k].get(ab)
            if got is None:
                got = tables[k][ab] = _power_table(*ab, degs[k])
            return got

        size = degs[0] + 1
        terms = self.terms.items()
        halves = None
        values = {}
        for key, (pos, neg) in classes.items():
            ts, den = [], 1
            if key:
                a, b = key[0]
                t, den = _power_table(a if pos else -a, b, degs[1])
                ts.append(t)
            for k, ab in enumerate(key[1:], 2):
                t, d = table(k, ab)
                ts.append(t)
                den *= d
            if pos and neg:
                if halves is None:
                    halves = ([], [])
                    for item in terms:
                        halves[item[0][1] & 1].append(item)
                even, odd = [_first_sums(half, size, ts) for half in halves]
                sides = ((key, list(map(add, even, odd)), pos),
                         (((-a, b),) + key[1:], list(map(sub, even, odd)),
                          neg))
            else:
                signed = key if pos else ((-a, b),) + key[1:]
                sides = ((signed, _first_sums(terms, size, ts), pos or neg),)
            for signed, sums, heads in sides:
                for ab in heads:
                    t, head_den = table(0, ab)
                    total = sum(s * x for s, x in zip(sums, t) if s)
                    values[(ab,) + signed] = Fraction(total, head_den * den)
        return [values[row] for row in rows]

    # --- rendering -------------------------------------------------------

    def __str__(self):
        """Terms in descending lex order: "-3*x^2*y + x - 1/2".

        Built a column at a time: each variable's factor text ("*v",
        "*v^e" or "") is formatted once per distinct exponent, and the
        coefficient and factor columns are joined by map, so with int
        coefficients no Python code runs per term.  A unit coefficient is
        written only without a monomial: "1*x" loses its "1*".
        """
        if not self.terms:
            return "0"
        keys = sorted(self.terms, reverse=True)
        coefs = list(map(self.terms.__getitem__, keys))
        cols = [map(str, map(abs, coefs))]
        for i, v in enumerate(self.vars):
            col = list(map(itemgetter(i), keys))
            factor = {e: "*%s^%d" % (v, e) if e > 1 else "*" + v if e else ""
                      for e in set(col)}
            cols.append(map(factor.__getitem__, col))
        texts = map(str.removeprefix, map("".join, zip(*cols)), repeat("1*"))
        signs = map(("+ ", "- ").__getitem__, map(lt, coefs, repeat(0)))
        text = " ".join(map(add, signs, texts))
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return "Poly(%s)" % (self,)


# --- exact division ------------------------------------------------------
#
# poly_divides is sparse division in the manner of Monagan and Pearce
# (2011): the remainder's terms are taken largest monomial first, from the
# dividend's sorted terms merged with a max-heap of the terms the division
# adds, so only nonzero terms are stored and walked.  It rests
# on what holds in an integral domain: the leading term of a product is the
# product of the leading terms, and degrees add per variable.  The divisor
# is scaled to its primitive integer part, and a dividend with a
# non-integer coefficient to its own.  When a primitive integer polynomial
# divides an integer polynomial over the rationals, the quotient has
# integer coefficients (Gauss's lemma), so each quotient coefficient is an
# integer divmod by the divisor's leading coefficient, and a nonzero
# remainder proves non-divisibility.  Because degrees add, an exact
# quotient has every exponent in the box [pmin - dmin, pmax - dmax]
# (componentwise minimum and maximum exponents of dividend and divisor),
# so a quotient monomial outside it proves non-divisibility as well.  The
# products of box monomials with divisor monomials stay in the dividend's
# box [pmin, pmax], where keys packed over that box, shifted down by pmin,
# keep lex order and never alias.  The rational contents rejoin at the end
# as a constant factor on the quotient.


def poly_divides(d, p):
    """Does d exactly divide p?  Returns (flag, quotient or None).

    d must be nonzero.  The quotient, when it exists, satisfies
    p == quotient * d exactly; its coefficients may be non-integer
    rationals even when d and p have integer coefficients.
    """
    if not isinstance(d, Poly) or not isinstance(p, Poly):
        raise TypeError("poly_divides expects two Poly arguments")
    d._check_same_vars(p)
    if d.is_zero():
        raise ZeroDivisionError("zero divisor in poly_divides")
    if p.is_zero():
        return True, Poly.zero(p.vars)
    q = _sparse_divide(p, d)
    return (False, None) if q is None else (True, q)


def divide_out(d, p, limit=None):
    """(e, q) with p == q * d**e, e as large as divides p but at most limit.

    A constant d or a zero p needs a limit: every power of d divides p.
    """
    if limit is None and (d.is_constant() or p.is_zero()):
        raise ValueError("a constant divisor or a zero dividend needs a limit")
    e = 0
    while limit is None or e < limit:
        ok, q = poly_divides(d, p)
        if not ok:
            break
        p, e = q, e + 1
    return e, p


def _sparse_divide(p, d):
    """Exact quotient of p by a nonzero divisor d, or None.

    Monomials are packed into keys over the dividend's box shifted down to
    its lowest exponents.  The remainder's terms are taken largest key
    first, and each must be the divisor's leading term times the next
    quotient term; subtracting that term times the divisor's lower terms
    only changes smaller keys.
    """
    nv = len(p.vars)
    cols = [list(map(itemgetter(i), p.terms)) for i in range(nv)]
    pmin, pmax = list(map(min, cols)), list(map(max, cols))
    dmin, dmax = d.monomial_content(), d.max_degrees()
    lexps, _ = d.leading_term()
    radices = [hi - lo + 1 for lo, hi in zip(pmin, pmax)]
    strides, _ = _strides(radices)
    # per variable: stride, radix, and the remainder's leading exponents,
    # less pmin, that give a quotient term in the box
    box = []
    for i in range(nv):
        qlo, qhi = pmin[i] - dmin[i], pmax[i] - dmax[i]
        if qlo < 0 or qlo > qhi:
            return None
        box.append((strides[i], radices[i],
                    qlo + lexps[i] - pmin[i], qhi + lexps[i] - pmin[i]))
    # keys are taken in descending order, so the first exponent never
    # rises, and its upper bound is pmax[0] (d's leading term has d's
    # largest first exponent): its check is one threshold on the key
    kmin = strides[0] * box[0][2] if nv else 0
    if (d.terms[lexps] in (1, -1)
            and Fraction not in set(map(type, d.terms.values()))):
        cd = 1                      # content 1: primitive() would return d
    else:
        cd, d = d.primitive()
    cp = 1
    if Fraction in set(map(type, p.terms.values())):
        cp, p = p.primitive()       # keeps the term order cols was read in
    keys = _keys(cols, strides, len(p.terms))
    low = sum(map(mul, pmin, strides))
    if low:
        keys = list(map(sub, keys, repeat(low)))
    lk, lc = sum(map(mul, lexps, strides)), d.terms[lexps]
    tail = [(sum(map(mul, e, strides)) - lk, c)
            for e, c in d.terms.items() if e != lexps]
    q = _heap_walk(keys, p.terms.values(), kmin, box[1:], lc, tail)
    if q is None:
        return None
    # q is keyed by the remainder's key each quotient term was taken at
    cols = [[k // st % rad + lo - e for k in q]
            for (st, rad, _, _), lo, e in zip(box, pmin, lexps)]
    exps = zip(*cols) if nv else [()] * len(q)
    quotient = Poly._raw(p.vars, dict(zip(exps, q.values())))
    if cp != 1 or cd != 1:
        quotient = quotient * (cp / cd)
    return quotient


def _heap_walk(keys, coefs, kmin, rest, lc, tail):
    """The quotient terms by remainder key, or None: the remainder in a dict.

    The dividend's keys are sorted once.  The keys the division adds go on
    a max-heap, which is merged with the sorted list.  A key already in the
    remainder is updated in place, so each key is taken once.
    """
    rem = dict(zip(keys, coefs))
    keys.sort(reverse=True)
    keys.append(-1)                 # below every key: the sorted list is spent
    heap = [1]                      # the same sentinel, negated
    q = {}
    i = 0
    while True:
        k = keys[i]
        if -heap[0] > k:
            k = -heappop(heap)
        elif k < 0:
            return q
        else:
            i += 1
        c = rem.pop(k)
        if not c:
            continue
        if k < kmin:
            return None
        qc, r = divmod(c, lc)
        if r:
            return None
        for st, rad, lo, hi in rest:
            if not lo <= k // st % rad <= hi:
                return None
        q[k] = qc
        for off, dc in tail:
            kk = k + off
            v = rem.get(kk)
            if v is None:
                rem[kk] = -qc * dc
                heappush(heap, -kk)
            else:
                rem[kk] = v - qc * dc


# --- packed (Kronecker substitution) multiplication ----------------------
#
# The packed product writes each operand as one integer, its coefficients
# as fixed-width digit groups at positions given by mixed-radix keys over
# the lattice the product occupies, multiplies the two integers once and
# reads the product's coefficients back from the groups.  _pack makes the
# whole packing decision for a list of products of one or two factors:
# _packed_mul's one product a*b, and the products on both sides of
# identity_holds, which start at offsets of whole keys from the lowest
# one.  It refuses a non-int coefficient, asks _lattice for the lattice,
# refuses one with more slots than term pairs, sizes the groups for the
# sum of the products' coefficient bounds, and encodes each distinct
# factor once (by identity: a square, each squaring step of __pow__, is
# encoded once, and the one Decimal goes to the multiply twice, so
# libmpdec transforms one operand, not two).  _lattice alone decides the
# lattice, in three steps:
# - the homogeneous drop.  When the operands have three or more variables,
#   each has a single total degree and every product the same sum of
#   them, each term's last exponent follows from the others: that column
#   is dropped before packing and restored after the decode.  The
#   exponents of a homogeneous polynomial lie on a plane, which the full
#   box would fill with empty slots (every hn.tail_poly is one, and so is
#   each product of h_recurrence_check);
# - deflation, as FLINT's mpoly deflate does before Kronecker
#   substitution.  Each operand's exponent columns become packed
#   coordinates u = (e - lo) // g, with lo the operand's lowest exponent
#   and g the gcd of every such offset over all operands and of each
#   product's lowest exponent less the lowest over the products (1 if all
#   are 0), so every product's exponents are that lowest, then steps of g.
#   A monomial content or a polynomial even in M then costs no empty slots;
# - the shear, for two packed columns.  The second is replaced by
#   u1 + s*u0, with the integer s for which _shear finds its span over the
#   products least, and deflated again.  Kronecker substitution stays
#   exact under any unimodular change of exponents.  The family outputs
#   are products of A-polynomial factors, whose Newton polygons have
#   slanted edges (their slopes are boundary slopes), so their deflated
#   boxes have empty corners that the sheared lattice cuts off.  The
#   sheared values of some share a factor h, as do those of the largest
#   products of pretzel238 pos m = 4 and 6 and neg m = 5 (h = 2).
# An operand's keys are computed a column at a time by _keys, as in
# _sparse_divide, and its groups are joined into one digit string.  The
# product's groups are read in key order, so the decode never unpacks a
# key: one walk serves every lattice, a row for each point of every column
# but the last (by itertools.product), each row one range of the last
# column, whose start only the shear of two columns moves; a key is built
# only for a nonempty group.
#
# The integers are decimal.Decimal, not int.  CPython multiplies big ints
# by Karatsuba, O(n^1.58), which is almost all the time of a packed product
# of a few hundred thousand digits; decimal is libmpdec, whose multiply
# switches to a number-theoretic transform, O(n log n), for large operands.
# A group is w = len(str(bound)) + 1 digits wide and holds c + 5*10^(w-1):
# bound caps every product coefficient (_coef_bound: the smaller of
# min(|a|, |b|)*max|a|*max|b| and, by Cauchy-Schwarz, isqrt(sum a^2 *
# sum b^2) + 1), so each group of the product stays in (4*10^(w-1),
# 6*10^(w-1)) and never carries into its neighbour.  The context has the
# largest precision and exponent range, and traps Inexact, so a product
# that had to round raises rather than returns wrong digits.  A group
# wider than sys.get_int_max_str_digits() could not be read back by
# int(), so such products fall back to dict convolution.  The Cauchy-
# Schwarz bound narrowed 79 of pretzel-fill's 123 packed products, its
# three largest from 36, 27 and 24 digits per group to 34, 25 and 23, and
# twist_A(17) * twist_A(19) and twist_A(18)**2 from 23-25 to 22.
#
# Packing pays for every slot of the packed lattice, the dict loop for
# every pair of terms, so packing is taken when the pairs are at least the
# slots, and from _PACK_MIN_PAIRS pairs up.  Measured with shearing on a
# 2-vCPU Xeon, Python 3.11.7, over the 404 distinct integer products of 30
# or more pairs that the three perfbench workloads make (seed 1, 591
# products in all), best of 5 runs each:
# - below 1 pair per slot dict was faster on all 48 (30 to 23,716 pairs);
#   from 1 to 2 packing won 13 of 111, from 2 to 4 73 of 95 (median
#   1.2x), and above 4 146 of 150 (median 8.1x);
# - the 591 products took 0.934 s under this rule (1.079 s at deflated
#   slots without the shear), 0.907 s taking the faster engine for each,
#   0.919 s with packing only from 2 pairs per slot, 0.913 s from 3 and
#   0.929 s with a floor of 200 pairs.  Packing from 2 or 3 pairs per slot
#   saves no workload more than 0.015 s, less than the spread between the
#   quartiles of its wall time, so neither moved.  Dict convolution alone
#   took 24.6 s and packing alone 1.10 s;
# - shearing made 153 products of identities pack that did not, which
#   took 0.040 s either way, and 48 of pretzel-fill, which took 0.008 s
#   by dict convolution and 0.016 s packed;
# - before the shear, the 70 distinct squares that packed took 0.181 s
#   from one operand and 0.244 s from two equal copies (twist_A(18, "pos")
#   ** 2, 1,260 terms: 0.012-0.014 s against 0.016-0.020 s).

_PACK_MIN_PAIRS = 36
_DEC = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
# Python 3.10 before 3.10.7 has no digit limit (0 means none)
_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _strides(radices):
    """Place values of mixed-radix keys over radices, and the radix product.

    The last exponent varies fastest, so while every exponent stays below
    its radix, keys are distinct and sort in lex order of the exponents.
    """
    strides = []
    slots = 1
    for r in reversed(radices):
        strides.append(slots)
        slots *= r
    strides.reverse()
    return strides, slots


def _keys(cols, strides, n):
    """The mixed-radix keys of n terms, given their exponent columns."""
    keys = [0] * n
    for col, st in zip(cols, strides):
        keys = list(map(add, keys, map(mul, col, repeat(st))))
    return keys


def _deflate(cols, groups, bases):
    """(lo, g, offsets, cols, radix): one exponent column of every product,
    deflated.

    cols[k] is factor k's column, groups[i] the indices of product i's
    factors, and product i's values in the column are bases[i] plus its
    factors'.  Each factor's column is shifted down by its lowest value,
    and lo is the lowest value over the products.  g is the gcd of every
    shifted value and of every product's lowest value less lo (1 if all
    are 0); the columns and offsets[i], product i's lowest value less lo,
    are divided by it.  The deflated values of the products then start at
    0, and radix is one more than the largest.
    """
    mins = list(map(min, cols))
    lows = [base + sum(map(mins.__getitem__, grp))
            for base, grp in zip(bases, groups)]
    lo = min(lows)
    offsets = [low - lo for low in lows]
    cols = [list(map(sub, col, repeat(m))) if m else col
            for col, m in zip(cols, mins)]
    g = gcd(*offsets, *chain.from_iterable(cols)) or 1
    if g != 1:
        cols = [list(map(floordiv, col, repeat(g))) for col in cols]
        offsets = [off // g for off in offsets]
    his = list(map(max, cols))
    radix = max(off + sum(map(his.__getitem__, grp))
                for off, grp in zip(offsets, groups)) + 1
    return lo, g, offsets, cols, radix


def _span(cols, groups, bases):
    """The largest value of a column over the products less the least."""
    his, los = list(map(max, cols)), list(map(min, cols))
    return (max(base + sum(map(his.__getitem__, grp))
                for base, grp in zip(bases, groups))
            - min(base + sum(map(los.__getitem__, grp))
                  for base, grp in zip(bases, groups)))


def _shear(u0, u1, groups, off0, off1, span):
    """(s, f): the shear that packs a two-column lattice tightest.

    u0 and u1 hold each factor's deflated columns, off0 and off1 each
    product's offsets, span the span of u1 over the products, and f[k] is
    factor k's sheared second column u1 + s*u0 (u1 itself at s = 0).
    Product i's values of u1 + s*u0 are off1[i] + s*off0[i] plus its
    factors', and packing them in place of u1 leaves the radix of u0 as it
    is.  Their span over the products is a maximum of linear forms in s
    less a minimum of them, so it is convex in s.  From s = 0 the search
    steps towards +1 and then -1 while the span shrinks, and stops at the
    first step that does not shrink it: that s gives the least span over
    all integers.
    """
    best = (0, span, u1)
    for step, move in ((1, add), (-1, sub)):
        s, f = 0, u1
        while True:
            s += step
            f = [list(map(move, fk, uk)) for fk, uk in zip(f, u0)]
            span = _span(f, groups, [o1 + s * o0
                                     for o0, o1 in zip(off0, off1)])
            if span >= best[1]:
                break
            best = (s, span, f)
        if best[0]:
            break
    return best[0], best[2]


def _lattice(ops, groups):
    """(degree, lows, steps, shear, radices, cols, offsets): one packed
    lattice for every product of a sum.

    ops are nonzero polynomials over one variable table, each listed
    once, and groups[i] holds the indices in ops of product i's factors: a
    square is (k, k) and a polynomial alone (k,).  Returned:
    - degree, the total degree of every term of every product when the
      last exponent column was dropped, else None;
    - lows[j] and steps[j], packed column j's lowest exponent over the
      products and the step g of its exponents;
    - shear, (s, v, h): with s nonzero the second column packs
      (u1 + s*u0 - v) / h in place of u1;
    - radices[j], the radix of packed column j;
    - cols[k], factor k's packed coordinate columns, each lowest at 0;
    - offsets[i], product i's lowest packed coordinate per column, so its
      keys are shifted up by the sum of offsets[i] times the strides (all
      0 for a single product).
    """
    nv = len(ops[0].vars)
    degree = None
    if nv >= 3:
        degs = [set(map(sum, p.terms)) for p in ops]
        if all(len(d) == 1 for d in degs):
            totals = {sum(min(degs[k]) for k in grp) for grp in groups}
            if len(totals) == 1:
                degree, nv = totals.pop(), nv - 1
    # per packed column: the lowest exponent over the products, the step g
    # of its exponents, each product's offset, each factor's deflated
    # coordinates and the radix
    lows, steps, offs, cols, radices = [], [], [], [], []
    zeros = [0] * len(groups)
    for i in range(nv):
        lo, g, off, col, radix = _deflate(
            [list(map(itemgetter(i), p.terms)) for p in ops], groups, zeros)
        lows.append(lo)
        steps.append(g)
        offs.append(off)
        cols.append(col)
        radices.append(radix)
    # row u0 of a two-column lattice holds the second exponents from
    # lows[1] + g1*(v - s*u0) in steps of g1*h
    s, v, h = 0, 0, 1
    if nv == 2 and radices[0] > 1 and radices[1] > 1:
        s, f = _shear(cols[0], cols[1], groups, offs[0], offs[1],
                      radices[1] - 1)
        if s:
            bases = [o1 + s * o0 for o0, o1 in zip(offs[0], offs[1])]
            v, h, offs[1], cols[1], radices[1] = _deflate(f, groups, bases)
    return (degree, lows, steps, (s, v, h), radices,
            [[col[k] for col in cols] for k in range(len(ops))],
            [[off[i] for off in offs] for i in range(len(groups))])


def _coef_bound(a, b):
    """A bound on every coefficient of a*b, for int coefficients.

    Each coefficient is a sum of at most min(|a|, |b|) products of two
    coefficients, and by Cauchy-Schwarz at most sqrt(sum a^2 * sum b^2),
    which isqrt(...) + 1 exceeds; the smaller of the two is returned.
    """
    va, vb = a.terms.values(), b.terms.values()
    sa = sum(map(mul, va, va))
    sb = sa if b is a else sum(map(mul, vb, vb))
    return min(min(len(va), len(vb)) * max(map(abs, va)) * max(map(abs, vb)),
               isqrt(sa * sb) + 1)


def _encode(poly, cols, strides, slots, half, offset):
    """poly as one Decimal, its coefficient at key k times 10^(w*k).

    The digit string holds c + half in the group of key k and half in
    every empty group, key 0 last; offset, half in every group, is then
    subtracted.
    """
    half_s = str(half)
    groups = [half_s] * slots              # groups[k] is the slot of key k
    for k, c in zip(_keys(cols, strides, len(poly.terms)),
                    poly.terms.values()):
        groups[k] = str(c + half)
    groups.reverse()                       # key 0 is the last group
    return _DEC.subtract(Decimal("".join(groups)), offset)


def _pack(products):
    """(lattice, strides, w, offset, codes): products on one packed
    lattice, or None when they should be expanded instead.

    products holds tuples of one or two nonzero polynomials over one
    variable table.  None means a non-int coefficient, more slots than
    term pairs, or groups too wide for int() to read.  Otherwise lattice
    is as _lattice returns it, w the digits per group, offset the Decimal
    with half = 5*10^(w-1) in every group, and codes[i] the Decimals of
    product i's factors.  A factor listed twice, by identity, is encoded
    once.  The groups cover the sum of the products' bounds (a lone
    factor's is its largest coefficient), so neither a product nor a sum
    of shifted products carries between groups.
    """
    ops = list({id(p): p for fs in products for p in fs}.values())
    if any(set(map(type, p.terms.values())) != {int} for p in ops):
        return None
    index = {id(p): k for k, p in enumerate(ops)}
    groups = [tuple(index[id(p)] for p in fs) for fs in products]
    lattice = _lattice(ops, groups)
    strides, slots = _strides(lattice[4])
    if slots > sum(prod(map(len, fs)) for fs in products):
        return None
    bound = sum(_coef_bound(*fs) if len(fs) == 2
                else max(map(abs, fs[0].terms.values())) for fs in products)
    # bound < 10^(w-1), so c + half keeps to w digits; the digits are
    # counted by Decimal, as str() of a big int could pass the limit
    w = len(str(Decimal(bound))) + 1
    limit = _int_digit_limit()
    if limit and w > limit:
        return None
    half = 5 * 10 ** (w - 1)
    offset = Decimal(str(half) * slots)
    codes = [_encode(p, col, strides, slots, half, offset)
             for p, col in zip(ops, lattice[5])]
    return (lattice, strides, w, offset,
            [[codes[k] for k in grp] for grp in groups])


def _packed_mul(a, b):
    """Product of two nonzero polynomials in one or more variables by one
    decimal multiplication, or None when _pack declines them."""
    packed = _pack([(a, b)])
    if packed is None:
        return None
    lattice, _, w, offset, [(x, y)] = packed
    degree, lows, steps, (s, v, h), radices, _, _ = lattice
    digits = str(_DEC.add(_DEC.multiply(x, y), offset))
    half = 5 * 10 ** (w - 1)
    half_s = str(half)
    out = {}
    # every group of the sum has w digits; they are read from the last one
    # back, key 0 first, so the lattice is walked in key order, and one at a
    # time, so no list of every slot is held: a row for each point of every
    # column but the last, each row a range of the last column, whose start
    # the shear moves by -g*s per row (s is 0 but for two columns)
    g = steps[-1]
    starts, step = count(lows[-1] + g * v, -g * s), g * h
    width = step * radices[-1]
    rows = product(*[range(lo, lo + st * r, st)
                     for lo, st, r in zip(lows[:-1], steps, radices)])
    ends = iter(range(len(digits), 0, -w))
    for head, lo in zip(rows, starts):
        for x, end in zip(range(lo, lo + width, step), ends):
            group = digits[end - w:end]
            if group != half_s:
                out[head + (x,)] = int(group) - half
    if degree is not None:
        last = zip(map(sub, repeat(degree), map(sum, out)))
        out = dict(zip(map(add, out, last), out.values()))
    return Poly._raw(a.vars, out)


def identity_holds(lhs, rhs):
    """Does the sum of the products in lhs equal the sum of those in rhs?

    Each side is a list of products, each a tuple of one or two
    polynomials over one variable table: (p,) is p alone, (p, q) is p*q.
    A product with a zero factor drops out, and an empty side is 0.  The
    nonzero products are packed on one lattice (_pack): each side is one
    integer, a decimal multiply per two-factor product and an add per
    product, and the two are compared, so no product is decoded.  Every
    coefficient of the difference of the sums is at most the sum of the
    products' bounds, below 10^(w-1), so the difference of the two
    integers is 0 only if every coefficient is.  When _pack declines,
    both sums are expanded and compared instead.
    """
    if any(not 1 <= len(fs) <= 2 for fs in chain(lhs, rhs)):
        raise ValueError("a product has one or two factors")
    factors = [p for fs in chain(lhs, rhs) for p in fs]
    for p in factors[1:]:
        factors[0]._check_same_vars(p)
    products = [(fs, side) for side, fss in enumerate((lhs, rhs)) for fs in fss
                if all(p.terms for p in fs)]
    if len(products) < 2:
        # a product of nonzero polynomials is nonzero
        return not products
    packed = _pack([fs for fs, _ in products])
    sums = [0, 0]
    if packed is None:
        for fs, side in products:
            sums[side] += fs[0] * fs[1] if len(fs) == 2 else fs[0]
        return sums[0] == sums[1]
    lattice, strides, w, _, codes = packed
    for (_, side), xs, off in zip(products, codes, lattice[6]):
        x = _DEC.multiply(*xs) if len(xs) == 2 else xs[0]
        key = sum(map(mul, off, strides))
        if key:
            x = _DEC.scaleb(x, w * key)
        sums[side] = _DEC.add(sums[side], x)
    return sums[0] == sums[1]
