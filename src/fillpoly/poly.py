"""Sparse multivariate polynomials with exact rational coefficients.

A Poly owns an ordered tuple of variable names (the variable table) and a
dict mapping exponent tuples to nonzero coefficients.  Coefficients are
plain Python ints whenever they are integral and fractions.Fraction
otherwise, so all arithmetic is exact.  The monomial order is
lexicographic in the variable order; it fixes the canonical text form and
the sign convention used by RatFunc.

Exponents are never negative here.  Expressions with negative powers live
one level up, in RatFunc.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import gcd
from operator import neg

# Thresholds for switching dict-based multiplication over to packed
# big-integer (Kronecker substitution) multiplication.
_PACK_MIN_WORK = 20000
_PACK_MAX_SLOTS = 4_000_000


def _clean_coef(c):
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class Poly:
    """Sparse exact polynomial in a fixed ordered set of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        vars = tuple(vars)
        nv = len(vars)
        if len(set(vars)) != nv:
            raise ValueError("duplicate variable names: %r" % (vars,))
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _clean_coef(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != nv:
                    raise ValueError("exponent tuple %r does not match %d variables"
                                     % (exps, nv))
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in %r" % (exps,))
                clean[exps] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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
        if not isinstance(value, int):
            value = _clean_coef(Fraction(value))
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

    def is_one(self):
        return self.terms == {(0,) * len(self.vars): 1}

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        """The value of a constant polynomial, as int or Fraction."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def is_monomial(self):
        return len(self.terms) == 1

    def __len__(self):
        return len(self.terms)

    def degree_in(self, name):
        """Largest exponent of one variable (zero poly has degree 0 here)."""
        i = self.vars.index(name)
        return max((exps[i] for exps in self.terms), default=0)

    def max_degrees(self):
        """Componentwise maximum exponent vector."""
        nv = len(self.vars)
        degs = [0] * nv
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > degs[i]:
                    degs[i] = e
        return tuple(degs)

    def leading_term(self):
        """(exponents, coefficient) of the lex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def sorted_terms(self):
        """Terms in descending lex order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    # --- arithmetic -----------------------------------------------------

    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise ValueError("variable tables differ: %r vs %r"
                             % (self.vars, other.vars))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.__eq__(Poly.const(self.vars, other))
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None

    def __neg__(self):
        return Poly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = _clean_coef(out.get(exps, 0) + c)
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Poly(self.vars, out)

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
        if isinstance(other, (int, Fraction)):
            other = _clean_coef(other if isinstance(other, int) else Fraction(other))
            if not other:
                return Poly.zero(self.vars)
            return Poly._raw(self.vars,
                             {e: _clean_coef(c * other) for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_vars(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.vars)
        if len(self.terms) * len(other.terms) >= _PACK_MIN_WORK:
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
        for eb, cb in b.items():
            for ea, ca in a.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly(self.vars, out)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly exponent must be a non-negative integer")
        result = Poly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # --- content and monomial normalization ------------------------------

    def content(self):
        """Positive rational content: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(0)
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
        it = iter(self.terms)
        mins = list(next(it))
        for exps in it:
            for i, e in enumerate(exps):
                if e < mins[i]:
                    mins[i] = e
        return tuple(mins)

    def shift_down(self, shift):
        """Divide by the monomial with the given exponent vector (must divide)."""
        out = {}
        for exps, c in self.terms.items():
            nexps = tuple(e - s for e, s in zip(exps, shift))
            if any(e < 0 for e in nexps):
                raise ValueError("monomial %r does not divide all terms" % (shift,))
            out[nexps] = c
        return Poly._raw(self.vars, out)

    # --- evaluation ------------------------------------------------------

    def eval_at(self, point):
        """Exact value at a point, given as a dict varname -> Fraction/int.

        Works in plain integers over one common denominator (numerator and
        denominator power tables per variable), which is much faster than
        Fraction arithmetic per term on big polynomials.
        """
        for v in self.vars:
            if v not in point:
                raise ValueError("no value for variable %r" % (v,))
        if not self.terms:
            return Fraction(0)
        values = [Fraction(point[v]) for v in self.vars]
        degs = self.max_degrees()
        numpows = []
        codenpows = []
        for x, dg in zip(values, degs):
            a, b = x.numerator, x.denominator
            na = [1] * (dg + 1)
            nb = [1] * (dg + 1)
            for i in range(1, dg + 1):
                na[i] = na[i - 1] * a
                nb[i] = nb[i - 1] * b
            numpows.append(na)
            # nb[i] is b^i; the cofactor for exponent e is b^(dg-e)
            codenpows.append(nb)
        common_den = 1
        for nb, dg in zip(codenpows, degs):
            common_den *= nb[dg]
        total = 0
        extra = Fraction(0)
        for exps, c in self.terms.items():
            t = 1
            for i, e in enumerate(exps):
                t *= numpows[i][e] * codenpows[i][degs[i] - e]
            if isinstance(c, int):
                total += c * t
            else:
                extra += c * t
        result = Fraction(total, common_den)
        if extra:
            result += extra / common_den
        return result

    # --- rendering -------------------------------------------------------

    @staticmethod
    def _coef_str(c):
        if isinstance(c, Fraction):
            return "%d/%d" % (c.numerator, c.denominator)
        return str(c)

    def _term_str(self, exps, coef):
        factors = []
        for v, e in zip(self.vars, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append("%s^%d" % (v, e))
        if not factors:
            return self._coef_str(abs(coef))
        mono = "*".join(factors)
        a = abs(coef)
        if a == 1:
            return mono
        return "%s*%s" % (self._coef_str(a), mono)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (exps, coef) in enumerate(self.sorted_terms()):
            neg = coef < 0
            body = self._term_str(exps, coef)
            if i == 0:
                parts.append("-" + body if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Poly(%s)" % (self,)

    def to_json(self):
        """JSON-ready dict: variables plus terms in canonical order."""
        return {
            "vars": list(self.vars),
            "terms": [{"coef": self._coef_str(c), "exps": list(e)}
                      for e, c in self.sorted_terms()],
        }


# --- exact division ------------------------------------------------------
#
# poly_divides takes one of three routes.  A monomial divisor shifts
# exponents.  The other two rest on what holds in an integral domain: the
# leading term of a product is the product of the leading terms, and
# degrees add per variable.
#
# A binomial +-x^a + t, with a +-1 on a pure power of one variable x and t
# free of x (every RatFunc.reduced candidate of the family pipelines has
# this shape), is one pass of sparse synthetic division down the x-degrees
# of the dividend: O(terms), with no content work.  Over Q[other
# variables] such a divisor is monic in x, so the remainder of x-degree
# below a is unique and the division is exact exactly when that remainder
# is zero.
#
# Every other divisor goes through sparse division on a max-heap of the
# remainder's monomials, a plain form of the heap division of Monagan and
# Pearce (2011) that keeps the remainder in a dict.  Both operands are
# scaled to primitive integer polynomials first: a primitive integer
# polynomial divides another over the rationals exactly when it divides it
# over the integers (Gauss's lemma), so each quotient coefficient is an
# integer divmod by the divisor's leading coefficient, and a nonzero
# remainder proves non-divisibility.  Because degrees add, an exact
# quotient has every exponent in the box [pmin - dmin, pmax - dmax]
# (componentwise minimum and maximum exponents of dividend and divisor),
# so a quotient monomial outside it proves non-divisibility as well.  The
# products of box monomials with divisor monomials stay in the dividend's
# box [pmin, pmax], where keys packed over that box keep lex order and
# never alias.  The rational contents rejoin at the end as a constant
# factor on the quotient.


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
    if len(d.terms) == 1:
        (dexps, dc), = d.terms.items()
        out = {}
        for exps, c in p.terms.items():
            nexps = tuple(a - b for a, b in zip(exps, dexps))
            if any(e < 0 for e in nexps):
                return False, None
            out[nexps] = _div_coef(c, dc)
        return True, Poly(p.vars, out)
    split = _binomial_split(d) if len(d.terms) == 2 else None
    if split is not None:
        q = _binomial_divide(p, *split)
    else:
        q = _sparse_divide(p, d)
    return (False, None) if q is None else (True, q)


def _div_coef(a, b):
    return _clean_coef(Fraction(a) / Fraction(b))


def _binomial_split(d):
    """Read a two-term divisor as s*x^a + ct*y^beta, or None.

    Needs s = +-1 on a pure power x^a (a >= 1) of one variable x and a
    second monomial y^beta free of x.  Returns (xi, a, s, beta, ct), xi
    being the index of x.
    """
    (e1, c1), (e2, c2) = d.terms.items()
    for ea, s, eb, ct in ((e1, c1, e2, c2), (e2, c2, e1, c1)):
        if s != 1 and s != -1:
            continue
        nz = [i for i, e in enumerate(ea) if e]
        if len(nz) == 1 and not eb[nz[0]]:
            xi = nz[0]
            return xi, ea[xi], s, eb, ct
    return None


def _binomial_divide(p, xi, a, s, beta, ct):
    """Exact quotient of p by s*x^a + ct*y^beta, or None when inexact.

    Synthetic division: the divisor is monic (up to the sign s) in x with
    coefficients free of x, so the quotient is read off the dividend level
    by level, from the top x-degree down.  The running remainder's
    coefficient at x-degree k >= a is the quotient's (times s) at k - a,
    and that coefficient times u = s*ct is subtracted at level k - a,
    shifted by beta.  Levels below a must end up empty.

    Within a level a monomial is keyed by one int packing its other
    exponents (the exponent itself when there are two variables), so each
    step is one integer addition.  The radices bound the exponents that
    the loop can reach: every step down one level adds beta once.
    """
    terms = p.terms
    nv = len(p.vars)
    rest = [i for i in range(nv) if i != xi]
    u = s * ct
    if nv == 2:
        j = rest[0]
        levels = {}
        for exps, c in terms.items():
            levels.setdefault(exps[xi], {})[exps[j]] = c
        bkey = beta[j]
    else:
        degs = p.max_degrees()
        steps = degs[xi] // a
        strides = []
        stride = 1
        for i in reversed(rest):
            strides.append(stride)
            stride *= degs[i] + steps * beta[i] + 1
        strides.reverse()
        levels = {}
        for exps, c in terms.items():
            key = 0
            for i, st in zip(rest, strides):
                key += exps[i] * st
            levels.setdefault(exps[xi], {})[key] = c
        bkey = sum(beta[i] * st for i, st in zip(rest, strides))
    qlevels = []
    for k in range(max(levels), a - 1, -1):
        lev = levels.pop(k, None)
        if not lev:
            continue
        tgt = levels.get(k - a)
        if tgt is None:
            levels[k - a] = tgt = {}
        ql = {}
        for r, c in lev.items():
            if c:
                ql[r] = c
                r += bkey
                tgt[r] = tgt.get(r, 0) - u * c
        qlevels.append((k - a, ql))
    for lev in levels.values():
        if any(lev.values()):
            return None
    # integral Fraction sums collapse to int, as everywhere in Poly
    clean = isinstance(u, Fraction) or Fraction in set(map(type, terms.values()))
    out = {}
    for k, ql in qlevels:
        coefs = ql.values()
        if clean:
            coefs = map(_clean_coef, coefs)
        if s == -1:
            coefs = map(neg, coefs)
        if nv == 2:
            keys = zip(repeat(k), ql) if xi == 0 else zip(ql, repeat(k))
        else:
            keys = [_unpack(r, k, xi, strides) for r in ql]
        out.update(zip(keys, coefs))
    return Poly._raw(p.vars, out)


def _unpack(key, k, xi, strides):
    """Exponent tuple from a packed key of the other variables and x-degree k."""
    exps = []
    for st in strides:
        e, key = divmod(key, st)
        exps.append(e)
    exps.insert(xi, k)
    return tuple(exps)


def _sparse_divide(p, d):
    """Exact quotient of p by a divisor d of two or more terms, or None.

    Works on the primitive integer parts.  The remainder is a dict keyed by
    packed monomials with a max-heap of its keys; each pop takes the
    lex-largest remaining term, which must be the divisor's leading term
    times the next quotient term.  Every key in the remainder is pushed
    once: new keys are products with the divisor's lower terms, so they
    are smaller than the key being popped.
    """
    nv = len(p.vars)
    pmin, pmax = p.monomial_content(), p.max_degrees()
    dmin, dmax = d.monomial_content(), d.max_degrees()
    lexps, _ = d.leading_term()
    # the remainder's leading exponents that give a quotient term in the box
    lo, hi = [], []
    for i in range(nv):
        qlo, qhi = pmin[i] - dmin[i], pmax[i] - dmax[i]
        if qlo < 0 or qlo > qhi:
            return None
        lo.append(qlo + lexps[i])
        hi.append(qhi + lexps[i])
    cd, d = d.primitive()
    cp, p = p.primitive()
    strides = [1] * nv
    for i in range(nv - 1, 0, -1):
        strides[i - 1] = strides[i] * (pmax[i] + 1)

    def pack(exps):
        return sum(e * st for e, st in zip(exps, strides))

    rem = {pack(e): c for e, c in p.terms.items()}
    heap = [-k for k in rem]
    heapify(heap)
    lk, lc = pack(lexps), d.terms[lexps]
    tail = [(pack(e) - lk, c) for e, c in d.terms.items() if e != lexps]
    q = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        qc, r = divmod(c, lc)
        if r:
            return None
        rest = k
        for st, a, b in zip(strides, lo, hi):
            e, rest = divmod(rest, st)
            if e < a or e > b:
                return None
        q[k - lk] = qc
        for off, dc in tail:
            kk = k + off
            v = rem.get(kk)
            if v is None:
                rem[kk] = -qc * dc
                heappush(heap, -kk)
            else:
                rem[kk] = v - qc * dc
    out = {}
    for k, c in q.items():
        exps = []
        for st in strides:
            e, k = divmod(k, st)
            exps.append(e)
        out[tuple(exps)] = c
    quotient = Poly._raw(p.vars, out)
    scale = cp / cd
    if scale != 1:
        quotient = quotient * scale
    return quotient


# --- packed (Kronecker substitution) multiplication ----------------------


def _packed_mul(a, b):
    """Multiply by packing exponents into one big-integer product.

    Only used when every coefficient is an int; returns None when the
    degree box is too large, so the caller can fall back to dict
    convolution.
    """
    for c in a.terms.values():
        if not isinstance(c, int):
            return None
    for c in b.terms.values():
        if not isinstance(c, int):
            return None
    da = a.max_degrees()
    db = b.max_degrees()
    radices = [x + y + 1 for x, y in zip(da, db)]
    slots = 1
    for r in radices:
        slots *= r
    if slots > _PACK_MAX_SLOTS:
        return None
    nv = len(radices)
    strides = [1] * nv
    for i in range(nv - 2, -1, -1):
        strides[i] = strides[i + 1] * radices[i + 1]
    maxa = max(abs(c) for c in a.terms.values())
    maxb = max(abs(c) for c in b.terms.values())
    bound = min(len(a.terms), len(b.terms)) * maxa * maxb
    bits = ((bound.bit_length() + 2 + 7) // 8) * 8
    nbytes = bits // 8
    half = 1 << (bits - 1)
    half_bytes = half.to_bytes(nbytes, "little")
    offset = int.from_bytes(half_bytes * slots, "little")

    def encode(poly):
        buf = bytearray(half_bytes * slots)
        for exps, c in poly.terms.items():
            idx = 0
            for e, st in zip(exps, strides):
                idx += e * st
            off = idx * nbytes
            buf[off:off + nbytes] = (c + half).to_bytes(nbytes, "little")
        return int.from_bytes(buf, "little") - offset

    na = encode(a)
    nb = encode(b)
    raw = (na * nb + offset).to_bytes(slots * nbytes, "little")
    out = {}
    for idx in range(slots):
        c = int.from_bytes(raw[idx * nbytes:(idx + 1) * nbytes], "little") - half
        if not c:
            continue
        rem = idx
        exps = [0] * nv
        for i in range(nv):
            exps[i], rem = divmod(rem, strides[i])
        out[tuple(exps)] = c
    return Poly._raw(a.vars, out)
