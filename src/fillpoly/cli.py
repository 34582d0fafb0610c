"""Command-line front end for the fillpoly toolkit.

Subcommands expose each pipeline plus the brute-force oracles:

  hn         closed form of the collapsed-tail polynomial H_n
  pn         weighted matching sum of the n-rung ladder, by enumeration
  matchings  enumerate ladder matchings (count, optional full list)
  farey      crossing counts and labelled triangle walks
  apoly      run one family filling end to end
  twist      twist-knot A-polynomial sequences and their recurrences
  selftest   run the whole invariant battery and print a pass/fail table

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic for a fixed argv and --seed.  The FILLPOLY_FORMAT
environment variable picks the default output format (text or json).
"""

import argparse
import io
import json
import os
import random
import sys
from fractions import Fraction

from .poly import Poly, poly_divides
from .ratfunc import RatFunc, PoleError, parse_ratfunc
from .quadext import QuadExt
from .farey import (Slope, FareyTriangle, Walk, walk_labels, anatomy,
                    crossing_count, crossing_count_oracle, _new_slope)
from .matchings import (TAIL_VARS, enumerate_matchings, matching_weight,
                        matching_sum, matching_step_check, count_subsets,
                        count_subsets_oracle)
from .hn import (tail_poly, iterate_exchange, symbolic_tail_values,
                 TailContext, tail_collapse, h_recurrence_check)
from .ptolemy import (PVARS, gamma_name, load_equations, load_values,
                      chain_solve, check_equation, equation_residual,
                      audit_step_roles)
from .families import (FAMILIES, get_family, run_family, numeric_agreement,
                       divides_conjugate, twist_A, twist_recurrence_check,
                       twist_base_identity_check, REDUCE_CANDIDATES)

FORMAT_ENV = "FILLPOLY_FORMAT"


class CliConfig:
    """Resolved run options shared by the subcommand handlers."""

    __slots__ = ("format", "seed", "samples", "max_n", "max_m", "bound")

    def __init__(self, format="text", seed=0, samples=20, max_n=8, max_m=4,
                 bound=None):
        if format not in ("text", "json"):
            raise ValueError("output format must be text or json, not %r"
                             % (format,))
        if samples < 1:
            raise ValueError("sample count must be at least 1")
        if max_n < 1 or max_m < 1:
            raise ValueError("size limits must be at least 1")
        self.format = format
        self.seed = int(seed)
        self.samples = int(samples)
        self.max_n = int(max_n)
        self.max_m = int(max_m)
        self.bound = bound if bound is None else int(bound)


# --- streaming writers --------------------------------------------------
#
# Large results (the Whitehead numerators run to thousands of terms) are
# written term by term instead of being rendered into one string first.
# The chunk generators reproduce the canonical str() forms exactly.


def _poly_chunks(p):
    if not p.terms:
        yield "0"
        return
    for i, (exps, coef) in enumerate(p.sorted_terms()):
        neg = coef < 0
        body = p._term_str(exps, coef)
        if i == 0:
            yield "-" + body if neg else body
        else:
            yield (" - " if neg else " + ") + body


def _ratfunc_chunks(rf):
    yield "("
    for chunk in _poly_chunks(rf.num):
        yield chunk
    yield ")/("
    for chunk in _poly_chunks(rf.den):
        yield chunk
    yield ")"


def _quadext_chunks(qe):
    for chunk in _ratfunc_chunks(qe.a):
        yield chunk
    yield " + "
    for chunk in _ratfunc_chunks(qe.b):
        yield chunk
    yield "*sqrt("
    for chunk in _ratfunc_chunks(qe.rad):
        yield chunk
    yield ")"


def _value_chunks(value):
    if isinstance(value, Poly):
        return _poly_chunks(value)
    if isinstance(value, RatFunc):
        return _ratfunc_chunks(value)
    if isinstance(value, QuadExt):
        return _quadext_chunks(value)
    raise TypeError("no text form for %r" % (type(value),))


def _emit_json(w, value, indent=0):
    """Stream one JSON value; algebra objects become canonical strings."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, (Poly, RatFunc, QuadExt)):
        w('"')
        for chunk in _value_chunks(value):
            w(chunk)
        w('"')
    elif isinstance(value, dict):
        if not value:
            w("{}")
            return
        w("{\n")
        last = len(value) - 1
        for i, (key, sub) in enumerate(value.items()):
            w(inner)
            w(json.dumps(str(key)))
            w(": ")
            _emit_json(w, sub, indent + 1)
            w(",\n" if i != last else "\n")
        w(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            w("[]")
            return
        w("[\n")
        last = len(value) - 1
        for i, sub in enumerate(value):
            w(inner)
            _emit_json(w, sub, indent + 1)
            w(",\n" if i != last else "\n")
        w(pad + "]")
    elif isinstance(value, bool):
        w("true" if value else "false")
    elif value is None:
        w("null")
    elif isinstance(value, int):
        w(str(value))
    else:
        w(json.dumps(value))


def _emit_json_doc(w, payload):
    _emit_json(w, payload)
    w("\n")


def _emit_labeled(w, label, value):
    w(label)
    w(": ")
    for chunk in _value_chunks(value):
        w(chunk)
    w("\n")


# --- hn / pn / matchings --------------------------------------------------


def cmd_hn(args, cfg):
    w = sys.stdout.write
    h = tail_poly(args.n)
    if args.check_matchings:
        ok = h == matching_sum(2 * args.n)
        if cfg.format == "json":
            _emit_json_doc(w, {"schema": 1, "n": args.n,
                               "check": "matchings", "ok": ok})
        else:
            w("H(%d) == P(%d): %s\n" % (args.n, 2 * args.n,
                                        "ok" if ok else "MISMATCH"))
        return 0 if ok else 1
    if cfg.format == "json":
        _emit_json_doc(w, {"schema": 1, "n": args.n, "poly": h})
    else:
        for chunk in _poly_chunks(h):
            w(chunk)
        w("\n")
    return 0


def cmd_pn(args, cfg):
    w = sys.stdout.write
    p = matching_sum(args.n)
    if cfg.format == "json":
        _emit_json_doc(w, {"schema": 1, "n": args.n, "poly": p})
    else:
        for chunk in _poly_chunks(p):
            w(chunk)
        w("\n")
    return 0


def cmd_matchings(args, cfg):
    w = sys.stdout.write
    sels = enumerate_matchings(args.n)
    if cfg.format == "json":
        payload = {"schema": 1, "n": args.n, "count": len(sels)}
        if args.list:
            payload["matchings"] = [
                {"pairs": list(sel), "weight": matching_weight(args.n, sel)}
                for sel in sels]
        _emit_json_doc(w, payload)
        return 0
    w("rungs: %d\nmatchings: %d\n" % (args.n, len(sels)))
    if args.list:
        for sel in sels:
            key = ",".join(str(i) for i in sel) or "-"
            w("%s: " % key)
            for chunk in _poly_chunks(matching_weight(args.n, sel)):
                w(chunk)
            w("\n")
    return 0


# --- farey ----------------------------------------------------------------


def cmd_farey_cross(args, cfg):
    w = sys.stdout.write
    s = Slope.parse(args.from_slope)
    h = Slope.parse(args.to_slope)
    count = crossing_count(s, h)
    oracle_ok = None
    oracle = {}
    if args.oracle_bound is not None:
        for bound in (args.oracle_bound, args.oracle_bound + 1):
            oracle[bound] = crossing_count_oracle(s, h, bound)
        oracle_ok = all(v == count for v in oracle.values())
    if cfg.format == "json":
        payload = {"schema": 1, "from": str(s), "to": str(h),
                   "crossings": count}
        if oracle_ok is not None:
            payload["oracle"] = {str(b): v for b, v in sorted(oracle.items())}
            payload["ok"] = oracle_ok
        _emit_json_doc(w, payload)
    else:
        w("%d\n" % count)
        if oracle_ok is not None:
            for bound, v in sorted(oracle.items()):
                w("oracle bound %d: %d\n" % (bound, v))
            w("oracle agreement: %s\n" % ("ok" if oracle_ok else "MISMATCH"))
    return 0 if oracle_ok in (None, True) else 1


def parse_walk_spec(text):
    """Build a Walk from 'triangle=3/1,4/1,1/0;word=LLRLL'.

    The first slope of the triangle is the one the initial step drops; the
    other two are carried.  The triangle entered first is then forced: its
    new vertex is the one combination of the carried slopes that is not
    the dropped slope.
    """
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError("walk spec field %r has no '='" % (part,))
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    missing = [k for k in ("triangle", "word") if k not in fields]
    if missing:
        raise ValueError("walk spec is missing %s" % ", ".join(missing))
    parts = [t for t in fields["triangle"].split(",") if t.strip()]
    if len(parts) != 3:
        raise ValueError("triangle needs three slopes, got %r"
                         % (fields["triangle"],))
    o0, p0, f0 = (Slope.parse(t) for t in parts)
    h0 = _new_slope(o0, p0, f0)
    t0 = FareyTriangle(o0, p0, f0)
    t1 = FareyTriangle(h0, p0, f0)
    return Walk(t0, t1, fields["word"])


def cmd_farey_walk(args, cfg):
    w = sys.stdout.write
    walk = parse_walk_spec(args.spec)
    labels = walk_labels(walk)
    wa = anatomy(walk.word) if len(walk.word) >= 2 else None
    if cfg.format == "json":
        payload = {
            "schema": 1,
            "word": walk.word,
            "steps": [{"index": st.index, "o": str(st.o), "h": str(st.h),
                       "p": str(st.p), "f": str(st.f)} for st in labels],
        }
        if wa is not None:
            payload["anatomy"] = {
                "body": wa.body, "tail": wa.tail, "tip": wa.tip,
                "tail_start_step": wa.tail_start_step,
                "tip_matches_tail": wa.tip_matches_tail,
            }
        _emit_json_doc(w, payload)
        return 0
    w("t0: %s\nt1: %s\nword: %s\n" % (walk.t0, walk.t1, walk.word or "(empty)"))
    for st in labels:
        w("%s\n" % st)
    if wa is not None:
        w("anatomy: body=%s tail=%s tip=%s tail_start_step=%d "
          "tip_matches_tail=%s\n"
          % (wa.body or "-", wa.tail, wa.tip, wa.tail_start_step,
             wa.tip_matches_tail))
    return 0


# --- apoly ------------------------------------------------------------------


def _rf_json(rf):
    return {"num": rf.num, "den": rf.den}


def _value_json(value):
    if isinstance(value, QuadExt):
        return {"a": _rf_json(value.a), "b": _rf_json(value.b),
                "rad": _rf_json(value.rad)}
    return _rf_json(value)


def _apoly_payload(result):
    return {
        "schema": 1,
        "family": result.family,
        "sign": result.sign,
        "m": result.m,
        "knot": result.knot,
        "expression": _value_json(result.expression),
        "conjugate_product": _value_json(result.conjugate_product),
        "basis_changed": _value_json(result.basis_changed),
    }


def _apoly_emit_text(w, result, show_basis):
    w("family: %s\nsign: %s\nm: %d\nknot: %s\n"
      % (result.family, result.sign, result.m, result.knot))
    expr = result.expression
    if isinstance(expr, QuadExt):
        _emit_labeled(w, "expression.a", expr.a)
        _emit_labeled(w, "expression.b", expr.b)
        _emit_labeled(w, "expression.rad", expr.rad)
    else:
        _emit_labeled(w, "expression", expr)
    _emit_labeled(w, "conjugate_product", result.conjugate_product)
    if show_basis:
        _emit_labeled(w, "basis_changed", result.basis_changed)


def cmd_apoly(args, cfg):
    w = sys.stdout.write
    spec = get_family(args.family, args.sign)
    result = run_family(spec, args.m)
    fmt = "json" if args.json else cfg.format
    if fmt == "json":
        _emit_json_doc(w, _apoly_payload(result))
    else:
        _apoly_emit_text(w, result, args.basis_change)
    return 0


# --- twist ------------------------------------------------------------------


def _twist_verify_checks(max_n):
    checks = [("base identity pos", lambda: twist_base_identity_check("pos")),
              ("base identity neg", lambda: twist_base_identity_check("neg"))]
    for n in range(2, max_n + 1):
        checks.append(("pos n=%d" % n,
                       lambda n=n: twist_recurrence_check(n, "pos")))
    for n in range(1, max_n + 1):
        checks.append(("neg n=%d" % n,
                       lambda n=n: twist_recurrence_check(n, "neg")))
    return checks


def cmd_twist(args, cfg):
    w = sys.stdout.write
    if args.mode == "verify":
        results = [(name, fn()) for name, fn in _twist_verify_checks(args.max_n)]
        ok = all(r for _, r in results)
        if cfg.format == "json":
            _emit_json_doc(w, {"schema": 1, "max_n": args.max_n,
                               "checks": [{"name": n, "ok": r}
                                          for n, r in results],
                               "ok": ok})
        else:
            for name, r in results:
                w("%s %s\n" % ("PASS" if r else "FAIL", name))
            w("twist verify: %d/%d ok\n"
              % (sum(1 for _, r in results if r), len(results)))
        return 0 if ok else 1
    if args.n is None or args.sign is None:
        raise ValueError("twist needs --n and --sign (or the verify mode)")
    p = twist_A(args.n, args.sign)
    if cfg.format == "json":
        _emit_json_doc(w, {"schema": 1, "sign": args.sign, "n": args.n,
                           "poly": p})
    else:
        for chunk in _poly_chunks(p):
            w(chunk)
        w("\n")
    return 0


# --- selftest ---------------------------------------------------------------
#
# One check per invariant of the library modules.  Each check returns
# (ok, detail); a raised exception counts as a failure.  Every check runs
# even in --quick mode, only the ranges shrink.


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


def _rand_ratfunc(rng, vars=("x", "y")):
    num = _rand_poly(rng, vars, allow_fraction=False)
    den = _rand_poly(rng, vars, allow_fraction=False, nonzero=True)
    return RatFunc(num, den)


def _rand_point(rng, vars):
    return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in vars}


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


def _st_poly_axioms(seed, reps):
    rng = random.Random(seed)
    vars = ("x", "y", "z")
    for _ in range(reps):
        p = _rand_poly(rng, vars)
        q = _rand_poly(rng, vars)
        r = _rand_poly(rng, vars)
        if (p + q) - q != p:
            return False, "p+q-q != p for p=%s q=%s" % (p, q)
        if p * q != q * p:
            return False, "p*q != q*p"
        if (p * q) * r != p * (q * r):
            return False, "(p*q)*r != p*(q*r)"
    return True, "%d random triples" % reps


def _st_ratfunc_eq_vs_eval(seed, reps):
    rng = random.Random(seed)
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


def _st_poly_divides_roundtrip(seed, reps):
    rng = random.Random(seed)
    vars = ("x", "y")
    for _ in range(reps):
        d = _rand_poly(rng, vars, max_deg=3, nonzero=True)
        q = _rand_poly(rng, vars, max_deg=3, nonzero=True)
        ok, got = poly_divides(d, d * q)
        if not ok or got != q:
            return False, "d=%s q=%s" % (d, q)
    return True, "%d random (d, q) pairs" % reps


def _st_quadext_norm(seed, reps):
    rng = random.Random(seed)
    rad = parse_ratfunc("1 - L", PVARS)
    for _ in range(reps):
        x = QuadExt(_rand_ratfunc(rng, PVARS), _rand_ratfunc(rng, PVARS), rad)
        y = QuadExt(_rand_ratfunc(rng, PVARS), _rand_ratfunc(rng, PVARS), rad)
        if (x * y).conj_product() != x.conj_product() * y.conj_product():
            return False, "norm not multiplicative for %s, %s" % (x, y)
    return True, "%d random pairs" % reps


def _st_eval_ring_hom(seed, reps):
    rng = random.Random(seed)
    done = 0
    while done < reps:
        p = _rand_ratfunc(rng)
        q = _rand_ratfunc(rng)
        point = _rand_point(rng, p.vars)
        try:
            vp, vq = p.evaluate(point), q.evaluate(point)
            vmul = (p * q).evaluate(point)
            vadd = (p + q).evaluate(point)
        except PoleError:
            continue
        done += 1
        if vmul != vp * vq:
            return False, "evaluate(p*q) != evaluate(p)*evaluate(q)"
        if vadd != vp + vq:
            return False, "evaluate(p+q) != evaluate(p)+evaluate(q)"
    return True, "%d points" % reps


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


def _st_walk_role_sets(seed, reps):
    rng = random.Random(seed)
    for _ in range(reps):
        walk = _rand_walk(rng)
        labels = walk_labels(walk)
        for k in range(1, len(labels)):
            prev, cur = labels[k - 1], labels[k]
            if {cur.o, cur.p, cur.f} != {prev.h, prev.p, prev.f}:
                return False, "role sets broken at step %d of %s" % (k, walk)
    return True, "%d random walks" % reps


def _st_walk_tail_roles(seed, reps):
    rng = random.Random(seed)
    for _ in range(reps):
        walk = _rand_walk(rng, forced_tail=rng.randint(2, 4))
        labels = walk_labels(walk)
        wa = anatomy(walk.word)
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
    return True, "%d tailed walks" % reps


def _slope_pool(max_entry):
    pool = [Slope(1, 0)]
    for q in range(1, max_entry + 1):
        for p in range(-max_entry, max_entry + 1):
            s = Slope(p, q)
            if abs(s.p) <= max_entry and s.q <= max_entry and s not in pool:
                pool.append(s)
    return pool


def _st_crossing_symmetry(seed, reps, max_entry):
    rng = random.Random(seed)
    pool = _slope_pool(max_entry)
    for _ in range(reps):
        s, h = rng.sample(pool, 2)
        if crossing_count(s, h) != crossing_count(h, s):
            return False, "asymmetric at (%s, %s)" % (s, h)
    return True, "%d random pairs" % reps


def _st_crossing_unimodular(seed, reps, max_entry):
    rng = random.Random(seed)
    pool = _slope_pool(max_entry)
    for _ in range(reps):
        s, h = rng.sample(pool, 2)
        mat = _rand_unimodular(rng)
        if crossing_count(s, h) != crossing_count(_apply_matrix(mat, s),
                                                  _apply_matrix(mat, h)):
            return False, "not invariant at (%s, %s) under %s" % (s, h, mat)
    return True, "%d pair/matrix draws" % reps


def _st_crossing_oracle(max_entry, bound):
    pool = _slope_pool(max_entry)
    pairs = 0
    for i, s in enumerate(pool):
        for h in pool[i + 1:]:
            c = crossing_count(s, h)
            if c != crossing_count_oracle(s, h, bound):
                return False, "oracle bound %d disagrees at (%s, %s)" % (bound, s, h)
            if c != crossing_count_oracle(s, h, bound + 1):
                return False, "oracle bound %d disagrees at (%s, %s)" % (bound + 1, s, h)
            pairs += 1
    return True, "%d pairs at bounds %d and %d" % (pairs, bound, bound + 1)


def _st_matching_steps(top):
    for k in range(2, top + 1):
        if not matching_step_check(k):
            return False, "single-step recurrence fails at k=%d" % k
    return True, "k = 2..%d" % top


def _st_matching_product(lo, hi):
    f2 = Poly.variable(TAIL_VARS, "g_f") ** 2
    o2 = Poly.variable(TAIL_VARS, "g_o") ** 2
    p2 = Poly.variable(TAIL_VARS, "g_p") ** 2
    for n in range(lo, hi + 1):
        lhs = matching_sum(2 * n)
        rhs = matching_sum(2 * n - 2) * (f2 + o2 - p2) \
            - f2 * o2 * matching_sum(2 * n - 4)
        if lhs != rhs:
            return False, "two-step recurrence fails at n=%d" % n
    return True, "n = %d..%d" % (lo, hi)


def _st_matching_gap(lo, hi):
    for n in range(lo, hi + 1):
        lhs = matching_sum(2 * n - 2) * matching_sum(2 * n - 6)
        cross = Poly.monomial(TAIL_VARS, (n - 3, n - 2, 1))
        rhs = matching_sum(2 * n - 4) ** 2 - cross * cross
        if lhs != rhs:
            return False, "product gap identity fails at n=%d" % n
    return True, "n = %d..%d" % (lo, hi)


def _st_matching_coefficients(top):
    for n in range(1, top + 1):
        p = matching_sum(2 * n)
        for a in range(n + 1):
            for b in range(n + 1 - a):
                want = count_subsets(n, a, b)
                if want != count_subsets_oracle(n, a, b):
                    return False, "closed form vs oracle at (%d,%d,%d)" % (n, a, b)
                exps = (2 * a, 2 * b, 2 * (n - a - b))
                sign = 1 if (n - a - b) % 2 == 0 else -1
                got = p.terms.get(exps, 0) * sign
                if got != want:
                    return False, "coefficient (%d,%d) of P(%d)" % (a, b, 2 * n)
    return True, "all (a, b) for n <= %d" % top


def _st_fibonacci(top):
    fa, fb = 1, 1   # F(1), F(2)
    for n in range(1, top + 1):
        fa, fb = fb, fa + fb
        if len(enumerate_matchings(n)) != fa:
            return False, "count at n=%d is not Fibonacci(%d)" % (n, n + 1)
    return True, "n = 1..%d" % top


def _st_hn_equals_pn(top):
    for n in range(1, top + 1):
        if tail_poly(n) != matching_sum(2 * n):
            return False, "H(%d) != P(%d)" % (n, 2 * n)
    return True, "n = 1..%d" % top


def _int_coef(c):
    return isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)


def _st_laurent_denominator(top):
    f, o, p = symbolic_tail_values()
    for n in range(1, top + 1):
        val = iterate_exchange(f, o, p, n)
        den = val.den
        want = {(n - 1, n, 0): 1}
        if dict(den.terms) != want:
            return False, "denominator at n=%d is %s" % (n, den)
        if not all(_int_coef(c) for c in val.num.terms.values()):
            return False, "non-integer numerator coefficient at n=%d" % n
        if val * RatFunc.from_poly(Poly.monomial(TAIL_VARS, (n - 1, n, 0))) \
                != RatFunc.from_poly(tail_poly(n)):
            return False, "iterated exchange != H(%d) / (f^%d o^%d)" % (n, n - 1, n)
    return True, "n = 1..%d" % top


def _st_collapse_crossings(top):
    f, o, p = symbolic_tail_values()
    for n in range(1, top + 1):
        val = tail_collapse(TailContext(f, o, p, n))
        got = val.den.max_degrees()
        h = Slope(1, n)
        want = (crossing_count(Slope(1, 0), h),
                crossing_count(Slope(-1, 1), h),
                0 if Slope(0, 1) == h else crossing_count(Slope(0, 1), h))
        if got != want:
            return False, "denominator exponents %s != crossings %s at n=%d" \
                % (got, want, n)
    return True, "n = 1..%d" % top


def _st_h_recurrence(lo, hi):
    for n in range(lo, hi + 1):
        if not h_recurrence_check(n):
            return False, "three-term product identity fails at n=%d" % n
    return True, "n = %d..%d" % (lo, hi)


def _family_chain(spec, m=1):
    """Labels, consumed step equations and the solved chain for one family."""
    word = spec.word(m)
    labels = walk_labels(Walk(spec.triangle0, spec.triangle1, word))
    eqs = spec.equations()
    step_eqs = {k: eqs[label] for k, label in enumerate(spec.step_labels)}
    asg = chain_solve(labels, step_eqs, spec.base_assignment(),
                      len(spec.step_labels) - 1)
    return labels, step_eqs, asg


_BASE_EQ_LABELS = {"pretzel238": ("tet0", "tet1"),
                   "whitehead": ("link1", "link2", "link3")}


def _st_chain_back_audit():
    for (name, sign), spec in FAMILIES.items():
        eqs = spec.equations()
        _, step_eqs, asg = _family_chain(spec)
        for label in _BASE_EQ_LABELS[name]:
            if not check_equation(eqs[label], asg):
                return False, "%s/%s: %s residual nonzero" % (name, sign, label)
        for k in sorted(step_eqs):
            if not check_equation(step_eqs[k], asg):
                return False, "%s/%s: step %d residual nonzero" % (name, sign, k)
    return True, "every consumed equation, all four runs"


def _st_fixture_table_audit():
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
        _, step_eqs, chain = _family_chain(spec)
        asg = spec.base_assignment()
        asg = asg.bind("g_2/1", chain.value("g_2/1"))
        for fname in ("g_1/1", "g_0/1", "g_1/2" if sign == "pos" else "g_-1/1"):
            val = fixtures[fname]
            if gamma_name(Slope.parse(fname[2:])) != fname:
                return False, "fixture name %r does not round-trip" % fname
            asg = asg.bind(fname, val)
        if fixtures["g_1/0"] != asg.value("g_1/0"):
            bad.append("%s: stored g_1/0 differs from the derived value" % sign)
        for label in _BASE_EQ_LABELS["pretzel238"] + tuple(
                spec.step_labels):
            if not check_equation(eqs[label], asg):
                bad.append("%s: %s residual nonzero" % (sign, label))
    if bad:
        note = ""
        if all("step3neg" in b for b in bad):
            note = (" (known discrepancy: the stored closed form for g_-1/1"
                    " is -1 times the value its own equation forces)")
        return False, "; ".join(bad) + note
    return True, "all transcribed values satisfy their equations"


def _st_normalization_independence():
    for (name, sign), spec in FAMILIES.items():
        _, _, asg = _family_chain(spec)
        for gname in asg.names():
            v = asg.value(gname)
            if isinstance(v, RatFunc):
                if v.reduced(REDUCE_CANDIDATES) != v:
                    return False, "%s/%s %s changes under reduction" \
                        % (name, sign, gname)
            else:
                if (v.a.reduced(REDUCE_CANDIDATES) != v.a
                        or v.b.reduced(REDUCE_CANDIDATES) != v.b):
                    return False, "%s/%s %s changes under reduction" \
                        % (name, sign, gname)
    return True, "chain values are normalization-independent"


def _st_whitehead_purity():
    for sign in ("pos", "neg"):
        spec = get_family("whitehead", sign)
        _, _, asg = _family_chain(spec)
        for gname in asg.names():
            v = asg.value(gname)
            if isinstance(v, QuadExt) and not (v.is_rational()
                                               or v.is_pure_root()):
                return False, "%s %s has mixed components" % (sign, gname)
    return True, "every bound value is pure rational or pure root"


def _st_whitehead_conjugate(family_run):
    for sign in ("pos", "neg"):
        result = family_run("whitehead", sign, 1)
        if not isinstance(result.expression, QuadExt):
            return False, "%s expression lost its root part" % sign
        if result.expression.b.is_zero():
            return False, "%s expression has a zero root part" % sign
        if not isinstance(result.conjugate_product, RatFunc):
            return False, "%s conjugate product is not rational" % sign
    return True, "root part present, conjugate product rational"


def _st_twist_divisibility(family_run, max_m):
    for sign in ("pos", "neg"):
        spec = get_family("whitehead", sign)
        for m in range(1, max_m + 1):
            result = family_run("whitehead", sign, m)
            if not divides_conjugate(spec, m, result):
                return False, "no division at %s m=%d" % (sign, m)
    return True, "both signs, m = 1..%d" % max_m


def _st_twist_recurrences(top):
    for name, fn in _twist_verify_checks(top):
        if not fn():
            return False, name
    return True, "pos 2..%d, neg 1..%d, both base identities" % (top, top)


def _st_numeric_agreement(family_run, max_m, samples, seed):
    for sign in ("pos", "neg"):
        spec = get_family("pretzel238", sign)
        for m in range(1, max_m + 1):
            result = family_run("pretzel238", sign, m)
            if not numeric_agreement(spec, m, samples, seed + m, result):
                return False, "mismatch at %s m=%d" % (sign, m)
    return True, "both signs, m = 1..%d, %d points each" % (max_m, samples)


def _st_render_determinism(family_run):
    result = family_run("pretzel238", "pos", 1)
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        _emit_json_doc(buf.write, _apoly_payload(result))
        outs.append(buf.getvalue())
    if outs[0] != outs[1]:
        return False, "same payload rendered differently"
    return True, "%d bytes, byte-identical twice" % len(outs[0])


def _selftest_checks(cfg, quick):
    if quick:
        samples = min(cfg.samples, 6)
        max_n = min(cfg.max_n, 4)
        max_m = min(cfg.max_m, 1)
        hrec_hi, fib_hi, step_hi = 6, 8, 6
        pna_hi, pnb_hi, coef_hi = 5, 6, 4
    else:
        samples = cfg.samples
        max_n = cfg.max_n
        max_m = cfg.max_m
        hrec_hi, fib_hi, step_hi = 10, 12, 8
        pna_hi, pnb_hi, coef_hi = 8, 8, 8
    bound = cfg.bound if cfg.bound is not None else 4 * max_n + 1
    seed = cfg.seed
    runs = {}

    def family_run(name, sign, m):
        key = (name, sign, m)
        if key not in runs:
            runs[key] = run_family(get_family(name, sign), m)
        return runs[key]

    return [
        ("poly-ring-axioms", lambda: _st_poly_axioms(seed + 1, samples)),
        ("ratfunc-eq-vs-eval",
         lambda: _st_ratfunc_eq_vs_eval(seed + 2, max(2, samples // 4))),
        ("poly-divides-roundtrip",
         lambda: _st_poly_divides_roundtrip(seed + 3, samples)),
        ("quadext-norm-multiplicative",
         lambda: _st_quadext_norm(seed + 4, max(2, samples // 4))),
        ("evaluate-ring-hom", lambda: _st_eval_ring_hom(seed + 5, samples)),
        ("walk-role-sets", lambda: _st_walk_role_sets(seed + 6, samples)),
        ("walk-tail-roles", lambda: _st_walk_tail_roles(seed + 7, samples)),
        ("crossing-symmetry",
         lambda: _st_crossing_symmetry(seed + 8, samples, 12)),
        ("crossing-unimodular-invariance",
         lambda: _st_crossing_unimodular(seed + 9, samples, 12)),
        ("crossing-oracle-stability",
         lambda: _st_crossing_oracle(max_n, bound)),
        ("matching-step-recurrences", lambda: _st_matching_steps(step_hi)),
        ("matching-product-recurrence",
         lambda: _st_matching_product(3, pna_hi)),
        ("matching-gap-identity", lambda: _st_matching_gap(4, pnb_hi)),
        ("matching-coefficient-counts",
         lambda: _st_matching_coefficients(coef_hi)),
        ("matching-fibonacci-counts", lambda: _st_fibonacci(fib_hi)),
        ("hn-equals-matching-sum", lambda: _st_hn_equals_pn(max_n)),
        ("laurent-denominator", lambda: _st_laurent_denominator(max_n)),
        ("collapse-crossing-exponents", lambda: _st_collapse_crossings(max_n)),
        ("h-product-recurrence", lambda: _st_h_recurrence(4, hrec_hi)),
        ("chain-back-audit", _st_chain_back_audit),
        ("fixture-table-audit", _st_fixture_table_audit),
        ("normalization-independence", _st_normalization_independence),
        ("whitehead-purity", _st_whitehead_purity),
        ("whitehead-conjugate-rational",
         lambda: _st_whitehead_conjugate(family_run)),
        ("twist-divisibility",
         lambda: _st_twist_divisibility(family_run, max_m)),
        ("twist-recurrences", lambda: _st_twist_recurrences(max_n)),
        ("pretzel-numeric-agreement",
         lambda: _st_numeric_agreement(family_run, max_m, samples, seed)),
        ("render-determinism", lambda: _st_render_determinism(family_run)),
    ]


def cmd_selftest(args, cfg):
    w = sys.stdout.write
    checks = _selftest_checks(cfg, args.quick)
    width = max(len(name) for name, _ in checks)
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        results.append((name, ok, detail))
        if cfg.format == "text":
            w("%s %-*s %s\n" % ("PASS" if ok else "FAIL", width, name, detail))
            sys.stdout.flush()
    passed = sum(1 for _, ok, _ in results if ok)
    if cfg.format == "json":
        _emit_json_doc(w, {
            "schema": 1,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in results],
            "passed": passed,
            "total": len(results),
            "ok": passed == len(results),
        })
    else:
        w("selftest: %d/%d checks passed\n" % (passed, len(results)))
    return 0 if passed == len(results) else 1


# --- argument parsing ---------------------------------------------------


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json"),
                     default=argparse.SUPPRESS,
                     help="output format (default: $%s or text)" % FORMAT_ENV)
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="random seed for sampled checks (default 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fillpoly",
        description="Exact tools for collapsed-tail filling polynomials, "
                    "ladder matchings, Farey walks and twist-knot "
                    "A-polynomial sequences.")
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("hn", help="closed-form collapsed-tail polynomial")
    p.add_argument("--n", type=int, required=True, help="tail length (>= 1)")
    p.add_argument("--check-matchings", action="store_true",
                   help="verify H(n) equals the 2n-rung matching sum")
    _add_common(p)
    p.set_defaults(func=cmd_hn)

    p = sub.add_parser("pn", help="ladder matching sum by enumeration")
    p.add_argument("--n", type=int, required=True, help="rung count (>= 1)")
    _add_common(p)
    p.set_defaults(func=cmd_pn)

    p = sub.add_parser("matchings", help="enumerate ladder matchings")
    p.add_argument("--n", type=int, required=True, help="rung count (>= 1)")
    p.add_argument("--list", action="store_true",
                   help="list every matching with its weight")
    _add_common(p)
    p.set_defaults(func=cmd_matchings)

    p = sub.add_parser("farey", help="crossing counts and triangle walks")
    fsub = p.add_subparsers(dest="farey_cmd", required=True,
                            metavar="subcommand")
    pc = fsub.add_parser("cross", help="edges separating two slopes")
    pc.add_argument("--from", dest="from_slope", required=True,
                    metavar="SLOPE", help="first slope, e.g. -1/1")
    pc.add_argument("--to", dest="to_slope", required=True,
                    metavar="SLOPE", help="second slope, e.g. 1/1")
    pc.add_argument("--oracle-bound", type=int, default=None,
                    help="also run the brute-force oracle at this bound "
                         "and the next")
    _add_common(pc)
    pc.set_defaults(func=cmd_farey_cross)
    pw = fsub.add_parser("walk", help="label a triangle walk")
    pw.add_argument("spec",
                    help="walk spec, e.g. 'triangle=3/1,4/1,1/0;word=LLRLL' "
                         "(first slope = dropped by step 0)")
    _add_common(pw)
    pw.set_defaults(func=cmd_farey_walk)

    p = sub.add_parser("apoly", help="run one family filling end to end")
    p.add_argument("--family", required=True,
                   choices=sorted({k[0] for k in FAMILIES}))
    p.add_argument("--sign", required=True, choices=("pos", "neg"))
    p.add_argument("--m", type=int, required=True,
                   help="tail length (>= 1)")
    p.add_argument("--basis-change", action="store_true",
                   help="also print the basis-changed conjugate product")
    p.add_argument("--json", action="store_true",
                   help="shorthand for --format json")
    _add_common(p)
    p.set_defaults(func=cmd_apoly)

    p = sub.add_parser("twist", help="twist-knot A-polynomial sequences")
    p.add_argument("mode", nargs="?", choices=("verify",),
                   help="'verify' runs the recurrence checks instead of "
                        "printing one polynomial")
    p.add_argument("--n", type=int, default=None,
                   help="sequence index (pos: n >= 1, neg: n >= 0)")
    p.add_argument("--sign", choices=("pos", "neg"), default=None)
    p.add_argument("--max-n", type=int, default=8,
                   help="largest n for verify mode (default 8)")
    _add_common(p)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("selftest",
                       help="run every module invariant, print a table")
    p.add_argument("--samples", type=int, default=None,
                   help="random draws per sampled check (default 20)")
    p.add_argument("--max-n", type=int, default=None,
                   help="size ceiling for the symbolic checks (default 8)")
    p.add_argument("--max-m", type=int, default=None,
                   help="largest tail length for the family runs (default 4)")
    p.add_argument("--bound", type=int, default=None,
                   help="crossing-oracle bound override")
    p.add_argument("--quick", action="store_true",
                   help="shrink every range for a fast smoke pass")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _config_from(args):
    fmt = getattr(args, "format", None)
    if fmt is None:
        fmt = os.environ.get(FORMAT_ENV, "text")
    kwargs = {"format": fmt, "seed": getattr(args, "seed", 0)}
    for field in ("samples", "max_n", "max_m", "bound"):
        value = getattr(args, field, None)
        if value is not None:
            kwargs[field] = value
    return CliConfig(**kwargs)


_SLOPE_FLAGS = ("--from", "--to")


def _join_slope_flags(argv):
    """Rewrite '--from -1/1' as '--from=-1/1' so negative slopes parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SLOPE_FLAGS and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def dispatch(argv=None):
    """Parse argv and run one subcommand; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_slope_flags(list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        cfg = _config_from(args)
        return args.func(args, cfg)
    except BrokenPipeError:
        return 1
    except (ValueError, TypeError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2
    except MemoryError as exc:
        # oversized requests (say, a huge --oracle-bound) end like any
        # other bad input instead of in a traceback
        sys.stderr.write("error: %s\n" % (str(exc) or "out of memory",))
        return 2


def main(argv=None):
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
