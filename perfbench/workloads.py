"""The benchmark's workloads: which jobs each runs and how outputs are checked.

A job is either a fillpoly command line, run in-process through
`fillpoly.cli.dispatch` with stdout captured in memory, or (for the one
identity the command line does not expose) a direct library call.  The
checks read the bytes a user would get back into polynomials and hand them
to the package's independent oracles; they never reuse the objects the jobs
built.  Inputs depend only on the workload name and the seed.
"""

import contextlib
import hashlib
import io
import json
import random
import traceback
from fractions import Fraction

from fillpoly import cli, families, hn, ratfunc
from fillpoly.farey import Slope, crossing_count
from fillpoly.matchings import TAIL_VARS
from fillpoly.poly import Poly
from fillpoly.ptolemy import PVARS
from fillpoly.quadext import QuadExt
from fillpoly.ratfunc import PoleError, RatFunc

# Fill workloads: family and the tail lengths m run for both signs.
FILL = {
    "pretzel-fill": ("pretzel238", (1, 2, 3)),
    "whitehead-fill": ("whitehead", (1, 2, 3, 4)),
}
WORKLOADS = tuple(FILL) + ("identities",)

TWIST_MAX_N = 18          # twist verify: recurrences up to n = 18, both signs
MATCHING_MAX_N = 9        # H(n) against the 2n-rung matching sum
H_RECURRENCE_N = range(4, 20)   # n = 19 crosses the packed-multiply switch
FAREY_PAIRS = 8
FAREY_BOUND = 120         # oracle edge bound; dominates every drawn pair
NUMERIC_POINTS = 60       # numeric_agreement points per pretzel job; their
                          # cost varies with the drawn point, so many
CONSISTENCY_POINTS = 2    # points comparing a whitehead conjugate product
DIVIDES_REPEATS = 10      # divides_conjugate has no points; repeat it
IDENTITY_POINTS = 48      # evaluation points per identity spot check


def jobs_for(workload, seed):
    """The workload's jobs in run order: ("cli", argv) or ("h", n)."""
    if workload in FILL:
        family, ms = FILL[workload]
        return [("cli", ["apoly", "--family", family, "--sign", sign,
                         "--m", str(m), "--json"])
                for sign in ("pos", "neg") for m in ms]
    if workload != "identities":
        raise ValueError("unknown workload %r (have: %s)"
                         % (workload, ", ".join(WORKLOADS)))
    jobs = [("cli", ["twist", "verify", "--max-n", str(TWIST_MAX_N),
                     "--format", "json"])]
    jobs += [("cli", ["hn", "--n", str(n), "--check-matchings",
                      "--format", "json"])
             for n in range(1, MATCHING_MAX_N + 1)]
    jobs += [("h", n) for n in H_RECURRENCE_N]
    jobs += [("cli", ["farey", "cross", "--from", a, "--to", b,
                      "--oracle-bound", str(FAREY_BOUND), "--format", "json"])
             for a, b in _slope_pairs(seed)]
    return jobs


def _slope_pairs(seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < FAREY_PAIRS:
        a, b = _random_slope(rng), _random_slope(rng)
        if a != b:
            pairs.append((str(a), str(b)))
    return pairs


def _random_slope(rng):
    p, q = rng.randint(-40, 40), rng.randint(0, 20)
    return Slope(p, q) if p or q else Slope(0, 1)


def run_job(job):
    """Run one job; returns (exit code, captured stdout text).

    An exception the program lets escape is a failed job, not the end of
    the run: exit code 1, with the traceback as the text.
    """
    kind, arg = job
    buf = io.StringIO()
    try:
        if kind == "h":
            return 0, "h_recurrence n=%d: %s\n" % (arg, hn.h_recurrence_check(arg))
        with contextlib.redirect_stdout(buf):
            code = cli.dispatch(arg)
    except Exception:
        return 1, traceback.format_exc()
    return code, buf.getvalue()


def counted_bytes(job, text):
    """Bytes of a job's stdout that count towards output_bytes.

    Only command-line jobs whose arguments do not come from the seed count:
    the length of a `farey cross` document changes with the drawn slopes,
    and output_bytes must read the same for every seed.
    """
    kind, arg = job
    if kind != "cli" or arg[0] == "farey":
        return 0
    return len(text.encode())


def output_digest(outputs):
    h = hashlib.sha256()
    for _, text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


# --- reading the printed documents back -----------------------------------


def read_poly(text, vars):
    """Parse a canonical polynomial string (as Poly prints it) in one pass.

    The canonical form is `c*v^e*...` terms joined by " + " or " - ", so a
    split is enough; parse_ratfunc's general expression parser is far
    slower on megabyte outputs.
    """
    if text == "0":
        return Poly.zero(vars)
    index = {v: i for i, v in enumerate(vars)}
    terms = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coef = 1
        exps = [0] * len(vars)
        for factor in chunk.split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] = int(power) if power else 1
            else:
                coef = Fraction(name)
        key = tuple(exps)
        if key in terms:
            raise ValueError("repeated monomial %r" % (chunk,))
        terms[key] = sign * coef
    return Poly(vars, terms)


def read_value(node, vars=PVARS):
    """A {num, den} or {a, b, rad} JSON node back into RatFunc or QuadExt."""
    if "num" in node:
        return RatFunc(read_poly(node["num"], vars), read_poly(node["den"], vars))
    return QuadExt(read_value(node["a"], vars), read_value(node["b"], vars),
                   read_value(node["rad"], vars))


# --- checks ---------------------------------------------------------------

CHECK_ERRORS = (ValueError, KeyError, TypeError, ArithmeticError)


def read_back(seed, index, job, output):
    """Read one job's (exit code, stdout) back and cross-check its fields.

    Returns the job's oracle as a call taking no arguments and returning
    True when the output passes, so that the caller can time the oracle
    apart from the reading.  Raises one of CHECK_ERRORS when the output
    cannot be read or disagrees with itself.
    """
    code, text = output
    if code != 0:
        raise ValueError("exit code %d: %s" % (code, text[-200:]))
    rng = random.Random(seed * 1000 + index)
    if job[0] == "cli" and job[1][0] == "apoly":
        return _read_apoly(job[1], text, rng)
    return _read_identity(job, text, rng)


def failure(job, reason):
    return "%s: %s" % (job_label(job), reason)


def job_label(job):
    kind, arg = job
    return " ".join(arg) if kind == "cli" else "h_recurrence_check %d" % arg


def _read_apoly(argv, text, rng):
    family, sign, m = argv[2], argv[4], int(argv[6])
    doc = json.loads(text)
    spec = families.get_family(family, sign)
    if (doc["schema"], doc["family"], doc["sign"], doc["m"], doc["knot"]) != (
            1, family, sign, m, spec.knot_name(m)):
        raise ValueError("header %r" % ({k: doc.get(k) for k in (
            "schema", "family", "sign", "m", "knot")},))
    result = families.FillingResult(
        family, sign, m, read_value(doc["expression"]),
        read_value(doc["conjugate_product"]), doc["knot"],
        read_value(doc["basis_changed"]))
    if not _consistent(result, spec, rng):
        raise ValueError("conjugate product or basis change disagrees "
                         "with the expression")
    if family == "pretzel238":
        seed = rng.randrange(2 ** 32)
        return lambda: families.numeric_agreement(spec, m, NUMERIC_POINTS, seed,
                                                  result=result)
    return lambda: all(families.divides_conjugate(spec, m, result=result)
                       for _ in range(DIVIDES_REPEATS))


def _consistent(result, spec, rng):
    """The printed conjugate product and basis change agree with the printed
    expression, so a corrupted field cannot hide behind an oracle that
    reads only another field.  The basis change is compared term by term:
    evaluating it at a point needs M to a power below -100 at m = 3."""
    expr, conj = result.expression, result.conjugate_product
    changed = ratfunc.substitute_basis(conj, *spec.basis_rule(result.m))
    if (changed.num, changed.den) != (result.basis_changed.num,
                                      result.basis_changed.den):
        return False
    if not isinstance(expr, QuadExt):
        return (expr.num, expr.den) == (conj.num, conj.den)
    checked = 0
    while checked < CONSISTENCY_POINTS:
        point = families.random_rational_point(rng)
        try:
            want = (expr.a.evaluate(point) ** 2
                    - expr.b.evaluate(point) ** 2 * expr.rad.evaluate(point))
            if conj.evaluate(point) != want:
                return False
        except PoleError:
            continue
        checked += 1
    return True


def _read_identity(job, text, rng):
    """The printed verdicts must be ok; the oracle spot-checks the
    polynomials behind them at seed-chosen points."""
    kind, arg = job
    if kind == "h":
        n = arg
        if text != "h_recurrence n=%d: True\n" % n:
            raise ValueError("verdict %r" % text[:200])
        return lambda: _tail_matches_exchange(n - 1, rng)
    doc = json.loads(text)
    if doc["ok"] is not True:
        raise ValueError("verdict %r" % text[:200])
    if arg[0] == "twist":
        if (len(doc["checks"]) != 2 * TWIST_MAX_N + 1
                or not all(c["ok"] is True for c in doc["checks"])):
            raise ValueError("twist checks %r" % text[:200])
        return lambda: _twist_matches_recurrence(rng)
    if arg[0] == "hn":
        n = int(arg[2])
        return lambda: _tail_matches_exchange(n, rng)
    s, h = Slope.parse(arg[3]), Slope.parse(arg[5])
    return lambda: (doc["crossings"] == crossing_count(s, h)
                    and all(v == doc["crossings"] for v in doc["oracle"].values()))


def _twist_matches_recurrence(rng):
    """The last twist polynomials generated (n = 19) against the recurrence
    run from the seeds in plain Fractions.  Each generated polynomial is
    built from the two before it, so an error anywhere in the sequence
    shows at the end."""
    tw = families.twist_polys()
    top = TWIST_MAX_N + 1
    for _ in range(IDENTITY_POINTS):
        point = families.random_rational_point(rng)
        x, y = tw.x.eval_at(point), tw.y.eval_at(point)
        for sign, first in (("pos", 1), ("neg", 0)):
            older = families.twist_A(first, sign).eval_at(point)
            newer = families.twist_A(first + 1, sign).eval_at(point)
            for _ in range(first + 2, top + 1):
                older, newer = newer, x * newer - y * older
            if families.twist_A(top, sign).eval_at(point) != newer:
                return False
    return True


def _tail_matches_exchange(n, rng):
    """tail_poly(n) at a point against n exchange steps in plain Fractions."""
    poly = hn.tail_poly(n)
    checked = 0
    while checked < IDENTITY_POINTS:
        f, o, p = (families.random_rational_point(rng)["L"] for _ in range(3))
        try:
            collapsed = hn.iterate_exchange(f, o, p, n)
        except ZeroDivisionError:
            continue
        point = dict(zip(TAIL_VARS, (f, o, p)))
        if poly.eval_at(point) != collapsed * f ** (n - 1) * o ** n:
            return False
        checked += 1
    return True
