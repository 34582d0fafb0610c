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
deterministic for a fixed argv and --seed.  Text output prints each
polynomial, rational function or quadratic extension value in its
canonical str() form; JSON output is one json.dumps document (indent 2)
that carries the same strings.
"""

import argparse
import json
import sys
from dataclasses import replace

from .poly import Poly
from .ratfunc import RatFunc
from .quadext import QuadExt
from .farey import (Slope, FareyTriangle, Walk, WordAnatomy, walk_labels,
                    crossing_count, crossing_count_oracle, _new_slope)
from .matchings import enumerate_matchings, matching_sum, matching_weights
from .hn import tail_poly
from .families import (FAMILIES, get_family, run_family, twist_A,
                       twist_identities)


# --- rendering ----------------------------------------------------------


def _algebra_text(value):
    """json.dumps fallback: Poly, RatFunc and QuadExt become their str()."""
    if isinstance(value, (Poly, RatFunc, QuadExt)):
        return str(value)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


def _emit_json_doc(w, payload):
    w(json.dumps(payload, indent=2, default=_algebra_text))
    w("\n")


# --- hn / pn / matchings --------------------------------------------------


def cmd_hn(args):
    w = sys.stdout.write
    h = tail_poly(args.n)
    if args.check_matchings:
        ok = h == matching_sum(2 * args.n)
        if args.format == "json":
            _emit_json_doc(w, {"schema": 1, "n": args.n,
                               "check": "matchings", "ok": ok})
        else:
            w("H(%d) == P(%d): %s\n" % (args.n, 2 * args.n,
                                        "ok" if ok else "MISMATCH"))
        return 0 if ok else 1
    if args.format == "json":
        _emit_json_doc(w, {"schema": 1, "n": args.n, "poly": h})
    else:
        w("%s\n" % h)
    return 0


def cmd_pn(args):
    w = sys.stdout.write
    p = matching_sum(args.n)
    if args.format == "json":
        _emit_json_doc(w, {"schema": 1, "n": args.n, "poly": p})
    else:
        w("%s\n" % p)
    return 0


def cmd_matchings(args):
    w = sys.stdout.write
    sels = enumerate_matchings(args.n)
    weights = matching_weights(args.n, sels) if args.list else ()
    if args.format == "json":
        payload = {"schema": 1, "n": args.n, "count": len(sels)}
        if args.list:
            payload["matchings"] = [{"pairs": list(sel), "weight": weight}
                                    for sel, weight in zip(sels, weights)]
        _emit_json_doc(w, payload)
        return 0
    w("rungs: %d\nmatchings: %d\n" % (args.n, len(sels)))
    for sel, weight in zip(sels, weights):
        key = ",".join(str(i) for i in sel) or "-"
        w("%s: %s\n" % (key, weight))
    return 0


# --- farey ----------------------------------------------------------------


def cmd_farey_cross(args):
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
    if args.format == "json":
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


def cmd_farey_walk(args):
    w = sys.stdout.write
    walk = parse_walk_spec(args.spec)
    labels = walk_labels(walk)
    wa = WordAnatomy(walk.word) if len(walk.word) >= 2 else None
    if args.format == "json":
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


def _rendered(node):
    """node with each leaf value replaced by the str() json.dumps prints."""
    return {k: _rendered(v) if isinstance(v, dict) else str(v)
            for k, v in node.items()}


def _apoly_payload(result):
    expression = _value_json(result.expression)
    conjugate = _value_json(result.conjugate_product)
    if result.conjugate_product is result.expression:
        # one value in two fields (pretzel238): render its text once
        expression = conjugate = _rendered(expression)
    return {
        "schema": 1,
        "family": result.family,
        "sign": result.sign,
        "m": result.m,
        "knot": result.knot,
        "expression": expression,
        "conjugate_product": conjugate,
        "basis_changed": _value_json(result.basis_changed),
    }


def _apoly_emit_text(w, result, show_basis):
    w("family: %s\nsign: %s\nm: %d\nknot: %s\n"
      % (result.family, result.sign, result.m, result.knot))
    expr = result.expression
    if isinstance(expr, QuadExt):
        w("expression.a: %s\nexpression.b: %s\nexpression.rad: %s\n"
          % (expr.a, expr.b, expr.rad))
    else:
        w("expression: %s\n" % expr)
    w("conjugate_product: %s\n" % result.conjugate_product)
    if show_basis:
        w("basis_changed: %s\n" % result.basis_changed)


def cmd_apoly(args):
    w = sys.stdout.write
    spec = get_family(args.family, args.sign)
    result = run_family(spec, args.m)
    if args.format == "json":
        _emit_json_doc(w, _apoly_payload(result))
    else:
        _apoly_emit_text(w, result, args.basis_change)
    return 0


# --- twist ------------------------------------------------------------------


def cmd_twist(args):
    w = sys.stdout.write
    if args.mode == "verify":
        results = [(name, fn()) for name, fn in twist_identities(args.max_n)]
        ok = all(r for _, r in results)
        if args.format == "json":
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
    if args.format == "json":
        _emit_json_doc(w, {"schema": 1, "sign": args.sign, "n": args.n,
                           "poly": p})
    else:
        w("%s\n" % p)
    return 0


# --- selftest ---------------------------------------------------------------
#
# The registry is imported inside these functions, not at the top: only
# selftest needs it, and without cached bytecode compiling it costs every
# other command about 10 ms.


def _selftest_ranges(args):
    """FULL, or QUICK for --quick, under the size flags; with --quick a
    flag can only shrink a range further."""
    from .checks import FULL, QUICK

    ranges = QUICK if args.quick else FULL
    sizes = {}
    for field in ("samples", "max_n", "max_m"):
        value = getattr(args, field)
        if value is not None:
            sizes[field] = min(value, getattr(ranges, field)) if args.quick else value
    return replace(ranges, seed=args.seed, **sizes)


def cmd_selftest(args):
    w = sys.stdout.write
    from .checks import CHECKS, family_runner, run_check

    ranges = _selftest_ranges(args)
    family_run = family_runner()
    width = max(len(name) for name, _ in CHECKS)
    results = []
    for name, check in CHECKS:
        ok, detail = run_check(check, ranges, family_run)
        results.append((name, ok, detail))
        if args.format == "text":
            w("%s %-*s %s\n" % ("PASS" if ok else "FAIL", width, name, detail))
            sys.stdout.flush()
    passed = sum(1 for _, ok, _ in results if ok)
    if args.format == "json":
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
                     help="output format (default: text)")


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
    p.set_defaults(command_fn="cmd_hn")

    p = sub.add_parser("pn", help="ladder matching sum by enumeration")
    p.add_argument("--n", type=int, required=True, help="rung count (>= 1)")
    _add_common(p)
    p.set_defaults(command_fn="cmd_pn")

    p = sub.add_parser("matchings", help="enumerate ladder matchings")
    p.add_argument("--n", type=int, required=True, help="rung count (>= 1)")
    p.add_argument("--list", action="store_true",
                   help="list every matching with its weight")
    _add_common(p)
    p.set_defaults(command_fn="cmd_matchings")

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
    pc.set_defaults(command_fn="cmd_farey_cross")
    pw = fsub.add_parser("walk", help="label a triangle walk")
    pw.add_argument("spec",
                    help="walk spec, e.g. 'triangle=3/1,4/1,1/0;word=LLRLL' "
                         "(first slope = dropped by step 0)")
    _add_common(pw)
    pw.set_defaults(command_fn="cmd_farey_walk")

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
    p.set_defaults(command_fn="cmd_apoly")

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
    p.set_defaults(command_fn="cmd_twist")

    p = sub.add_parser("selftest",
                       help="run every module invariant, print a table")
    p.add_argument("--samples", type=int, default=None,
                   help="random draws per sampled check (default 20)")
    p.add_argument("--max-n", type=int, default=None,
                   help="size ceiling for the symbolic checks (default 8)")
    p.add_argument("--max-m", type=int, default=None,
                   help="largest tail length for the family runs (default 4)")
    p.add_argument("--quick", action="store_true",
                   help="shrink every range for a fast smoke pass")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed for sampled checks (default 0)")
    _add_common(p)
    p.set_defaults(command_fn="cmd_selftest")

    return parser


def _output_format(args):
    """The --format flag, then json for apoly's --json, then text."""
    return getattr(args, "format",
                   "json" if getattr(args, "json", False) else "text")


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


# built at the first dispatch, not at import, and kept for the process
_parser = None


def dispatch(argv=None):
    """Parse argv and run one subcommand; returns the process exit code.

    The subcommand's function is looked up by name in this module at each
    call, so a replaced cmd_* function is the one that runs.
    """
    global _parser
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_slope_flags(list(argv))
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        args.format = _output_format(args)
        return globals()[args.command_fn](args)
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
