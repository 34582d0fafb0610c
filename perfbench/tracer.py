"""Per-layer spans and counts, recorded from outside the fillpoly package.

A Tracer wraps the public functions and methods of each fillpoly module
(the layers) in place.  Every call becomes one span (name, start, end,
parent span, job, phase) kept in flat in-memory arrays; the dump is
written only when the run ends.  A few wrappers also count work done (term
pairs multiplied, divisibility hits and misses, terms before and after a
reduction), so ratios are measured where the work happens.

A span's duration leaves out the tracer's own work inside it (the
wrappers and counters of the spans it encloses) and any time the caller
declares with hide() while it is open; its self time is
that duration minus the durations of its direct child spans.  Spans and
counts are kept apart by phase, which the caller sets: "job" while a
workload's command runs, "readback" while its output is parsed back,
"check" while an oracle checks it.

Module-level functions are rebound in every fillpoly module that holds
them by name (`poly_divides` lives in poly, ratfunc, families, cli and the
package root), otherwise calls made through those bindings would escape.
"""

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (span name, module, function name, counter hook name or None)
FUNCTIONS = (
    ("poly.divides", "fillpoly.poly", "poly_divides", "_count_divides"),
    ("ratfunc.substitute_basis", "fillpoly.ratfunc", "substitute_basis", None),
    ("ptolemy.base", "fillpoly.ptolemy", "solve_pretzel_base", None),
    ("ptolemy.base", "fillpoly.ptolemy", "solve_whitehead_base", None),
    ("ptolemy.chain_solve", "fillpoly.ptolemy", "chain_solve", None),
    ("ptolemy.check_equation", "fillpoly.ptolemy", "check_equation", None),
    ("hn.filling_poly", "fillpoly.hn", "filling_poly", None),
    ("hn.h_recurrence_check", "fillpoly.hn", "h_recurrence_check", None),
    ("families.run_family", "fillpoly.families", "run_family", None),
    ("families.numeric_agreement", "fillpoly.families", "numeric_agreement", None),
    ("families.divides_conjugate", "fillpoly.families", "divides_conjugate", None),
    ("families.twist_recurrence_check", "fillpoly.families",
     "twist_recurrence_check", None),
    ("farey.walk_labels", "fillpoly.farey", "walk_labels", None),
    ("farey.crossing_count_oracle", "fillpoly.farey", "crossing_count_oracle", None),
    ("matchings.matching_sum", "fillpoly.matchings", "matching_sum", None),
    ("cli.dispatch", "fillpoly.cli", "dispatch", None),
)

# (span name, module, class, method names sharing one wrapper, hook)
METHODS = (
    ("poly.mul", "fillpoly.poly", "Poly", ("__mul__", "__rmul__"), "_count_mul"),
    ("poly.eval_at", "fillpoly.poly", "Poly", ("eval_at",), None),
    ("ratfunc.reduced", "fillpoly.ratfunc", "RatFunc", ("reduced",), "_count_reduced"),
    ("quadext.conj_product", "fillpoly.quadext", "QuadExt", ("conj_product",), None),
    ("quadext.div", "fillpoly.quadext", "QuadExt", ("__truediv__",), None),
    ("quadext.div", "fillpoly.quadext", "QuadExt", ("__rtruediv__",), None),
)

# Per-layer metrics: (metric, unit, how it is read from the trace).
# ("calls"|"s"|"self_s", span) reads the span table, ("count", key) a counter.
# Every metric reads the "job" phase (the commands the workload runs),
# except those under CHECK_METRICS, which read the "check" phase (the
# oracles run on what the jobs printed); spans of the "readback" phase
# (parsing the printed documents back) feed no metric.
LAYER_METRICS = (
    ("poly.divides.calls", "count", ("calls", "poly.divides")),
    ("poly.divides.hits", "count", ("count", "poly.divides.hits")),
    ("poly.divides.misses", "count", ("count", "poly.divides.misses")),
    ("poly.divides.hit_s", "s", ("count", "poly.divides.hit_s")),
    ("poly.divides.miss_s", "s", ("count", "poly.divides.miss_s")),
    ("poly.mul.calls", "count", ("calls", "poly.mul")),
    ("poly.mul.self_s", "s", ("self_s", "poly.mul")),
    ("poly.mul.term_pairs", "count", ("count", "poly.mul.term_pairs")),
    ("poly.mul.box_slots", "count", ("count", "poly.mul.box_slots")),
    ("poly.eval_at.calls", "count", ("calls", "poly.eval_at")),
    ("poly.eval_at.self_s", "s", ("self_s", "poly.eval_at")),
    ("ratfunc.reduced.calls", "count", ("calls", "ratfunc.reduced")),
    ("ratfunc.reduced.s", "s", ("s", "ratfunc.reduced")),
    ("ratfunc.reduced.noop", "count", ("count", "ratfunc.reduced.noop")),
    ("ratfunc.reduced.terms_in", "count", ("count", "ratfunc.reduced.terms_in")),
    ("ratfunc.reduced.terms_out", "count", ("count", "ratfunc.reduced.terms_out")),
    ("ratfunc.substitute_basis.s", "s", ("s", "ratfunc.substitute_basis")),
    ("quadext.conj_product.calls", "count", ("calls", "quadext.conj_product")),
    ("quadext.conj_product.s", "s", ("s", "quadext.conj_product")),
    ("quadext.div.calls", "count", ("calls", "quadext.div")),
    ("quadext.div.s", "s", ("s", "quadext.div")),
    ("ptolemy.base.s", "s", ("s", "ptolemy.base")),
    ("ptolemy.chain_solve.s", "s", ("s", "ptolemy.chain_solve")),
    ("ptolemy.check_equation.calls", "count", ("calls", "ptolemy.check_equation")),
    ("ptolemy.check_equation.s", "s", ("s", "ptolemy.check_equation")),
    ("hn.filling_poly.s", "s", ("s", "hn.filling_poly")),
    ("hn.h_recurrence_check.s", "s", ("s", "hn.h_recurrence_check")),
    ("families.run_family.s", "s", ("s", "families.run_family")),
    ("families.numeric_agreement.s", "s", ("s", "families.numeric_agreement")),
    ("families.divides_conjugate.s", "s", ("s", "families.divides_conjugate")),
    ("families.twist_recurrence_check.s", "s",
     ("s", "families.twist_recurrence_check")),
    ("farey.walk_labels.s", "s", ("s", "farey.walk_labels")),
    ("farey.crossing_count_oracle.calls", "count",
     ("calls", "farey.crossing_count_oracle")),
    ("farey.crossing_count_oracle.s", "s", ("s", "farey.crossing_count_oracle")),
    ("matchings.matching_sum.s", "s", ("s", "matchings.matching_sum")),
    ("cli.apoly.self_s", "s", ("self_s", "cli.apoly")),
)
CHECK_METRICS = {"poly.eval_at.calls", "poly.eval_at.self_s",
                 "families.numeric_agreement.s", "families.divides_conjugate.s"}
PHASES = ("job", "readback", "check")


def _box_volume(exps_list):
    """Number of slots in the degree box spanned by per-variable maxima."""
    volume = 1
    for d in exps_list:
        volume *= d + 1
    return volume


class Tracer:
    """Span recorder; install() wraps the layers, uninstall() restores them."""

    def __init__(self):
        self.names = []            # span name table; spans store an index
        self._name_ids = {}
        self.span_id = array("l")
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_phase = array("B")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_hidden = array("d")
        self.calls = {}            # (phase, name) -> call count
        self.total_s = {}          # (phase, name) -> summed span duration
        self.self_s = {}           # (phase, name) -> summed self time
        self.counters = {}         # (phase, key) -> count
        self.job = -1              # id shared by the spans of one job
        self.phase = "job"         # one of PHASES, set by the caller
        self._stack = []           # [span id, child time, hidden time]
        self._next_id = 0
        self._patches = []

    # --- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _add(self, key, value):
        key = (self.phase, key)
        self.counters[key] = self.counters.get(key, 0) + value

    def hide(self, seconds):
        """Leave `seconds` of work done by the caller, not the program, out
        of the innermost open span and those enclosing it."""
        if self._stack:
            self._stack[-1][2] += seconds

    def _wrap(self, name, fn, hook):
        tracer = self
        stack = self._stack
        count = getattr(self, hook) if hook else None
        per_command = name == "cli.dispatch"   # one span name per subcommand

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            span_name = name
            if per_command:
                argv = args[0] if args else kwargs.get("argv")
                span_name = "cli." + (argv[0] if argv else "main")
            span = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0, 0.0]
            stack.append(frame)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start - frame[2]
                if returned and count is not None:
                    count(args, result, duration)
                tracer._close(span, span_name, parent, start, end, frame[2],
                              duration, duration - frame[1])
                if stack:
                    # the enclosing span counts this one as a child, and
                    # hides the tracer's own work: this wrapper's and the
                    # hidden time inside this span
                    outer = stack[-1]
                    outer[1] += duration
                    outer[2] += frame[2] + (start - entered) + (perf_counter() - end)
            return result

        return wrapper

    def _close(self, span, name, parent, start, end, hidden, duration, self_time):
        self.span_id.append(span)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_job.append(self.job)
        self.span_phase.append(PHASES.index(self.phase))
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_hidden.append(hidden)
        key = (self.phase, name)
        self.calls[key] = self.calls.get(key, 0) + 1
        self.total_s[key] = self.total_s.get(key, 0.0) + duration
        self.self_s[key] = self.self_s.get(key, 0.0) + self_time

    # --- counter hooks -------------------------------------------------------

    def _count_divides(self, args, result, duration):
        if result[0]:
            self._add("poly.divides.hits", 1)
            self._add("poly.divides.hit_s", duration)
        else:
            self._add("poly.divides.misses", 1)
            self._add("poly.divides.miss_s", duration)

    def _count_mul(self, args, result, duration):
        if result is NotImplemented:
            return
        a, b = args
        a_degs = a.max_degrees()
        if hasattr(b, "terms"):
            b_terms = len(b.terms)
            degs = [x + y for x, y in zip(a_degs, b.max_degrees())]
        else:                      # scalar operand: a one-term constant
            b_terms = 1
            degs = a_degs
        self._add("poly.mul.term_pairs", len(a.terms) * b_terms)
        self._add("poly.mul.box_slots", _box_volume(degs))

    def _count_reduced(self, args, result, duration):
        before = args[0]
        self._add("ratfunc.reduced.noop", 1 if result is before else 0)
        self._add("ratfunc.reduced.terms_in", len(before.num) + len(before.den))
        self._add("ratfunc.reduced.terms_out", len(result.num) + len(result.den))

    # --- install / uninstall -----------------------------------------------------

    def install(self):
        """Wrap every layer; the fillpoly modules must already be importable."""
        modules = [importlib.import_module(m) for m in
                   ("fillpoly", "fillpoly.poly", "fillpoly.ratfunc",
                    "fillpoly.quadext", "fillpoly.farey", "fillpoly.matchings",
                    "fillpoly.hn", "fillpoly.ptolemy", "fillpoly.families",
                    "fillpoly.cli")]
        for name, module, attr, hook in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attrs, hook in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            wrapper = self._wrap(name, cls.__dict__[attrs[0]], hook)
            for attr in attrs:
                self._patches.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- results -------------------------------------------------------------

    def layer_metrics(self):
        """Every LAYER_METRICS entry, zero where the layer never ran."""
        tables = {"calls": self.calls, "s": self.total_s, "self_s": self.self_s,
                  "count": self.counters}
        return {metric: (tables[kind].get(
                    ("check" if metric in CHECK_METRICS else "job", key), 0), unit)
                for metric, unit, (kind, key) in LAYER_METRICS}

    def dump(self, path):
        """Write every span as gzipped CSV, times in microseconds from the
        first start; hidden_us is the tracer's own time inside the span."""
        origin = min(self.span_start, default=0.0)
        with gzip.open(path, "wt") as out:
            out.write("span,parent,job,phase,name,start_us,end_us,hidden_us\n")
            for i in range(len(self.span_name)):
                out.write("%d,%d,%d,%s,%s,%.1f,%.1f,%.1f\n" % (
                    self.span_id[i], self.span_parent[i], self.span_job[i],
                    PHASES[self.span_phase[i]], self.names[self.span_name[i]],
                    (self.span_start[i] - origin) * 1e6,
                    (self.span_end[i] - origin) * 1e6,
                    self.span_hidden[i] * 1e6))
