"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fillpoly.poly import Poly  # noqa: E402
from fillpoly.ptolemy import PVARS  # noqa: E402

PRETZEL = ("cli", ["apoly", "--family", "pretzel238", "--sign", "pos", "--m", "1",
                   "--json"])
WHITEHEAD = ("cli", ["apoly", "--family", "whitehead", "--sign", "neg", "--m", "1",
                     "--json"])
SMALL_JOBS = [PRETZEL, WHITEHEAD, ("h", 10),
              ("cli", ["twist", "verify", "--max-n", "18", "--format", "json"]),
              ("cli", ["hn", "--n", "4", "--check-matchings", "--format", "json"]),
              ("cli", ["farey", "cross", "--from", "-3/7", "--to", "5/2",
                       "--oracle-bound", "40", "--format", "json"])]

# Runs SMALL_JOBS in a fresh interpreter, as one worker pass does.
PASS_SCRIPT = """
import json, sys
sys.path[:0] = [%r, %r]
import worker
jobs = %r
record = worker.traced_pass(7, jobs) if sys.argv[1] == "1" else worker.run_pass(7, jobs)
print(json.dumps(record))
""" % (os.path.join(ROOT, "src"), HERE, [tuple(j) for j in SMALL_JOBS])


def _leaves(node):
    if isinstance(node, str):
        yield node
    else:
        for value in node.values():
            yield from _leaves(value)


def _corrupt(doc_text):
    """Flip the sign of one term of the printed filling expression."""
    doc = json.loads(doc_text)
    expr = doc["expression"]
    node = expr if "num" in expr else expr["a"]
    assert " + " in node["num"]
    node["num"] = node["num"].replace(" + ", " - ", 1)
    return json.dumps(doc)


def test_read_poly_round_trips_printed_output():
    code, text = workloads.run_job(WHITEHEAD)
    assert code == 0
    leaves = list(_leaves({k: v for k, v in json.loads(text).items()
                           if k in ("expression", "conjugate_product",
                                    "basis_changed")}))
    assert len(leaves) == 10
    for leaf in leaves:
        assert str(workloads.read_poly(leaf, PVARS)) == leaf
    p = Poly(PVARS, {(2, 0): -1, (1, 3): workloads.Fraction(3, 4), (0, 0): 5})
    assert workloads.read_poly(str(p), PVARS) == p
    assert workloads.read_poly("0", PVARS) == Poly.zero(PVARS)


def _passes(job, output):
    try:
        return workloads.read_back(3, 0, job, output)()
    except workloads.CHECK_ERRORS:
        return False


@pytest.mark.parametrize("job", [PRETZEL, WHITEHEAD], ids=["pretzel", "whitehead"])
def test_corrupted_document_is_caught_and_counted(job, monkeypatch):
    good = workloads.run_job(job)
    assert worker.run_pass(3, [job])["failures"] == []
    monkeypatch.setattr(workloads, "run_job", lambda j: (0, _corrupt(good[1])))
    assert len(worker.run_pass(3, [job])["failures"]) == 1
    assert _passes(job, good)
    assert not _passes(job, (0, _corrupt(good[1])))
    assert not _passes(job, (0, good[1][: len(good[1]) // 2]))
    assert not _passes(job, (2, good[1]))


def test_the_oracle_alone_catches_a_corrupted_expression():
    """Corrupt the expression and the fields derived from it alike, so the
    read-back cross-checks agree and only the family's oracle can tell."""
    from fillpoly import families
    spec = families.get_family("pretzel238", "pos")
    result = families.run_family(spec, 1)
    bad = result.expression * result.expression
    doc = json.loads(workloads.run_job(PRETZEL)[1])
    for field, value in (("expression", bad), ("conjugate_product", bad)):
        doc[field] = {"num": str(value.num), "den": str(value.den)}
    changed = workloads.ratfunc.substitute_basis(bad, *spec.basis_rule(1))
    doc["basis_changed"] = {"num": str(changed.num), "den": str(changed.den)}
    oracle = workloads.read_back(3, 0, PRETZEL, (0, json.dumps(doc)))
    assert oracle() is False


def test_a_job_that_raises_is_a_failed_job(monkeypatch):
    def crash(argv):
        raise ArithmeticError("deliberate")
    monkeypatch.setattr(workloads.cli, "dispatch", crash)
    failures = worker.run_pass(1, [PRETZEL])["failures"]
    assert len(failures) == 1 and "ArithmeticError: deliberate" in failures[0]


def test_traced_counts_repeat_and_outputs_match_untraced():
    def one_pass(traced):
        proc = subprocess.run([sys.executable, "-c", PASS_SCRIPT, str(traced)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=300, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    plain, first, second = one_pass(0), one_pass(1), one_pass(1)
    for record in (plain, first, second):
        assert record["failures"] == []
    assert plain["output_bytes"] == first["output_bytes"] == second["output_bytes"]
    assert plain["digest"] == first["digest"] == second["digest"]
    counts = {name for name, unit, _ in tracer.LAYER_METRICS if unit == "count"}
    assert {"poly.divides.hits", "poly.mul.term_pairs", "ratfunc.reduced.noop",
            "ratfunc.reduced.terms_out"} <= counts
    for name in counts:
        assert first["layers"][name][0] == second["layers"][name][0], name
    for name in ("poly.divides.calls", "poly.mul.calls", "poly.mul.box_slots",
                 "ratfunc.reduced.calls", "quadext.div.calls",
                 "ptolemy.check_equation.calls", "farey.crossing_count_oracle.calls"):
        assert first["layers"][name][0] > 0, name


def test_tracer_leaves_its_own_work_out_of_enclosing_spans():
    t = tracer.Tracer()
    t._slow_hook = lambda args, result, duration: time.sleep(0.1)
    child = t._wrap("child", lambda: time.sleep(0.01), "_slow_hook")
    parent = t._wrap("parent", lambda: (child(), child(), time.sleep(0.1),
                                        t.hide(0.1)), None)
    t.phase = "check"
    parent()
    assert t.calls == {("check", "child"): 2, ("check", "parent"): 1}
    assert 0.02 <= t.total_s[("check", "parent")] < 0.1
    assert t.self_s[("check", "parent")] < 0.01
    assert t.span_hidden[-1] >= 0.3        # the parent closes last


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
    reported = [(name, unit) for name, unit, _ in tracer.LAYER_METRICS]
    reported += [("cli.apoly.bytes", "bytes"), ("trace.overhead_s", "s"),
                 ("trace.spans", "count")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == reported


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "whitehead-fill", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
