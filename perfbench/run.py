"""fillpoly benchmark: one workload, a closed loop of jobs, every output checked.

    python3 perfbench/run.py --workload pretzel-fill --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py) that imports fillpoly from src/, runs the workload's
jobs one after another on one thread, then checks their outputs.

--trace 0 reports the end-to-end metrics: set-up is timed in several
set-up-only interpreters and in every pass, and passes repeat until
--seconds have gone by (at least one, and none that would likely end
after 1.2 x --seconds); each metric is the median.  Times are seconds
on a host at the reference speed (see worker.HostClock), since the
host's own speed drifts.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics, including the tracing overhead (traced minus untraced wall_s).

Prints the machine, every metric with its unit and any failed check, then
one JSON object on the last line.  The full record, with per-job times, goes
to perfbench/out/ (and the span dump of a traced pass next to it).  Exits
non-zero, without a result line, when a pass cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("pretzel-fill", "whitehead-fill", "identities")
SETUP_SAMPLES = 10         # set-up-only interpreters per untraced run
PASS_TIMEOUT_S = 170       # a single pass never legitimately takes this long

END_TO_END = (             # metric, unit, pass-record field
    ("setup_s", "s", None),
    ("wall_s", "s", "wall_s"),
    ("verify_s", "s", "verify_s"),
    ("output_bytes", "bytes", "output_bytes"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
)


class PassError(RuntimeError):
    pass


def spawn(*args):
    """Run the worker in a fresh interpreter; returns (record, set-up seconds).

    Set-up runs from interpreter start to the reported end, less the time
    the worker spent sampling the host's speed, scaled by that speed.
    """
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError("worker %s timed out" % " ".join(args)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError("worker %s exited with %d" % (" ".join(args), proc.returncode))
    record = json.loads(lines[-1])
    setup_s = record["setup_end"] - started - record["setup_sampling_s"]
    return record, setup_s * record["setup_speed"]


def machine():
    return {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}


def run_untraced(workload, seed, seconds):
    spawn()                         # compiles bytecode; not a sample
    # set-up samples come before and after the passes, so that they span
    # the same stretch of machine time as the passes do
    setups = [spawn()[1] for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    started = time.perf_counter()
    while True:
        record, setup_s = spawn("--workload", workload, "--seed", str(seed))
        setups.append(setup_s)
        passes.append(record)
        elapsed = time.perf_counter() - started
        next_end = elapsed * (len(passes) + 1) / len(passes)
        if elapsed >= seconds or next_end > 1.2 * seconds:
            break
    setups += [spawn()[1] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name, unit, field in END_TO_END[1:]:
        values = [p[field] for p in passes]
        # byte counts are exact and must agree across passes; no averaging
        metrics[name] = (values[0] if unit == "bytes" else statistics.median(values),
                         unit)
    return passes, metrics, {"setup_samples": setups}


def run_traced(workload, seed):
    plain, _ = spawn("--workload", workload, "--seed", str(seed))
    spans = os.path.join(OUT, "spans-%s-seed%d.csv.gz" % (workload, seed))
    traced, _ = spawn("--workload", workload, "--seed", str(seed), "--spans", spans)
    metrics = {name: (value, unit) for name, (value, unit) in traced["layers"].items()}
    metrics["cli.apoly.bytes"] = (traced["apoly_bytes"], "bytes")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    metrics["trace.spans"] = (traced["spans"], "count")
    return [plain, traced], metrics, {"span_dump": os.path.relpath(spans, ROOT)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    host = machine()
    try:
        if args.trace:
            passes, metrics, extra = run_traced(args.workload, args.seed)
        else:
            passes, metrics, extra = run_untraced(args.workload, args.seed,
                                                  args.seconds)
    except PassError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    host.update(passes[0]["environment"])
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    same_output = len({(p["digest"], p["output_bytes"]) for p in passes}) == 1
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": host, "passes": passes, **extra,
        "correct": not failures and same_output,
        "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as out:
        json.dump(record, out, indent=1)

    print("machine: %s" % json.dumps(host, sort_keys=True))
    print("workload %s, seed %d, %d pass(es), %d jobs each"
          % (args.workload, args.seed, len(passes), len(passes[0]["jobs"])))
    for key, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (key, value, unit))
    print("  %-36s %14.6g share" % ("error_rate", len(failures) / attempted))
    if not same_output:
        print("  outputs differ between passes")
    for failure in failures:
        print("  FAILED %s" % failure)
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
