"""One pass of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/worker.py --workload pretzel-fill --seed 1 [--spans FILE]
    python3 perfbench/worker.py          # set-up only

Set-up imports fillpoly from the checkout's src/ and loads both families'
equation fixtures; its end is reported as a perf_counter reading (the
system-wide monotonic clock on Linux), so the parent can time set-up from
the moment it started this interpreter, together with the time spent
sampling the host's speed during set-up and the speed found (HostClock).
The timed phase then runs every job back to back on one thread, each
followed by the check of its output.  Prints one JSON object on its last
stdout line.
"""

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The reference computation: squaring a dense 2-variable polynomial held as
# a dict of big-int coefficients, in stdlib Python only, so that no change
# to fillpoly can speed it up.  It does the kind of work fillpoly's jobs
# do (dict lookups, tuple keys, multi-word integer products).
_REF_TERMS = [((i, j), (i * 7919 + j * 104729 + 1) ** 5)
              for i in range(12) for j in range(12)]

# About the median time of the reference computation on the host the
# benchmark was written on (2-vCPU VM, Python 3.11.7), so that timings,
# which are reported as seconds on a host running at that speed (see
# HostClock), stay near the raw seconds seen there.
REF_NOMINAL_S = 0.008


def setup():
    sys.path.insert(0, SRC)
    import fillpoly.cli
    if not os.path.abspath(fillpoly.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("fillpoly was not imported from %s" % SRC)
    from fillpoly.ptolemy import load_equations
    load_equations("pretzel238.eqs")
    load_equations("whitehead.eqs")


def environment():
    import numpy
    try:
        import gmpy2  # noqa: F401  (changes the packed multiply)
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "gmpy2": has_gmpy2}


def reference_s():
    """Seconds the host takes for the reference computation, right now.

    The collector is off while it runs, so its cost does not depend on how
    many objects the jobs before it left alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        square = {}
        for (i, j), c in _REF_TERMS:
            for (k, l), d in _REF_TERMS:
                key = (i + k, j + l)
                square[key] = square.get(key, 0) + c * d
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Times a stretch of work in seconds on a host at the reference speed.

    The host this was written on changes speed by up to 2x within seconds,
    because of load it shares with other machines.  So while a stretch runs,
    a timer signal interrupts it every sample_every_s seconds to run the
    reference computation, and it runs once more before and after the
    stretch.  The time spent sampling inside the stretch is taken out, and
    the rest is scaled by the mean of REF_NOMINAL_S / sample: the stretch is
    counted at the speed the host ran at while it ran.  With a tracer, the
    sampling time is also hidden from the span it interrupted.
    """

    def __init__(self, tracer=None, sample_every_s=0.25):
        self.tracer = tracer
        self.sample_every_s = sample_every_s
        self.samples = []
        self.sampling_s = 0.0      # spent sampling in the last time() call
        self.speed = 1.0           # mean REF_NOMINAL_S / sample in that call

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append(reference_s())
        seconds = time.perf_counter() - start
        self.sampling_s += seconds
        if self.tracer is not None:
            self.tracer.hide(seconds)

    def time(self, fn):
        """Run fn(); returns (its result, raw seconds, scaled seconds)."""
        self.samples, self.sampling_s = [], 0.0
        self._sample()
        before = self.sampling_s
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.sample_every_s,
                         self.sample_every_s)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        elapsed = end - start - (self.sampling_s - before)
        self._sample()
        self.speed = sum(REF_NOMINAL_S / s for s in self.samples) / len(self.samples)
        return result, elapsed, elapsed * self.speed


def run_pass(seed, jobs, tracer=None):
    """Each job, then the check of its output; returns the pass record.

    A check runs right after its job: reading the printed output back and
    cross-checking its fields is untimed (readback_s), the oracle it
    returns is timed (verify_s).  wall_s and verify_s are HostClock's
    scaled seconds.
    """
    import workloads
    clock = HostClock(tracer)
    outputs, job_s, job_scaled_s, oracle_s, readback_s, failures = (
        [], [], [], [], [], [])
    wall = verify = 0.0
    gc.collect()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job, tracer.phase = index, "job"
        output, elapsed, scaled = clock.time(lambda: workloads.run_job(job))
        outputs.append(output)
        job_s.append(elapsed)
        job_scaled_s.append(scaled)
        wall += scaled

        if tracer is not None:
            tracer.phase = "readback"
        t0 = time.perf_counter()
        try:
            oracle = workloads.read_back(seed, index, job, output)
        except workloads.CHECK_ERRORS as exc:
            oracle = None
            failures.append(workloads.failure(job, "%s: %s"
                                              % (type(exc).__name__, exc)))
        readback_s.append(time.perf_counter() - t0)
        if oracle is None:
            oracle_s.append(0.0)
            continue

        if tracer is not None:
            tracer.phase = "check"
        (ok, reason), elapsed, scaled = clock.time(lambda: _run_oracle(oracle))
        oracle_s.append(elapsed)
        verify += scaled
        if not ok:
            failures.append(workloads.failure(job, reason))
    return {
        "jobs": [workloads.job_label(job) for job in jobs],
        "job_s": job_s,
        "job_scaled_s": job_scaled_s,
        "oracle_s": oracle_s,
        "readback_s": readback_s,
        "wall_s": wall,
        "verify_s": verify,
        "wall_raw_s": sum(job_s),
        "verify_raw_s": sum(oracle_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bytes": sum(workloads.counted_bytes(job, text)
                            for job, (_, text) in zip(jobs, outputs)),
        "apoly_bytes": sum(len(text.encode()) for job, (_, text)
                           in zip(jobs, outputs)
                           if job[0] == "cli" and job[1][0] == "apoly"),
        "digest": workloads.output_digest(outputs),
        "failures": failures,
    }


def _run_oracle(oracle):
    """(passed, why not) for one oracle call."""
    import workloads
    try:
        return oracle(), "the oracle disagrees"
    except workloads.CHECK_ERRORS as exc:
        return False, "%s: %s" % (type(exc).__name__, exc)


def traced_pass(seed, jobs, spans=None):
    """run_pass with every layer traced; adds the per-layer metrics and
    writes the span dump to the file `spans` when one is named."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        record = run_pass(seed, jobs, tracer)
    finally:
        tracer.uninstall()
    record["layers"] = tracer.layer_metrics()
    record["spans"] = len(tracer.span_id)
    if spans:
        tracer.dump(spans)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="without one, only set-up runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", help="trace the pass; write the span dump here")
    args = parser.parse_args(argv)
    # set-up is short, so the host's speed is sampled more often; the
    # parent scales its own timing of set-up with what is reported here
    clock = HostClock(sample_every_s=0.05)
    clock.time(setup)
    record = {"setup_end": time.perf_counter(),
              "setup_sampling_s": clock.sampling_s, "setup_speed": clock.speed}
    if args.workload:
        import workloads
        jobs = workloads.jobs_for(args.workload, args.seed)
        if args.spans:
            record.update(traced_pass(args.seed, jobs, args.spans))
        else:
            record.update(run_pass(args.seed, jobs))
        record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
