"""One benchmark round in a fresh interpreter.

Imports nilorbit from the checkout's `src/`, builds the workload's inputs
for the seed, runs the job list once (closed loop: each job starts when
the previous one has finished), checks every output, and prints one JSON
line with the round's timings, checks and, when traced, per-layer stats.
`run.py` starts one worker per round; run it directly only to debug:

    python3 perfbench/worker.py --workload golden --seed 1 --trace 0
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import nilorbit  # noqa: E402
import workloads  # noqa: E402
from run import PINNED_ENV  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def check_output(key, text, pins):
    """None when the output's digest equals the pinned one, else the reason."""
    want = pins["outputs"].get(key)
    if want is None:
        return "no pinned digest for %s" % key
    got = workloads.digest(text)
    if got != want:
        return "digest mismatch for %s: %s != pinned %s" % (key, got[:16], want[:16])
    return None


def run_jobs(jobs, pins):
    """Run the jobs in order; returns per-job records and the wall time."""
    records = []
    t_start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        error = None
        try:
            outputs = job.run()
        except workloads.JobFailure as e:
            error = "check failed in %s: %s" % (job.key, e)
        except Exception:  # a raising job is a failed job; keep running the rest
            error = "%s raised:\n%s" % (job.key, traceback.format_exc())
        dt = time.perf_counter() - t0
        if error is None:
            checks = [check_output(k, text, pins) for k, text in sorted(outputs.items())]
            error = next((c for c in checks if c is not None), None)
        if error is not None:
            print(error, file=sys.stderr)
        records.append({"key": job.key, "s": dt, "ok": error is None})
    return records, time.perf_counter() - t_start


def machine_info():
    import platform

    import numpy

    from nilorbit import kernels

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels.BACKEND": kernels.BACKEND,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.abspath(nilorbit.__file__).startswith(SRC + os.sep):
        raise SystemExit("nilorbit was not imported from %s" % SRC)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    pins = load_pins()
    jobs = workloads.build(args.workload, args.seed, pins)
    ready = time.monotonic()
    records, solve_s = run_jobs(jobs, pins)
    if tracer is not None:
        tracer.uninstall()
    out = {
        "ready_monotonic": ready,
        "jobs": records,
        "solve_s": solve_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(),
    }
    if tracer is not None:
        out["layers"] = {
            name: {"calls": s.calls, "self_s": s.self_s, "work": s.work}
            for name, s in tracer.stats.items()
        }
        out["trace_wall_s"] = tracer.wall_s
        out["trace_root_s"] = tracer.root_s
        out["trace_missing"] = tracer.missing
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
