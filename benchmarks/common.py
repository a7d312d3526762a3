"""Shared parts of the benchmark scripts in this directory.

Each script measures this checkout and, with `--baseline DIR`, another
checkout of the same repository, in pairs on one machine, alternating which
checkout runs first, and writes a BENCH_*.json at the repository root.  This
module holds what they share: the machine and revision of a run, the pinned
environment, timed CLI runs, perfbench runs, the pair loop and the report
frame.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH_SECONDS = 5
END_TO_END = ("solve_s", "cold_job_s", "setup_s", "peak_rss_mib")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# Runs in a fresh interpreter whose only child is the timed CLI process, so
# the children's ru_maxrss is that process's peak RSS.
CLI_WORKER = r"""
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from common import time_cli
wall, sha = time_cli(sys.argv[2], json.loads(sys.argv[3]))
rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "peak_rss_mib": rss_mib, "sha256": sha}))
"""


def machine_info():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": PINNED_ENV,
    }


def revision(root):
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        dirty = subprocess.run(
            ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        return out.stdout.strip() + ("+changes" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def _env(root):
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def python(root, code, *args):
    """The last stdout line of `code` run with args in a fresh interpreter
    inside the checkout at root."""
    return subprocess.run(
        [sys.executable, "-c", code, root, *args],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()[-1]


def time_cli(root, args):
    """(wall seconds, SHA-256 of stdout) of one `python -m nilorbit` run."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "nilorbit"] + args,
        cwd=root, env=_env(root), capture_output=True, check=True,
    ).stdout
    return time.perf_counter() - t0, hashlib.sha256(out).hexdigest()


def run_cli(root, args):
    """time_cli in a wrapper process that also reads the CLI's peak RSS."""
    out = subprocess.run(
        [sys.executable, "-c", CLI_WORKER, HERE, root, json.dumps(args)],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def perfbench(root, workload, seed, trace=0):
    """The metric values of one perfbench run; raises if a job failed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace)],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"]:
        raise RuntimeError("perfbench reported failed jobs in %s" % root)
    return {k: v["value"] for k, v in result["metrics"].items()}


def parse_args(default_out, description, argv=None):
    ap = argparse.ArgumentParser(description=description.split("\n")[0])
    ap.add_argument("--baseline", help="another checkout of this repository to compare with")
    ap.add_argument("--pairs", type=int, default=3, help="alternating rounds per checkout")
    ap.add_argument("--out", default=os.path.join(ROOT, default_out))
    return ap.parse_args(argv)


def run_pairs(args, benchmark, measure):
    """Calls measure(root, seed) for seeds 1..pairs on each checkout,
    alternating which checkout runs first.  Returns (report, checkouts,
    rounds): the report frame (benchmark, machine, pairs, wall time), the
    label -> root map ("change" and, with a baseline, "baseline") and the
    label -> list of measurements."""
    checkouts = {"change": ROOT}
    if args.baseline:
        checkouts = {"baseline": os.path.abspath(args.baseline), "change": ROOT}
    rounds = {label: [] for label in checkouts}
    t0 = time.perf_counter()
    for seed in range(1, args.pairs + 1):
        for label, root in list(checkouts.items())[:: 1 if seed % 2 else -1]:
            rounds[label].append(measure(root, seed))
            print("pair %d %s: %s" % (seed, label, json.dumps(rounds[label][-1])), file=sys.stderr)
    report = {
        "benchmark": benchmark,
        "machine": machine_info(),
        "pairs": args.pairs,
        "perfbench_seconds": PERFBENCH_SECONDS,
        "wall_s": time.perf_counter() - t0,
    }
    return report, checkouts, rounds


def stats(values):
    values = list(values)
    out = {"median": statistics.median(values)}
    if len(values) >= 2:
        out["quartiles"] = statistics.quantiles(values, n=4)[::2]
    return out


def write(report, path, summary):
    """Writes the report as JSON and prints the summary dict."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary))


# -- CLI runs plus perfbench workloads, the frame of bench_tables and bench_orbits


def compare(args, benchmark, cli_runs, workloads, stages=None):
    """Alternating pairs of the CLI runs (wall time, peak RSS, stdout digest)
    and of perfbench's end-to-end metrics on the workloads, and when given
    of stages(root, seed), a dict of cases of named times; returns the
    report, with change/baseline ratios when there is a baseline, and the
    checkouts."""

    def measure(root, seed):
        rec = {name: run_cli(root, cli) for name, cli in cli_runs.items()}
        for w in workloads:
            metrics = perfbench(root, w, seed)
            rec[w] = {k: metrics[k] for k in END_TO_END}
        if stages:
            rec["stages"] = stages(root, seed)
        return rec

    report, checkouts, rounds = run_pairs(args, benchmark, measure)
    for label, root in checkouts.items():
        runs = rounds[label]
        summary = {
            name: {k: stats(r[name][k] for r in runs) for k in ("wall_s", "peak_rss_mib")}
            for name in cli_runs
        }
        for w in workloads:
            summary[w] = {k: stats(r[w][k] for r in runs) for k in END_TO_END}
        summary["cli_sha256"] = {
            name: sorted({r[name]["sha256"] for r in runs}) for name in cli_runs
        }
        if stages:
            summary["stages"] = {
                case: {k: stats(r["stages"][case][k] for r in runs) for k in times}
                for case, times in runs[0]["stages"].items()
            }
        report[label] = dict(revision=revision(root), rounds=runs, **summary)
    if args.baseline:
        base, new = report["baseline"], report["change"]
        ratios = {}
        for name in cli_runs:
            for k in ("wall_s", "peak_rss_mib"):
                ratios["%s.%s" % (name, k)] = new[name][k]["median"] / base[name][k]["median"]
        for w in workloads:
            for k in END_TO_END:
                ratios["%s.%s" % (w, k)] = new[w][k]["median"] / base[w][k]["median"]
        report["change_over_baseline"] = ratios
        # pairs in which the change's figure is lower (every one is lower-is-better)
        report["pairs_change_lower"] = {
            "%s.%s" % (w, k): sum(
                n[w][k] < b[w][k] for b, n in zip(rounds["baseline"], rounds["change"])
            )
            for w in workloads for k in END_TO_END
        }
        report["cli_outputs_identical"] = base["cli_sha256"] == new["cli_sha256"]
    return report, checkouts


def compare_summary(report, cli_runs):
    """The ratios, or without a baseline the CLI wall-time medians."""
    return report.get("change_over_baseline", {
        name: report["change"][name]["wall_s"]["median"] for name in cli_runs
    })
