"""Benchmark: character tables in their table form, end to end.

Measures, for this checkout and optionally a baseline checkout of the same
repository, in pairs on one machine, alternating which checkout runs first:

* the wall time, peak RSS and stdout digest of `golden --q 16`,
  `golden --q 8 --oracle` and `chartable --family ul --n 4 --q 5
  --oracle`, each in a fresh interpreter (peak RSS is the CLI process's
  own `ru_maxrss`, read by a wrapper process that runs only it);
* perfbench's oracle_tables, convolution and golden `solve_s`,
  `cold_job_s`, `setup_s` and `peak_rss_mib` (seeds 1, 2, ...; one run
  each).

Writes the medians, the quartiles, the per-pair figures, the
change/baseline ratios and the machine to BENCH_tables.json at the
repository root.

    python benchmarks/bench_tables.py --baseline ../nilorbit-parent --pairs 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from bench_dixon import _env, machine_info, revision  # noqa: E402
from bench_gfq import END_TO_END, PERFBENCH_SECONDS, perfbench  # noqa: E402

ROOT = os.path.dirname(HERE)
CLI_RUNS = {
    "golden_q16": ["golden", "--q", "16"],
    "golden_q8_oracle": ["golden", "--q", "8", "--oracle"],
    "chartable_ul4_q5_oracle": ["chartable", "--family", "ul", "--n", "4", "--q", "5", "--oracle"],
}
WORKLOADS = ("oracle_tables", "convolution", "golden")

# Runs in a fresh interpreter whose only child is the timed CLI process, so
# the children's ru_maxrss is that process's peak RSS.
CLI_WORKER = r"""
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from bench_dixon import time_cli
wall, sha = time_cli(sys.argv[2], json.loads(sys.argv[3]))
rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "peak_rss_mib": rss_mib, "sha256": sha}))
"""


def run_cli(root, args):
    out = subprocess.run(
        [sys.executable, "-c", CLI_WORKER, HERE, root, json.dumps(args)],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def measure(root, seed, cli_runs, workloads):
    """One round of every measurement on the checkout at root."""
    rec = {name: run_cli(root, args) for name, args in cli_runs.items()}
    for w in workloads:
        metrics = perfbench(root, w, seed)
        rec[w] = {k: metrics[k] for k in END_TO_END}
    return rec


def _stats(values):
    values = list(values)
    out = {"median": statistics.median(values)}
    if len(values) >= 2:
        out["quartiles"] = statistics.quantiles(values, n=4)[::2]
    return out


def summarize(rounds, cli_runs, workloads):
    out = {
        name: {k: _stats(r[name][k] for r in rounds) for k in ("wall_s", "peak_rss_mib")}
        for name in cli_runs
    }
    for w in workloads:
        out[w] = {k: _stats(r[w][k] for r in rounds) for k in END_TO_END}
    out["cli_sha256"] = {name: sorted({r[name]["sha256"] for r in rounds}) for name in cli_runs}
    out["rounds"] = rounds
    return out


def parse_args(default_out, argv=None, description=__doc__):
    ap = argparse.ArgumentParser(description=description.split("\n")[0])
    ap.add_argument("--baseline", help="another checkout of this repository to compare with")
    ap.add_argument("--pairs", type=int, default=3, help="alternating rounds per checkout")
    ap.add_argument("--out", default=os.path.join(ROOT, default_out))
    return ap.parse_args(argv)


def compare(args, benchmark, cli_runs, workloads):
    """Runs the alternating pairs; returns the report and the checkouts."""
    checkouts = {"change": ROOT}
    if args.baseline:
        checkouts = {"baseline": os.path.abspath(args.baseline), "change": ROOT}
    rounds = {label: [] for label in checkouts}
    t0 = time.perf_counter()
    for seed in range(1, args.pairs + 1):
        # alternate which checkout runs first
        for label, root in list(checkouts.items())[:: 1 if seed % 2 else -1]:
            rounds[label].append(measure(root, seed, cli_runs, workloads))
            print("pair %d %s: %s" % (seed, label, json.dumps(rounds[label][-1])), file=sys.stderr)
    report = {
        "benchmark": benchmark,
        "machine": machine_info(),
        "pairs": args.pairs,
        "perfbench_seconds": PERFBENCH_SECONDS,
        "wall_s": time.perf_counter() - t0,
    }
    for label, root in checkouts.items():
        report[label] = dict(revision=revision(root), **summarize(rounds[label], cli_runs, workloads))
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


def write(report, path, cli_runs):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report.get("change_over_baseline", {
        name: report["change"][name]["wall_s"]["median"] for name in cli_runs
    })))


def main(argv=None):
    args = parse_args("BENCH_tables.json", argv)
    report, _ = compare(
        args,
        "character tables: wall time and peak RSS of golden --q 16, golden --q 8 "
        "--oracle and chartable UL4(F5) --oracle, perfbench oracle_tables, "
        "convolution and golden end-to-end metrics, medians over alternating pairs",
        CLI_RUNS, WORKLOADS,
    )
    write(report, args.out, CLI_RUNS)


if __name__ == "__main__":
    main()
