"""Benchmark: the F_q layer (`gfq`), end to end and by operation.

Measures, for this checkout and optionally a baseline checkout of the same
repository, in pairs on one machine, alternating which checkout runs first:

* the modulus searches `_first_irreducible(p, s)` (primitive when
  p^s <= 2^20, as `default_modulus` asks): (3, 18), (7, 14) and (5, 50),
  where Q is read off the monomial table, and (1009, 2), (10007, 3) and
  (65537, 2), where it is taken by powering; they end at the 35th, 12th,
  638th, 1,021st, 10,009th and 4th candidate; and the
  scalar `FqField.mul` at q = 4 in microseconds (best of 5 timeit runs),
  in a fresh interpreter;
* the wall time of criterion 8 (`test_criterion_8_packets` in
  tests/test_acceptance.py), called in a fresh interpreter;
* the wall time of `nilorbit packets --family fakeheis --p 5 --s 1`, with
  the SHA-256 of its stdout;
* perfbench's packets and golden `solve_s`, `cold_job_s`, `setup_s` and
  `peak_rss_mib` (seeds 1, 2, ...; one run each).

Once per checkout, traced perfbench runs (seed 1) add the calls into the
field layer.  Writes the medians, the per-pair figures, the change/baseline
ratios and the machine to BENCH_gfq.json at the repository root.

    python benchmarks/bench_gfq.py --baseline ../nilorbit-parent --pairs 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_dixon import _env, machine_info, revision, time_cli  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH_SECONDS = 5
WORKLOADS = ("packets", "golden")
END_TO_END = ("solve_s", "cold_job_s", "setup_s", "peak_rss_mib")
TRACED = (
    "gfq.FqField.mul.calls",
    "gfq.FqField.trace.calls",
    "gfq.FqField.bulk_mul.elements",
    "gfq.default_modulus.calls",
    "gfq.is_irreducible.calls",
    "gfq.is_irreducible.self_s",
)
SEARCHES = ((3, 18), (7, 14), (5, 50), (1009, 2), (10007, 3), (65537, 2))
FAKEHEIS = ["packets", "--family", "fakeheis", "--p", "5", "--s", "1"]

# Runs in a fresh interpreter inside a checkout: the searches, then the
# scalar product; prints JSON.
FIELD_WORKER = r"""
import json, os, sys, time, timeit
root = sys.argv[1]
sys.path.insert(0, os.path.join(root, "src"))
from nilorbit import gfq
out, moduli = {}, {}
for p, s in json.loads(sys.argv[2]):
    t0 = time.perf_counter()
    moduli["%d,%d" % (p, s)] = gfq._first_irreducible(p, s, primitive=p**s <= 2**20)
    out["search_%d_%d_s" % (p, s)] = time.perf_counter() - t0
F = gfq.FqField(2, 2)
a, b = F.gen(), F.element((1, 1))
n = 100000
out["mul_q4_us"] = min(timeit.repeat(lambda: F.mul(a, b), number=n, repeat=5)) / n * 1e6
print(json.dumps({"times": out, "moduli": moduli}))
"""

CRITERION8_WORKER = r"""
import contextlib, io, os, sys, time
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
import test_acceptance
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    test_acceptance.test_criterion_8_packets()
print(time.perf_counter() - t0)
"""


def _python(root, code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, root, *args],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()[-1]


def perfbench(root, workload, seed, trace=0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace)],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"]:
        raise RuntimeError("perfbench reported failed jobs in %s" % root)
    return {k: v["value"] for k, v in result["metrics"].items()}


def measure(root, seed):
    """One round of every measurement on the checkout at root."""
    field = json.loads(_python(root, FIELD_WORKER, json.dumps(SEARCHES)))
    rec = dict(field["times"])
    rec["moduli"] = field["moduli"]
    rec["criterion8_s"] = float(_python(root, CRITERION8_WORKER))
    rec["fakeheis_p5_s"], rec["fakeheis_p5_sha256"] = time_cli(root, FAKEHEIS)
    for w in WORKLOADS:
        metrics = perfbench(root, w, seed)
        rec[w] = {k: metrics[k] for k in END_TO_END}
    return rec


def _scalars(rec):
    return [k for k, v in rec.items() if isinstance(v, float)]


def summarize(rounds):
    med = statistics.median
    out = {k: med(r[k] for r in rounds) for k in _scalars(rounds[0])}
    for w in WORKLOADS:
        out[w] = {k: med(r[w][k] for r in rounds) for k in END_TO_END}
        if len(rounds) >= 2:
            out[w + "_quartiles"] = {
                k: statistics.quantiles([r[w][k] for r in rounds], n=4)[::2]
                for k in END_TO_END
            }
    out["moduli"] = rounds[0]["moduli"]
    out["fakeheis_p5_sha256"] = sorted({r["fakeheis_p5_sha256"] for r in rounds})
    out["rounds"] = rounds
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--baseline", help="another checkout of this repository to compare with")
    ap.add_argument("--pairs", type=int, default=3, help="alternating rounds per checkout")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_gfq.json"))
    args = ap.parse_args(argv)

    checkouts = {"change": ROOT}
    if args.baseline:
        checkouts = {"baseline": os.path.abspath(args.baseline), "change": ROOT}
    rounds = {label: [] for label in checkouts}
    t0 = time.perf_counter()
    for seed in range(1, args.pairs + 1):
        # alternate which checkout runs first
        for label, root in list(checkouts.items())[:: 1 if seed % 2 else -1]:
            rounds[label].append(measure(root, seed))
            print("pair %d %s: %s" % (seed, label, json.dumps(rounds[label][-1])), file=sys.stderr)
    report = {
        "benchmark": "F_q layer: modulus searches, scalar FqField.mul at q = 4, criterion-8 "
                     "and fake Heisenberg p = 5 packets wall times, perfbench packets and "
                     "golden end-to-end metrics, medians over alternating pairs",
        "machine": machine_info(),
        "pairs": args.pairs,
        "perfbench_seconds": PERFBENCH_SECONDS,
        "wall_s": time.perf_counter() - t0,
    }
    for label, root in checkouts.items():
        traced = {w: perfbench(root, w, 1, trace=1) for w in WORKLOADS}
        report[label] = dict(
            revision=revision(root),
            traced_seed1={w: {k: traced[w][k] for k in TRACED} for w in WORKLOADS},
            **summarize(rounds[label]),
        )
    if args.baseline:
        base, new = report["baseline"], report["change"]
        report["change_over_baseline"] = {
            **{k: new[k] / base[k] for k in _scalars(rounds["change"][0])},
            **{"%s.%s" % (w, k): new[w][k] / base[w][k] for w in WORKLOADS for k in END_TO_END},
        }
        report["same_moduli"] = base["moduli"] == new["moduli"]
        report["same_fakeheis_stdout"] = base["fakeheis_p5_sha256"] == new["fakeheis_p5_sha256"]
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report.get("change_over_baseline", report["change"]["packets"])))


if __name__ == "__main__":
    main()
