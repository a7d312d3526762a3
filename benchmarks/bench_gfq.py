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

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import (  # noqa: E402
    END_TO_END, parse_args, perfbench, python, revision, run_pairs, time_cli, write,
)

WORKLOADS = ("packets", "golden")
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


def measure(root, seed):
    """One round of every measurement on the checkout at root."""
    field = json.loads(python(root, FIELD_WORKER, json.dumps(SEARCHES)))
    rec = dict(field["times"])
    rec["moduli"] = field["moduli"]
    rec["criterion8_s"] = float(python(root, CRITERION8_WORKER))
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
    args = parse_args("BENCH_gfq.json", __doc__, argv)
    report, checkouts, rounds = run_pairs(
        args,
        "F_q layer: modulus searches, scalar FqField.mul at q = 4, criterion-8 "
        "and fake Heisenberg p = 5 packets wall times, perfbench packets and "
        "golden end-to-end metrics, medians over alternating pairs",
        measure,
    )
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
    write(report, args.out, report.get("change_over_baseline", report["change"]["packets"]))


if __name__ == "__main__":
    main()
