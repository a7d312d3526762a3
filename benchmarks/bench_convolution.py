"""Benchmark: the criterion-9 function-theory checks, end to end and by stage.

Measures, for this checkout and optionally a baseline checkout of the same
repository, in pairs on one machine, alternating which checkout runs first:

* perfbench's convolution `solve_s`, `cold_job_s`, `setup_s` and
  `peak_rss_mib` (seeds 1, 2, ...; one run each);
* the wall time of criterion 9 (`test_criterion_9_function_theory` in
  tests/test_acceptance.py), called in a fresh interpreter;
* the time spent in `chartable.convolve` and `orbits.verify_phi_idempotents`
  in the convolution workload and in criterion 9, from timers wrapped around
  both functions.

Once per checkout, a traced perfbench run (seed 1) adds the call counts of
the group law and the bracket.  Writes the medians, the per-pair figures,
the change/baseline ratios and the machine to BENCH_convolution.json at the
repository root.

    python benchmarks/bench_convolution.py --baseline ../nilorbit-parent --pairs 5
"""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import (  # noqa: E402
    END_TO_END, parse_args, perfbench, python, revision, run_pairs, write,
)

TRACED = (
    "liering.LieRing.group_mul_bulk.calls",
    "liering.LieRing.group_mul_bulk.pairs",
    "liering.LieRing.bracket.calls",
    "chartable.convolve.self_s",
)
CASES = ("convolution", "criterion9")

# Runs in a fresh interpreter inside a checkout: wraps the two checks with
# timers under every name that binds them, runs one case, prints JSON.
STAGE_WORKER = r"""
import contextlib, io, json, os, sys, time
root, case, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench"),
                os.path.join(root, "tests")]
import nilorbit.chartable, nilorbit.orbits, test_acceptance, workloads
spent = {}
def wrap(module, name):
    fn = getattr(module, name)
    def timed(*a, **k):
        t0 = time.perf_counter()
        try:
            return fn(*a, **k)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
    for mod in list(sys.modules.values()):
        for key, val in list(vars(mod).items() if mod else []):
            if val is fn:
                setattr(mod, key, timed)
wrap(nilorbit.chartable, "convolve")
wrap(nilorbit.orbits, "verify_phi_idempotents")
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    if case == "convolution":
        with open(os.path.join(root, "perfbench", "pins.json")) as fh:
            for job in workloads.build("convolution", seed, json.load(fh)):
                job.run()
    else:
        test_acceptance.test_criterion_9_function_theory()
print(json.dumps({"wall_s": time.perf_counter() - t0,
                  "convolve_s": spent.get("convolve", 0.0),
                  "verify_phi_idempotents_s": spent.get("verify_phi_idempotents", 0.0)}))
"""


def stage_times(root, case, seed):
    return json.loads(python(root, STAGE_WORKER, case, str(seed)))


def measure(root, seed):
    """One round of every measurement on the checkout at root."""
    metrics = perfbench(root, "convolution", seed)
    rec = {"perfbench": {k: metrics[k] for k in END_TO_END}}
    rec["stages"] = {case: stage_times(root, case, seed) for case in CASES}
    rec["criterion9_s"] = rec["stages"]["criterion9"]["wall_s"]
    return rec


def summarize(rounds):
    med = statistics.median
    out = {
        "perfbench": {k: med(r["perfbench"][k] for r in rounds) for k in END_TO_END},
        "criterion9_s": med(r["criterion9_s"] for r in rounds),
        "stages": {
            case: {k: med(r["stages"][case][k] for r in rounds) for k in rounds[0]["stages"][case]}
            for case in CASES
        },
        "rounds": rounds,
    }
    if len(rounds) >= 2:
        out["perfbench_quartiles"] = {
            k: statistics.quantiles([r["perfbench"][k] for r in rounds], n=4)[::2]
            for k in END_TO_END
        }
    return out


def main(argv=None):
    args = parse_args("BENCH_convolution.json", __doc__, argv)
    report, checkouts, rounds = run_pairs(
        args,
        "criterion-9 function theory: perfbench convolution end-to-end metrics, "
        "criterion-9 wall time and convolve/verify_phi_idempotents stage times, "
        "medians over alternating pairs",
        measure,
    )
    for label, root in checkouts.items():
        traced = perfbench(root, "convolution", 1, trace=1)
        report[label] = dict(
            revision=revision(root),
            traced_seed1={k: traced[k] for k in TRACED},
            **summarize(rounds[label]),
        )
    if args.baseline:
        base, new = report["baseline"], report["change"]
        report["change_over_baseline"] = {
            **{k: new["perfbench"][k] / base["perfbench"][k] for k in END_TO_END},
            "criterion9_s": new["criterion9_s"] / base["criterion9_s"],
            **{
                "%s.%s" % (case, k): new["stages"][case][k] / base["stages"][case][k]
                for case in CASES
                for k in new["stages"][case]
            },
        }
        report["solve_s_pairs_improved"] = sum(
            c["perfbench"]["solve_s"] < b["perfbench"]["solve_s"]
            for b, c in zip(rounds["baseline"], rounds["change"])
        )
    write(report, args.out, report.get("change_over_baseline", report["change"]["perfbench"]))


if __name__ == "__main__":
    main()
