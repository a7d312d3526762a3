"""Benchmark: the Dixon-Burnside oracle, end to end and by stage.

Measures, for this checkout and optionally a baseline checkout of the same
repository, in alternating pairs on one machine:

* the wall time and stdout digest of `chartable --family ul --n 4 --q 5
  --oracle` and `golden --q 8 --oracle`, each in a fresh interpreter;
* perfbench's oracle_tables `solve_s` (seeds 1, 2, ...; one run each);
* the oracle's stage times in those three runs: class matrices
  (`dixon.class_matrix`), eigenspace splitting (`dixon._eigen_split`) and
  the rest of `dixon_table` (normalization, degrees, multiplicities and
  the exact values), from timers wrapped around the three functions.

Writes the medians, the per-pair figures, the change/baseline ratios and
the machine to BENCH_dixon.json at the repository root.

    python benchmarks/bench_dixon.py --baseline ../nilorbit-parent --pairs 3
"""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import parse_args, perfbench, python, revision, run_pairs, time_cli, write  # noqa: E402

CLI_RUNS = {
    "chartable_ul4_q5_oracle": ["chartable", "--family", "ul", "--n", "4", "--q", "5", "--oracle"],
    "golden_q8_oracle": ["golden", "--q", "8", "--oracle"],
}

# Runs in a fresh interpreter inside a checkout: wraps the oracle's stages
# with timers under every name that binds them, runs one case, prints JSON.
STAGE_WORKER = r"""
import contextlib, io, json, os, sys, time
root, case, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import nilorbit.cli, nilorbit.dixon as dixon
spent = {}
def wrap(name):
    fn = getattr(dixon, name)
    def timed(*a, **k):
        t0 = time.perf_counter()
        try:
            return fn(*a, **k)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
    for mod in [m for n, m in sys.modules.items() if n.startswith("nilorbit") and m]:
        for key, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, key, timed)
for name in ("dixon_table", "class_matrix", "_eigen_split"):
    wrap(name)
if case == "oracle_tables":
    import workloads
    with open(os.path.join(root, "perfbench", "pins.json")) as fh:
        jobs = workloads.build("oracle_tables", seed, json.load(fh))
    for job in jobs:
        job.run()
else:
    with contextlib.redirect_stdout(io.StringIO()):
        nilorbit.cli.main(json.loads(sys.argv[4]))
total = spent.get("dixon_table", 0.0)
cm, split = spent.get("class_matrix", 0.0), spent.get("_eigen_split", 0.0)
print(json.dumps({"dixon_s": total, "class_matrix_s": cm, "eigen_split_s": split,
                  "rest_s": total - cm - split}))
"""


def stage_times(root, case, seed):
    cli = json.dumps(CLI_RUNS.get(case, []))
    return json.loads(python(root, STAGE_WORKER, case, str(seed), cli))


def measure(root, seed):
    """One round of every measurement on the checkout at root."""
    rec = {"cli_s": {}, "cli_sha256": {}, "stages": {}}
    for name, args in CLI_RUNS.items():
        rec["cli_s"][name], rec["cli_sha256"][name] = time_cli(root, args)
    rec["oracle_tables_solve_s"] = perfbench(root, "oracle_tables", seed)["solve_s"]
    for case in ["oracle_tables"] + list(CLI_RUNS):
        rec["stages"][case] = stage_times(root, case, seed)
    return rec


def summarize(rounds):
    med = statistics.median
    return {
        "cli_s": {k: med(r["cli_s"][k] for r in rounds) for k in CLI_RUNS},
        "oracle_tables_solve_s": med(r["oracle_tables_solve_s"] for r in rounds),
        "stages": {
            case: {
                k: med(r["stages"][case][k] for r in rounds)
                for k in rounds[0]["stages"][case]
            }
            for case in rounds[0]["stages"]
        },
        "cli_sha256": rounds[0]["cli_sha256"],
        "rounds": rounds,
    }


def main(argv=None):
    args = parse_args("BENCH_dixon.json", __doc__, argv)
    report, checkouts, rounds = run_pairs(
        args,
        "Dixon-Burnside oracle: CLI wall times, perfbench oracle_tables "
        "solve_s and oracle stage times, medians over alternating pairs",
        measure,
    )
    for label, root in checkouts.items():
        report[label] = dict(revision=revision(root), **summarize(rounds[label]))
    if args.baseline:
        base, new = report["baseline"], report["change"]
        report["change_over_baseline"] = {
            "oracle_tables_solve_s": new["oracle_tables_solve_s"] / base["oracle_tables_solve_s"],
            **{k: new["cli_s"][k] / base["cli_s"][k] for k in CLI_RUNS},
        }
        report["cli_outputs_identical"] = base["cli_sha256"] == new["cli_sha256"]
    write(report, args.out, report.get("change_over_baseline", report["change"]["cli_s"]))


if __name__ == "__main__":
    main()
