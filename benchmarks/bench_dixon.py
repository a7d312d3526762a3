"""Benchmark: the Dixon-Burnside oracle, end to end and by stage.

Measures, for this checkout and optionally a baseline checkout of the same
repository, in alternating pairs on one machine:

* the wall time, peak RSS and stdout digest of `chartable --family ul
  --n 4 --q 5 --oracle` and `golden --q 8 --oracle`, each in a fresh
  interpreter;
* perfbench's `solve_s`, `cold_job_s`, `setup_s` and `peak_rss_mib` on
  all four workloads (seeds 1, 2, ...; one run each): oracle_tables and
  golden run the oracle, convolution and packets never do;
* the oracle's stage times in oracle_tables and the two CLI runs: class matrices
  (`dixon.class_matrix`), splitting (`dixon._split_all` without its class
  matrices: the scalar tests and the eigenspace splits), the eigenspace
  splits alone (`dixon._eigen_split`) and the rest of `dixon_table`
  (normalization, degrees, multiplicities and the exact values), from
  timers wrapped around the four functions; in `golden --q 8 --oracle`
  also the little-groups table (`families.usp4_little_groups_table`), the
  third table the golden suite compares.

Writes the medians, the quartiles, the per-pair figures, the
change/baseline ratios, the pairs the change won and the machine to
BENCH_dixon.json at the repository root.

    python benchmarks/bench_dixon.py --baseline ../nilorbit-parent --pairs 3
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import compare, compare_summary, parse_args, python, write  # noqa: E402

CLI_RUNS = {
    "chartable_ul4_q5_oracle": ["chartable", "--family", "ul", "--n", "4", "--q", "5", "--oracle"],
    "golden_q8_oracle": ["golden", "--q", "8", "--oracle"],
}
WORKLOADS = ("oracle_tables", "convolution", "packets", "golden")

# Runs in a fresh interpreter inside a checkout: wraps the oracle's stages
# with timers under every name that binds them, runs one case, prints JSON.
STAGE_WORKER = r"""
import contextlib, io, json, os, sys, time
root, case, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import nilorbit.cli, nilorbit.dixon as dixon, nilorbit.families as families
spent = {}
def wrap(owner, name):
    fn = getattr(owner, name)
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
for name in ("dixon_table", "_split_all", "class_matrix", "_eigen_split"):
    wrap(dixon, name)
wrap(families, "usp4_little_groups_table")
if case == "oracle_tables":
    import workloads
    with open(os.path.join(root, "perfbench", "pins.json")) as fh:
        jobs = workloads.build("oracle_tables", seed, json.load(fh))
    for job in jobs:
        job.run()
else:
    with contextlib.redirect_stdout(io.StringIO()):
        nilorbit.cli.main(json.loads(sys.argv[4]))
total, split_all = spent.get("dixon_table", 0.0), spent.get("_split_all", 0.0)
cm = spent.get("class_matrix", 0.0)
times = {"dixon_s": total, "class_matrix_s": cm, "split_s": split_all - cm,
         "eigen_split_s": spent.get("_eigen_split", 0.0), "rest_s": total - split_all}
if "usp4_little_groups_table" in spent:
    times["little_groups_s"] = spent["usp4_little_groups_table"]
print(json.dumps(times))
"""


def stage_times(root, seed):
    """The oracle's stage times in oracle_tables and each CLI run, and the
    little-groups table's where a run builds one."""
    return {
        case: json.loads(
            python(root, STAGE_WORKER, case, str(seed), json.dumps(CLI_RUNS.get(case, [])))
        )
        for case in ("oracle_tables",) + tuple(CLI_RUNS)
    }


def main(argv=None):
    args = parse_args("BENCH_dixon.json", __doc__, argv)
    report, _ = compare(
        args,
        "Dixon-Burnside oracle: wall time and peak RSS of the oracle CLI runs, "
        "perfbench end-to-end metrics on all four workloads and the oracle's "
        "stage times, medians over alternating pairs",
        CLI_RUNS, WORKLOADS, stage_times,
    )
    write(report, args.out, compare_summary(report, CLI_RUNS))


if __name__ == "__main__":
    main()
