"""Benchmark: the dense orbit census and base change, end to end.

Measures, for this checkout and optionally a baseline checkout of the same
repository, in pairs on one machine, alternating which checkout runs first:

* the wall time, peak RSS and stdout digest of `orbits --family ul --n 5
  --q 5` (5^10 points) and `packets --family fakeheis --p 5 --s 1`, each in
  a fresh interpreter (peak RSS is the CLI process's own `ru_maxrss`);
* perfbench's oracle_tables, convolution, packets and golden `solve_s`,
  `cold_job_s`, `setup_s` and `peak_rss_mib` (seeds 1, 2, ...; one run
  each).

Once per checkout, a traced perfbench packets run (seed 1) adds the kernel's
calls, points and self time and the self time of the orbit-set and
base-change stages.  Writes the medians, the quartiles, the per-pair
figures, the change/baseline ratios and the machine to BENCH_orbits.json
at the repository root.

    python benchmarks/bench_orbits.py --baseline ../nilorbit-parent --pairs 10
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import compare, compare_summary, parse_args, perfbench, write  # noqa: E402

CLI_RUNS = {
    "orbits_ul5_q5": ["orbits", "--family", "ul", "--n", "5", "--q", "5"],
    "packets_fakeheis_p5": ["packets", "--family", "fakeheis", "--p", "5", "--s", "1"],
}
WORKLOADS = ("oracle_tables", "convolution", "packets", "golden")
TRACED = (
    "kernels.orbit_partition.calls",
    "kernels.orbit_partition.points",
    "kernels.orbit_partition.self_s",
    "orbits.coadjoint_orbits.self_s",
    "packets.base_change_and_packets.self_s",
)


def main(argv=None):
    args = parse_args("BENCH_orbits.json", __doc__, argv)
    report, checkouts = compare(
        args,
        "orbit census and base change: wall time and peak RSS of orbits UL5(F5) and "
        "packets fakeheis p = 5, perfbench end-to-end metrics on all four workloads, "
        "medians over alternating pairs",
        CLI_RUNS, WORKLOADS,
    )
    for label, root in checkouts.items():
        traced = perfbench(root, "packets", 1, trace=1)
        report[label]["traced_packets_seed1"] = {k: traced[k] for k in TRACED}
    write(report, args.out, compare_summary(report, CLI_RUNS))


if __name__ == "__main__":
    main()
