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

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import compare, compare_summary, parse_args, write  # noqa: E402

CLI_RUNS = {
    "golden_q16": ["golden", "--q", "16"],
    "golden_q8_oracle": ["golden", "--q", "8", "--oracle"],
    "chartable_ul4_q5_oracle": ["chartable", "--family", "ul", "--n", "4", "--q", "5", "--oracle"],
}
WORKLOADS = ("oracle_tables", "convolution", "golden")


def main(argv=None):
    args = parse_args("BENCH_tables.json", __doc__, argv)
    report, _ = compare(
        args,
        "character tables: wall time and peak RSS of golden --q 16, golden --q 8 "
        "--oracle and chartable UL4(F5) --oracle, perfbench oracle_tables, "
        "convolution and golden end-to-end metrics, medians over alternating pairs",
        CLI_RUNS, WORKLOADS,
    )
    write(report, args.out, compare_summary(report, CLI_RUNS))


if __name__ == "__main__":
    main()
