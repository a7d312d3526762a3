"""nilorbit benchmark: time-to-solution of exact jobs, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py for the jobs and why each was chosen):
oracle_tables, convolution, packets, golden.

Load model: closed loop, one client.  A run is a sequence of rounds; each
round is a fresh interpreter (worker.py) that imports nilorbit from the
checkout's src/, builds the seeded inputs and runs the workload's fixed job
list once, each job starting when the previous one has finished.  Fresh
interpreters keep the process-wide memo tables cold in every round, as for
a CLI invocation.  Rounds are started until the next one would end after
--seconds (at least MIN_ROUNDS); every metric is the median over rounds.
BLAS/OpenMP threads are pinned to 1.

--trace 0 prints the end-to-end metrics:
  solve_s       wall time of the whole job list (time-to-solution)
  cold_job_s    wall time of the first job, the same job for every seed
  setup_s       interpreter start to first job: imports, seeded inputs,
                ring/scheme/group construction
  peak_rss_mib  peak resident memory of the round's process
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics: calls, work counts and self time of each wrapped public function
(tracer.py), the share of traced wall time the spans cover, and the tracing
overhead (traced solve_s minus untraced solve_s).  The run is a single
process with no queue, so no layer waits; no waiting time is reported.

Every job's output is checked exactly: in-job checks (oracle equality,
verify(), the convolution identity, packet laws) and the SHA-256 of its
canonical output against perfbench/pins.json.  `attempted` counts jobs,
`failed` those that raised, failed a check or mismatched their digest.
Any failure exits 1; a round that cannot start or crashes exits 2 without
a result.  The last stdout line is the result JSON; the line before it is a
report with the machine, per-round figures and the per-layer table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oracle_tables", "convolution", "packets", "golden")
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0  # every run must end well within 180 s

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = [
    ("solve_s", "s"),
    ("cold_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# (metric, unit, traced layer, field); field is calls, self_s or work.
_LAYER_FIELDS = [
    ("kernels.orbit_partition.calls", "count", "kernels.orbit_partition", "calls"),
    ("kernels.orbit_partition.points", "count", "kernels.orbit_partition", "work"),
    ("kernels.orbit_partition.self_s", "s", "kernels.orbit_partition", "self_s"),
    ("kernels.single_orbit.calls", "count", "kernels.single_orbit", "calls"),
    ("kernels.single_orbit.self_s", "s", "kernels.single_orbit", "self_s"),
    ("gfq.FqField.mul.calls", "count", "gfq.FqField.mul", "calls"),
    ("gfq.FqField.mul.self_s", "s", "gfq.FqField.mul", "self_s"),
    ("gfq.FqField.trace.calls", "count", "gfq.FqField.trace", "calls"),
    ("gfq.FqField.trace.self_s", "s", "gfq.FqField.trace", "self_s"),
    ("gfq.FqField.bulk_mul.elements", "count", "gfq.FqField.bulk_mul", "work"),
    ("gfq.FqField.bulk_mul.self_s", "s", "gfq.FqField.bulk_mul", "self_s"),
    ("gfq.default_modulus.calls", "count", "gfq.default_modulus", "calls"),
    ("gfq.default_modulus.self_s", "s", "gfq.default_modulus", "self_s"),
    ("gfq.is_irreducible.calls", "count", "gfq.is_irreducible", "calls"),
    ("gfq.is_irreducible.self_s", "s", "gfq.is_irreducible", "self_s"),
    ("cyclo.Cyclotomic.add.calls", "count", "cyclo.Cyclotomic.add", "calls"),
    ("cyclo.Cyclotomic.mul.calls", "count", "cyclo.Cyclotomic.mul", "calls"),
    ("cyclo.from_root_counts.calls", "count", "cyclo.from_root_counts", "calls"),
    ("cyclo.from_root_counts.self_s", "s", "cyclo.from_root_counts", "self_s"),
    ("liering.LieRing.group_mul_bulk.calls", "count", "liering.LieRing.group_mul_bulk", "calls"),
    ("liering.LieRing.group_mul_bulk.pairs", "count", "liering.LieRing.group_mul_bulk", "work"),
    ("liering.LieRing.group_mul_bulk.self_s", "s", "liering.LieRing.group_mul_bulk", "self_s"),
    ("liering.LieRing.bracket.calls", "count", "liering.LieRing.bracket", "calls"),
    ("liering.LieRing.bracket.self_s", "s", "liering.LieRing.bracket", "self_s"),
    ("liering.LieRing.lower_central_series.self_s", "s", "liering.LieRing.lower_central_series", "self_s"),
    ("dixon.dixon_table.self_s", "s", "dixon.dixon_table", "self_s"),
    ("dixon.class_matrix.calls", "count", "dixon.class_matrix", "calls"),
    ("dixon.class_matrix.self_s", "s", "dixon.class_matrix", "self_s"),
    ("dixon.eigen_split.calls", "count", "dixon.eigen_split", "calls"),
    ("dixon.eigen_split.self_s", "s", "dixon.eigen_split", "self_s"),
    ("orbits.orbit_method_table.self_s", "s", "orbits.orbit_method_table", "self_s"),
    ("orbits.orbit_character.self_s", "s", "orbits.orbit_character", "self_s"),
    ("orbits.conjugacy_class_data.self_s", "s", "orbits.conjugacy_class_data", "self_s"),
    ("orbits.coadjoint_orbits.self_s", "s", "orbits.coadjoint_orbits", "self_s"),
    ("chartable.convolve.self_s", "s", "chartable.convolve", "self_s"),
    ("chartable.verify.self_s", "s", "chartable.verify", "self_s"),
    ("chartable.equals_as_set.self_s", "s", "chartable.equals_as_set", "self_s"),
    ("chartable.to_csv.self_s", "s", "chartable.to_csv", "self_s"),
    ("packets.base_change_and_packets.self_s", "s", "packets.base_change_and_packets", "self_s"),
    ("packets.rounds", "count", "packets.base_change_and_packets", "work"),
    ("families.usp4_lusztig_table.self_s", "s", "families.usp4_lusztig_table", "self_s"),
    ("families.usp4_little_groups_table.self_s", "s", "families.usp4_little_groups_table", "self_s"),
]

# Metrics derived from one traced round; a ratio with nothing to divide by is 0.
_DERIVED = [
    ("kernels.points_per_s", "1/s"),
    ("gfq.modulus_hit_ratio", "ratio"),
    ("cyclo.arith.self_s", "s"),
    ("liering.group_muls_per_s", "1/s"),
    ("dixon.split_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.solve_s", "s"),
]

_PER_TRACED_ROUND = [(m, u) for m, u, _, _ in _LAYER_FIELDS] + _DERIVED
PER_LAYER = _PER_TRACED_ROUND + [("trace.overhead_s", "s")]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(rnd):
    """Per-layer metric values of one traced round."""
    layers = rnd["layers"]

    def get(layer, field):
        return layers.get(layer, {}).get(field, 0)

    out = {m: get(layer, f) for m, _, layer, f in _LAYER_FIELDS}
    out["kernels.points_per_s"] = _ratio(
        get("kernels.orbit_partition", "work"), get("kernels.orbit_partition", "self_s")
    )
    out["gfq.modulus_hit_ratio"] = _ratio(
        get("gfq.default_modulus", "calls"), get("gfq.is_irreducible", "calls")
    )
    out["cyclo.arith.self_s"] = get("cyclo.Cyclotomic.add", "self_s") + get(
        "cyclo.Cyclotomic.mul", "self_s"
    )
    out["liering.group_muls_per_s"] = _ratio(
        get("liering.LieRing.group_mul_bulk", "work"),
        get("liering.LieRing.group_mul_bulk", "self_s"),
    )
    out["dixon.split_ratio"] = _ratio(get("dixon.eigen_split", "work"), get("dixon.eigen_split", "calls"))
    out["trace.coverage"] = _ratio(rnd["trace_root_s"], rnd["trace_wall_s"])
    out["trace.solve_s"] = rnd["solve_s"]
    return out


def end_to_end_metrics(rnd):
    return {
        "solve_s": rnd["solve_s"],
        "cold_job_s": rnd["jobs"][0]["s"],
        "setup_s": rnd["setup_s"],
        "peak_rss_mib": rnd["peak_rss_mib"],
    }


def _median_metrics(rounds, fn, units):
    per_round = [fn(r) for r in rounds]
    return {
        name: {"value": statistics.median(v[name] for v in per_round), "unit": unit}
        for name, unit in units
    }


def summarize(rounds, trace):
    """The result's metrics: medians over rounds of the selected kind."""
    if not trace:
        return _median_metrics(rounds, end_to_end_metrics, END_TO_END)
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = _median_metrics(traced, layer_metrics, _PER_TRACED_ROUND)
    overhead = statistics.median(r["solve_s"] for r in traced) - statistics.median(
        r["solve_s"] for r in plain
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


class RoundError(Exception):
    """A round could not start or did not finish."""


def run_round(workload, seed, traced, deadline):
    env = dict(os.environ, **PINNED_ENV)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundError("round exceeded the run's time limit")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RoundError("worker exited with code %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RoundError("worker printed no result")
    rnd = json.loads(lines[-1])
    rnd["setup_s"] = rnd.pop("ready_monotonic") - t_spawn
    rnd["traced"] = traced
    return rnd


def run(workload, seed, seconds, trace):
    t_start = time.monotonic()
    hard_deadline = t_start + RUN_LIMIT_S
    min_rounds = 2 if trace else MIN_ROUNDS
    step = 2 if trace else 1  # a traced run adds rounds in (plain, traced) pairs
    rounds = []
    while True:
        for _ in range(step):
            traced = bool(trace) and len(rounds) % 2 == 1
            rounds.append(run_round(workload, seed, traced, hard_deadline))
        now = time.monotonic()
        next_s = step * (now - t_start) / len(rounds)
        if len(rounds) >= min_rounds and now + next_s > t_start + seconds:
            break
        if now + next_s > hard_deadline:
            break
    return rounds


def report(rounds, workload, seed, trace, failed_frac):
    rep = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "failed_frac": failed_frac,
        "load": "closed loop, 1 client, 1 process; fresh interpreter per round",
        "machine": rounds[0]["machine"],
        "rounds": [
            {
                "traced": r["traced"],
                "setup_s": r["setup_s"],
                "solve_s": r["solve_s"],
                "peak_rss_mib": r["peak_rss_mib"],
                "jobs": {j["key"]: j["s"] for j in r["jobs"]},
            }
            for r in rounds
        ],
    }
    if trace:
        traced = [r for r in rounds if r["traced"]]
        rep["layers"] = traced[0]["layers"]
        rep["trace_missing"] = traced[0]["trace_missing"]
        rep["count_only"] = []  # every wrapper records a full span
        rep["work_counts_repeat"] = all(
            {k: (v["calls"], v["work"]) for k, v in r["layers"].items()}
            == {k: (v["calls"], v["work"]) for k, v in traced[0]["layers"].items()}
            for r in traced
        )
        rep["waiting"] = "none: single process, closed loop, no queue"
    return rep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (os.path.join(ROOT, "src", "nilorbit", "__init__.py"), os.path.join(HERE, "pins.json")):
        if not os.path.isfile(need):
            print("benchmark cannot start: %s is missing" % os.path.relpath(need, ROOT), file=sys.stderr)
            return 2
    try:
        rounds = run(args.workload, args.seed, args.seconds, args.trace)
    except RoundError as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 2
    attempted = sum(len(r["jobs"]) for r in rounds)
    failed = sum(not j["ok"] for r in rounds for j in r["jobs"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summarize(rounds, args.trace),
    }
    print(json.dumps(report(rounds, args.workload, args.seed, args.trace, failed / attempted)))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
