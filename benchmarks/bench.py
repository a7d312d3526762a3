"""Benchmarks of this checkout, end to end and by stage, in one entry point.

    python benchmarks/bench.py [NAME ...] [--baseline DIR] [--pairs N] [--out DIR]

REGISTRY maps each bench name (default: all) to a list of measurements:

* cli(name): wall time, peak RSS and stdout SHA-256 of a CLI_RUNS run, in
  a fresh interpreter whose only child is the CLI process (so the
  children's ru_maxrss is that process's peak RSS);
* perfbench(workload): perfbench's END_TO_END metrics at the round's seed;
* traced(workload, keys): the named per-layer metrics of a `--trace 1` run;
* timed(case, functions): the wall time of a case in a fresh interpreter
  and the inclusive time of each wrapped `module.function`.  A case is a
  perfbench workload, a CLI run, a `test_...` of tests/test_acceptance.py
  or "fq_probe": the modulus searches of SEARCHES (primitive when p^s <=
  2^20, as `default_modulus` asks) and the scalar `FqField.mul` at q = 4
  in microseconds (best of 5 timeit runs).

Each round measures this checkout and, with --baseline, another checkout,
alternating which runs first, and gives one flat record of
"<measurement>.<metric>" mapped to a number or a digest.  Each bench writes
BENCH_<name>.json to --out with the rounds, their summary and, against a
baseline, the comparison.  Something new to measure is an entry here, not a script.

    python benchmarks/bench.py dixon --baseline ../nilorbit-parent --pairs 10
"""

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import timeit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH_SECONDS = 5
END_TO_END = ("solve_s", "cold_job_s", "setup_s", "peak_rss_mib")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
WORKLOADS = ("oracle_tables", "convolution", "packets", "golden")

CLI_RUNS = {
    "golden_q16": ["golden", "--q", "16"],
    "golden_q8_oracle": ["golden", "--q", "8", "--oracle"],
    "chartable_ul4_q5_oracle": ["chartable", "--family", "ul", "--n", "4", "--q", "5", "--oracle"],
    "orbits_ul5_q5": ["orbits", "--family", "ul", "--n", "5", "--q", "5"],
    "packets_fakeheis_p5": ["packets", "--family", "fakeheis", "--p", "5", "--s", "1"],
}
# (p, s): the searches end at the 35th, 12th, 638th, 1,021st, 10,009th and
# 4th candidate; Q is read off the monomial table for the first three and
# taken by powering for the last three.
SEARCHES = ((3, 18), (7, 14), (5, 50), (1009, 2), (10007, 3), (65537, 2))

# label: the measurement's prefix in a record
Measurement = collections.namedtuple("Measurement", "label kind target detail")


def cli(name):
    return Measurement(name, "cli", name, ())


def perfbench(workload):
    return Measurement(workload, "perfbench", workload, END_TO_END)


def traced(workload, keys):
    return Measurement("traced_" + workload, "traced", workload, tuple(keys))


def timed(case, functions=()):
    return Measurement("stages_" + case, "timed", case, tuple(functions))


DIXON_STAGES = (
    "dixon.dixon_table", "dixon._split_all", "dixon.class_matrix", "dixon._eigen_split",
    "families.usp4_little_groups_table",
)
KERNEL_STAGES = ("kernels._image_tables", "kernels.orbit_labels")
CONVOLUTION_STAGES = (
    "chartable.convolve", "orbits.verify_phi_idempotents", "linalg.bilinear", "freelie.evaluate",
)
INDUCTION_STAGES = ("polar.induced_character", "groups.induce_character")
GFQ_TRACED = (
    "gfq.FqField.mul.calls", "gfq.FqField.trace.calls", "gfq.FqField.bulk_mul.elements",
    "gfq.default_modulus.calls", "gfq.is_irreducible.calls", "gfq.is_irreducible.self_s",
)
REGISTRY = {
    "tables": [
        cli("golden_q16"), cli("golden_q8_oracle"), cli("chartable_ul4_q5_oracle"),
        perfbench("oracle_tables"), perfbench("convolution"), perfbench("golden"),
    ],
    "orbits": [
        cli("orbits_ul5_q5"), cli("packets_fakeheis_p5"), *map(perfbench, WORKLOADS),
        *(timed(case, KERNEL_STAGES) for case in ("orbits_ul5_q5", "packets")),
        traced("packets", (
            "kernels.orbit_partition.calls", "kernels.orbit_partition.points",
            "kernels.orbit_partition.self_s", "orbits.coadjoint_orbits.self_s",
            "packets.base_change_and_packets.self_s",
        )),
    ],
    "dixon": [
        cli("chartable_ul4_q5_oracle"), cli("golden_q8_oracle"), *map(perfbench, WORKLOADS),
        *(timed(case, DIXON_STAGES)
          for case in ("oracle_tables", "chartable_ul4_q5_oracle", "golden_q8_oracle")),
    ],
    "convolution": [
        perfbench("convolution"), timed("convolution", CONVOLUTION_STAGES),
        timed("test_criterion_9_function_theory", CONVOLUTION_STAGES),
        timed("test_criterion_7_counterexample_battery",
              ("orbits.module_property_check", "battery.statement3_explicit_pair")),
        traced("convolution", (
            "liering.LieRing.group_mul_bulk.calls", "liering.LieRing.group_mul_bulk.pairs",
            "liering.LieRing.group_mul_bulk.self_s", "liering.LieRing.bracket.calls",
            "liering.LieRing.bracket.self_s", "chartable.convolve.self_s",
        )),
    ],
    "representations": [
        timed("test_criterion_5_polarization_suite", INDUCTION_STAGES),
        timed("test_criterion_7_counterexample_battery", INDUCTION_STAGES),
        timed("test_criterion_10_twisted_conjugacy", ("twisted.twisted_trace_basis",)),
    ],
    "gfq": [
        timed("fq_probe"), timed("test_criterion_8_packets"), cli("packets_fakeheis_p5"),
        perfbench("packets"), perfbench("golden"),
        traced("packets", GFQ_TRACED), traced("golden", GFQ_TRACED),
    ],
}


def _env(root):
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _worker(root, name, *args):
    """The JSON last line that bench.<name>(root, *args) prints, run in a
    fresh interpreter inside the checkout at root."""
    code = "import sys; sys.path.insert(0, %r); import bench; bench.%s(*sys.argv[1:])"
    out = subprocess.run(
        [sys.executable, "-c", code % (HERE, name), root, *args],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def cli_worker(root, name):
    """Prints the wall time, peak RSS and stdout SHA-256 of CLI run `name`,
    this process's only child."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "nilorbit"] + CLI_RUNS[name],
        cwd=root, env=_env(root), capture_output=True, check=True,
    ).stdout
    wall, sha = time.perf_counter() - t0, hashlib.sha256(out).hexdigest()
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"wall_s": wall, "peak_rss_mib": rss_mib, "sha256": sha}))


def _fq_probe():
    from nilorbit import gfq

    out, moduli = {}, {}
    for p, s in SEARCHES:
        t0 = time.perf_counter()
        moduli["%d,%d" % (p, s)] = gfq._first_irreducible(p, s, primitive=p**s <= 2**20)
        out["search_%d_%d_s" % (p, s)] = time.perf_counter() - t0
    F = gfq.FqField(2, 2)
    a, b = F.gen(), F.element((1, 1))
    n = 100000
    out["mul_q4_us"] = min(timeit.repeat(lambda: F.mul(a, b), number=n, repeat=5)) / n * 1e6
    out["moduli"] = json.dumps(moduli, sort_keys=True)
    return out


def timer_worker(root, case, seed, functions):
    """Runs one case with a timer around each function, under every name
    that binds it, and prints the wall time, each called function's
    inclusive time and what the case itself reports."""
    sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "tests")]
    if case in CLI_RUNS:
        import nilorbit.cli

        def run():
            if nilorbit.cli.main(CLI_RUNS[case]):
                raise SystemExit("%s failed" % case)
    elif case == "fq_probe":
        run = _fq_probe
    elif case.startswith("test_"):
        run = getattr(importlib.import_module("test_acceptance"), case)
    else:
        import workloads

        def run():
            with open(os.path.join(root, "perfbench", "pins.json")) as fh:
                for job in workloads.build(case, int(seed), json.load(fh)):
                    job.run()

    spent = {}
    for qualname in json.loads(functions):
        module, name = qualname.rsplit(".", 1)
        fn = getattr(importlib.import_module("nilorbit." + module), name)

        def wrapped(*a, _fn=fn, _key=name + "_s", **k):
            t0 = time.perf_counter()
            try:
                return _fn(*a, **k)
            finally:
                spent[_key] = spent.get(_key, 0.0) + time.perf_counter() - t0

        for mod in list(sys.modules.values()):
            for key, val in list(vars(mod).items() if mod else ()):
                if val is fn:
                    setattr(mod, key, wrapped)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        extra = run() or {}
    wall = time.perf_counter() - t0
    print(json.dumps(dict(spent, wall_s=wall, **extra)))


def measure(m, root, seed):
    """One measurement's {metric: value} on the checkout at root; raises if
    a perfbench job failed."""
    if m.kind == "cli":
        return _worker(root, "cli_worker", m.target)
    if m.kind == "timed":
        return _worker(root, "timer_worker", m.target, str(seed), json.dumps(m.detail))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", m.target, "--seed", str(seed),
         "--seconds", str(PERFBENCH_SECONDS), "--trace", str(int(m.kind == "traced"))],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"]:
        raise RuntimeError("perfbench reported failed jobs in %s" % root)
    return {k: result["metrics"][k]["value"] for k in m.detail}


def record(measurements, root, seed):
    """One round: the flat record of every measurement."""
    return {
        "%s.%s" % (m.label, k): v
        for m in measurements for k, v in measure(m, root, seed).items()
    }


def summarize(rounds):
    """Each number's median (and quartiles from two rounds on); each
    digest's sorted set of values."""
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if isinstance(values[0], str):
            out[key] = sorted(set(values))
            continue
        out[key] = {"median": statistics.median(values)}
        if len(values) >= 2:
            out[key]["quartiles"] = statistics.quantiles(values, n=4)[::2]
    return out


def compare(baseline, change):
    """Change/baseline ratios of the medians (None where the baseline's is 0),
    the pairs in which the change's number is lower, and whether every
    digest took the same values."""
    base, new = summarize(baseline), summarize(change)
    numbers = [k for k, v in base.items() if isinstance(v, dict)]
    return {
        "change_over_baseline": {
            k: new[k]["median"] / base[k]["median"] if base[k]["median"] else None for k in numbers
        },
        "pairs_change_lower": {
            k: sum(c[k] < b[k] for b, c in zip(baseline, change)) for k in numbers
        },
        "outputs_identical": all(base[k] == new[k] for k in base if k not in numbers),
    }


def machine_info():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "env": PINNED_ENV}


def revision(root):
    def git(*args):
        out = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, check=True)
        return out.stdout.strip()

    try:
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "--short", "HEAD") + ("+changes" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def run_bench(name, checkouts, pairs):
    """Alternating pairs of the bench's measurements on each checkout
    (label -> root); returns the report."""
    rounds = {lbl: [] for lbl in checkouts}
    t0 = time.perf_counter()
    for seed in range(1, pairs + 1):
        for lbl, root in list(checkouts.items())[:: 1 if seed % 2 else -1]:
            rounds[lbl].append(record(REGISTRY[name], root, seed))
            line = json.dumps(rounds[lbl][-1])
            print("%s pair %d %s: %s" % (name, seed, lbl, line), file=sys.stderr)
    report = {
        "bench": name, "machine": machine_info(), "pairs": pairs,
        "perfbench_seconds": PERFBENCH_SECONDS, "wall_s": time.perf_counter() - t0,
    }
    for lbl, root in checkouts.items():
        runs = rounds[lbl]
        report[lbl] = {"revision": revision(root), "summary": summarize(runs), "rounds": runs}
    if "baseline" in checkouts:
        report.update(compare(rounds["baseline"], rounds["change"]))
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    benches = ", ".join(REGISTRY)
    ap.add_argument("names", nargs="*", metavar="NAME", help="%s (default: all)" % benches)
    ap.add_argument("--baseline", help="another checkout of this repository to compare with")
    ap.add_argument("--pairs", type=int, default=3, help="alternating rounds per checkout")
    ap.add_argument("--out", default=ROOT, help="directory for the BENCH_<name>.json files")
    args = ap.parse_args(argv)
    unknown = [n for n in args.names if n not in REGISTRY]
    if unknown:
        ap.error("unknown bench %s (choose from %s)" % (", ".join(unknown), benches))
    checkouts = {"change": ROOT}
    if args.baseline:
        checkouts = {"baseline": os.path.abspath(args.baseline), "change": ROOT}
    for name in args.names or REGISTRY:
        report = run_bench(name, checkouts, args.pairs)
        with open(os.path.join(args.out, "BENCH_%s.json" % name), "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(json.dumps({name: report.get("change_over_baseline", report["change"]["summary"])}))


if __name__ == "__main__":
    main()
