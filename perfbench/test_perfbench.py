"""Self-tests of the benchmark harness:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL_JOBS = {
    "oracle_tables": "oracle_tables/heisenberg_f3",
    "convolution": "convolution/heisenberg_f3",
    "packets": "packets/abelian_3_1_1",
    "golden": "golden/usp4_via_sp_q3",
}


@pytest.fixture(scope="module")
def pins():
    return worker.load_pins()


def _job(workload, key, pins):
    (job,) = [j for j in workloads.build(workload, 0, pins) if j.key == key]
    return job


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    # the printed metric sets are exactly the declared ones
    plain = {"traced": False, "solve_s": 2.0, "setup_s": 0.5, "peak_rss_mib": 40.0,
             "jobs": [{"key": "a", "s": 1.0, "ok": True}]}
    traced = dict(plain, traced=True, solve_s=2.5, layers={}, trace_wall_s=3.0, trace_root_s=2.0)
    e2e = run.summarize([plain, plain, plain], trace=0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    layers = run.summarize([plain, traced], trace=1)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert layers["trace.overhead_s"]["value"] == 0.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_small_job_per_workload(workload, pins):
    records, _ = worker.run_jobs([_job(workload, SMALL_JOBS[workload], pins)], pins)
    assert records[0]["ok"], records


def test_digest_gate_fires_on_altered_csv(pins):
    key = SMALL_JOBS["oracle_tables"]
    text = _job("oracle_tables", key, pins).run()[key]
    assert worker.check_output(key, text, pins) is None
    header, sizes, first_row, rest = text.split("\n", 3)
    altered = "\n".join([header, sizes, first_row.replace("1", "2", 1), rest])
    assert altered != text
    assert "digest mismatch" in worker.check_output(key, altered, pins)
    records, _ = worker.run_jobs([workloads.Job(key, lambda: {key: altered})], pins)
    assert not records[0]["ok"]


def test_tracer_restores_every_wrapped_function(pins):
    from nilorbit import cyclo, kernels, orbits

    before = (kernels.orbit_partition, vars(cyclo.Cyclotomic)["from_root_counts"],
              cyclo.Cyclotomic.__add__)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.installed_wrappers()
        assert orbits.kernels.orbit_partition is not before[0]
        _job("oracle_tables", SMALL_JOBS["oracle_tables"], pins).run()
    finally:
        tr.uninstall()
    assert tracer.installed_wrappers() == []
    assert tr.missing == []
    after = (kernels.orbit_partition, vars(cyclo.Cyclotomic)["from_root_counts"],
             cyclo.Cyclotomic.__add__)
    assert all(a is b for a, b in zip(before, after))
    assert tr.stats["dixon.dixon_table"].calls == 1
    assert tr.stats["kernels.orbit_partition"].work > 0
    assert 0 < tr.root_s <= tr.wall_s


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
