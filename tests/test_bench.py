"""The benchmark entry point, benchmarks/bench.py: its registry names only
runs, workloads, tests and functions that exist, and its report arithmetic
is right.  Nothing here starts a process."""

import importlib
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("bench", "benchmarks", "bench.py")


def test_registry_names_existing_runs_workloads_and_functions():
    workloads = _load("perfbench_run", "perfbench", "run.py").WORKLOADS
    assert bench.WORKLOADS == workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    with open(os.path.join(ROOT, "tests", "test_acceptance.py")) as fh:
        acceptance = fh.read()
    for name, measurements in bench.REGISTRY.items():
        labels = [m.label for m in measurements]
        assert len(set(labels)) == len(labels), name
        for m in measurements:
            if m.kind == "cli":
                assert m.target in bench.CLI_RUNS, m
            elif m.kind == "perfbench":
                assert m.target in workloads and m.detail == bench.END_TO_END, m
            elif m.kind == "traced":
                assert m.target in workloads and set(m.detail) <= per_layer, m
            else:
                assert m.kind == "timed", m
                case = m.target
                assert (
                    case in bench.CLI_RUNS or case in workloads or case == "fq_probe"
                    or "\ndef %s():" % case in acceptance
                ), m
                for qualname in m.detail:
                    module, fn = qualname.rsplit(".", 1)
                    module = importlib.import_module("nilorbit." + module)
                    assert callable(getattr(module, fn)), qualname


def _rounds(xs, digest="d"):
    return [{"a.x": x, "a.n": 7, "a.sha256": digest} for x in xs]


def test_summarize_gives_medians_quartiles_and_digest_sets():
    s = bench.summarize(_rounds([4.0, 1.0, 3.0, 2.0]))
    assert s["a.x"] == {"median": 2.5, "quartiles": [1.25, 3.75]}
    assert s["a.n"] == {"median": 7, "quartiles": [7.0, 7.0]}
    assert s["a.sha256"] == ["d"]
    one = {"a.x": {"median": 3.0}, "a.n": {"median": 7}, "a.sha256": ["d"]}
    assert bench.summarize(_rounds([3.0])) == one
    mixed = _rounds([1.0, 2.0])
    mixed[1]["a.sha256"] = "c"
    assert bench.summarize(mixed)["a.sha256"] == ["c", "d"]


def test_compare_gives_ratios_and_pairs_change_lower():
    out = bench.compare(_rounds([1.0, 2.0, 3.0, 4.0]), _rounds([0.5, 1.0, 3.5, 2.0]))
    assert out["change_over_baseline"] == {"a.x": 0.6, "a.n": 1.0}
    assert out["pairs_change_lower"] == {"a.x": 3, "a.n": 0}
    assert out["outputs_identical"] is True
    zero = bench.compare([{"a.x": 0.0}], [{"a.x": 1.0}])
    assert zero["change_over_baseline"] == {"a.x": None}


def test_outputs_identical_is_false_when_one_digest_differs():
    change = _rounds([1.0, 2.0, 3.0])
    change[2]["a.sha256"] = "e"
    assert bench.compare(_rounds([1.0, 2.0, 3.0]), change)["outputs_identical"] is False


def test_unknown_bench_name_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        bench.main(["tables", "nope"])
    assert e.value.code == 2
    assert "unknown bench nope" in capsys.readouterr().err
