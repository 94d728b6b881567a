"""BENCHMARK.json must declare exactly what perfbench/run.py reports."""

import json

from perfbench import run, workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (cls.name, cls.why) for cls in workloads.WORKLOADS.values()
    ]
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == run.per_layer_spec()


def test_command_runs_this_script():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
