"""BENCHMARK.json is well formed and agrees with the benchmark's code."""

import json
import re

import ledger
import run
import workloads
from harness import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(names) <= 8
    assert names == [w for w in workloads.WORKLOADS if w in names]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_are_named_united_directed_and_bounded():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"}
    for metric in e2e + layers:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_per_layer_metrics_are_the_ledger():
    """The ledger's metrics of the ``/v1/*`` evaluation path, the one
    every listed workload takes; the stream, dispatch and CLI layers are
    reported by the workloads that are run by name."""
    assert {w["name"] for w in SPEC["workloads"]} <= {"trickle", "saturate",
                                                      "hot"}
    layers = set(ledger.SERVICE_LAYERS) | {"other"}
    expected = [metric for metric in ledger.per_layer_names()
                if metric[0].rsplit(".", 1)[0] in layers
                or metric[0] in run.PRINTED_COUNTERS["service"]]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == expected
