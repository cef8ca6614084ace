"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py -q``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import netaug  # noqa: E402
from checks import Instance  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "ensemble_a7": dataclasses.replace(
        bench.WORKLOADS["ensemble_a7"], n=12, p=0.4, leader_counts=(2, 3), repetitions=2, pool=2),
    "pipeline_large": dataclasses.replace(
        bench.WORKLOADS["pipeline_large"], n=16, parameters=(0.3,), leaders=3, validate_trials=2,
        pool=2, min_ops=1),
    "sparse_ba": dataclasses.replace(
        bench.WORKLOADS["sparse_ba"], n=16, leaders=3, validate_trials=2, paths=(6,), pool=2),
}


def shortcut_edge(inst: Instance):
    """A missing (leader, monitored node) edge that would shorten their distance, or None."""
    for ell in inst.leaders:
        for item in inst.pmi:
            v = item["node"]
            if inst.before[ell][v] >= 2:
                return (min(ell, v), max(ell, v))
    return None


def run_tiny(name, tmp_path, trace):
    return bench.execute(TINY[name], seed=3, seconds=0, trace=trace, workdir=tmp_path)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result = run_tiny(name, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    last = json.loads(bench.final_line(result, trace))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in last["metrics"].items()}
    lines = bench.report_lines(result, trace)
    for metric in SPEC["end_to_end"]:
        assert any(
            line.startswith(f"metric {metric['name']} = ") and f" {metric['unit']} (samples=" in line
            for line in lines
        )


def test_shortcut_edge_trips_the_distance_check(tmp_path, monkeypatch):
    original = netaug.augment_randomized

    def corrupted(g, leaders, pmi, **kwargs):
        result = original(g, leaders, pmi, **kwargs)
        edge = shortcut_edge(Instance(g.n, g.edges, leaders, pmi.to_json()))
        if edge is None:
            return result
        return dataclasses.replace(
            result, edges_after=result.edges_after | {edge}, added=result.added | {edge})

    clean = run_tiny("sparse_ba", tmp_path, trace=False)
    monkeypatch.setattr(netaug, "augment_randomized", corrupted)
    dirty = run_tiny("sparse_ba", tmp_path, trace=False)
    assert clean["op_fail_ratio"] == 0.0
    assert dirty["op_fail_ratio"] > 0.0 and not dirty["correct"] and not dirty["errors"]
    passed, total = dirty["verdicts"]["distances"]
    assert passed < total
