"""Fast self-test of the session benchmark: tiny sizes, every check on."""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import sessions  # noqa: E402
from netgen import interpret, training  # noqa: E402

TINY = sessions.Workload("tiny", v=8, t=48, n=40, modules={"m1": 4, "m2": 4}, effect=4.0,
                         kind="gru", split=(0.5, 0.25, 0.25), epochs=2, window=8)


def run_tiny(tmp_path, trace):
    return sessions.run(TINY, 0, 0.0, trace, tmp_path, time.perf_counter())


def test_untraced_run_passes_every_check(tmp_path):
    result, ledger = run_tiny(tmp_path, trace=False)
    assert ledger.wrong == [] and ledger.errors == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in sessions.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert [p.name for p in tmp_path.iterdir()] == []  # the work directory is removed


def test_traced_run_reports_every_layer(tmp_path):
    result, ledger = run_tiny(tmp_path, trace=True)
    assert ledger.wrong == [] and ledger.errors == []
    assert set(result["metrics"]) == set(sessions.SPAN_METRICS) | set(sessions.DERIVED)
    trace = json.loads((tmp_path / "trace-tiny-seed0.json").read_text())
    assert set(trace["pipelines_epoch_s"]) == set(sessions.predictor.PIPELINES)
    assert all(s["end_ms"] >= s["start_ms"] for s in trace["spans"])
    for row in trace["summary"].values():
        assert row["self_ms"] <= row["total_ms"] + 1e-9


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(sessions.WORKLOADS)
    assert bench_run.WORKLOAD_NAMES == tuple(sessions.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == dict(sessions.END_TO_END)
    per_layer = {name: name.rsplit("_", 1)[1] for name in sessions.SPAN_METRICS}
    per_layer.update(sessions.DERIVED)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer


def test_checks_reject_wrong_outputs():
    rng = np.random.default_rng(0)
    graphs = rng.uniform(0.1, 0.9, size=(12, 5, 5))
    graphs = (graphs + graphs.swapaxes(1, 2)) / 2
    labels = np.array([0, 1] * 6)
    labels_1 = labels == 1
    graphs[labels_1, 0, 1] += 0.5
    graphs[labels_1, 1, 0] += 0.5
    edges = interpret.edge_ttest(graphs, labels, alpha=0.05)
    assert checks.edges_match_scipy(edges, graphs, labels, 0.05) is None
    edges.edges[0].pvalue *= 1.01
    assert checks.edges_match_scipy(edges, graphs, labels, 0.05) is not None
    edges.edges.pop()
    assert checks.edges_match_scipy(edges, graphs, labels, 0.05) is not None

    asymmetric = graphs.copy()
    asymmetric[0, 0, 1] += 1e-6
    assert checks.graphs_valid(asymmetric, 5) is not None
    scores = rng.uniform(size=12)
    right = training.auroc(scores, labels)
    assert checks.auroc_matches_mann_whitney(right, scores, labels) is None
    assert checks.auroc_matches_mann_whitney(right + 1e-9, scores, labels) is not None
    assert checks.auroc_above_chance(checks.MIN_TEST_AUROC - 0.01) is not None


@pytest.mark.parametrize("args", [
    ["--workload", "planted-gru", "--seed", "1", "--seconds", "1", "--trace", "0"],
    ["--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0"],
])
def test_refuses_to_run_without_the_source(tmp_path, args):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
