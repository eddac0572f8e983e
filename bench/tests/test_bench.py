"""Self-test of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest -q bench/tests``.  Checks
that every metric ``BENCHMARK.json`` names is emitted with its unit (or that
its absence is recorded with a reason), that every per-operation figure the
workloads promise is reported, and that the benchmark refuses to run without
the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_OPERATION = {
    "cli-200k": [f"cli_{c}_s" for c in layers.CLI_COMMANDS],
    "bootstrap-5k": [f"boot_{k}_reps_per_s" for k in ("cc", "iv", "bounds", "pi")],
    "montecarlo-50k": ["mc_draws_per_s"],
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    return request.param, {trace: bench(request.param, trace) for trace in (0, 1)}


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_last_line_carries_every_end_to_end_metric(runs):
    _, procs = runs
    report, last = _parse(procs[0])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, report["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_per_operation_figures_and_results_are_reported(runs):
    workload, procs = runs
    report, _ = _parse(procs[0])
    for name in PER_OPERATION[workload]:
        figure = report["per_operation"][name]
        assert figure["unit"] and figure["value"] > 0
    assert report["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert report["results"]
    assert report["fingerprint"]["seed"] == 3 and report["fingerprint"]["nproc"] >= 1


def test_traced_run_emits_every_layer_metric_or_says_why_not(runs):
    _, procs = runs
    report, last = _parse(procs[1])
    assert last["correct"] is True, report["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for name, metric in last["metrics"].items():
        if name in report["not_exercised"]:
            assert metric["value"] == 0 and report["not_exercised"][name]
        assert report["moves"][name]
    assert last["metrics"]["trace.pass_s"]["value"] > 0


def test_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in layers.LAYERS
    ]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("bootstrap-5k", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
