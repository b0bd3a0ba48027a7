"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

For every workload: each metric in BENCHMARK.json is emitted with its unit,
two runs with the same seed write the same trajectories, and one-thread,
two-thread, traced and untraced repetitions all write the same trajectories.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def run_workload(workload, *extra):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "0", "--tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, last = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], record["problems"]
    assert last["attempted"] >= 1 and last["failed"] == 0
    return record, last


def assert_metrics(last, defs):
    assert {name: entry["unit"] for name, entry in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in defs
    }
    assert all(isinstance(entry["value"], float | int) for entry in last["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload(workload, tmp_path):
    first, last = run_workload(workload, "--trace", "0", "--threads", "2", "--out", str(tmp_path / "a.jsonl"))
    assert_metrics(last, BENCHMARK["end_to_end"])
    again, _ = run_workload(workload, "--trace", "0", "--threads", "2", "--out", str(tmp_path / "b.jsonl"))
    assert again["digests"] == first["digests"]

    traced, last = run_workload(workload, "--trace", "1")
    assert_metrics(last, BENCHMARK["per_layer"])
    assert {rep["trace"] for rep in traced["reps"]} == {True, False}
    assert all(rep["threads"] == 1 for rep in traced["reps"])
    assert all(rep["digests"] == first["digests"] for rep in traced["reps"])

    cmp = run("--compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
    assert cmp.returncode in (0, 1), cmp.stderr
    for m in BENCHMARK["end_to_end"]:
        assert f" {m['name']} " in cmp.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run("--workload", "particle-n3", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
