"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from meansets import cli, experiments  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(run._load_spec()["workloads"])  # every workload run.py accepts, listed or not


def _run(capsys, workload: str, trace: int, seed: int = 7) -> tuple[list[str], dict]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    lines, result = _run(capsys, workload, trace)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line for line in lines)
    assert any(line.startswith("failed_ratio 0 ") for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(capsys, workload):
    counts = []
    for _ in range(2):
        _, result = _run(capsys, workload, 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith((".calls", ".errors", "evals_per_solve", "neighbors_per_distance"))})
    assert counts[0] == counts[1]


def _shift_one_count(hist: dict) -> dict:
    """Move one trial to another displacement: the total stays right."""
    hist = dict(hist)
    d = min(hist)
    hist[d] -= 1
    hist[d + 7] = hist.get(d + 7, 0) + 1
    return {k: v for k, v in sorted(hist.items()) if v}


@pytest.mark.parametrize("trace", [0, 1])
def test_negative_control_corrupted_histogram(capsys, monkeypatch, trace):
    real = experiments.run_table_cell

    def corrupted(rank, length, n, trials, seed):
        cell = real(rank, length, n, trials, seed)
        if n == 2:
            cell.histogram = _shift_one_count(cell.histogram)
        return cell

    monkeypatch.setattr(experiments, "run_table_cell", corrupted)
    lines, result = _run(capsys, "table-f4", trace)
    assert not result["correct"]
    assert result["failed"] > 0
    ratio = next(line for line in lines if line.startswith("failed_ratio "))
    assert float(ratio.split()[1]) > 0


def test_negative_control_corrupted_mean_set(capsys, monkeypatch):
    real = cli.measure_mean_set

    def corrupted(g, mu, c=2):
        result = real(g, mu, c)
        return dataclasses.replace(result, min_weight=result.min_weight + 1)

    monkeypatch.setattr(cli, "measure_mean_set", corrupted)
    _, result = _run(capsys, "explicit-scan", 0)
    assert result["failed"] > 0


def test_digest_mismatch_fails_every_op_of_the_round(tmp_path):
    import workloads

    workload = workloads.Walk(7, str(tmp_path), tiny=True)
    outs = [call() for call, _ in workload.ops]
    problems, digest = run._check_first_round(workload, outs, pinned=None)
    assert problems == [None] * len(outs)
    problems, _ = run._check_first_round(workload, outs, pinned="0" * 64)
    assert all(p and "pinned" in p for p in problems)
    problems, _ = run._check_first_round(workload, outs, pinned=digest)
    assert problems == [None] * len(outs)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
