"""The benchmark's own test, at smoke size: harness and checks, no timings.

    python -m pytest -q bench

Runs every workload once untraced and once traced at the smoke size, and
checks the result line's shape and the reference arithmetic.  Nothing
here asserts how long anything takes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def test_reference_hand_values():
    reference.self_check()
    assert reference.weyl_dim("C4", (6, 6, 6, 6)) == 395_352
    assert reference.weyl_dim("D5", ("1/2",) * 5) == 16


@pytest.mark.parametrize("embedding", sorted(reference.SOURCES))
def test_reference_restrictions_conserve_dimension(embedding):
    for n in range(4):
        terms = reference.expected_restriction(embedding, n)
        assert reference.character_dim(reference.SMALL_GROUPS[embedding], terms) == reference.source_dim(embedding, n)


def test_reference_verify_all_counts():
    counts = reference.verify_all_counts(workloads.count_table_rows(HERE.parent))
    assert counts == {"rules": 101, "infchar": 67, "quasisplit-mult": 700, "tables": 36}


def test_dominant_grid_matches_weyl_products():
    for label in ("A1", "A5", "B2", "C3", "D4"):
        for hw in workloads.dominant_grid(label, 1):
            assert reference.weyl_dim(label, hw) >= 1


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:  # one traced round: module self times plus time outside spans is its wall
        self_total = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert abs(self_total + values["trace.outside_s"] - values["trace.wall_s"]) < 1e-6


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "cli_call_p50_s"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    slower = [v * 1.3 for v in parent]
    faster = [v * 0.7 for v in parent]
    assert compare.verdict(parent, slower, 0, 10, 0.1, lower=True) == "worse"
    assert compare.verdict(parent, faster, 10, 10, 0.1, lower=True) == "better"
    assert compare.verdict(parent, parent, 0, 10, 0.1, lower=True) == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, 5, 10, 0.1, lower=True) == "unresolved"
