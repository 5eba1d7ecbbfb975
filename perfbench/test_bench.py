"""Checks on the benchmark itself: repeatable counts, seed sensitivity, metric lists.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_bench.py

The traced runs are real benchmark runs cut to one replicate (``--seconds 1``),
so this takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import FAILURE_KINDS, PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402

# counts that are a pure function of the cells' data
EXACT_COUNTS = (
    "score.fits",
    "score.irls_sweeps",
    "data.separation_calls",
    *(f"score.fit_failed.{kind}" for kind in FAILURE_KINDS),
)


def traced_run(seed: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sep_small", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.rsplit(" ", 1)[1] for line in lines if line.startswith("results_sha256"))
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module")
def seed_runs():
    return traced_run(11), traced_run(11), traced_run(12)


def test_exact_counts_repeat_across_traced_runs(seed_runs):
    (first, first_digest), (second, second_digest), _ = seed_runs
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and second["failed"] == 0
    assert first_digest == second_digest
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["score.fits"]["value"] > 0


def test_another_seed_gives_other_cells(seed_runs):
    (first, first_digest), _, (other, other_digest) = seed_runs
    assert other["correct"]
    assert other_digest != first_digest
    assert any(
        first["metrics"][name]["value"] != other["metrics"][name]["value"] for name in EXACT_COUNTS
    )


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sep_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
