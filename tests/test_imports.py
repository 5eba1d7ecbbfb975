"""What ``import abn_forge`` loads: numpy, scipy only once a separation LP runs, and a process pool only for workers > 1.

The test process itself has scipy loaded (``tests/oracles.py`` uses it), so
the check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import numpy as np

from abn_forge import StudyConfig, build_score_cache, exact_search, prior_from_name, run_study, sample
from abn_forge import AbnParams, Dag


def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))


config = StudyConfig(
    study="separation", n_nodes=4, densities=(0.8,), sample_sizes=(50,), replicates=1, priors=("wi", "st")
)
rows = run_study(config, workers=1)
assert len(rows) == 2 and not any(row.note.startswith("error:") for row in rows), rows
# a process pool is imported only when one runs
assert "concurrent.futures.process" not in sys.modules
truth = AbnParams.balanced(Dag.from_edges(3, [(0, 1), (1, 2)]))
cache = build_score_cache(sample(truth, 40, np.random.default_rng(0)), prior_from_name("st"))
exact_search(cache)
assert not scipy_modules(), scipy_modules()

header, *body = [line.split(",") for line in cache.to_csv().splitlines() if not line.startswith("#")]
statuses = [row[header.index("separation")] for row in body]
assert len(statuses) == cache.total_entries()
assert set(statuses) <= {"none", "quasi_complete", "complete"} and "none" in statuses, statuses
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_import_and_study_cell_load_no_scipy_until_separation_is_classified():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
