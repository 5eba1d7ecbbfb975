"""The determinism contract: pinned study results and score caches, byte for byte.

Each file under ``tests/golden/`` holds the output of one small, fully
seeded run: the results CSV of a separation study (wi, st) and of a lindley
study (wi, st, si), and the score-cache CSV of one fixed dataset under each
of the three priors.  The dataset is small enough that some candidate fits
are separated and some ``st`` entries are scored -inf, so failed fits are
pinned too.  A refactor must reproduce every file exactly, on every CPU:
numpy picks SIMD kernels by CPU, so the files are also checked with the
kernels this CPU would get turned off.  A change meant to move results
regenerates them with ``python tests/test_golden.py`` and shows the old and
new numbers.

The paper-scale record in ``results/`` is checked the same way from its
committed results CSVs: they read and write back byte for byte, and their
summary CSVs and SVGs are what ``abn-forge summarize`` makes of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abn_forge import AbnParams, Dag, Dataset, ScoreCache, build_score_cache, prior_from_name, sample
from abn_forge.experiments import (
    StudyConfig,
    results_from_csv,
    results_to_csv,
    run_study,
    summarize_rows,
    summary_to_csv,
)
from abn_forge.svg import render_summary_svg

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
RECORD = Path(__file__).resolve().parent.parent / "results"

SEPARATION = StudyConfig(
    study="separation",
    n_nodes=5,
    densities=(0.8,),
    sample_sizes=(30, 300),
    replicates=3,
    priors=("wi", "st"),
    master_seed=17,
)

LINDLEY = StudyConfig(
    study="lindley",
    n_nodes=4,
    densities=(0.3, 0.9),
    sample_sizes=(200,),
    replicates=2,
    priors=("wi", "st", "si"),
    master_seed=5,
)


def _study_csv(config: StudyConfig) -> str:
    return results_to_csv(run_study(config, workers=1))


TRUTH = AbnParams.balanced(Dag.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4)]))


def golden_data() -> Dataset:
    return sample(TRUTH, 40, np.random.default_rng(0))


def _cache(prior_name: str) -> ScoreCache:
    return build_score_cache(golden_data(), prior_from_name(prior_name, truth=TRUTH))


CASES = {
    "separation_results.csv": lambda: _study_csv(SEPARATION),
    "lindley_results.csv": lambda: _study_csv(LINDLEY),
    "cache_wi.csv": lambda: _cache("wi").to_csv(),
    "cache_st.csv": lambda: _cache("st").to_csv(),
    "cache_si.csv": lambda: _cache("si").to_csv(),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    expected = (GOLDEN / name).read_text()
    assert CASES[name]() == expected


@pytest.mark.parametrize("study", ["separation_n10", "lindley_n10"])
def test_committed_record_reproduces(study):
    text = (RECORD / f"{study}_results.csv").read_text()
    rows = results_from_csv(text)
    assert results_to_csv(rows) == text
    summary = summarize_rows(rows)
    assert summary_to_csv(summary) == (RECORD / f"{study}_summary.csv").read_text()
    assert render_summary_svg(summary) == (RECORD / f"{study}_summary.svg").read_text()


def active_simd_features() -> list[str]:
    """The SIMD extensions numpy dispatches to on this CPU, above the baseline it was built for.

    Naming them in ``NPY_DISABLE_CPU_FEATURES`` before numpy is imported turns their kernels off.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


SIMD_OFF_SCRIPT = """
import sys

sys.path[:0] = sys.argv[1:3]
import test_golden

assert not test_golden.active_simd_features(), test_golden.active_simd_features()
differ = [name for name, render in test_golden.CASES.items() if render() != (test_golden.GOLDEN / name).read_text()]
print(",".join(differ))
"""


def test_output_matches_golden_files_with_numpy_simd_kernels_off():
    # numpy's AVX-512 float64 exp, for one, differs from the C library's in the last bit
    features = active_simd_features()
    disabled = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *features])
    proc = subprocess.run(
        [sys.executable, "-c", SIMD_OFF_SCRIPT, str(Path(__file__).resolve().parent), str(SRC)],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"differ with {features} off: {proc.stdout.strip()}"


def test_st_failures_are_converged_fits_without_a_laplace_value():
    cache = _cache("st")
    failed = sorted(key for key, entry in cache.entries.items() if entry.log_score == float("-inf"))
    assert len(failed) == 4
    assert all(cache.entries[key].converged for key in failed)
    assert cache.diagnostics == [(node, mask, "non-finite log score") for node, mask in failed]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, render in CASES.items():
        (GOLDEN / name).write_text(render())
        print(f"wrote {GOLDEN / name}")
