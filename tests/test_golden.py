"""The determinism contract: pinned study results and score caches, byte for byte.

Each file under ``tests/golden/`` holds the output of one small, fully
seeded run: the results CSV of a separation study (wi, st) and of a lindley
study (wi, st, si), and the score-cache CSV of one fixed dataset under each
of the three priors.  The dataset is small enough that some candidate fits
are separated and some ``st`` entries are scored -inf, so failed fits are
pinned too.  A refactor must reproduce every file exactly.  A change
meant to move results regenerates them with ``python tests/test_golden.py``
and shows the old and new numbers.
"""

from pathlib import Path

import numpy as np
import pytest

from abn_forge import AbnParams, Dag, ScoreCache, build_score_cache, prior_from_name, sample
from abn_forge.experiments import StudyConfig, results_to_csv, run_study

GOLDEN = Path(__file__).resolve().parent / "golden"

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


def _cache(prior_name: str) -> ScoreCache:
    data = sample(TRUTH, 40, np.random.default_rng(0))
    return build_score_cache(data, prior_from_name(prior_name, truth=TRUTH))


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
