"""The package's acceptance gate: eight end-to-end checks at pinned tolerances.

Every check prints exactly one ``criterion N (...): PASS/FAIL`` line before
asserting, so a full run leaves a readable scorecard.  The two study-level
checks (sample-size sweep, density sweep) exercise the same seeded farms the
shipped configs use and dominate the runtime of the suite.
"""

import time

import numpy as np
import pytest
from scipy.special import expit

from abn_forge import (
    Dag,
    GaussianPrior,
    StudentTPrior,
    exact_search,
    fit_node,
    separation_of_design,
    to_cpdag,
)
from abn_forge.experiments import StudyConfig, results_to_csv, run_study
from oracles import (
    brute_force_search,
    cpdag_oracle,
    enumerate_dags,
    fm_separation,
    newton_mle,
    quad_log_marginal,
)
from test_search import random_cache

SEPARATION_CONFIG = StudyConfig(
    study="separation",
    n_nodes=5,
    densities=(0.8,),
    sample_sizes=(100, 1000, 10000),
    replicates=20,
    priors=("wi", "st"),
    master_seed=3,
)

LINDLEY_CONFIG = StudyConfig(
    study="lindley",
    n_nodes=8,
    densities=(0.1, 0.5, 0.9),
    sample_sizes=(1000,),
    replicates=20,
    priors=("wi", "st", "si"),
    master_seed=0,
)


def report(number: int, label: str, ok: bool, elapsed: float) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def separation_run():
    started = time.perf_counter()
    rows = run_study(SEPARATION_CONFIG)
    return rows, time.perf_counter() - started


def median_by(rows, prior, n_obs, metric):
    values = [
        getattr(r, metric)
        for r in rows
        if r.prior_name == prior and r.n_obs == n_obs and not r.note
    ]
    return float(np.median(values))


def test_criterion_1_exact_search_equals_brute_force():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(50):
        cache = random_cache(4, rng)
        if exact_search(cache).total_score != brute_force_search(cache).total_score:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    report(1, "exact search equals brute force on 50 caches", ok, elapsed)
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_cpdag_matches_equivalence_class_oracle():
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in (1, 2, 3, 4):
        for masks in enumerate_dags(n):
            checked += 1
            cp = to_cpdag(Dag(n=n, parents=tuple(masks)))
            directed, undirected = cpdag_oracle(n, masks)
            if cp.directed != frozenset(directed) or cp.undirected != frozenset(undirected):
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and checked == 1 + 3 + 25 + 543 and elapsed < 30.0
    report(2, f"essential graphs of all {checked} DAGs up to n=4", ok, elapsed)
    assert mismatches == 0
    assert checked == 572
    assert elapsed < 30.0


def test_criterion_3_laplace_score_tracks_quadrature():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst_gaussian = 0.0
    worst_cauchy = 0.0
    for case in range(20):
        d = 1 if case < 10 else 2
        coefs = rng.uniform(-1.5, 1.5, size=d)
        X = np.ones((50, 1))
        if d == 2:
            X = np.column_stack([X, rng.integers(0, 2, 50).astype(float)])
        y = (rng.uniform(size=50) < expit(X @ coefs)).astype(float)

        for variance in (1000.0, 4.0):
            prior = GaussianPrior(mean=0.0, variance=variance)
            fit = fit_node(X, y, prior)
            mean, var = prior.resolve(d)
            exact = quad_log_marginal(X, y, {"kind": "gaussian", "mean": mean, "variance": var})
            worst_gaussian = max(worst_gaussian, abs(fit.log_marginal - exact))

        student = StudentTPrior(df=1.0, scale=2.5, intercept_scale=10.0)
        fit = fit_node(X, y, student)
        _, scales = student.resolve(d)
        exact = quad_log_marginal(X, y, {"kind": "student", "df": 1.0, "scales": scales})
        worst_cauchy = max(worst_cauchy, abs(fit.log_marginal - exact))
    elapsed = time.perf_counter() - started
    ok = worst_gaussian <= 0.1 and worst_cauchy <= 0.2 and elapsed < 60.0
    report(3, "Laplace within 0.1/0.2 nats of quadrature", ok, elapsed)
    assert worst_gaussian <= 0.1
    assert worst_cauchy <= 0.2
    assert elapsed < 60.0


def test_criterion_4_t_prior_survives_complete_separation():
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    tamed = 0
    diverged = 0
    for _ in range(50):
        n_obs = int(rng.integers(10, 80))
        x = rng.integers(0, 2, n_obs).astype(float)
        if x.min() == x.max():
            x[0] = 1.0 - x[0]
        y = x.copy()
        X = np.column_stack([np.ones(n_obs), x])

        fit = fit_node(X, y, StudentTPrior(df=1.0, scale=2.5, intercept_scale=10.0))
        if fit.converged and np.isfinite(fit.coef).all():
            tamed += 1
        if np.abs(newton_mle(X, y)).max() > 10.0:
            diverged += 1
    elapsed = time.perf_counter() - started
    ok = tamed == 50 and diverged == 50 and elapsed < 30.0
    report(4, "t prior finite and MLE divergent on 50 separated fits", ok, elapsed)
    assert tamed == 50
    assert diverged == 50
    assert elapsed < 30.0


def test_criterion_5_recovery_improves_with_sample_size(separation_run):
    rows, elapsed = separation_run
    clauses = []
    for prior in ("wi", "st"):
        tpr = [median_by(rows, prior, n, "tpr") for n in SEPARATION_CONFIG.sample_sizes]
        fpr = [median_by(rows, prior, n, "fpr") for n in SEPARATION_CONFIG.sample_sizes]
        clauses.append(tpr[0] <= tpr[1] <= tpr[2])
        clauses.append(fpr[0] >= fpr[1] >= fpr[2])
        clauses.append(tpr[2] >= 0.9)
        clauses.append(fpr[2] <= 0.1)
    clauses.append(
        median_by(rows, "st", 100, "tpr") >= median_by(rows, "wi", 100, "tpr")
    )
    ok = all(clauses)
    report(5, "sample-size sweep trends (n=5, 20 replicates)", ok, elapsed)
    assert ok, clauses


def test_criterion_6_informed_prior_curbs_complexity_bias():
    started = time.perf_counter()
    rows = run_study(LINDLEY_CONFIG)
    elapsed = time.perf_counter() - started

    def mean_normalized(prior, density):
        values = [
            r.normalized_parents
            for r in rows
            if r.prior_name == prior and r.density == density and not r.note
        ]
        return float(np.mean(values))

    clauses = []
    for prior in ("wi", "st"):
        clauses.append(mean_normalized(prior, 0.1) > 1.0)
        clauses.append(mean_normalized(prior, 0.9) < 1.0)
    for density in LINDLEY_CONFIG.densities:
        clauses.append(mean_normalized("si", density) <= 1.05)
    ok = all(clauses)
    report(6, "density sweep complexity bias (n=8, 20 replicates)", ok, elapsed)
    assert ok, clauses


def test_criterion_7_study_reruns_are_byte_identical(separation_run):
    rows, _ = separation_run
    started = time.perf_counter()
    again = run_study(SEPARATION_CONFIG)
    elapsed = time.perf_counter() - started
    ok = results_to_csv(rows) == results_to_csv(again)
    report(7, "byte-identical study rerun", ok, elapsed)
    assert ok


def test_criterion_8_separation_detector_matches_feasibility_oracle():
    rng = np.random.default_rng(17)
    started = time.perf_counter()
    disagreements = 0
    for _ in range(200):
        n_pred = int(rng.integers(0, 4))
        n_obs = int(rng.integers(1, 201))
        X = np.column_stack(
            [np.ones(n_obs)]
            + [(rng.random(n_obs) < rng.uniform(0.2, 0.8)).astype(float) for _ in range(n_pred)]
        )
        y = (rng.random(n_obs) < rng.uniform(0.1, 0.9)).astype(float)
        if separation_of_design(X, y).value != fm_separation(X, y):
            disagreements += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0
    report(8, "separation detector vs exact feasibility on 200 datasets", ok, elapsed)
    assert disagreements == 0
