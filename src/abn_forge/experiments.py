"""Seeded replicate farms for the two simulation studies, emitting tidy result tables.

The ``separation`` study sweeps sample sizes at a fixed dense truth (80% of
possible edges) and tracks how well each prior recovers the essential graph.
The ``lindley`` study sweeps truth densities at a fixed sample size and tracks
the fitted-to-true edge-count ratio, the complexity statistic that exposes the
diffuse prior's bias toward sparse structures.

Every (density, sample size, replicate) cell draws its own truth network and
dataset from a stream derived by hashing the cell identity together with the
master seed, and all priors of a cell share that draw.  That pairing makes
prior-vs-prior comparisons within a cell meaningful, keeps replicates
independent, and lets any single replicate be reproduced in isolation.

Result rows are plain records; ``results_to_csv`` renders everything except
wall-clock time, which goes into a separate timings table so result files are
byte-identical across reruns of the same seed.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import csv
import io
import json
import math

import numpy as np

from ._util import as_int, atomic_write_text
from .data import AbnParams, sample
from .graph import MAX_NODES, compare, random_dag, to_cpdag
from .score import build_score_cache, prior_from_name
from .search import exact_search

SEPARATION = "separation"
LINDLEY = "lindley"

_STUDY_PRIORS = {SEPARATION: ("wi", "st"), LINDLEY: ("wi", "st", "si")}


@dataclass(frozen=True)
class StudyConfig:
    """Everything that determines a study run; two configs with equal fields give equal results.

    ``intercept`` is a sensitivity knob for the data-generating process: a
    float applies that intercept to every node, while the default ``None``
    centers each node at -edge_coef * parents / 2 so its marginal stays near
    one half whatever its in-degree.
    """

    study: str
    n_nodes: int
    densities: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    replicates: int
    priors: tuple[str, ...]
    edge_coef: float = 5.0
    intercept: float | None = None
    master_seed: int = 0
    max_parents: int | None = None
    wi_variance: float = 1000.0
    st_df: float = 1.0
    st_scale: float = 2.5
    st_intercept_scale: float = 10.0
    si_variance: float = 0.1
    si_absent_variance: float = 1000.0
    replicate_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.study not in _STUDY_PRIORS:
            raise ValueError(f"study must be one of {sorted(_STUDY_PRIORS)}, got {self.study!r}")
        object.__setattr__(self, "densities", tuple(float(d) for d in self.densities))
        object.__setattr__(self, "sample_sizes", tuple(as_int(v, "sample_sizes") for v in self.sample_sizes))
        object.__setattr__(self, "priors", tuple(str(p).lower() for p in self.priors))
        if self.intercept is not None:
            object.__setattr__(self, "intercept", float(self.intercept))
        if self.replicate_ids is not None:
            object.__setattr__(self, "replicate_ids", tuple(as_int(r, "replicate_ids") for r in self.replicate_ids))
        if not 1 <= as_int(self.n_nodes, "n_nodes") <= MAX_NODES:
            raise ValueError(f"n_nodes must be an integer in 1..{MAX_NODES}, got {self.n_nodes!r}")
        if self.max_parents is not None and not 0 <= as_int(self.max_parents, "max_parents") < self.n_nodes:
            raise ValueError(f"max_parents must be in 0..{self.n_nodes - 1}")
        if not all(math.isfinite(v) for v in (self.edge_coef, self.intercept or 0.0)):
            raise ValueError("edge_coef and intercept must be finite")
        hyper = ("wi_variance", "st_df", "st_scale", "st_intercept_scale", "si_variance", "si_absent_variance")
        if bad := [name for name in hyper if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0)]:
            raise ValueError(f"prior hyperparameters must be finite and positive: {', '.join(bad)}")
        if not self.densities or not all(0.0 < d <= 1.0 for d in self.densities):
            raise ValueError("densities must be a nonempty subset of (0, 1]")
        if not self.sample_sizes or not all(v >= 1 for v in self.sample_sizes):
            raise ValueError("sample sizes must be >= 1")
        as_int(self.master_seed, "master_seed")
        if as_int(self.replicates, "replicates") < 0:
            raise ValueError("replicates must be >= 0")
        allowed = _STUDY_PRIORS[self.study]
        if not self.priors or not set(self.priors) <= set(allowed):
            raise ValueError(f"priors for the {self.study} study must be a subset of {allowed}")
        if self.replicate_ids is not None and not all(
            0 <= r < self.replicates for r in self.replicate_ids
        ):
            raise ValueError("replicate_ids must index into range(replicates)")

    def to_json(self) -> str:
        obj = {
            "study": self.study,
            "n_nodes": self.n_nodes,
            "densities": list(self.densities),
            "sample_sizes": list(self.sample_sizes),
            "replicates": self.replicates,
            "priors": list(self.priors),
            "edge_coef": self.edge_coef,
            "intercept": self.intercept,
            "master_seed": self.master_seed,
            "wi_variance": self.wi_variance,
            "st_df": self.st_df,
            "st_scale": self.st_scale,
            "st_intercept_scale": self.st_intercept_scale,
            "si_variance": self.si_variance,
            "si_absent_variance": self.si_absent_variance,
        }
        if self.max_parents is not None:
            obj["max_parents"] = self.max_parents
        if self.replicate_ids is not None:
            obj["replicate_ids"] = list(self.replicate_ids)
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        obj = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown study config keys: {sorted(unknown)}")
        for key in ("densities", "sample_sizes", "priors", "replicate_ids"):
            if key in obj and obj[key] is not None:
                obj[key] = tuple(obj[key])
        return cls(**obj)


@dataclass
class ResultRow:
    """One (prior, cell) outcome of a study."""

    study: str
    prior_name: str
    density: float
    n_obs: int
    replicate: int
    tpr: float
    fpr: float
    tnr: float
    edges_true: int
    edges_fitted: int
    normalized_parents: float
    note: str = ""
    wall_time_ms: float = float("nan")


RESULT_FIELDS = (
    "study",
    "prior_name",
    "density",
    "n_obs",
    "replicate",
    "tpr",
    "fpr",
    "tnr",
    "edges_true",
    "edges_fitted",
    "normalized_parents",
    "note",
)

TIMING_FIELDS = ("study", "prior_name", "density", "n_obs", "replicate", "wall_time_ms")


def derive_rng(master_seed: int, study_label: str, replicate: int) -> np.random.Generator:
    """An independent, reproducible generator for one (study cell, replicate).

    The label and replicate index are hashed into seed words, so distinct
    tuples get unrelated streams and the same tuple always gets the same one.
    """
    digest = hashlib.sha256(f"{study_label}|{int(replicate)}".encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    entropy = [int(master_seed) % (1 << 64)] + words
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _cell_label(config: StudyConfig, density: float, n_obs: int) -> str:
    return f"{config.study}:n={config.n_nodes}:density={density!r}:N={n_obs}"


def _cell_dir_name(density: float, n_obs: int, replicate: int) -> str:
    return f"d{density:g}_N{n_obs}_rep{replicate:03d}"


def _run_cell(
    config: StudyConfig,
    density: float,
    n_obs: int,
    replicate: int,
    runs_dir: str | None,
) -> list[ResultRow]:
    """Draw one truth + dataset and evaluate every prior of the config on it."""
    label = _cell_label(config, density, n_obs)

    def failure_row(prior_name: str, message: str) -> ResultRow:
        return ResultRow(
            study=config.study,
            prior_name=prior_name,
            density=density,
            n_obs=n_obs,
            replicate=replicate,
            tpr=float("nan"),
            fpr=float("nan"),
            tnr=float("nan"),
            edges_true=0,
            edges_fitted=0,
            normalized_parents=float("nan"),
            note=f"error: {message}",
        )

    try:
        rng = derive_rng(config.master_seed, label, replicate)
        truth_dag = random_dag(config.n_nodes, density, rng)
        if config.intercept is None:
            params = AbnParams.balanced(truth_dag, config.edge_coef)
        else:
            params = AbnParams.uniform(truth_dag, config.edge_coef, config.intercept)
        dataset = sample(params, n_obs, rng)
        truth_cp = to_cpdag(truth_dag)
    except Exception as exc:  # noqa: BLE001 - a failed draw must not kill the farm
        return [failure_row(prior_name, str(exc)) for prior_name in config.priors]

    cell_dir: Path | None = None
    if runs_dir is not None:
        cell_dir = Path(runs_dir) / config.study / _cell_dir_name(density, n_obs, replicate)
        atomic_write_text(cell_dir / "truth.json", params.to_json())
        atomic_write_text(cell_dir / "data.csv", dataset.to_csv())

    rows = []
    for prior_name in config.priors:
        started = time.perf_counter()
        try:
            prior = prior_from_name(
                prior_name,
                truth=params,
                wi_variance=config.wi_variance,
                st_df=config.st_df,
                st_scale=config.st_scale,
                st_intercept_scale=config.st_intercept_scale,
                si_variance=config.si_variance,
                si_absent_variance=config.si_absent_variance,
            )
            cache = build_score_cache(dataset, prior, config.max_parents)
            estimate_dag = exact_search(cache).dag
            estimate_cp = to_cpdag(estimate_dag)
            metrics = compare(estimate_cp, truth_cp)
        except Exception as exc:  # noqa: BLE001
            rows.append(failure_row(prior_name, str(exc)))
            continue
        elapsed_ms = (time.perf_counter() - started) * 1000.0

        edges_true = truth_cp.edge_count()
        edges_fitted = estimate_cp.edge_count()
        if edges_true > 0:
            normalized = edges_fitted / edges_true
            note = ""
        else:
            normalized = float("nan")
            note = "empty_truth"
        if cell_dir is not None:
            atomic_write_text(cell_dir / f"estimate_{prior_name}.json", estimate_dag.to_json())
        rows.append(
            ResultRow(
                study=config.study,
                prior_name=prior_name,
                density=density,
                n_obs=n_obs,
                replicate=replicate,
                tpr=metrics.tpr,
                fpr=metrics.fpr,
                tnr=1.0 - metrics.fpr,
                edges_true=edges_true,
                edges_fitted=edges_fitted,
                normalized_parents=normalized,
                note=note,
                wall_time_ms=elapsed_ms,
            )
        )
    return rows


def _run_cell_task(args: tuple) -> list[ResultRow]:
    return _run_cell(*args)


def _worker_count(n_tasks: int, workers: int | None) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(int(workers), max(n_tasks, 1)))


def run_study(
    config: StudyConfig,
    runs_dir: str | os.PathLike | None = None,
    workers: int | None = None,
) -> list[ResultRow]:
    """Run every cell of ``config`` and return rows sorted by (prior, density, N, replicate).

    ``runs_dir`` persists each cell's truth, dataset and per-prior estimate
    for later re-evaluation.  Cells run in a process pool when more than one
    worker is available (``workers``, by default the CPU count); the sort
    makes output independent of scheduling.
    """
    replicate_ids = (
        config.replicate_ids if config.replicate_ids is not None else tuple(range(config.replicates))
    )
    runs = None if runs_dir is None else str(runs_dir)
    tasks = [
        (config, density, n_obs, replicate, runs)
        for density in config.densities
        for n_obs in config.sample_sizes
        for replicate in replicate_ids
    ]
    n_workers = _worker_count(len(tasks), workers)
    rows: list[ResultRow] = []
    if n_workers == 1:
        for task in tasks:
            rows.extend(_run_cell_task(task))
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for chunk in pool.map(_run_cell_task, tasks):
                rows.extend(chunk)
    rows.sort(key=lambda r: (r.prior_name, r.density, r.n_obs, r.replicate))
    return rows


def _format_value(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def results_to_csv(rows: Sequence[ResultRow]) -> str:
    """Render rows deterministically; wall-clock time goes to the timings table instead."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_FIELDS)
    for row in rows:
        writer.writerow([_format_value(getattr(row, name)) for name in RESULT_FIELDS])
    return buf.getvalue()


def timings_to_csv(rows: Sequence[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TIMING_FIELDS)
    for row in rows:
        writer.writerow(
            [
                row.study,
                row.prior_name,
                _format_value(row.density),
                row.n_obs,
                row.replicate,
                f"{row.wall_time_ms:.3f}",
            ]
        )
    return buf.getvalue()


def results_from_csv(text: str) -> list[ResultRow]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != RESULT_FIELDS:
        raise ValueError("unexpected results header")
    out = []
    for raw in rows[1:]:
        if not raw:
            continue
        rec = dict(zip(RESULT_FIELDS, raw))
        out.append(
            ResultRow(
                study=rec["study"],
                prior_name=rec["prior_name"],
                density=float(rec["density"]),
                n_obs=int(rec["n_obs"]),
                replicate=int(rec["replicate"]),
                tpr=float(rec["tpr"]),
                fpr=float(rec["fpr"]),
                tnr=float(rec["tnr"]),
                edges_true=int(rec["edges_true"]),
                edges_fitted=int(rec["edges_fitted"]),
                normalized_parents=float(rec["normalized_parents"]),
                note=rec["note"],
            )
        )
    return out


SUMMARY_FIELDS = (
    "study",
    "prior_name",
    "density",
    "n_obs",
    "metric",
    "count",
    "mean",
    "median",
    "q1",
    "q3",
    "lo",
    "hi",
)

SUMMARY_METRICS = ("tpr", "fpr", "tnr", "normalized_parents")


def summarize_rows(rows: Sequence[ResultRow]) -> list[dict]:
    """Per-cell five-number summaries (plus mean/count) of every metric.

    Rows flagged with a note (errors, empty truths) are left out, matching
    how the study figures are drawn from clean replicates only.
    """
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        if row.note:
            continue
        groups.setdefault((row.study, row.prior_name, row.density, row.n_obs), []).append(row)

    out = []
    for key in sorted(groups):
        study, prior_name, density, n_obs = key
        for metric in SUMMARY_METRICS:
            values = [getattr(r, metric) for r in groups[key]]
            values = [v for v in values if math.isfinite(v)]
            if not values:
                continue
            arr = np.asarray(values, dtype=float)
            q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
            out.append(
                {
                    "study": study,
                    "prior_name": prior_name,
                    "density": density,
                    "n_obs": n_obs,
                    "metric": metric,
                    "count": len(values),
                    "mean": float(arr.mean()),
                    "median": float(median),
                    "q1": float(q1),
                    "q3": float(q3),
                    "lo": float(arr.min()),
                    "hi": float(arr.max()),
                }
            )
    return out


def summary_to_csv(summary: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_FIELDS)
    for rec in summary:
        writer.writerow([_format_value(rec[name]) for name in SUMMARY_FIELDS])
    return buf.getvalue()


def summary_from_csv(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != SUMMARY_FIELDS:
        raise ValueError("unexpected summary header")
    out = []
    for raw in rows[1:]:
        if not raw:
            continue
        rec = dict(zip(SUMMARY_FIELDS, raw))
        rec["density"] = float(rec["density"])
        rec["n_obs"] = int(rec["n_obs"])
        rec["count"] = int(rec["count"])
        for name in ("mean", "median", "q1", "q3", "lo", "hi"):
            rec[name] = float(rec[name])
        out.append(rec)
    return out
