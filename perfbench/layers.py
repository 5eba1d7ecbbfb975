"""Layer tracing from outside abn_forge, and the per-layer metrics built from it.

``Tracer.install`` replaces layer functions with wrappers that record spans
(name, start, end, parent span, cell id) in memory.  The wrappers go on the
module attributes the program looks up at call time, so no file under
``src/`` changes.  A layer's self time is its span's duration minus the
durations of its child spans; summed over all layers plus the cell's own
self time it is exactly the traced cell's wall time.

This module imports nothing from abn_forge, so run.py can use its metric
tables without paying for the program's imports.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import contextmanager

CELL = "experiments.cell"

# (module, attribute) pairs wrapped while tracing; the span is "module.attribute".
TRACED = (
    ("experiments", "sample"),
    ("experiments", "build_score_cache"),
    ("experiments", "exact_search"),
    ("experiments", "to_cpdag"),
    ("experiments", "compare"),
    ("score", "separation_of_patterns"),
    ("score", "_fit_aggregated"),
    ("score", "_laplace_value"),
    ("score", "parent_masks"),
    ("search", "best_parent_sets"),
)

# Self-time metric -> the spans whose self time it sums.
SELF_TIMES = {
    "data.sample_s": ("experiments.sample",),
    "data.separation_s": ("score.separation_of_patterns",),
    "score.aggregate_s": ("experiments.build_score_cache",),
    "score.irls_s": ("score._fit_aggregated",),
    "score.laplace_s": ("score._laplace_value",),
    "score.parent_masks_s": ("score.parent_masks",),
    "search.best_parents_s": ("search.best_parent_sets",),
    "search.sink_dp_s": ("experiments.exact_search",),
    "graph.cpdag_compare_s": ("experiments.to_cpdag", "experiments.compare"),
    "experiments.cell_self_s": (CELL,),
}

FAILURE_KINDS = ("saddle", "nonconverged", "singular", "other")

# Every metric the traced run reports: (name, unit, better).  Times and counts
# are per cell (times the median over traced cells, counts the mean); shares
# pool all traced cells.
PER_LAYER = (
    ("data.separation_s", "s", "lower"),
    ("data.separation_calls", "count", "lower"),
    ("data.separated_share", "ratio", "lower"),
    ("score.irls_s", "s", "lower"),
    ("score.irls_sweeps", "count", "lower"),
    ("score.sweeps_per_fit_max", "count", "lower"),
    ("score.laplace_s", "s", "lower"),
    ("score.aggregate_s", "s", "lower"),
    ("score.parent_masks_s", "s", "lower"),
    ("score.fits", "count", "lower"),
    ("score.unique_table_share", "ratio", "lower"),
    ("score.fit_fail_share", "ratio", "lower"),
    *((f"score.fit_failed.{kind}", "count", "lower") for kind in FAILURE_KINDS),
    ("search.best_parents_s", "s", "lower"),
    ("search.sink_dp_s", "s", "lower"),
    ("search.table_bytes", "bytes", "lower"),
    ("graph.cpdag_compare_s", "s", "lower"),
    ("data.sample_s", "s", "lower"),
    ("experiments.cell_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _table_digest(patterns, successes, trials) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(patterns.shape).encode())
    for array in (patterns, successes, trials):
        h.update(array.tobytes())
    return h.hexdigest()


class Tracer:
    """Spans kept in memory while installed; ``remove`` puts the originals back."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[dict] = []
        self._cell: str | None = None
        self.spans: list[dict] = []

    def install(self) -> None:
        for module_name, attr in TRACED:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def cell(self, cell_id: str):
        """The root span of one cell; every span opened inside carries ``cell_id``."""
        self._cell = cell_id
        span = self._open(CELL)
        try:
            yield
        finally:
            self._close(span)
            self._cell = None

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "cell": self._cell,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "score.parent_masks":
            # materialise the generator so its scan is timed inside the span
            def wrapped(*args, **kwargs):
                span = tracer._open(name)
                try:
                    return list(fn(*args, **kwargs))
                finally:
                    tracer._close(span)

        elif name == "score._fit_aggregated":
            def wrapped(patterns, successes, trials, *args, **kwargs):
                table = _table_digest(patterns, successes, trials)
                span = tracer._open(name)
                span["table"] = table
                try:
                    fit = fn(patterns, successes, trials, *args, **kwargs)
                finally:
                    tracer._close(span)
                span["sweeps"] = fit.iterations
                return fit

        elif name == "score.separation_of_patterns":
            def wrapped(*args, **kwargs):
                span = tracer._open(name)
                try:
                    status = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                span["separated"] = status.value != "none"
                return status

        else:
            def wrapped(*args, **kwargs):
                span = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span)

        return wrapped


def summarize_cell(spans: list[dict]) -> dict:
    """Self times and work counts of one traced cell, from its spans."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
    self_time: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        self_time[span["name"]] = self_time.get(span["name"], 0.0) + own

    fits = [s for s in spans if s["name"] == "score._fit_aggregated"]
    separations = [s for s in spans if s["name"] == "score.separation_of_patterns"]
    sweeps = [s["sweeps"] for s in fits if "sweeps" in s]
    # a memo could only reuse a table within one cache build, so count distinct
    # tables per build_score_cache span
    tables = {(s["parent"], s["table"]) for s in fits}
    out = {
        metric: sum(self_time.get(name, 0.0) for name in names)
        for metric, names in SELF_TIMES.items()
    }
    out.update(
        {
            "fits": len(fits),
            "irls_sweeps": sum(sweeps),
            "sweeps_max": max(sweeps, default=0),
            "unique_tables": len(tables),
            "separation_calls": len(separations),
            "separated": sum(1 for s in separations if s.get("separated")),
        }
    )
    return out


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(cells: list[dict], n_vars: int) -> dict[str, float]:
    """The PER_LAYER metrics over the traced cells of a run.

    ``cells`` are the worker's cell records; the traced ones carry a
    ``layers`` summary.  Tracing overhead compares the traced cells with the
    untraced run of the same replicates.
    """
    traced = [c for c in cells if c["traced"]]
    untraced = [c for c in cells if not c["traced"]]
    layers = [c["layers"] for c in traced]

    def mean(key: str) -> float:
        return statistics.fmean(layer[key] for layer in layers)

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in SELF_TIMES}
    fits = sum(layer["fits"] for layer in layers)
    metrics.update(
        {
            "data.separation_calls": mean("separation_calls"),
            "data.separated_share": _share(
                sum(layer["separated"] for layer in layers),
                sum(layer["separation_calls"] for layer in layers),
            ),
            "score.irls_sweeps": mean("irls_sweeps"),
            "score.sweeps_per_fit_max": max(layer["sweeps_max"] for layer in layers),
            "score.fits": mean("fits"),
            "score.unique_table_share": _share(sum(layer["unique_tables"] for layer in layers), fits),
            "score.fit_fail_share": _share(
                sum(c["neg_inf"] for c in traced), sum(c["entries"] for c in traced)
            ),
            "search.table_bytes": 2 * n_vars * 2**n_vars * 8,
            "trace.overhead_s": statistics.median(c["wall_s"] for c in traced)
            - statistics.median(c["wall_s"] for c in untraced),
        }
    )
    for kind in FAILURE_KINDS:
        metrics[f"score.fit_failed.{kind}"] = statistics.fmean(c["fit_failed"][kind] for c in traced)
    return {name: metrics[name] for name, _, _ in PER_LAYER}
