"""One benchmark process: import abn_forge from the checkout, warm up, then time study cells.

run.py starts this script once per set-up sample; it is not meant to be run
by hand.  The process imports the package from ``src/`` next to this
directory, runs one warm-up cell, notes the moment it became ready, then runs
replicates ``--first-replicate``, ``+1``, ... until about ``--budget`` seconds
of timed cells have passed (at least one cell).  With ``--trace-to`` every
replicate runs twice, untraced and traced, in alternating order, so the pair
gives both the tracing overhead and a byte-for-byte check that tracing
changed no result.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import abn_forge  # noqa: E402
from abn_forge import StudyConfig, experiments, results_to_csv, run_study, score, search  # noqa: E402
from abn_forge.graph import is_acyclic  # noqa: E402

from layers import FAILURE_KINDS, Tracer, summarize_cell  # noqa: E402
from workloads import WARMUP_REPLICATE, WORKLOADS, Workload  # noqa: E402


class Capture:
    """Pass-through wrappers that keep each cell's score caches and search results.

    They stay installed for the whole process, under any tracing wrappers, so
    traced and untraced cells are checked the same way.
    """

    def __init__(self) -> None:
        self.caches: list = []
        self.searches: list = []
        build, search_fn = experiments.build_score_cache, experiments.exact_search

        def build_score_cache(*args, **kwargs):
            cache = build(*args, **kwargs)
            self.caches.append(cache)
            return cache

        def exact_search(cache, *args, **kwargs):
            result = search_fn(cache, *args, **kwargs)
            self.searches.append((cache, result))
            return result

        experiments.build_score_cache = build_score_cache
        experiments.exact_search = exact_search

    def clear(self) -> None:
        self.caches.clear()
        self.searches.clear()


def failure_kind(message: str) -> str:
    """Classify one ``ScoreCache.diagnostics`` message."""
    if message.startswith("weighted system singular"):
        return "singular"
    if message.startswith("no convergence"):
        return "nonconverged"
    if message == "non-finite log score":
        return "saddle"
    return "other"


def check_cell(workload: Workload, rows, capture: Capture) -> list[str]:
    """Everything that must hold for one cell's outputs; returns the violations."""
    errors = [f"{r.prior_name}: {r.note}" for r in rows if r.note.startswith("error:")]
    if len(rows) != len(workload.priors):
        errors.append(f"{len(rows)} result rows for {len(workload.priors)} priors")
    if len(capture.caches) != len(workload.priors) or len(capture.searches) != len(workload.priors):
        errors.append(f"{len(capture.caches)} caches and {len(capture.searches)} searches")
    expected = workload.cache_entries()
    for cache in capture.caches:
        if cache.total_entries() != expected:
            errors.append(f"cache holds {cache.total_entries()} entries, expected {expected}")
    for cache, result in capture.searches:
        parents = result.dag.parents
        total = sum(cache.score(j, parents[j]) for j in range(cache.n_vars))
        if total != result.total_score:
            errors.append(f"total_score {result.total_score!r} != sum of node scores {total!r}")
        if not is_acyclic(parents):
            errors.append(f"search returned a cyclic graph {parents}")
    return errors


def run_cell(workload: Workload, seed: int, replicate: int, capture: Capture, tracer: Tracer | None) -> dict:
    config = StudyConfig(**workload.config_kwargs(seed, replicate))
    capture.clear()
    if tracer is None:
        started = time.perf_counter()
        rows = run_study(config, workers=1)
        wall = time.perf_counter() - started
    else:
        first_span = len(tracer.spans)
        tracer.install()
        try:
            with tracer.cell(f"r{replicate}"):
                rows = run_study(config, workers=1)
        finally:
            tracer.remove()
        root = tracer.spans[first_span]
        wall = root["end"] - root["start"]

    entries = [entry for cache in capture.caches for entry in cache.entries.values()]
    fit_failed = dict.fromkeys(FAILURE_KINDS, 0)
    for cache in capture.caches:
        for _node, _mask, message in cache.diagnostics:
            fit_failed[failure_kind(message)] += 1
    record = {
        "replicate": replicate,
        "traced": tracer is not None,
        "wall_s": wall,
        "csv": results_to_csv(rows),
        "errors": check_cell(workload, rows, capture),
        "entries": len(entries),
        "neg_inf": sum(1 for entry in entries if entry.log_score == float("-inf")),
        "fit_failed": fit_failed,
    }
    if tracer is not None:
        record["layers"] = summarize_cell(tracer.spans[first_span:])
    capture.clear()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--first-replicate", type=int, required=True)
    parser.add_argument("--warmup-offset", type=int, default=0)
    parser.add_argument("--trace-to", help="trace every replicate and write the spans to this file")
    args = parser.parse_args(argv)

    source = Path(abn_forge.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"abn_forge imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    capture = Capture()
    warmup = run_cell(workload.warmup(), args.seed, WARMUP_REPLICATE - args.warmup_offset, capture, None)
    ready = time.monotonic()

    tracer = Tracer({"experiments": experiments, "score": score, "search": search}) if args.trace_to else None
    cells: list[dict] = []
    replicate = args.first_replicate
    started = time.perf_counter()
    elapsed = 0.0
    # start another replicate only if it is expected to end nearer the budget
    # than stopping now would, so a run's length stays close to --seconds
    while not cells or elapsed + elapsed / (replicate - args.first_replicate) / 2 < args.budget:
        if tracer is None:
            cells.append(run_cell(workload, args.seed, replicate, capture, None))
        else:
            order = (None, tracer) if replicate % 2 == 0 else (tracer, None)
            cells.extend(run_cell(workload, args.seed, replicate, capture, t) for t in order)
        replicate += 1
        elapsed = time.perf_counter() - started

    if tracer is not None:
        out = Path(args.trace_to)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(
        json.dumps(
            {
                "ready": ready,
                "timed_s": elapsed,
                "next_replicate": replicate,
                "warmup_errors": warmup["errors"],
                "cells": cells,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "versions": {
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                    "abn_forge": abn_forge.__version__,
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
