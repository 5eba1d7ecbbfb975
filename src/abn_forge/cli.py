"""Command line front end: simulate, score, search, evaluate, study, summarize.

Each invocation runs exactly one pipeline stage, writes its outputs atomically
and prints a one-line summary.  Exit codes: 0 success, 1 usage error, 2
runtime failure (unreadable files, malformed inputs, failed runs).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._util import atomic_write_text
from .data import AbnParams, Dataset, SeparationStatus, sample
from .experiments import (
    StudyConfig,
    bad_hyperparameters,
    hyperparameters,
    results_from_csv,
    results_to_csv,
    run_study,
    summarize_rows,
    summary_to_csv,
    timings_to_csv,
)
from .graph import Cpdag, Dag, compare, parse_graph_json, to_cpdag
from .score import _PRIORS, PRIOR_HYPERPARAMETERS, ScoreCache, build_score_cache, prior_from_name
from .search import exact_search
from .svg import render_summary_svg


class CliError(Exception):
    """Carries the intended process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); usage problems are exit 1 here
        raise CliError(1, f"{self.prog}: {message}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse(path: str, parser, what: str):
    try:
        return parser(_read_text(path))
    except CliError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(2, f"malformed {what} in {path}: {exc}") from exc


def _as_cpdag(graph) -> Cpdag:
    return to_cpdag(graph) if isinstance(graph, Dag) else graph


def _build_parser() -> _Parser:
    parser = _Parser(prog="abn-forge", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="forward-sample a dataset from network parameters")
    p.add_argument("--params", required=True, help="parameter JSON (n, edges with coefs, intercepts)")
    p.add_argument("--n-obs", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="dataset CSV to write")

    p = sub.add_parser("score", help="score every candidate parent set of every node")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--prior", required=True, choices=list(_PRIORS))
    p.add_argument("--si-truth", help="parameter JSON with the generating truth (required for si)")
    p.add_argument("--max-parents", type=int, default=None)
    for name in PRIOR_HYPERPARAMETERS:
        p.add_argument("--" + name.replace("_", "-"), type=float, default=getattr(StudyConfig, name))
    p.add_argument("--out", required=True, help="score cache CSV to write")

    p = sub.add_parser("search", help="exact best-scoring DAG for a score cache")
    p.add_argument("--cache", required=True, help="score cache CSV")
    p.add_argument("--out", required=True, help="DAG JSON to write")

    p = sub.add_parser("evaluate", help="compare an estimated graph against a truth graph")
    p.add_argument("--truth", required=True, help="graph or parameter JSON")
    p.add_argument("--estimate", required=True, help="graph JSON")
    p.add_argument("--skeleton-only", action="store_true", help="ignore edge orientations")

    p = sub.add_parser("study", help="run a full simulation study from a config file")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    p.add_argument("--out", required=True, help="results CSV to write")
    p.add_argument("--runs-dir", default=None, help="where to persist per-replicate artifacts")
    p.add_argument("--workers", type=int, default=None, help="worker processes (default: cpu count)")

    p = sub.add_parser("summarize", help="aggregate result rows into per-cell summaries")
    p.add_argument("--in", dest="results", required=True, help="results CSV")
    p.add_argument("--out", required=True, help="summary CSV to write")
    p.add_argument("--svg", default=None, help="also render summary plots to this SVG file")

    return parser


def _cmd_simulate(args) -> None:
    params = _parse(args.params, AbnParams.from_json, "parameter file")
    dataset = sample(params, args.n_obs, np.random.default_rng(args.seed))
    atomic_write_text(args.out, dataset.to_csv())
    print(f"wrote {args.out}: {dataset.n_obs} rows x {dataset.n_vars} vars (seed {args.seed})")


def _cmd_score(args) -> None:
    if bad := bad_hyperparameters(args):
        flags = ", ".join("--" + name.replace("_", "-") for name in bad)
        raise CliError(2, f"abn-forge score: {flags} must be finite and positive")
    dataset = _parse(args.data, Dataset.from_csv, "dataset")
    truth = None
    if args.prior == "si":
        if not args.si_truth:
            raise CliError(1, "abn-forge score: --si-truth is required with --prior si")
        truth = _parse(args.si_truth, AbnParams.from_json, "parameter file")
    try:
        prior = prior_from_name(args.prior, truth=truth, **hyperparameters(args))
        cache = build_score_cache(dataset, prior, args.max_parents)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    atomic_write_text(args.out, cache.to_csv())
    # to_csv classified every entry, so the tally reads the statuses it wrote
    tally = Counter(cache.separation().tolist())
    separation = ", ".join(f"{tally[status]} {status.value}" for status in SeparationStatus)
    print(
        f"wrote {args.out}: {cache.total_entries()} entries for {cache.n_vars} nodes "
        f"(prior: {prior.describe()}; {len(cache.diagnostics)} failed fits; "
        f"separation: {separation})"
    )


def _cmd_search(args) -> None:
    cache = _parse(args.cache, ScoreCache.from_csv, "score cache")
    result = exact_search(cache)
    atomic_write_text(args.out, result.dag.to_json())
    print(
        f"wrote {args.out}: {result.dag.edge_count()} edges, "
        f"total log score {result.total_score:.6f}"
    )


def _cmd_evaluate(args) -> None:
    truth = _as_cpdag(_parse(args.truth, parse_graph_json, "graph file"))
    estimate = _as_cpdag(_parse(args.estimate, parse_graph_json, "graph file"))
    try:
        metrics = compare(estimate, truth, skeleton_only=args.skeleton_only)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    print(f"tpr={metrics.tpr:.3f} fpr={metrics.fpr:.3f}")


def _cmd_study(args) -> None:
    if args.workers is not None and args.workers < 1:
        raise CliError(1, f"abn-forge study: --workers must be at least 1, got {args.workers}")
    config = _parse(args.config, StudyConfig.from_json, "study config")
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    out = Path(args.out)
    runs_dir = Path(args.runs_dir) if args.runs_dir else out.parent / "runs"
    try:
        rows = run_study(config, runs_dir=runs_dir, workers=args.workers)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    atomic_write_text(out, results_to_csv(rows))
    timings_path = out.with_name(out.stem + "_timings" + (out.suffix or ".csv"))
    atomic_write_text(timings_path, timings_to_csv(rows))
    failures = sum(1 for r in rows if r.note.startswith("error"))
    print(
        f"wrote {out}: {len(rows)} rows ({config.study}, seed {config.master_seed}, "
        f"{failures} failed cells); timings in {timings_path}, artifacts in {runs_dir}"
    )
    if failures:
        raise CliError(1, f"{failures} failed cells; their rows in {out} carry an 'error: ...' note")


def _cmd_summarize(args) -> None:
    rows = _parse(args.results, results_from_csv, "results table")
    summary = summarize_rows(rows)
    atomic_write_text(args.out, summary_to_csv(summary))
    line = f"wrote {args.out}: {len(summary)} summary rows"
    if args.svg:
        if not summary:
            print("warning: empty summary, rendering empty axes", file=sys.stderr)
        atomic_write_text(args.svg, render_summary_svg(summary))
        line += f"; plots in {args.svg}"
    print(line)


_HANDLERS = {
    "simulate": _cmd_simulate,
    "score": _cmd_score,
    "search": _cmd_search,
    "evaluate": _cmd_evaluate,
    "study": _cmd_study,
    "summarize": _cmd_summarize,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # noqa: BLE001 - anything unexpected is a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
