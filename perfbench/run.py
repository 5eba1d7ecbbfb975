"""Study-cell benchmark for abn_forge: time one-replicate study cells, check their outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sep_small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (cell_s, setup_s, peak_rss_mb);
``--trace 1`` runs every replicate untraced and traced and prints the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is not
0 when the program cannot be imported from ``src/`` or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, SELF_TIMES, per_layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Untraced runs split the timed cells across this many fresh processes; each
# one's import and warm-up cell is one set-up sample.
SETUP_PROCESSES = 3
# Every worker is done by then, leaving room inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("cell_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows a slow host, normalises nothing."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def run_worker(args, budget: float, first_replicate: int, offset: int, deadline: float) -> tuple[dict, float]:
    """Run one worker process; returns its report and its set-up seconds."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--budget", repr(budget),
        "--first-replicate", str(first_replicate),
        "--warmup-offset", str(offset),
    ]
    if args.trace:
        command += ["--trace-to", str(spans_path(args))]
    spawned = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - spawned


def spans_path(args) -> Path:
    return HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "abn_forge" / "__init__.py").is_file():
        print(f"perfbench: no abn_forge package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    calibration_start = calibrate()
    processes = 1 if args.trace else SETUP_PROCESSES
    reports, setups = [], []
    next_replicate, timed = 0, 0.0
    try:
        for k in range(processes):
            budget = max(0.0, (args.seconds - timed) / (processes - k))
            report, setup = run_worker(args, budget, next_replicate, k, deadline)
            reports.append(report)
            setups.append(setup)
            next_replicate = report["next_replicate"]
            timed += report["timed_s"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    calibration_end = calibrate()

    workload = WORKLOADS[args.workload]
    cells = [cell for report in reports for cell in report["cells"]]
    failed = sum(1 for cell in cells if cell["errors"])
    problems = [f"r{c['replicate']}: {e}" for c in cells for e in c["errors"]]
    problems += [f"warm-up: {e}" for report in reports for e in report["warmup_errors"]]
    if args.trace:
        by_replicate: dict[int, dict[bool, str]] = {}
        for cell in cells:
            by_replicate.setdefault(cell["replicate"], {})[cell["traced"]] = cell["csv"]
        for replicate, pair in by_replicate.items():
            if pair[True] != pair[False]:
                problems.append(f"r{replicate}: traced results differ from untraced")
                failed += 1
    results = "".join(c["csv"] for c in cells if c["traced"] == bool(args.trace))
    digest = hashlib.sha256(results.encode()).hexdigest()

    machine = {
        **reports[0]["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "calibration_start_s": round(calibration_start, 4),
        "calibration_end_s": round(calibration_end, 4),
    }
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload}: {workload.why}")
    print(f"results_sha256 {args.workload} seed {args.seed}: {digest}")

    if args.trace:
        values = per_layer_metrics(cells, workload.n_nodes)
        units = {name: unit for name, unit, _ in PER_LAYER}
        walls = {t: [c["wall_s"] for c in cells if c["traced"] == t] for t in (False, True)}
        n_traced = len(walls[True])
        print(
            f"traced cell_s {statistics.median(walls[True]):.4f} s, untraced "
            f"{statistics.median(walls[False]):.4f} s, over {n_traced} replicates of each"
        )
        accounted = sum(c["layers"][name] for c in cells if c["traced"] for name in SELF_TIMES)
        print(f"layer self times account for {accounted / sum(walls[True]):.4f} of traced cell wall time")
        print(f"spans: {spans_path(args).relative_to(ROOT)}")
    else:
        walls = [c["wall_s"] for c in cells]
        q1, median, q3 = quartiles(walls)
        values = {
            # the mean, not the median: it integrates the host's speed over the
            # whole run (README.md, Steadiness), and a study waits cells times the mean
            "cell_s": statistics.fmean(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(report["peak_rss_mb"] for report in reports),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        print(
            f"cell_s over {len(walls)} cells: mean {values['cell_s']:.4f} s; "
            f"q1 {q1:.4f} s, median {median:.4f} s, q3 {q3:.4f} s"
        )
        print(f"setup_s over {len(setups)} processes: {', '.join(f'{s:.4f}' for s in setups)}")
        entries = sum(c["entries"] for c in cells)
        neg_inf = sum(c["neg_inf"] for c in cells)
        print(f"fit_fail_share {neg_inf / entries:.4f} ({neg_inf} of {entries} fits scored -inf)")

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print(f"correctness: {'ok' if not problems else 'FAILED'} over {len(cells)} cells")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(
        json.dumps(
            {"correct": not problems, "attempted": len(cells), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
