"""Paired comparison of the st and wi priors in the committed study results.

Every cell of a study draws one truth and one dataset and scores it under each
prior, so the priors can be compared replicate by replicate.  For each cell
group (study, density, N) and metric this prints how many replicates give st a
higher value than wi, a lower one or the same, and a two-sided sign test of
higher against lower (ties dropped).  st beats wi where it is higher on tpr
and lower on fpr; normalized_parents has no better side, its target being 1.

    python results/paired.py [results.csv ...]

With no arguments it reads the two results CSVs next to this script.  It
needs the standard library alone.
"""

from __future__ import annotations

import csv
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_INPUTS = ("separation_n10_results.csv", "lindley_n10_results.csv")
METRICS = ("tpr", "fpr", "normalized_parents")


def sign_test(higher: int, lower: int) -> float:
    """Two-sided exact sign test: the chance of a split at least this uneven under p = 1/2."""
    n = higher + lower
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(higher, lower) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def paired_lines(path: Path) -> list[str]:
    # (study, density, N) -> metric -> replicate -> prior -> value
    values = defaultdict(lambda: defaultdict(lambda: defaultdict(dict)))
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            if row["prior_name"] not in ("st", "wi") or row["note"].startswith("error"):
                continue
            group = (row["study"], float(row["density"]), int(row["n_obs"]))
            for metric in METRICS:
                values[group][metric][int(row["replicate"])][row["prior_name"]] = float(row[metric])
    lines = []
    for (study, density, n_obs), metrics in sorted(values.items()):
        for metric in METRICS:
            pairs = [
                (by_prior["st"], by_prior["wi"])
                for by_prior in metrics[metric].values()
                if len(by_prior) == 2 and not any(math.isnan(v) for v in by_prior.values())
            ]
            if not pairs:
                continue
            higher = sum(st > wi for st, wi in pairs)
            lower = sum(st < wi for st, wi in pairs)
            st_median = statistics.median(st for st, _ in pairs)
            wi_median = statistics.median(wi for _, wi in pairs)
            lines.append(
                f"{study:<10} {density:>7g} {n_obs:>6} {metric:<18} {len(pairs):>5} "
                f"{st_median:>9.3f} {wi_median:>9.3f} {higher:>9} {lower:>8} "
                f"{len(pairs) - higher - lower:>5} {sign_test(higher, lower):>9.2g}"
            )
    return lines


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or [HERE / name for name in DEFAULT_INPUTS]
    print(
        f"{'study':<10} {'density':>7} {'N':>6} {'metric':<18} {'pairs':>5} "
        f"{'st_median':>9} {'wi_median':>9} {'st_higher':>9} {'st_lower':>8} {'ties':>5} {'sign_p':>9}"
    )
    for path in paths:
        for line in paired_lines(path):
            print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
