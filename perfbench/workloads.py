"""The benchmark's workloads: one study-cell shape each.

A timed cell is one replicate of the shape, run through
``abn_forge.run_study(StudyConfig(...), workers=1)`` with ``master_seed`` set
to the benchmark's ``--seed``.  Replicates 0, 1, 2, ... are timed in order, so
every cell draws its own truth and dataset.  README.md says which layers each
workload exercises and which it bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

# StudyConfig validates replicate ids against this count; it does not enter
# the cells' random streams, so its value only has to exceed every id used.
REPLICATES = 100_000
# Warm-up cells take ids from the top of the range, away from the timed ones.
WARMUP_REPLICATE = REPLICATES - 1


@dataclass(frozen=True)
class Workload:
    why: str
    study: str
    n_nodes: int
    density: float
    n_obs: int
    priors: tuple[str, ...]
    max_parents: int | None = None

    def config_kwargs(self, seed: int, replicate: int) -> dict:
        """Keyword arguments of the ``StudyConfig`` for one replicate of this shape."""
        return dict(
            study=self.study,
            n_nodes=self.n_nodes,
            densities=(self.density,),
            sample_sizes=(self.n_obs,),
            replicates=REPLICATES,
            replicate_ids=(replicate,),
            priors=self.priors,
            max_parents=self.max_parents,
            master_seed=seed,
        )

    def warmup(self) -> "Workload":
        """The shape of the warm-up cell: at most one parent per node.

        It runs every layer at the workload's n, N and priors, so lazy set-up
        that depends on them is paid before timing, at a fraction of a cell's
        scoring cost.
        """
        return replace(self, max_parents=1)

    def cache_entries(self) -> int:
        """Parent sets scored per prior: n * sum_{j <= k} C(n - 1, j)."""
        k = self.n_nodes - 1 if self.max_parents is None else self.max_parents
        return self.n_nodes * sum(comb(self.n_nodes - 1, j) for j in range(k + 1))


WORKLOADS = {
    "sep_small": Workload(
        why="separation study, n=5, N=100, wi+st: separation LPs and repeated tables dominate scoring",
        study="separation",
        n_nodes=5,
        density=0.8,
        n_obs=100,
        priors=("wi", "st"),
    ),
    "dense_large": Workload(
        why="lindley study, n=7, N=10000, k=2, wi+st+si: aggregation and IRLS dominate, every table is unique",
        study="lindley",
        n_nodes=7,
        density=0.8,
        n_obs=10000,
        priors=("wi", "st", "si"),
        max_parents=2,
    ),
    "wide_sparse": Workload(
        why="lindley study, n=18, N=1000, k=2, st: parent-mask scans and the n*2^n search tables dominate",
        study="lindley",
        n_nodes=18,
        density=0.15,
        n_obs=1000,
        priors=("st",),
        max_parents=2,
    ),
}
