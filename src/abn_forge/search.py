"""Exact structure search: the DAG maximising the sum of cached node scores.

Works on the usual two dynamic programs over variable subsets.  First, for
every node j and candidate set C, the best scoring parent set contained in C
(a subset-sum maximum over the cache).  Second, the best network over each
subset S built by peeling off one sink at a time:

    F(empty) = 0
    F(S) = max over j in S of  F(S - {j}) + best(j, S - {j})

Both tables are arrays indexed by bitmask, so memory and time grow as
n * 2^n; n up to about 16 is comfortable, the hard cap of 24 is a statement
about the types, not the wall clock.  Ties are broken deterministically:
lowest sink index, then lowest parent bitmask.
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
    """Subset-maximum tables over the cache, one pass per node and bit.

    Entry (j, C) is only meaningful when j is not in C, which is all the
    search ever asks for.
    """
    n = cache.n_vars
    size = 1 << n
    score = np.full((n, size), -np.inf)
    mask = np.zeros((n, size), dtype=np.int64)
    candidates = np.arange(size, dtype=np.int64)
    for j in range(n):
        row_score = score[j]
        row_mask = mask[j]
        for (node, m), entry in cache.entries.items():
            if node == j:
                row_score[m] = entry.log_score
                row_mask[m] = m
        # classic subset-sum sweep: after processing bit b, position C holds the
        # best over all subsets of C that differ from C only in bits <= b
        for b in range(n):
            with_bit = candidates[(candidates >> b) & 1 == 1]
            without = with_bit ^ (1 << b)
            better = (row_score[without] > row_score[with_bit]) | (
                (row_score[without] == row_score[with_bit]) & (row_mask[without] < row_mask[with_bit])
            )
            row_score[with_bit] = np.where(better, row_score[without], row_score[with_bit])
            row_mask[with_bit] = np.where(better, row_mask[without], row_mask[with_bit])
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
        layer_best = np.full(len(layer), -np.inf)
        layer_sink = np.full(len(layer), -1, dtype=np.int64)
        for j in range(n):
            has = ((layer >> j) & 1) == 1
            if not has.any():
                continue
            rest = layer[has] ^ (1 << j)
            value = best[rest] + table.score[j][rest]
            current = layer_best[has]
            better = value > current  # strict: the lowest qualifying sink wins ties
            if better.any():
                current = np.where(better, value, current)
                layer_best[has] = current
                new_sink = layer_sink[has]
                new_sink[better] = j
                layer_sink[has] = new_sink
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
