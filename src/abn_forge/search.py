"""Exact structure search: the DAG maximising the sum of cached node scores.

Works on the usual two dynamic programs over variable subsets.  First, for
every node j and candidate set C, the best scoring parent set contained in C
(a subset maximum over the cache).  Second, the best network over each
subset S built by peeling off one sink at a time:

    F(empty) = 0
    F(S) = max over j in S of  F(S - {j}) + best(j, S - {j})

The first table holds ranks, not scores: each node's finite cached entries
are ranked by score descending, then mask ascending, so the best parent set
within C is the lowest rank over the subsets of C, a subset minimum over
small unsigned integers.  With at most 255 finite entries per node that is
one byte per (node, mask): 4.7 MB at n=18, where float scores and int64
masks would take 75 MB.  The second program pushes each layer of subsets to
the next, adding about 18 bytes per subset.  A search at n=18 with at most 2
parents takes about 0.1 s on a 2-core x86 host (Python 3.11, numpy 2.4),
and the hard cap of 24 is a statement about the types, not the wall clock.
Ties are broken deterministically: lowest sink index, then lowest parent
bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dag
from .score import ScoreCache


@dataclass
class BestParentTable:
    """Per node: the best cached parent set within every candidate mask, by rank.

    Rank r of node j is its r-th best finite entry (``ranked_score[j, r]``,
    ``ranked_mask[j, r]``); the last rank of every row is the sentinel for
    "no finite entry", scored -inf with mask 0.  Entry (j, C) is only
    meaningful when j is not in C, which is all the search ever asks for.
    """

    n_vars: int
    rank: np.ndarray  # (n, 2^n) lowest rank of any cached subset of the candidate mask
    ranked_score: np.ndarray  # (n, sentinel + 1) the score of each rank
    ranked_mask: np.ndarray  # (n, sentinel + 1) the parent mask of each rank

    @property
    def score(self) -> np.ndarray:
        """(n, 2^n) best score of any cached subset of the candidate mask."""
        return np.take_along_axis(self.ranked_score, self.rank, axis=1)

    @property
    def mask(self) -> np.ndarray:
        """(n, 2^n) the bitmask attaining it (lowest on ties)."""
        return np.take_along_axis(self.ranked_mask, self.rank, axis=1)


def _subset_min(rows: np.ndarray, bits) -> None:
    """In place, each position of every row takes the minimum over all ways to clear some of ``bits``.

    Viewed as (2^(m-b-1), 2, 2^b) for rows of 2^m, axis 1 of a row is bit b,
    so each position with the bit lies over the same position without it.
    """
    for b in bits:
        pair = rows.reshape(len(rows), -1, 2, 1 << b)
        np.minimum(pair[:, :, 0], pair[:, :, 1], out=pair[:, :, 1])


def best_parent_sets(cache: ScoreCache) -> BestParentTable:
    """Rank every node's finite entries, then sweep subset minima of the ranks in place."""
    n = cache.n_vars
    keys = np.array(list(cache.entries), dtype=np.int64).reshape(-1, 2)
    scores = np.array([entry.log_score for entry in cache.entries.values()], dtype=float)
    finite = scores > -np.inf
    nodes, masks, scores = keys[finite, 0], keys[finite, 1], scores[finite]
    order = np.lexsort((masks, -scores, nodes))
    nodes, masks, scores = nodes[order], masks[order], scores[order]
    counts = np.bincount(nodes, minlength=n)
    ranks = np.arange(len(nodes)) - (np.cumsum(counts) - counts)[nodes]
    sentinel = int(counts.max(initial=0))
    rank = np.full((n, 1 << n), sentinel, dtype=np.min_scalar_type(sentinel))
    rank[nodes, masks] = ranks
    ranked_score = np.full((n, sentinel + 1), -np.inf)
    ranked_score[nodes, ranks] = scores
    ranked_mask = np.zeros((n, sentinel + 1), dtype=np.int64)
    ranked_mask[nodes, ranks] = masks
    # subset sweep: once every bit is processed, position C holds the lowest
    # rank over all subsets of C.  numpy runs its inner loop over the last
    # axis, only 2^b long for bit b, so the low half of the bits is swept on
    # a transposed copy, where they are the high bits.
    low = n // 2
    _subset_min(rank, range(low, n))
    grid = rank.reshape(n, 1 << (n - low), 1 << low)
    flipped = np.ascontiguousarray(grid.transpose(0, 2, 1))
    _subset_min(flipped.reshape(n, 1 << n), range(n - low, n))
    grid[...] = flipped.transpose(0, 2, 1)
    return BestParentTable(n_vars=n, rank=rank, ranked_score=ranked_score, ranked_mask=ranked_mask)


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

    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        popcount = np.concatenate((popcount, popcount + 1))
    # every subset, ordered by size and ascending within a size
    by_size = np.argsort(popcount, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(popcount, minlength=n + 1))))

    best = np.full(size, -np.inf)
    best[0] = 0.0
    sink = np.full(size, -1, dtype=np.int8)
    for card in range(n):
        layer = by_size[starts[card] : starts[card + 1]]
        layer_best = best[layer]
        for j in range(n):
            lacks = (layer & (1 << j)) == 0
            rest = layer[lacks]
            grown = rest | (1 << j)
            value = layer_best[lacks] + table.ranked_score[j][table.rank[j][rest]]
            better = value > best[grown]  # strict: the lowest qualifying sink wins ties
            won = grown[better]
            best[won] = value[better]
            sink[won] = j

    parents = [0] * n
    remaining = size - 1
    while remaining:
        j = int(sink[remaining])
        if j < 0:
            raise RuntimeError("search table contains no admissible sink; cache incomplete?")
        rest = remaining ^ (1 << j)
        parents[j] = int(table.ranked_mask[j, table.rank[j, rest]])
        remaining = rest
    # recompute the total in node order so it is bit-identical to any other
    # search that lands on the same structure, whatever its accumulation order
    total = sum(cache.score(j, parents[j]) for j in range(n))
    return SearchResult(dag=Dag(n, tuple(parents)), total_score=float(total))
