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
small unsigned integers.  C never holds j, so node j's row covers only the
2^(n-1) masks over the other nodes.  With at most 255 finite entries per node
that is one byte per (node, mask): 2.4 MB at n=18, where float scores and
int64 masks over all 2^n masks would take 75 MB.  The second program pushes
each layer of subsets to the next.  It keeps one float per subset and no
sink table, and finds the sinks again on the way back; its traced allocations
peak at about 15 bytes per subset at n=16-20 (8 for that float, the rest the
index and value arrays of the widest layer).  A search at n=18 with at most
2 parents takes about 0.06 s on a 2-core x86 host (Python 3.11, numpy 2.4),
and the hard cap of 24 is a statement about the types, not the wall clock.  Ties are broken
deterministically: lowest sink index, then lowest parent bitmask.
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
    "no finite entry", scored -inf with mask 0.  Row j of ``rank`` is indexed
    by a candidate mask over the other n - 1 nodes, with bit j squeezed out
    (:func:`_squeeze`).
    """

    n_vars: int
    rank: np.ndarray  # (n, 2^(n-1)) lowest rank of any cached subset, by squeezed candidate mask
    ranked_score: np.ndarray  # (n, sentinel + 1) the score of each rank
    ranked_mask: np.ndarray  # (n, sentinel + 1) the full parent mask of each rank


def _squeeze(mask, node):
    """``mask`` with bit ``node`` removed and the bits above it moved down one.

    It keeps both the order of masks and the subset relation between them.
    """
    low = (1 << node) - 1
    return (mask & low) | ((mask >> 1) & ~low)


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
    ranked_score = np.full((n, sentinel + 1), -np.inf)
    ranked_score[nodes, ranks] = scores
    ranked_mask = np.zeros((n, sentinel + 1), dtype=np.int64)
    ranked_mask[nodes, ranks] = masks
    # subset sweep: once every bit is processed, position C holds the lowest
    # rank over all subsets of C.  numpy runs its inner loop over the last
    # axis, only 2^b long for bit b, so the table is filled transposed, with
    # the low half of the bits as its high bits, swept over them, and swept
    # over the high half after one transposing copy.
    m = n - 1
    low = m // 2
    squeezed = _squeeze(masks, nodes)
    flipped = np.full((n, 1 << low, 1 << (m - low)), sentinel, dtype=np.min_scalar_type(sentinel))
    flipped[nodes, squeezed & ((1 << low) - 1), squeezed >> low] = ranks
    _subset_min(flipped.reshape(n, 1 << m), range(m - low, m))
    rank = np.ascontiguousarray(flipped.transpose(0, 2, 1)).reshape(n, 1 << m)
    _subset_min(rank, range(low, m))
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
    table = best_parent_sets(cache)

    # the size of every candidate mask over n - 1 bits
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(n - 1):
        popcount = np.concatenate((popcount, popcount + 1))

    best = np.full(1 << n, -np.inf)
    best[0] = 0.0
    for card in range(n):
        # the candidate masks of this size, read around each sink j in turn
        xs = np.flatnonzero(popcount == card)
        ranks = table.rank[:, xs]
        for j in range(n):
            rest = xs + (xs & -(1 << j))  # a zero bit inserted at j
            grown = rest | (1 << j)
            value = best.take(rest) + table.ranked_score[j].take(ranks[j])
            best[grown] = np.maximum(best.take(grown), value)

    # peel sinks off the full set again: a sink of S is a j whose value, the
    # same float add as above, equals best[S], and the lowest one wins ties
    remaining = (1 << n) - 1
    if best[remaining] == -np.inf:
        raise RuntimeError("search table contains no admissible sink; cache incomplete?")
    parents = [0] * n
    while remaining:
        for j in range(n):
            rest = remaining ^ (1 << j)
            if rest < remaining:
                r = table.rank[j, _squeeze(rest, j)]
                if best[rest] + table.ranked_score[j, r] == best[remaining]:
                    break
        parents[j] = int(table.ranked_mask[j, r])
        remaining = rest
    # recompute the total in node order so it is bit-identical to any other
    # search that lands on the same structure, whatever its accumulation order
    total = sum(cache.score(j, parents[j]) for j in range(n))
    return SearchResult(dag=Dag(n, tuple(parents)), total_score=float(total))
