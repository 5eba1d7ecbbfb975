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
sink table, and finds the sinks again on the way back.  From n=16 on, that
table is cut into rows of 128 subsets, so that its steps move whole rows
rather than floats scattered over the table (:func:`_sink_table`): at n=18
the table (2 MB) and the rank table (2.4 MB) no longer fit a 2 MB L2 cache.
Its traced allocations peak at about 12 bytes per subset at n=16-20 (8 for
that float, the rest a transposed copy of the widest layer of rows and the
value arrays of one step).  A search at n=18 with at most 2 parents takes
about 0.034 s (medians of 7 processes: 0.030-0.037 s) on a shared 2-core x86
host (Python 3.11.7, numpy 2.4.6), and the hard cap of 24 is a statement
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
    finite = cache.log_score > -np.inf
    nodes, masks, scores = cache.nodes[finite], cache.masks[finite], cache.log_score[finite]
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


# The sink DP's table is one row of 2^n subsets for n below _ONE_ROW_BELOW,
# and rows of 2^_BLOCK_BITS subsets from there on (see _sink_table).  Rows
# cost more numpy calls per subset, and on a 2-core x86 host they first pay
# at n=16 (a fifth faster there, twice as fast at n=18); 6 to 8 bits per row
# run within a few percent of each other at n=16-20.
_ONE_ROW_BELOW = 16
_BLOCK_BITS = 7


def _popcounts(bits: int) -> np.ndarray:
    """The number of set bits of every mask over ``bits`` bits, as int8."""
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(bits):
        popcount = np.concatenate((popcount, popcount + 1))
    return popcount


def _low_steps(b: int):
    """Per size, the masks over b - 1 bits of that size, a low sink's candidates with its bit squeezed out, and their pushes."""
    popcount = _popcounts(b - 1)
    for card in range(b):
        xs = np.flatnonzero(popcount == card)
        yield xs, _pushes(xs, b)


def _pushes(xs: np.ndarray, b: int):
    """Per low sink j, the low parts ``xs`` with a zero bit inserted at j, and the same with j set."""
    for j in range(b):
        rest = xs + (xs & -(1 << j))  # a zero bit inserted at j
        yield rest, rest | (1 << j)


def _sink_table(table: BestParentTable, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The best network's score over every subset, as rows of 2^b subsets, and the row of each high part.

    A subset S has a high part S >> b, which picks its row, and a low part,
    which picks its column.  The rows are ordered by the size of their high
    part, so that each such layer is one contiguous block that only reads the
    layers before it.  Each layer takes two steps, :func:`_high_sinks` and
    :func:`_low_sinks`.  A max is exact, so the table holds the same floats
    whatever the order.  With b = n it is one row, the first step does
    nothing and the second is the push over every subset.
    """
    h = table.n_vars - b
    popcount = _popcounts(h)
    order = np.argsort(popcount, kind="stable")  # the high part of each row
    starts = np.searchsorted(popcount[order], np.arange(h + 2)).tolist()
    row_of = np.empty_like(order)
    row_of[order] = np.arange(1 << h)
    best = np.full((1 << h, 1 << b), -np.inf)
    best[0, 0] = 0.0
    low_steps = _low_steps(b)
    if h:
        # every layer walks the same pushes; a table of one row walks them
        # once, as they are made, so it holds one push's index arrays at a time
        low_steps = [(xs, list(pushes)) for xs, pushes in low_steps]
    for size in range(h + 1):
        lo, hi = starts[size], starts[size + 1]
        if size:
            _high_sinks(table, best, row_of, order[lo:hi], lo, b)
        if b:
            _low_sinks(table, best[lo:hi], order[lo:hi], b, low_steps)
    return best, row_of


def _high_sinks(table: BestParentTable, best, row_of, highs, lo: int, b: int) -> None:
    """Each row H of ``highs``, from row ``lo`` on, takes the best over its high sinks j of row H - {j} plus j's scores.

    Squeezing a high bit out of a subset leaves its low part alone, so j's
    ranks over a whole row are one contiguous run of ``rank[j]``.
    """
    h = table.n_vars - b
    # node j's ranks by squeezed high part (a run per row) and low part
    runs = table.rank.reshape(table.n_vars, -1, 1 << b)
    layer = best[lo:lo + len(highs)]
    # every (high bit, row of the layer holding it), by bit
    sinks, at = np.nonzero((highs >> np.arange(h)[:, None]) & 1)
    rest = highs[at] ^ (1 << sinks)
    rest_rows = row_of[rest]
    squeezed = _squeeze(rest, sinks)
    bounds = np.searchsorted(sinks, np.arange(h + 1)).tolist()
    for high in range(h):
        a, z = bounds[high], bounds[high + 1]
        if a < z:
            j = b + high
            value = best.take(rest_rows[a:z], 0)
            value += table.ranked_score[j].take(runs[j].take(squeezed[a:z], 0))
            into = at[a:z]
            np.maximum(value, layer.take(into, 0), out=value)
            layer[into] = value


def _low_sinks(table: BestParentTable, layer, highs, b: int, low_steps) -> None:
    """The push over the low ``b`` bits, on every row of ``layer`` (high parts ``highs``) at once.

    It runs on a transposed copy of the layer, a row per low part, so every
    gather moves one low part of all the rows; a layer of one row is pushed
    in place.
    """
    # low sink j's ranks by high part and squeezed low part
    ranks = table.rank.reshape(table.n_vars, -1, 1 << (b - 1))[:b]
    if len(highs) == 1:
        block, ranks = layer[0], ranks[:, highs[0]]
    else:
        block = layer.T.copy()
        ranks = ranks.take(highs, axis=1).transpose(0, 2, 1).copy()
    for xs, pushes in low_steps:
        size_ranks = ranks.take(xs, 1)
        for j, (rest, grown) in enumerate(pushes):
            value = block.take(rest, 0) + table.ranked_score[j].take(size_ranks[j])
            block[grown] = np.maximum(block.take(grown, 0), value)
    if len(highs) > 1:
        layer[...] = block.T


def exact_search(cache: ScoreCache) -> SearchResult:
    """Globally best-scoring DAG under the cache, by sink-peeling over subsets.

    Returns the unique optimum under the deterministic tie-breaks (lowest
    sink index, lowest parent bitmask), so equal inputs give bit-equal
    outputs.
    """
    n = cache.n_vars
    table = best_parent_sets(cache)
    b = n if n < _ONE_ROW_BELOW else min(n, _BLOCK_BITS)
    best, row_of = _sink_table(table, b)
    low = (1 << b) - 1

    def best_of(subset):
        return best[row_of[subset >> b], subset & low]

    # peel sinks off the full set again: a sink of S is a j whose value, the
    # same float add as in the table, equals best_of(S), and the lowest one wins ties
    remaining = (1 << n) - 1
    if best_of(remaining) == -np.inf:
        raise RuntimeError("search table contains no admissible sink; cache incomplete?")
    parents = [0] * n
    while remaining:
        target = best_of(remaining)
        for j in range(n):
            rest = remaining ^ (1 << j)
            if rest < remaining:
                r = table.rank[j, _squeeze(rest, j)]
                if best_of(rest) + table.ranked_score[j, r] == target:
                    break
        parents[j] = int(table.ranked_mask[j, r])
        remaining = rest
    # recompute the total in node order so it is bit-identical to any other
    # search that lands on the same structure, whatever its accumulation order
    total = sum(cache.score(j, parents[j]) for j in range(n))
    return SearchResult(dag=Dag(n, tuple(parents)), total_score=float(total))
