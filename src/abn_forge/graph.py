"""Directed acyclic graphs on small node sets, their equivalence classes, and recovery metrics.

Nodes are the integers ``0 .. n-1`` and every parent set is a bitmask over
them, so a whole DAG is just a tuple of ``n`` ints.  That representation keeps
subset manipulation cheap for the exhaustive score tables and the exact
search, which index caches by ``(node, parent_mask)``.

The module also knows how to reduce a DAG to its completed partially directed
acyclic graph (CPDAG, the representative of its Markov equivalence class) and
how to compare two CPDAGs edge by edge, which is what the simulation studies
report.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._util import as_int

MAX_NODES = 24


class CyclicGraphError(ValueError):
    """Raised when a parent assignment contains a directed cycle."""


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _bit_columns(masks: np.ndarray, n: int) -> np.ndarray:
    """The set bits of each of ``masks`` (all below 2^n, all with k bits), ascending, as a (len, k) array."""
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    return (np.flatnonzero(bits) % n).reshape(len(bits), -1)


def _kahn_order(parents: tuple[int, ...]) -> list[int] | None:
    """Topological order of ``parents`` (lowest ready index first), or None on a cycle."""
    n = len(parents)
    remaining = list(parents)
    placed = 0  # bitmask of emitted nodes
    order: list[int] = []
    for _ in range(n):
        ready = [j for j in range(n) if not (placed >> j) & 1 and remaining[j] & ~placed == 0]
        if not ready:
            return None
        j = ready[0]
        order.append(j)
        placed |= 1 << j
    return order


def is_acyclic(parents: tuple[int, ...] | list[int]) -> bool:
    """Whether the parent-mask assignment describes a DAG."""
    return _kahn_order(tuple(parents)) is not None


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph stored as one parent bitmask per node.

    ``parents[j]`` has bit ``k`` set iff there is an edge ``k -> j``.

    Examples
    --------
    >>> g = Dag.from_edges(3, [(0, 2), (1, 2)])
    >>> g.parents
    (0, 0, 3)
    >>> g.edges()
    [(0, 2), (1, 2)]
    """

    n: int
    parents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_NODES:
            raise ValueError(f"node count must be in 1..{MAX_NODES}, got {self.n}")
        if len(self.parents) != self.n:
            raise ValueError("need exactly one parent mask per node")
        object.__setattr__(self, "parents", tuple(int(m) for m in self.parents))
        full = (1 << self.n) - 1
        for j, mask in enumerate(self.parents):
            if mask & ~full:
                raise ValueError(f"parent mask of node {j} references nodes >= {self.n}")
            if (mask >> j) & 1:
                raise ValueError(f"node {j} lists itself as a parent")
        if not is_acyclic(self.parents):
            raise CyclicGraphError("parent assignment contains a directed cycle")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Dag":
        masks = [0] * n
        for parent, child in edges:
            parent, child = int(parent), int(child)
            if not (0 <= parent < n and 0 <= child < n):
                raise ValueError(f"edge ({parent}, {child}) out of range for n={n}")
            masks[child] |= 1 << parent
        return cls(n, tuple(masks))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (parent, child) pairs, sorted."""
        return sorted((p, c) for c, mask in enumerate(self.parents) for p in _bits(mask))

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.parents)

    def parent_list(self, node: int) -> list[int]:
        return _bits(self.parents[node])

    def to_json(self) -> str:
        obj = {"n": self.n, "edges": [[p, c] for p, c in self.edges()]}
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Dag":
        obj = json.loads(text)
        return cls.from_edges(as_int(obj["n"], "n"), _edge_pairs(obj.get("edges", [])))


def _edge_pairs(raw) -> list[tuple[int, int]]:
    """Accept edges either as [from, to] pairs or {"from":, "to":} objects, with integer ends, none twice."""
    ends = [(item["from"], item["to"]) if isinstance(item, dict) else item for item in raw]
    pairs = [(as_int(a, "edge from"), as_int(b, "edge to")) for a, b in ends]
    if repeated := [pair for i, pair in enumerate(pairs) if pair in pairs[:i]]:
        raise ValueError(f"edge {repeated[0]} is listed twice")  # the last entry would silently win
    return pairs


def topological_order(dag: Dag) -> list[int]:
    """A topological order of ``dag``; lowest index first among ties.

    ``Dag`` construction already rejects cycles, so for any constructed value
    this always succeeds; raw masks can be checked with :func:`is_acyclic`.
    """
    order = _kahn_order(dag.parents)
    if order is None:  # unreachable for a validated Dag, kept for raw callers
        raise CyclicGraphError("graph contains a directed cycle")
    return order


def random_dag(n: int, density: float, rng: np.random.Generator) -> Dag:
    """Draw a random DAG: uniform node order, then each forward edge kept with ``density``.

    The draw consumes a permutation and one uniform per node pair in a fixed
    order, so a given generator state always yields the same graph.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in 1..{MAX_NODES}, got {n}")
    order = [int(v) for v in rng.permutation(n)]
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                masks[order[j]] |= 1 << order[i]
    return Dag(n, tuple(masks))


@dataclass(frozen=True)
class Cpdag:
    """A completed partially directed acyclic graph.

    ``directed`` holds compelled edges as (from, to); ``undirected`` holds
    reversible ones as (a, b) with a < b.  The two sets never share a node
    pair.
    """

    n: int
    directed: frozenset[tuple[int, int]]
    undirected: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_NODES:
            raise ValueError(f"node count must be in 1..{MAX_NODES}, got {self.n}")
        object.__setattr__(self, "directed", frozenset((int(a), int(b)) for a, b in self.directed))
        object.__setattr__(self, "undirected", frozenset((int(a), int(b)) for a, b in self.undirected))
        pairs = set()
        for a, b in self.directed:
            if a == b or not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"bad directed edge ({a}, {b})")
            pairs.add((min(a, b), max(a, b)))
        for a, b in self.undirected:
            if not a < b or not 0 <= a < self.n or not b < self.n:
                raise ValueError(f"undirected edge ({a}, {b}) must satisfy 0 <= a < b < n")
            if (a, b) in pairs:
                raise ValueError(f"pair ({a}, {b}) is both directed and undirected")
        if len(pairs) != len(self.directed):
            raise ValueError("directed edge set contains a two-cycle")

    def edge_count(self) -> int:
        return len(self.directed) + len(self.undirected)

    def skeleton(self) -> frozenset[tuple[int, int]]:
        """All adjacent pairs as (a, b) with a < b."""
        return frozenset({(min(a, b), max(a, b)) for a, b in self.directed} | set(self.undirected))

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "edges": [[a, b] for a, b in sorted(self.directed)],
            "undirected": [[a, b] for a, b in sorted(self.undirected)],
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Cpdag":
        obj = json.loads(text)
        return cls(
            as_int(obj["n"], "n"),
            frozenset(_edge_pairs(obj.get("edges", []))),
            frozenset(_edge_pairs(obj.get("undirected", []))),
        )


def parse_graph_json(text: str):
    """Load a graph file as a Dag, or a Cpdag when an ``undirected`` key is present."""
    obj = json.loads(text)
    if "undirected" in obj:
        return Cpdag.from_json(text)
    return Dag.from_json(text)


def to_cpdag(dag: Dag) -> Cpdag:
    """Reduce ``dag`` to its Markov equivalence class representative.

    Orients the edges of every v-structure (a -> c <- b with a, b not
    adjacent), then closes under the Meek rules; everything else stays
    undirected.  Rule four never fires without background knowledge, so only
    rules one to three are applied.
    """
    n = dag.n
    adj: list[set[int]] = [set() for _ in range(n)]
    for child, mask in enumerate(dag.parents):
        for p in _bits(mask):
            adj[p].add(child)
            adj[child].add(p)

    directed: set[tuple[int, int]] = set()
    for child, mask in enumerate(dag.parents):
        ps = _bits(mask)
        for a, b in itertools.combinations(ps, 2):
            if b not in adj[a]:
                directed.add((a, child))
                directed.add((b, child))

    undirected = {
        (min(p, c), max(p, c))
        for c, mask in enumerate(dag.parents)
        for p in _bits(mask)
        if (p, c) not in directed
    }
    _close_meek(adj, directed, undirected)
    return Cpdag(n, frozenset(directed), frozenset(undirected))


def _close_meek(adj: list[set[int]], directed: set[tuple[int, int]], undirected: set[tuple[int, int]]) -> None:
    """Apply Meek rules 1-3 to a fixpoint, moving pairs from ``undirected`` to ``directed``."""

    def orient(a: int, b: int) -> None:
        undirected.discard((min(a, b), max(a, b)))
        directed.add((a, b))

    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected):
            for x, y in ((a, b), (b, a)):
                # R1: z -> x, z not adjacent to y  =>  x -> y
                if any((z, x) in directed and z not in adj[y] for z in adj[x]):
                    orient(x, y)
                    changed = True
                    break
                # R2: directed path x -> z -> y  =>  x -> y
                if any((x, z) in directed and (z, y) in directed for z in adj[x] & adj[y]):
                    orient(x, y)
                    changed = True
                    break
                # R3: x - z1 -> y, x - z2 -> y, z1 not adjacent to z2  =>  x -> y
                spokes = [
                    z
                    for z in adj[x] & adj[y]
                    if (min(x, z), max(x, z)) in undirected and (z, y) in directed
                ]
                if any(z2 not in adj[z1] for z1, z2 in itertools.combinations(spokes, 2)):
                    orient(x, y)
                    changed = True
                    break
            if changed:
                break


@dataclass(frozen=True)
class Metrics:
    """Edge-recovery rates of a predicted CPDAG against a true one."""

    tpr: float
    fpr: float
    true_edges: int
    predicted_edges: int


def compare(predicted: Cpdag, truth: Cpdag, skeleton_only: bool = False) -> Metrics:
    """Score ``predicted`` against ``truth`` pair by pair.

    A predicted pair counts as a true positive when the pair is adjacent in
    the truth and the orientations are compatible (an undirected edge on
    either side matches anything); with ``skeleton_only`` orientation is
    ignored.  A pair absent from the truth skeleton is a false positive, so a
    wrongly oriented true pair is neither.  TPR has the true edge count as
    denominator, FPR the remaining pairs; an empty truth gives TPR 1.0 when
    nothing was predicted and 0.0 otherwise.
    """
    if predicted.n != truth.n:
        raise ValueError(f"node counts differ: {predicted.n} vs {truth.n}")
    n = predicted.n

    def orientation_map(g: Cpdag) -> dict[tuple[int, int], tuple[int, int] | None]:
        out: dict[tuple[int, int], tuple[int, int] | None] = {}
        for a, b in g.directed:
            out[(min(a, b), max(a, b))] = (a, b)
        for a, b in g.undirected:
            out[(a, b)] = None
        return out

    pred = orientation_map(predicted)
    true = orientation_map(truth)

    tp = 0
    fp = 0
    for pair, direction in pred.items():
        if pair in true:
            if skeleton_only or direction is None or true[pair] is None or direction == true[pair]:
                tp += 1
        else:
            fp += 1

    n_true = len(true)
    n_pairs = n * (n - 1) // 2
    if n_true == 0:
        tpr = 1.0 if len(pred) == 0 else 0.0
    else:
        tpr = tp / n_true
    negatives = n_pairs - n_true
    fpr = fp / negatives if negatives > 0 else 0.0
    return Metrics(tpr=tpr, fpr=fpr, true_edges=n_true, predicted_edges=len(pred))
