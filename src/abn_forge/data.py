"""Binary datasets: parameterised networks, forward sampling, designs, and separation checks.

A fitted network is a DAG plus one logistic regression per node: an intercept
and one coefficient per parent, all on the logit scale.  Sampling walks a
topological order and draws each column given its parents.

The separation diagnostics classify a node's design/response pair as ``none``,
``quasi_complete`` or ``complete`` in the sense of Albert and Anderson: does
some direction in coefficient space separate successes from failures strictly
(complete), or only weakly but not trivially (quasi-complete)?  Separated
likelihoods have no finite maximum, which is exactly the regime where the
choice of prior starts to matter.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._util import as_int
from .graph import MAX_NODES, Dag, _bit_columns, _edge_pairs, topological_order

_LP_TOL = 1e-7
# the element count that bounds the working arrays of moment counting, table building and fitting
_CHUNK = 1 << 18


@dataclass(frozen=True)
class AbnParams:
    """A DAG with logit-scale parameters: per-node intercepts and per-edge coefficients.

    ``edge_coef`` maps (parent, child) pairs to slopes and must cover exactly
    the edges of ``dag``.
    """

    dag: Dag
    intercepts: tuple[float, ...]
    edge_coef: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intercepts", tuple(float(v) for v in self.intercepts))
        coef = {(int(p), int(c)): float(v) for (p, c), v in self.edge_coef.items()}
        object.__setattr__(self, "edge_coef", coef)
        if len(self.intercepts) != self.dag.n:
            raise ValueError("need one intercept per node")
        if set(coef) != set(self.dag.edges()):
            raise ValueError("edge coefficients must cover exactly the edges of the DAG")
        values = list(self.intercepts) + list(coef.values())
        if not all(np.isfinite(values)):
            raise ValueError("parameters must be finite")

    @classmethod
    def uniform(cls, dag: Dag, edge_coef: float = 5.0, intercept: float = 0.0) -> "AbnParams":
        """One shared slope on every edge and one shared intercept everywhere."""
        return cls(dag, (float(intercept),) * dag.n, {e: float(edge_coef) for e in dag.edges()})

    @classmethod
    def balanced(cls, dag: Dag, edge_coef: float = 5.0) -> "AbnParams":
        """One shared slope, with each node's intercept centering its logit.

        The intercept of a node with k parents is -k * edge_coef / 2, so a
        node whose parents are half on sits at probability 1/2.  Without the
        centering, nodes deep in a dense network saturate toward 1 and the
        rare parent configurations needed to identify their edges never show
        up in a finite sample.
        """
        coef = float(edge_coef)
        intercepts = tuple(-coef * mask.bit_count() / 2.0 for mask in dag.parents)
        return cls(dag, intercepts, {e: coef for e in dag.edges()})

    @property
    def n(self) -> int:
        return self.dag.n

    def to_json(self) -> str:
        obj = {
            "n": self.dag.n,
            "edges": [
                {"from": p, "to": c, "coef": self.edge_coef[(p, c)]} for p, c in self.dag.edges()
            ],
            "intercepts": list(self.intercepts),
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AbnParams":
        obj = json.loads(text)
        n = as_int(obj["n"], "n")
        edges = obj.get("edges", [])
        if not all(isinstance(item, dict) and "coef" in item for item in edges):
            raise ValueError("parameter files need edges as objects with from/to/coef")
        pairs = _edge_pairs(edges)
        coef = {pair: float(item["coef"]) for pair, item in zip(pairs, edges)}
        intercepts = obj.get("intercepts", [0.0] * n)
        return cls(Dag.from_edges(n, pairs), tuple(float(v) for v in intercepts), coef)


class Dataset:
    """An n_obs by n_vars matrix of 0/1 values with columns named X1..Xn."""

    def __init__(self, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.uint8)
        if values.ndim != 2:
            raise ValueError("dataset values must be a 2-d array")
        if values.size and not np.isin(values, (0, 1)).all():
            raise ValueError("dataset values must be 0 or 1")
        if values.shape[1] > MAX_NODES:
            raise ValueError(f"at most {MAX_NODES} variables supported")
        values.flags.writeable = False
        self.values = values
        # the distinct rows, each packed into one integer (bit k = column k), and their counts
        codes = values.astype(np.int64) @ (1 << np.arange(values.shape[1], dtype=np.int64))
        self._rows, counts = np.unique(codes, return_counts=True)
        self._counts = counts.astype(float)
        # the itemset moments of each size counted so far, and the itemsets of the last (see _moments)
        self._levels, self._grow = [self._counts.sum(keepdims=True)], []
        self._itemsets = np.zeros((1, 0), dtype=np.int64)
        # the read-only tables of each parent_tables call, by the bytes of its keys
        self._table_store: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]

    def parent_table(self, node: int, parent_mask: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One node's aggregated design over ``parent_mask``: (patterns, successes, trials).

        The one-key case of :meth:`parent_tables`: the observed configurations, and no padding.  It
        is counted afresh and not kept, so that classifying entries one by one stores no tables.
        """
        if not 0 <= node < self.n_vars:
            raise ValueError(f"node {node} out of range")
        if (parent_mask >> node) & 1:
            raise ValueError(f"node {node} cannot be its own parent")
        if parent_mask & ~((1 << self.n_vars) - 1):
            raise ValueError("parent mask references variables beyond the dataset")
        return tuple(table[0] for table in self._count_tables(np.array([node]), np.array([parent_mask])))

    def parent_tables(
        self, nodes: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The aggregated designs of ``nodes[i]`` over ``masks[i]``, stacked; every mask has k bits.

        Pattern columns are the intercept, then the parents ascending.  A table's rows are its
        observed configurations, ascending with the first parent most significant (as
        :func:`aggregate_design` sorts), then zero-trial rows up to P, the most any table observes.
        ``successes`` and ``trials`` are (B, P); ``patterns`` is (B, P, k+1), or (1, P, k+1) shared
        when P = 2^k and each table lists every configuration.

        The tables of one set of keys are counted once per dataset (:meth:`_count_tables`) and
        kept, read-only, for every later call with the same keys, as the score caches of a
        dataset's priors ask for the same tables.  :meth:`parent_table` keeps nothing.
        """
        nodes, masks = np.asarray(nodes, dtype=np.int64), np.asarray(masks, dtype=np.int64)
        key = (nodes.tobytes(), masks.tobytes())
        tables = self._table_store.get(key)
        if tables is None:
            tables = self._table_store[key] = self._count_tables(nodes, masks)
            for table in tables:
                table.flags.writeable = False
        return tables

    def _count_tables(
        self, nodes: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tables of :meth:`parent_tables`, counted afresh.

        The counts come from the dataset's itemset moments (:meth:`_moments`), not from its rows: a
        key gathers the moments of every subset of its parents, with and without the node, and a
        Mobius inversion over the parent bits turns them into trials and successes per
        configuration.  Moments are whole numbers in float64, so every count is exact, and a key
        costs about 2^(k+1) (k+1) operations however many distinct rows the dataset has.
        """
        n, n_keys, k = self.n_vars, len(masks), int(masks[0]).bit_count()
        configs = 1 << k
        # each configuration's parent bits, and how many are set
        bits = (np.arange(configs)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        patterns, sizes = np.ones((1, configs, k + 1)), bits.sum(axis=1)
        patterns[0, :, 1:] = bits
        moments, grow = self._moments(k + 1)
        counts = np.empty((n_keys, 2, configs))
        step = max(1, _CHUNK // max(n, 2 * configs))
        for lo in range(0, n_keys, step):
            chunk = slice(lo, lo + step)
            node, parents = nodes[chunk], _bit_columns(masks[chunk], n).T
            grow_node, grow_parents = grow.T[:, node], grow.T[:, parents]
            # the moment index of every subset of a key's parents (row 0) and of it with the node
            # (row 1), one column per key.  Parent j joins as bit k-1-j, ascending, so it tops each
            # subset so far; with the node, it tops the subset if the node lies below it, and
            # otherwise the node tops the grown subset.
            index = np.empty((2, configs, len(node)), dtype=np.int32)
            index[0, 0], index[1, 0] = 0, grow_node[0]
            for j in range(k):
                stride = configs >> j
                half = stride >> 1
                size, grown_size = sizes[::stride], sizes[half::stride]
                grown = np.add(index[0, ::stride], grow_parents[size, j], out=index[0, half::stride])
                np.add(grown, grow_node[grown_size], out=index[1, half::stride])
                above = parents[j] > node
                np.add(index[1, ::stride], grow_parents[grown_size, j], out=index[1, half::stride], where=above)
            table = moments[index]
            for b in range(k):  # each configuration drops the weight of its supersets, bit by bit
                pair = table.reshape(2, -1, 2, (1 << b) * len(node))
                pair[:, :, 0] -= pair[:, :, 1]
            counts[chunk] = table.transpose(2, 0, 1)
        successes, trials = counts[:, 1], counts[:, 0]
        observed = trials > 0
        width = int(observed.sum(axis=1).max(initial=0))
        if width < configs:
            rows = np.argsort(~observed, axis=1, kind="stable")[:, :width]
            successes, trials = (np.take_along_axis(a, rows, axis=1) for a in (successes, trials))
            patterns = patterns[0, rows]
        return patterns, successes, trials

    def _moments(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """m(T), the weight of the distinct rows holding every bit of T, for each itemset T of <= ``depth`` bits.

        Itemsets lie by size, and within a size in ascending mask order, which is colex order: T with
        bits t_1 < ... < t_c sits at ``offset(c) + C(t_1, 1) + ... + C(t_c, c)``, where ``offset(c)``
        counts the itemsets of fewer bits.  So bit x joining a c-bit itemset as its highest moves its
        position by ``grow[x, c] = C(x, c + 1) + C(n_vars, c)``; both arrays are returned.  Each size
        is counted once per dataset, when first asked for, from the itemsets of the size below.
        """
        n, levels = self.n_vars, self._levels
        if len(levels) > depth:
            return self._tables
        while len(levels) <= depth:
            # size c + 1 from the c-bit itemsets: those below bit x are the first C(x, c), and x tops each
            c = len(levels) - 1
            lengths = np.array([math.comb(x, c) for x in range(n)])
            starts = np.cumsum(lengths) - lengths  # C(x, c + 1)
            top = np.repeat(np.arange(n), lengths)
            below = np.arange(len(top)) - np.repeat(starts, lengths)
            level = np.zeros(len(top))
            step = max(1, _CHUNK // max(n, len(self._itemsets)))
            for lo in range(0, len(self._rows), step):
                bits = ((self._rows[lo : lo + step] >> np.arange(n)[:, None]) & 1).astype(float)
                # each distinct row's weight where it holds every bit of a c-bit itemset, else 0
                held = self._counts[None, lo : lo + step]
                for column in self._itemsets.T:
                    held = held * bits[column]
                level += np.einsum("ir,jr->ij", held, bits)[below, top]
            self._grow.append(starts + len(levels[-1]))
            self._itemsets = np.column_stack([self._itemsets[below], top])
            levels.append(level)
        self._tables = np.concatenate(levels), np.column_stack(self._grow).astype(np.int32)
        return self._tables

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"X{k + 1}" for k in range(self.n_vars)])
        for row in self.values:
            writer.writerow([int(v) for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty dataset file")
        header = rows[0]
        expected = [f"X{k + 1}" for k in range(len(header))]
        if header != expected:
            raise ValueError(f"dataset header must be {expected[:3]}..., got {header[:3]}")
        body = [r for r in rows[1:] if r]
        if any(len(r) != len(header) for r in body):
            raise ValueError("ragged dataset rows")
        values = np.array([[int(v) for v in r] for r in body], dtype=np.uint8)
        if values.size == 0:
            values = values.reshape(0, len(header))
        return cls(values)


def _expit(eta: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-eta)), with the C library's exp on every CPU.

    numpy's float64 exp runs a SIMD kernel on AVX-512 CPUs whose last bits differ from the C
    library's exp, so fits and samples would depend on the host.  numpy's complex exp has no
    such kernel, and its real part at ``x + 0j`` is the C library's ``exp(x)``.  Below
    eta = -709 exp(-eta) overflows to inf and the probability is 0: callers silence overflow.
    """
    return 1.0 / (1.0 + np.exp(np.asarray(-eta, dtype=np.complex128)).real)


@np.errstate(over="ignore")  # see _expit
def sample(params: AbnParams, n_obs: int, rng: np.random.Generator) -> Dataset:
    """Forward-sample ``n_obs`` rows from the network.

    Columns are generated in topological order, each from a logistic model in
    its already-sampled parents, consuming one uniform per (row, node).
    """
    if n_obs < 0:
        raise ValueError("n_obs must be nonnegative")
    n = params.n
    values = np.zeros((n_obs, n), dtype=np.uint8)
    for node in topological_order(params.dag):
        parents = params.dag.parent_list(node)
        coefs = [params.edge_coef[(parent, node)] for parent in parents]
        if 1 << len(parents) <= n_obs:
            # the logit of each parent configuration (bit j = parent j), then each row's: the
            # logistic runs 2^k times, not n_obs times, on the same sums as below
            eta = np.full(1, params.intercepts[node])
            config = np.zeros(n_obs, dtype=np.intp)
            for j, (parent, coef) in enumerate(zip(parents, coefs)):
                eta = np.concatenate([eta, eta + coef])
                config |= values[:, parent].astype(np.intp) << j
            p = _expit(eta)[config]
        else:
            eta = np.full(n_obs, params.intercepts[node])
            for parent, coef in zip(parents, coefs):
                eta = eta + coef * values[:, parent]
            p = _expit(eta)
        values[:, node] = rng.random(n_obs) < p
    return Dataset(values)


class SeparationStatus(enum.Enum):
    NONE = "none"
    QUASI_COMPLETE = "quasi_complete"
    COMPLETE = "complete"


def aggregate_design(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate design rows to (unique rows, successes, trials).

    The Bernoulli likelihood only sees counts per distinct predictor pattern,
    so fits and separation may work on the collapsed system.  ``np.unique``
    sorts, which also makes the result independent of row order.  This is
    the path for free designs (``score.fit_node``, :func:`separation_of_design`),
    whose columns need not be 0/1 data columns and so cannot be packed into
    integers; a dataset's parent set goes through :meth:`Dataset.parent_table`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be 2-d with one response per row")
    if X.shape[0] == 0:
        return X.copy(), np.zeros(0), np.zeros(0)
    uniq, inverse = np.unique(X, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    trials = np.bincount(inverse, minlength=len(uniq)).astype(float)
    successes = np.bincount(inverse, weights=y, minlength=len(uniq))
    return uniq, successes, trials


def separation_of_design(X: np.ndarray, y: np.ndarray) -> SeparationStatus:
    """Albert-Anderson classification of an arbitrary design/response pair."""
    uniq, successes, trials = aggregate_design(X, y)
    return separation_of_patterns(uniq, successes, trials)


def separation_of_patterns(
    patterns: np.ndarray, successes: np.ndarray, trials: np.ndarray
) -> SeparationStatus:
    """Separation status from an aggregated design.

    Works on the signed rows u = s * x (s = +1 for an observed success, -1
    for an observed failure): complete separation means some b satisfies
    u'b > 0 for every row, quasi-complete means some b != 0 satisfies
    u'b >= 0 for every row.  A pattern with both outcomes contributes +x and
    -x, forcing x'b = 0, which rules complete separation out immediately and
    confines weak separators to the null space of the mixed patterns; the
    remaining questions are settled by small HiGHS linear programs (see
    :func:`_strict_margin` and :func:`_weak_slack`) and SVD rank checks.

    A one-sided response (all successes or all failures, including the empty
    design) is complete by convention: any direction through the intercept
    separates it.
    """
    if len(trials) == 0:
        return SeparationStatus.COMPLETE
    pos = successes > 0
    neg = successes < trials
    if not pos.any() or not neg.any():
        return SeparationStatus.COMPLETE
    d = patterns.shape[1]
    mixed = pos & neg

    if not mixed.any():
        signed = np.vstack([patterns[pos], -patterns[neg]])
        if _strict_margin(signed) > _LP_TOL:
            return SeparationStatus.COMPLETE
        if _weak_slack(signed) > _LP_TOL:
            return SeparationStatus.QUASI_COMPLETE
        if np.linalg.matrix_rank(patterns) < d:
            return SeparationStatus.QUASI_COMPLETE
        return SeparationStatus.NONE

    # A mixed pattern pins x'b = 0, so only weak separation remains possible,
    # and only inside the null space of the mixed patterns.
    null_basis = _null_space(patterns[mixed])
    if null_basis.shape[1] == 0:
        return SeparationStatus.NONE
    pure = ~mixed
    if not pure.any():
        return SeparationStatus.QUASI_COMPLETE  # any null direction separates weakly
    sign = np.where(successes[pure] > 0, 1.0, -1.0)
    projected = (patterns[pure] * sign[:, None]) @ null_basis
    if _weak_slack(projected) > _LP_TOL:
        return SeparationStatus.QUASI_COMPLETE
    # all-equality separators are flat directions of the full design
    if np.linalg.matrix_rank(patterns) < d:
        return SeparationStatus.QUASI_COMPLETE
    return SeparationStatus.NONE


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``rows`` (columns of the result)."""
    m, d = rows.shape
    _, sv, vt = np.linalg.svd(rows)
    tol = (sv.max() * max(m, d) * np.finfo(float).eps) if len(sv) and sv.max() > 0 else 0.0
    rank = int((sv > tol).sum())
    return vt[rank:].T


def _strict_margin(signed: np.ndarray) -> float:
    """Optimum of: max t  s.t.  U b >= t, -1 <= b <= 1, t <= 1.  Positive iff strictly separable."""
    from scipy.optimize import linprog  # scipy loads on the first classification, not on import

    signed = np.unique(signed, axis=0)
    n_rows, d = signed.shape
    res = linprog(
        c=[0.0] * d + [-1.0],
        A_ub=np.hstack([-signed, np.ones((n_rows, 1))]),
        b_ub=np.zeros(n_rows),
        bounds=[(-1.0, 1.0)] * d + [(None, 1.0)],
        method="highs",
    )
    if res.status != 0:  # pragma: no cover - HiGHS handles these tiny LPs
        raise RuntimeError(f"separation LP failed: {res.message}")
    return -res.fun


def _weak_slack(signed: np.ndarray) -> float:
    """Optimum of: max 1'U b  s.t.  U b >= 0, -1 <= b <= 1.  Positive iff weakly separable with slack."""
    from scipy.optimize import linprog

    signed = np.unique(signed, axis=0)
    if signed.shape[1] == 0:
        return 0.0
    res = linprog(
        c=-signed.sum(axis=0),
        A_ub=-signed,
        b_ub=np.zeros(signed.shape[0]),
        bounds=[(-1.0, 1.0)] * signed.shape[1],
        method="highs",
    )
    if res.status != 0:  # pragma: no cover
        raise RuntimeError(f"separation LP failed: {res.message}")
    return -res.fun
