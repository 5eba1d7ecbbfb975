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

import enum
import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._util import as_float, as_int, csv_records, csv_text
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
        object.__setattr__(self, "intercepts", tuple(as_float(v, "intercepts") for v in self.intercepts))
        coef = {(int(p), int(c)): as_float(v, "coef") for (p, c), v in self.edge_coef.items()}
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
        coef = {pair: item["coef"] for pair, item in zip(pairs, edges)}
        intercepts = obj.get("intercepts", [0.0] * n)
        return cls(Dag.from_edges(n, pairs), tuple(intercepts), coef)


class Dataset:
    """An n_obs by n_vars matrix of 0/1 values with columns named X1..Xn."""

    def __init__(self, values: np.ndarray):
        raw = np.asarray(values)
        if raw.ndim != 2:
            raise ValueError("dataset values must be a 2-d array")
        # checked before the cast, which would turn 0.5 into 0 and 256 into 0
        if raw.size and not np.all((raw == 0) | (raw == 1)):
            raise ValueError("dataset values must be 0 or 1")
        values = np.ascontiguousarray(raw, dtype=np.uint8)
        if values.shape[1] > MAX_NODES:
            raise ValueError(f"at most {MAX_NODES} variables supported")
        values.flags.writeable = False
        self.values = values
        # the distinct rows, each packed into one integer (bit k = column k), and their counts
        codes = values.astype(np.int64) @ (1 << np.arange(values.shape[1], dtype=np.int64))
        self._rows, counts = np.unique(codes, return_counts=True)
        self._counts = counts.astype(float)
        # the itemset moments of each size counted so far (see _moments)
        self._levels = []
        # per parent-set size, the keys last asked for and their distinct tables (see distinct_tables)
        self._tables = {}

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]

    def parent_tables(
        self, nodes: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The aggregated designs of ``nodes[i]`` over ``masks[i]``, stacked; every mask has k bits.

        Pattern columns are the intercept, then the parents ascending.  A table's rows are its
        observed configurations, ascending with the first parent most significant (as
        :func:`aggregate_design` sorts), then zero-trial rows up to P, the most any table observes.
        ``successes`` and ``trials`` are (B, P); ``patterns`` is (B, P, k+1), or (1, P, k+1) shared
        when P = 2^k and each table lists every configuration.

        Every call counts its tables anew; :meth:`distinct_tables` keeps a size's tables for the
        score caches.  The counts come from the dataset's itemset moments (:meth:`_moments`), which
        are kept: a key gathers the moments of every subset of its parents, with and without the
        node, and a Mobius inversion over the parent bits turns them into trials and successes per
        configuration.  Moments are whole numbers in float64, so every count is exact,
        and a key costs about 2^(k+1) (k+1) operations however many distinct rows the dataset has,
        plus one binary search among the itemsets per subset of each distinct parent set.
        """
        nodes, masks = np.asarray(nodes, dtype=np.int64), np.asarray(masks, dtype=np.int64)
        n, n_keys, k = self.n_vars, len(masks), int(masks[0]).bit_count()
        configs = 1 << k
        # each configuration's parent bits, the first parent most significant
        bits = (np.arange(configs)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        patterns = np.ones((1, configs, k + 1))
        patterns[0, :, 1:] = bits
        itemsets, moments, joined = self._moments(k)
        # the moment row of every subset of each distinct parent set, one column per set
        sets, inverse = np.unique(masks, return_inverse=True)
        at = np.searchsorted(itemsets, bits @ (1 << _bit_columns(sets, n)).T)
        inverse = inverse.reshape(-1)
        counts = np.empty((n_keys, 2, configs))
        step = max(1, _CHUNK // max(n, 2 * configs))
        for lo in range(0, n_keys, step):
            node, index = nodes[lo : lo + step], at.take(inverse[lo : lo + step], axis=1)
            # the subsets' moments without the node (row 0) and with it (row 1)
            table = np.stack([moments[index], joined[index, node]])
            for b in range(k):  # each configuration drops the weight of its supersets, bit by bit
                pair = table.reshape(2, -1, 2, (1 << b) * len(node))
                pair[:, :, 0] -= pair[:, :, 1]
            counts[lo : lo + step] = table.transpose(2, 0, 1)
        successes, trials = counts[:, 1], counts[:, 0]
        observed = trials > 0
        width = int(observed.sum(axis=1).max(initial=0))
        if width < configs:
            rows = np.argsort(~observed, axis=1, kind="stable")[:, :width]
            successes, trials = (np.take_along_axis(a, rows, axis=1) for a in (successes, trials))
            patterns = patterns[0, rows]
        return patterns, successes, trials

    def distinct_tables(
        self, nodes: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The distinct tables of :meth:`parent_tables` over these keys, and each key's table number.

        Returns ``(patterns, successes, trials, number)``: table ``number[i]`` is key i's, and the
        tables ascend by the bytes of their counts, then of their patterns.  The tables of one
        parent-set size are counted and numbered once, for the keys last asked for at that size, and
        kept while the dataset lives, read-only: a study cell scores every prior on one dataset, and
        each of its score caches asks for every key of every size.
        """
        nodes, masks = np.asarray(nodes, dtype=np.int64), np.asarray(masks, dtype=np.int64)
        size = int(masks[0]).bit_count()
        kept = self._tables.get(size)
        if kept is not None and np.array_equal(kept[0], nodes) and np.array_equal(kept[1], masks):
            return kept[2]
        patterns, successes, trials = self.parent_tables(nodes, masks)
        columns = [successes, trials] if len(patterns) == 1 else [successes, trials, patterns.reshape(len(masks), -1)]
        first, number = _distinct_rows(np.hstack(columns))
        tables = (patterns if len(patterns) == 1 else patterns[first], successes[first], trials[first], number)
        for a in tables:
            a.flags.writeable = False
        self._tables[size] = (nodes.copy(), masks.copy(), tables)
        return tables

    def _moments(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The itemsets T of <= ``size`` bits as ascending masks, with m(T) and ``joined``, m(T | {x}) per x.

        m(T) is the weight of the distinct rows holding every bit of T.  Each size is counted once
        per dataset, when first asked for: its itemsets are those of the size below, each grown by
        a bit above its highest, so their moments are in the ``joined`` of the size below, and only
        its own ``joined`` is counted.
        """
        n, levels = self.n_vars, self._levels
        if len(levels) > size:
            return self._lookup
        while len(levels) <= size:
            if levels:
                # the itemsets below bit x are those under 1 << x, a prefix of the ascending masks
                itemsets, _, joined = levels[-1]
                lengths = np.searchsorted(itemsets, 1 << np.arange(n))
                top = np.repeat(np.arange(n), lengths)
                below = np.arange(len(top)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
                itemsets, moments = itemsets[below] | 1 << top, joined[below, top]
            else:
                itemsets, moments = np.zeros(1, dtype=np.int64), self._counts.sum(keepdims=True)
            joined = np.zeros((len(itemsets), n))
            columns = _bit_columns(itemsets, n).T
            step = max(1, _CHUNK // max(n, len(itemsets)))
            for lo in range(0, len(self._rows), step):
                bits = ((self._rows[lo : lo + step] >> np.arange(n)[:, None]) & 1).astype(float)
                # each distinct row's weight where it holds every bit of an itemset, else 0
                held = self._counts[None, lo : lo + step]
                for column in columns:
                    held = held * bits[column]
                joined += np.einsum("ir,jr->ij", held, bits)
            levels.append((itemsets, moments, joined))
        itemsets, moments, joined = (np.concatenate(a) for a in zip(*levels))
        order = np.argsort(itemsets)
        self._lookup = itemsets[order], moments[order], joined[order]
        return self._lookup

    def to_csv(self) -> str:
        return csv_text([f"X{k + 1}" for k in range(self.n_vars)], self.values.tolist())

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        """Read a dataset written by :meth:`to_csv`; a row of the wrong width or a field other than 0/1 names its line."""
        # the width of the first line neither blank nor a comment, where csv_records looks for the header
        line = next((line for line in text.split("\n") if line.strip() and not line.startswith("#")), "")
        header = [f"X{k + 1}" for k in range(line.count(",") + 1)]
        _, records = csv_records(text, header, dict.fromkeys(header, _zero_one))
        return cls(np.array([rec for _, rec in records], dtype=np.uint8).reshape(-1, len(header)))


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct row of a 2-d float array first stands, and each row's distinct number.

    Rows compare by their bytes, after adding 0.0 turns -0.0 into 0.0, which a float comparison
    holds equal; the distinct rows are numbered in the order of their bytes.
    """
    if not rows.shape[1]:  # the tables of an empty dataset: every row is the empty row
        return np.zeros(min(len(rows), 1), dtype=np.intp), np.zeros(len(rows), dtype=np.intp)
    rows = np.ascontiguousarray(rows + 0.0)
    keyed = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, number = np.unique(keyed, return_index=True, return_inverse=True)
    return first, number.reshape(-1)


def _zero_one(field: str) -> bool:
    if field not in ("0", "1"):
        raise ValueError(f"a field must be 0 or 1, got {field!r}")
    return field == "1"


def _expit(eta: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-eta)), with the C library's exp on every CPU.

    numpy's float64 exp runs a SIMD kernel on AVX-512 CPUs whose last bits differ from the C
    library's exp, so fits and samples would depend on the host.  numpy's complex exp has no
    such kernel, and its real part at ``x + 0j`` is the C library's ``exp(x)``.  Below
    eta = -709 exp(-eta) overflows to inf and the probability is 0: callers silence overflow.
    """
    return 1.0 / (1.0 + np.exp(np.asarray(-eta, dtype=np.complex128)).real)


def _log(x: np.ndarray) -> np.ndarray:
    """The natural log of positive ``x`` by the C library's complex log, on every CPU, as :func:`_expit`."""
    return np.log(np.asarray(x, dtype=np.complex128)).real


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
    integers; a dataset's parent sets go through :meth:`Dataset.parent_tables`.
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
    -x, which pins x'b = 0 inside the linear programs: complete separation is
    then ruled out, and mixed patterns of full column rank leave only b = 0.
    Otherwise a rank-deficient design separates weakly along a flat direction,
    and small HiGHS linear programs (:func:`_separation_lp`) settle the rest.

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
    if mixed.any() and np.linalg.matrix_rank(patterns[mixed]) == d:
        return SeparationStatus.NONE
    signed = np.vstack([patterns[pos], -patterns[neg]])
    if not mixed.any() and _separation_lp(signed, strict=True) > _LP_TOL:
        return SeparationStatus.COMPLETE
    if np.linalg.matrix_rank(patterns) < d or _separation_lp(signed, strict=False) > _LP_TOL:
        return SeparationStatus.QUASI_COMPLETE
    return SeparationStatus.NONE


def _separation_lp(signed: np.ndarray, strict: bool) -> float:
    """The optimum of one separation LP over the signed rows U, found by HiGHS.

    Strict: max t  s.t.  U b >= t, -1 <= b <= 1, t <= 1, positive iff strictly separable.
    Weak: max 1'U b  s.t.  U b >= 0, -1 <= b <= 1, positive iff weakly separable with slack.
    """
    from scipy.optimize import linprog  # scipy loads on the first classification, not on import

    signed = np.unique(signed, axis=0)
    n_rows, d = signed.shape
    if strict:  # over (b, t)
        c, bounds = [0.0] * d + [-1.0], [(-1.0, 1.0)] * d + [(None, 1.0)]
        rows = np.hstack([-signed, np.ones((n_rows, 1))])
    else:
        c, rows, bounds = -signed.sum(axis=0), -signed, [(-1.0, 1.0)] * d
    res = linprog(c=c, A_ub=rows, b_ub=np.zeros(n_rows), bounds=bounds, method="highs")
    if res.status != 0:  # pragma: no cover - HiGHS handles these tiny LPs
        raise RuntimeError(f"separation LP failed: {res.message}")
    return -res.fun
