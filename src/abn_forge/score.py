"""Per-node scores: penalised logistic fits and Laplace-approximate log marginal likelihoods.

Each candidate parent set of each node gets a Bayesian logistic regression
(intercept plus one slope per parent) under one of three prior families:

* ``GaussianPrior`` - independent normals, the weakly-informative default
  being mean 0 and variance 1000 per coefficient;
* ``StudentTPrior`` - independent t distributions, by default Cauchy with
  scale 2.5 on slopes and 10 on the intercept;
* ``StrongGaussianPrior`` - normals centred on the generating parameters with
  small variance, for studies where the truth is known.

Fitting maximises the exact log posterior by Newton's method (iteratively
reweighted least squares) with the prior folded in as pseudo-observations.
Each fit starts from its data, as GLM fitting does: one penalised weighted
least-squares step from the fitted probabilities ``(s + 1/2) / (t + 1)`` of its
table rows, with the prior at its centre.  Every sweep then steps on the exact
negative Hessian.  For the t family that Hessian need not be positive
definite; where it has no Cholesky factor the sweep takes an EM step instead,
replacing the t prior by its conditional Gaussian with working variance
``(df * scale^2 + (coef - loc)^2) / (df + 1)``, which shares the posterior's
stationary points.  Steps that would decrease the log posterior are halved.

The node score is the Laplace approximation at the mode

    log p(y | b) + log p(b) + d/2 log(2 pi) - 1/2 log det H

with H the negative Hessian of the log posterior.  Duplicate design rows are
aggregated into (pattern, successes, trials) counts first; the posterior is
unchanged and binary designs collapse to at most 2^parents patterns, shared by every parent
set of one size.  A cache fits the parent sets of all sizes as stacked Newton problems; every
stack gives each fit a row of its own, padded to the widest of the stack (see :func:`_stack`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Union

import numpy as np

from ._util import as_int, csv_records, csv_text
from .data import (
    _CHUNK,
    AbnParams,
    Dataset,
    SeparationStatus,
    _distinct_rows,
    _expit,
    _log,
    aggregate_design,
    separation_of_patterns,
)
from .graph import MAX_NODES, _bit_columns

LOG_2PI = math.log(2.0 * math.pi)
# a fit has converged once no coefficient moves by TOL in a sweep
TOL = 1e-8
MAX_ITER = 200


class PriorTerms(NamedTuple):
    """A coefficient prior for a stack of fits: rows of normal means and variances, one per fit.

    With ``df`` set the rows are Student t locations and scales.  ``precision`` is the IRLS working
    precision (for the t, the EM step's); ``curvature`` is minus the log density's Hessian diagonal.
    :func:`_fit_aggregated` transposes the rows to columns, so ``log_density`` sums over axis 0.
    """

    centre: np.ndarray
    spread: np.ndarray
    df: float | None = None

    def take(self, rows: np.ndarray) -> PriorTerms:
        """Rows ``rows``; a one-row prior, as a position-free prior's ``for_masks`` gives, serves every fit."""
        return self._replace(centre=_per_fit(self.centre, rows), spread=_per_fit(self.spread, rows))

    def log_density(self, coef: np.ndarray) -> np.ndarray:
        """The log prior of each column of ``coef`` (W, B); a coefficient of infinite spread adds nothing."""
        u = coef - self.centre
        if self.df is None:
            v = self.spread
            return -0.5 * _ordered_sum(np.where(np.isfinite(v), np.log(2.0 * np.pi * v) + u * u / v, 0.0))
        df, scale = self.df, self.spread
        z = u / scale
        terms = _t_log_norm(df) - np.log(scale) - (df + 1.0) / 2.0 * np.log1p(z * z / df)
        return _ordered_sum(np.where(np.isfinite(scale), terms, 0.0))

    def precision(self, coef: np.ndarray) -> np.ndarray:
        if self.df is None:
            return 1.0 / self.spread  # 0 for an infinite variance
        u = coef - self.centre
        return 1.0 / ((self.df * self.spread * self.spread + u * u) / (self.df + 1.0))

    @np.errstate(invalid="ignore")  # inf / inf at an infinite spread, masked to 0
    def curvature(self, coef: np.ndarray) -> np.ndarray:
        if self.df is None:
            return 1.0 / self.spread
        u = coef - self.centre
        a = self.df * self.spread * self.spread
        return np.where(np.isfinite(a), (self.df + 1.0) * (a - u * u) / (a + u * u) ** 2, 0.0)


@functools.cache
def _t_log_norm(df: float) -> float:
    """The log of the Student t density's normalising constant at unit scale."""
    return math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)


class _PositionFree:
    """A coefficient prior that a network uses as it is, for every parent set of every node."""

    def for_masks(self, nodes: np.ndarray, masks: np.ndarray) -> PriorTerms:
        """The priors of the fits of ``nodes[i]`` on ``masks[i]`` (all of one size): one shared row."""
        return self.terms(1 + int(masks[0]).bit_count())


@dataclass(frozen=True, eq=False)
class GaussianPrior(_PositionFree):
    """Independent normal priors; ``mean`` and ``variance`` broadcast per coefficient.

    An infinite variance marks a coefficient as unpenalised: it contributes
    nothing to the log prior or its curvature, giving a flat-prior fit.
    """

    mean: float | np.ndarray = 0.0
    variance: float | np.ndarray = 1000.0

    def resolve(self, n_coef: int) -> tuple[np.ndarray, np.ndarray]:
        mean = np.broadcast_to(np.asarray(self.mean, dtype=float), (n_coef,)).copy()
        variance = np.broadcast_to(np.asarray(self.variance, dtype=float), (n_coef,)).copy()
        if not np.isfinite(mean).all():
            raise ValueError("prior means must be finite")
        if not (variance > 0).all():
            raise ValueError("prior variances must be positive")
        return mean, variance

    def terms(self, n_coef: int) -> PriorTerms:
        """The prior over ``n_coef`` coefficients as one fit uses it."""
        mean, variance = self.resolve(n_coef)
        return PriorTerms(mean[None], variance[None])

    def describe(self) -> str:
        """The label of the ``# prior:`` cache header and the CLI summary."""
        mean = np.asarray(self.mean, dtype=float)
        variance = np.asarray(self.variance, dtype=float)
        if mean.ndim == 0 and variance.ndim == 0:
            return f"gaussian mean={float(mean):g} variance={float(variance):g}"
        return "gaussian (per-coefficient)"


@dataclass(frozen=True)
class StudentTPrior(_PositionFree):
    """Independent Student t priors centred at 0, Cauchy by default.

    Slopes get ``scale``; the intercept (column 0 of every design) gets
    ``intercept_scale``, which has no consensus default and is therefore kept
    explicit and reported wherever the prior is described.
    """

    df: float = 1.0
    scale: float = 2.5
    intercept_scale: float = 10.0

    def __post_init__(self) -> None:
        # an infinite df makes the EM step's working variance inf / inf, so no fit could converge
        if not (0 < self.df < math.inf and self.scale > 0 and self.intercept_scale > 0):
            raise ValueError("df must be finite and positive, and scales positive")

    def resolve(self, n_coef: int) -> tuple[np.ndarray, np.ndarray]:
        scales = np.full(n_coef, float(self.scale))
        scales[0] = float(self.intercept_scale)
        return np.zeros(n_coef), scales

    def terms(self, n_coef: int) -> PriorTerms:
        loc, scales = self.resolve(n_coef)
        return PriorTerms(loc[None], scales[None], float(self.df))

    def describe(self) -> str:
        return (
            f"student_t df={self.df:g} scale={self.scale:g} "
            f"intercept_scale={self.intercept_scale:g}"
        )


@dataclass(frozen=True)
class StrongGaussianPrior:
    """Normals centred on the known generating parameters.

    Coefficients the truth actually pins down (each node's intercept and the
    slope of every real parent) get a tight normal around the true value.
    Candidate parents the truth does not contain carry no informed value, so
    they keep a diffuse zero-mean normal: an edge absent from the truth has
    to earn its place from the data exactly as it would under the weakly
    informative prior, instead of being subsidised by a narrow prior whose
    small Occam penalty lets noise promote spurious parents.
    """

    truth: AbnParams
    variance: float = 0.1
    absent_variance: float = 1000.0

    def __post_init__(self) -> None:
        if not (self.variance > 0 and self.absent_variance > 0):
            raise ValueError("prior variances must be positive")

    def for_masks(self, nodes: np.ndarray, masks: np.ndarray) -> PriorTerms:
        """The concrete priors of the fits of ``nodes[i]`` on ``masks[i]`` (all of one size), one row each."""
        truth = self.truth
        if not ((0 <= nodes) & (nodes < truth.n)).all():
            raise ValueError(f"node {nodes.min() if nodes.min() < 0 else nodes.max()} out of range")
        edge = np.full((truth.n, truth.n), np.nan)
        for (parent, child), value in truth.edge_coef.items():
            edge[parent, child] = value
        slopes = edge[_bit_columns(masks, truth.n), nodes[:, None]]
        present = ~np.isnan(slopes)
        centre = np.column_stack([np.asarray(truth.intercepts)[nodes], np.where(present, slopes, 0.0)])
        spread = np.where(present, self.variance, self.absent_variance)
        spread = np.column_stack([np.full(len(nodes), self.variance), spread])
        return PriorTerms(centre, spread)

    def describe(self) -> str:
        return (
            f"gaussian_informed variance={self.variance:g} "
            f"absent_variance={self.absent_variance:g}"
        )


# A prior on the coefficients of one fit, and a prior for a whole network:
# ``for_masks`` turns the latter into the former for a stack of parent sets.
CoefficientPrior = Union[GaussianPrior, StudentTPrior]
Prior = Union[GaussianPrior, StudentTPrior, StrongGaussianPrior]


def _per_fit(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of an array with one leading row per fit, or one shared by all."""
    return a if len(a) == 1 else a[rows]


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 strictly in index order, so zero terms change no bit of the total.

    numpy reduces the leading axis of a C-contiguous array row by row, in index order, as long as
    the sum keeps more than one element; it sums a lone axis pairwise, so that case accumulates.
    ``initial=-0.0`` keeps a sum of -0.0 terms at -0.0, as accumulating does.
    """
    a = np.ascontiguousarray(a)  # a no-op for every caller; numpy reduces a strided view in memory order
    if a.size == 0:
        return a.sum(axis=0)
    if a.size == len(a):
        return np.add.accumulate(a)[-1]
    return np.add.reduce(a, axis=0, initial=-0.0)


def _each(solve, *stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``solve`` on whole stacks, or row by row once that raises; a row that raises is nan and flagged."""
    failed = np.zeros(len(stacks[0]), dtype=bool)
    try:
        return solve(*stacks), failed
    except np.linalg.LinAlgError:
        out = np.full(stacks[-1].shape, np.nan)
    for i in range(len(out)):
        try:
            out[i] = solve(*(stack[i : i + 1] for stack in stacks))[0]
        except np.linalg.LinAlgError:
            failed[i] = True
    return out, failed


@dataclass
class NodeFit:
    """One penalised logistic fit: mode, curvature, score, and why it failed, if it did.

    ``failure`` is empty for a scored fit.  Otherwise it says why the fit has
    no score, checked in this order: a singular weighted system, no
    convergence in ``MAX_ITER`` sweeps, a non-finite Laplace value (a
    curvature with no Cholesky factor); ``log_marginal`` is then -inf.
    """

    coef: np.ndarray
    neg_hessian: np.ndarray
    log_posterior: float
    log_marginal: float
    converged: bool
    iterations: int
    failure: str


class FitStack(NamedTuple):
    """A stack's fits in :class:`NodeFit`'s fields, a row each; ``iterations`` is the most ``sweeps``."""

    coef: np.ndarray
    neg_hessian: np.ndarray
    log_posterior: np.ndarray
    log_marginal: np.ndarray
    converged: np.ndarray
    sweeps: np.ndarray
    failure: list[str]
    iterations: int


def fit_node(X: np.ndarray, y: np.ndarray, prior: CoefficientPrior) -> NodeFit:
    """Fit one node's logistic regression by posterior-mode IRLS.

    ``X`` must carry the intercept as its first column; ``y`` is 0/1.  The
    fit is a one-table stack, so it scores a cache entry's table bit for bit.
    A fit that cannot be scored comes back with ``failure`` set, the last
    iterate as its mode and a ``log_marginal`` of -inf.
    """
    y = np.asarray(y, dtype=float)
    patterns, successes, trials = aggregate_design(X, y)
    # every row of X starts with 1 exactly when every distinct row does
    if not patterns.shape[1] or not np.all(patterns[:, 0] == 1.0):
        raise ValueError("first design column must be the intercept")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("outcomes must be 0 or 1")
    width = np.array([patterns.shape[1]])
    stack = _fit_aggregated(patterns[None], successes[None], trials[None], prior.terms(patterns.shape[1]), width)
    return NodeFit(stack.coef[0], stack.neg_hessian[0], *(a[0].item() for a in stack[2:6]), stack.failure[0])


@functools.cache
def _indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row and column indices of a d x d matrix's upper triangle, row by row, and of its diagonal."""
    return *np.triu_indices(d), np.arange(d)


def _by_width(widths: np.ndarray) -> list[tuple[int, slice]]:
    """The runs of equal width in a stack's rows: one per width when the widths ascend."""
    if not len(widths):
        return []
    cuts = (np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist()
    return [(int(widths[lo]), slice(lo, hi)) for lo, hi in zip([0, *cuts], [*cuts, len(widths)])]


class _Stack(NamedTuple):
    """The fits of :func:`_fit_aggregated` still running, one per column of every array's last axis.

    Each sum runs over the leading axis of a C-contiguous array (see :func:`_ordered_sum`): ``rows``
    holds the patterns table rows first (P, W, B), ``pairs`` (P, W(W+1)/2, B) each product of two
    pattern columns, ``successes`` and ``trials`` are (P, B), and the prior's arrays (W, B).
    """

    rows: np.ndarray
    pairs: np.ndarray
    successes: np.ndarray
    trials: np.ndarray
    widths: np.ndarray
    prior: PriorTerms

    def take(self, fits: np.ndarray) -> _Stack:
        if len(fits) == len(self.widths):  # fits are ascending and distinct: all of them
            return self
        centre, spread, *arrays = (a.take(fits, axis=-1) for a in (*self.prior[:2], *self[:4]))
        return _Stack(*arrays, self.widths[fits], self.prior._replace(centre=centre, spread=spread))

    def log_post(self, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The log posterior at ``coef`` (W, B), and the linear predictor of each table row there (P, B)."""
        # the patterns times the coefficients, written coefficients first: (W, P, B)
        terms = np.empty((len(coef), len(self.rows), coef.shape[1]))
        np.multiply(self.rows.transpose(1, 0, 2), coef[:, None], out=terms)
        eta, s, t = _ordered_sum(terms), self.successes, self.trials
        loglik = _ordered_sum(s * -np.logaddexp(0.0, -eta) + (t - s) * -np.logaddexp(0.0, eta))
        return loglik + self.prior.log_density(coef), eta

    def neg_hessian(self, eta: np.ndarray, prior_diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minus the log likelihood's Hessians (B, W, W) plus ``prior_diag``, and the fitted probabilities."""
        p = _expit(eta)
        return self.gram(self.trials * p * (1.0 - p), prior_diag), p

    def gram(self, weights: np.ndarray, prior_diag: np.ndarray) -> np.ndarray:
        """The patterns' Gram matrices (B, W, W) under table row weights ``weights`` (P, B), plus ``prior_diag``."""
        packed = _ordered_sum(self.pairs * weights[:, None])
        d = self.rows.shape[1]
        i, j, k = _indices(d)
        hess = np.empty((weights.shape[1], d, d))
        hess[:, i, j] = hess[:, j, i] = packed.T
        hess[:, k, k] += prior_diag.T
        return hess

    def data_start(self) -> np.ndarray:
        """Each fit's first iterate (W, B): one penalised weighted least-squares step from the data.

        The fitted probabilities start at (s + 1/2) / (t + 1) per table row, as GLM fitting starts
        its IRLS; the prior enters as pseudo-observations at its centre, with its working precision
        there.  A fit whose leading block of this system is singular, or solves to a non-finite
        start, starts at the prior centre.
        """
        s, t, prior = self.successes, self.trials, self.prior
        mu = (s + 0.5) / (t + 1.0)
        weights = t * mu * (1.0 - mu)
        precision = prior.precision(prior.centre)
        gram = self.gram(weights, precision)
        rhs = _ordered_sum(self.rows * (weights * _log((s + 0.5) / (t - s + 0.5)))[:, None])
        rhs += precision * prior.centre
        beta = prior.centre.copy()
        for w, fits in _by_width(self.widths):
            solved, _ = _each(np.linalg.solve, gram[fits, :w, :w], rhs[:w, fits].T[..., None])
            start = solved[..., 0].T  # nan where singular
            beta[:w, fits] = np.where(np.isfinite(start).all(axis=0), start, beta[:w, fits])
        return beta


@np.errstate(over="ignore")  # see _expit
def _fit_aggregated(
    patterns: np.ndarray,
    successes: np.ndarray,
    trials: np.ndarray,
    terms: PriorTerms,
    widths: np.ndarray,
) -> FitStack:
    """Posterior-mode IRLS of a stack of tables; row i of every argument is fit i.

    ``patterns`` is (B, P, W), ``successes`` and ``trials`` (B, P), and ``terms`` has B rows of W.
    Fit i has ``widths[i]`` coefficients; a narrower table is padded with zero pattern columns whose
    coefficients sit at centre 0 with infinite spread, and every linear solve and Cholesky factor
    works on a fit's own leading block.  Each fit starts from its data (:meth:`_Stack.data_start`),
    and each sweep solves with the exact negative Hessian; under the t prior a fit whose Hessian
    block has no Cholesky factor uses the EM working precision in place of the prior's curvature
    for that sweep.  Each fit steps, halves its step, converges (no coefficient
    moved by ``TOL`` in a sweep) or fails on its own.  The arguments are transposed once, fits last
    (see :class:`_Stack`), so that every sum over table rows or coefficients runs over a leading
    axis, in index order: a score owes no bit to its stack, to zero-trial rows or to padded columns.
    """
    n_fits, width = len(widths), patterns.shape[-1]
    rows = np.ascontiguousarray(patterns.transpose(1, 2, 0))
    row, col, _ = _indices(width)
    pairs = rows.take(row, axis=1) * rows.take(col, axis=1)
    successes, trials = np.ascontiguousarray(successes.T), np.ascontiguousarray(trials.T)
    prior = PriorTerms(np.ascontiguousarray(terms.centre.T), np.ascontiguousarray(terms.spread.T), terms.df)
    stack = _Stack(rows, pairs, successes, trials, widths, prior)
    beta = stack.data_start()
    current, eta = stack.log_post(beta)
    converged = np.zeros(n_fits, dtype=bool)
    sweeps = np.zeros(n_fits, dtype=np.int64)
    failure = [""] * n_fits
    active, run = np.arange(n_fits), stack
    for sweep in range(1, MAX_ITER + 1):
        if not len(active):
            break
        sweeps[active] = sweep
        coef = beta.take(active, axis=1)
        inv_var = run.prior.precision(coef)
        if prior.df is None:
            hess, p = run.neg_hessian(eta.take(active, axis=1), inv_var)
        else:
            curvature = run.prior.curvature(coef)
            hess, p = run.neg_hessian(eta.take(active, axis=1), curvature)
            _working_precision_where_indefinite(hess, run.widths, inv_var - curvature)
        grad = _ordered_sum(run.rows * (run.successes - run.trials * p)[:, None])
        grad -= (coef - run.prior.centre) * inv_var
        step, singular = np.zeros_like(grad), np.zeros(len(active), dtype=bool)
        for w, fits in _by_width(run.widths):
            solved, singular[fits] = _each(np.linalg.solve, hess[fits, :w, :w], grad[:w, fits].T[..., None])
            step[:w, fits] = solved[..., 0].T
        for i in active[singular]:
            failure[i] = f"weighted system singular at sweep {sweep} (flat prior on a separated design?)"
        ok = np.flatnonzero(~singular)
        active, coef, step, run = active[ok], coef.take(ok, axis=1), step.take(ok, axis=1), run.take(ok)
        before, candidate = current[active], coef + step
        value, moved = run.log_post(candidate)
        for _ in range(30):
            worse = np.flatnonzero(value < before - 1e-12)
            if not len(worse):
                break
            step[:, worse] = step.take(worse, axis=1) / 2.0
            candidate[:, worse] = coef.take(worse, axis=1) + step.take(worse, axis=1)
            value[worse], moved[:, worse] = run.take(worse).log_post(candidate.take(worse, axis=1))
        beta[:, active], current[active], eta[:, active] = candidate, value, moved
        done = np.abs(candidate - coef).max(axis=0, initial=0.0) < TOL
        converged[active[done]] = True
        active, run = active[~done], run.take(np.flatnonzero(~done))
    for i in active:
        failure[i] = f"no convergence in {MAX_ITER} sweeps"

    neg_hessian, _ = stack.neg_hessian(eta, prior.curvature(beta))
    beta = np.ascontiguousarray(beta.T)
    unfailed = np.array([not message for message in failure])
    scored = np.flatnonzero(unfailed & (trials.sum(axis=0) > 0))
    value = _laplace_value(current[scored], neg_hessian[scored], widths[scored])
    log_marginal = np.where(unfailed, 0.0, -np.inf)  # 0 is the score of an empty table
    log_marginal[scored] = np.where(np.isfinite(value), value, -np.inf)
    for i in scored[~np.isfinite(value)]:
        failure[i] = "non-finite log score"
    return FitStack(beta, neg_hessian, current, log_marginal, converged, sweeps, failure, int(sweeps.max(initial=0)))


def _working_precision_where_indefinite(hess: np.ndarray, widths: np.ndarray, extra: np.ndarray) -> None:
    """Add ``extra`` (W, B) to the diagonal of each of ``hess``'s fits whose leading block has no Cholesky factor.

    One Cholesky factorisation per width checks all of its fits at once.  Only when that raises are
    the fits told apart: a symmetric matrix has a Cholesky factor when its leading minors are all
    positive (Sylvester's criterion), and their signs come from batched LU determinants.
    """
    for w, fits in _by_width(widths):
        block = hess[fits, :w, :w]
        try:
            np.linalg.cholesky(block)
            continue
        except np.linalg.LinAlgError:
            pass
        # minor j of every fit in one batch: the leading j x j block bordered by the identity
        k = np.arange(w)
        leading = (k[:, None, None] >= k) & (k[:, None, None] >= k[:, None])  # (minor, row, column)
        minors = np.where(leading[:, None], block, np.eye(w))
        definite = (np.linalg.slogdet(minors)[0] > 0).all(axis=0)
        rows = fits.start + np.flatnonzero(~definite)
        hess[rows[:, None], k, k] += extra[:w, rows].T


def _laplace_value(
    log_posterior_at_mode: np.ndarray, neg_hessian: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """The Laplace log marginals of a stack of modes; nan where the negative Hessian has no Cholesky factor.

    Fit i's negative Hessian is the leading ``widths[i]`` block of ``neg_hessian[i]``.
    """
    log_det = np.empty(len(widths))
    for w, rows in _by_width(widths):
        chol, _ = _each(np.linalg.cholesky, neg_hessian[rows, :w, :w])
        diagonals = np.diagonal(chol, axis1=1, axis2=2).T.copy()  # coefficients first, (w, B)
        log_det[rows] = 2.0 * _ordered_sum(np.log(diagonals))
    return log_posterior_at_mode + 0.5 * widths * LOG_2PI - 0.5 * log_det


@dataclass(frozen=True)
class CacheEntry:
    log_score: float
    converged: bool


_CACHE_COLUMNS = ["node", "parent_mask", "log_score", "converged", "separation"]


@dataclass(eq=False)
class ScoreCache:
    """Log scores for (node, parent mask) pairs up to a parent-count cap, as flat arrays.

    Entry i scores node ``nodes[i]`` on parent mask ``masks[i]``; the entries run node-major with
    masks ascending, the order of :func:`parent_masks`, so their keys ``node << n_vars | mask``
    ascend.  A cache built in code may leave keys out, and the search never picks them.
    ``separations`` is each entry's separation status, in the same order.  Neither scoring nor
    search needs it, so a cache built from data leaves it ``None`` until :meth:`separation` first
    asks; a cache read from CSV has it from the file's column.
    """

    n_vars: int
    max_parents: int
    nodes: np.ndarray
    masks: np.ndarray
    log_score: np.ndarray
    converged: np.ndarray
    diagnostics: list[tuple[int, int, str]] = field(default_factory=list)
    prior_label: str = ""
    separations: np.ndarray | None = None
    data: Dataset | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.nodes, self.masks = (np.asarray(a, dtype=np.int64) for a in (self.nodes, self.masks))
        self.log_score, self.converged = np.asarray(self.log_score, dtype=float), np.asarray(self.converged, dtype=bool)
        arrays = (self.nodes, self.masks, self.log_score, self.converged)
        if self.separations is not None:
            self.separations = np.array([SeparationStatus(s) for s in self.separations], dtype=object)
            arrays += (self.separations,)
        if any(a.ndim != 1 or len(a) != len(self.nodes) for a in arrays):
            raise ValueError("cache arrays must have one row per entry, in ascending (node, mask) order")
        n, nodes, masks = self.n_vars, self.nodes, self.masks
        if not 1 <= n <= MAX_NODES or not 0 <= self.max_parents < n:
            raise ValueError(f"n_vars must lie in 1..{MAX_NODES} and max_parents in 0..n_vars - 1, got {n}, {self.max_parents}")
        self._keys = nodes << n | masks  # what score() looks up
        if (np.diff(self._keys) <= 0).any():
            raise ValueError("cache arrays must have one row per entry, in ascending (node, mask) order")

        _check_entries(
            n, self.max_parents, nodes, masks, self.log_score, lambda i: f"entry {i} (node {nodes[i]}, parent mask {masks[i]})"
        )

    @property
    def entries(self) -> Mapping[tuple[int, int], CacheEntry]:
        """A read-only ``(node, mask) -> CacheEntry`` view of the arrays, built anew on each access."""
        entries = map(CacheEntry, self.log_score.tolist(), self.converged.tolist())
        return MappingProxyType(dict(zip(zip(self.nodes.tolist(), self.masks.tolist()), entries)))

    def score(self, node: int, parent_mask: int) -> float:
        """The log score of (node, parent_mask); ``KeyError`` when the cache has none."""
        i = int(np.searchsorted(self._keys, node << self.n_vars | parent_mask))
        if i < len(self._keys) and self.nodes[i] == node and self.masks[i] == parent_mask:
            return float(self.log_score[i])
        raise KeyError((node, parent_mask))

    def separation(self) -> np.ndarray:
        """The Albert-Anderson status of every entry's table, in entry order, classified on the first call.

        Each size's keys read their distinct tables from the data (:meth:`Dataset.distinct_tables`,
        kept from the build), and each distinct table is classified once, on its observed rows.
        """
        if self.separations is None:
            if self.data is None:
                raise ValueError("no separation statuses and no data to classify them")
            statuses = np.empty(len(self.masks), dtype=object)
            sizes = _sizes(self.masks, self.n_vars)
            for size in np.unique(sizes):
                at = np.flatnonzero(sizes == size)
                patterns, successes, trials, number = self.data.distinct_tables(self.nodes[at], self.masks[at])
                patterns = np.broadcast_to(patterns, (len(trials), *patterns.shape[1:]))
                tables = zip(patterns, successes, trials, trials > 0)
                found = [separation_of_patterns(p[seen], s[seen], t[seen]) for p, s, t, seen in tables]
                statuses[at] = np.array(found, dtype=object)[number]
            self.separations = statuses
        return self.separations

    def total_entries(self) -> int:
        return len(self.log_score)

    def to_csv(self) -> str:
        comments = {"n_vars": self.n_vars, "max_parents": self.max_parents}
        if self.prior_label:
            comments["prior"] = self.prior_label
        columns = (a.tolist() for a in (self.nodes, self.masks, self.log_score, self.converged))
        rows = (
            [node, mask, score, "true" if ok else "false", status.value]
            for node, mask, score, ok, status in zip(*columns, self.separation())
        )
        return csv_text(_CACHE_COLUMNS, rows, comments.items())

    @classmethod
    def from_csv(cls, text: str) -> "ScoreCache":
        """Read a cache written by :meth:`to_csv`: its ``#`` comments above the header, its rows in any order.

        A malformed or repeated line, a ``max_parents`` above ``n_vars - 1``,
        or a parent set under ``max_parents`` with no line raises ``ValueError``.
        """
        # np.int64 turns a number too large for the arrays into an error on its line
        types = dict(zip(_CACHE_COLUMNS, (np.int64, np.int64, float, _true_false, SeparationStatus)))
        comments, records = csv_records(text, _CACHE_COLUMNS, types)
        sizes: dict[str, int] = {}
        prior_label = None
        for number, key, value in comments:
            if key in ("n_vars", "max_parents"):
                least = 1 if key == "n_vars" else 0
                if not (value.isascii() and value.isdigit() and least <= int(value) <= MAX_NODES):
                    raise ValueError(f"line {number}: {key} must be an integer in {least}..{MAX_NODES}, got {value!r}")
                if key in sizes:
                    raise ValueError(f"line {number}: repeated '# {key}:' comment")
                sizes[key] = int(value)
            elif key == "prior":
                if prior_label is not None:
                    raise ValueError(f"line {number}: repeated '# prior:' comment")
                prior_label = value
        for key in ("n_vars", "max_parents"):
            if key not in sizes:
                raise ValueError(f"missing '# {key}:' comment")
        n_vars, max_parents = sizes["n_vars"], sizes["max_parents"]
        if max_parents > n_vars - 1:
            raise ValueError(f"max_parents must lie in 0..{n_vars - 1}")
        nodes, masks, log_score, converged, statuses = ([rec[i] for _, rec in records] for i in range(len(_CACHE_COLUMNS)))
        nodes, masks, log_score = np.array(nodes, dtype=np.int64), np.array(masks, dtype=np.int64), np.array(log_score)
        _check_entries(n_vars, max_parents, nodes, masks, log_score, lambda i: f"line {records[i][0]}")
        keys = nodes << n_vars | masks
        order = np.argsort(keys, kind="stable")  # a repeated key's copies in file order
        repeats = order[1:][np.diff(keys[order]) == 0]
        if len(repeats):
            i = repeats.min()
            raise ValueError(f"line {records[i][0]}: duplicate entry for node {nodes[i]}, parent mask {masks[i]}")
        # a missing set would silently drop out of the search
        expected = [node << n_vars | np.array(parent_masks(n_vars, node, max_parents)) for node in range(n_vars)]
        missing = np.setdiff1d(np.concatenate(expected), keys)
        if len(missing):
            node, mask = divmod(int(missing[0]), 1 << n_vars)
            raise ValueError(f"missing entry for node {node}, parent mask {mask}")
        return cls(
            n_vars, max_parents, nodes[order], masks[order], log_score[order], np.array(converged, dtype=bool)[order],
            prior_label=prior_label or "", separations=np.array(statuses, dtype=object)[order],
        )


def _true_false(field: str) -> bool:
    if field not in ("true", "false"):
        raise ValueError(f"converged must be true or false, got {field!r}")
    return field == "true"


def _check_entries(
    n_vars: int, max_parents: int, nodes: np.ndarray, masks: np.ndarray, log_score: np.ndarray, where: Callable[[int], str]
) -> None:
    """Raise ``ValueError`` at the first cache entry that breaks a rule, named by ``where(index)``.

    The search indexes its tables by (node, mask), so a stray key would land in
    another node's row, and a nan score would never be picked.
    """
    broken = np.stack(
        [
            (nodes < 0) | (nodes >= n_vars),
            masks >> n_vars != 0,
            masks >> nodes & 1 == 1,
            _sizes(masks, n_vars) > max_parents,
            ~(log_score < np.inf),
        ]
    )
    rows = broken.any(axis=0)
    if rows.any():
        i = int(np.argmax(rows))
        node, mask = nodes[i], masks[i]
        rules = (
            f"node {node} is not in 0..{n_vars - 1}",
            f"parent mask {mask} has bits beyond {n_vars} variables",
            f"parent mask {mask} contains node {node} itself",
            f"parent mask {mask} has more than {max_parents} parents",
            f"log_score must be finite or -inf, got {log_score[i]}",
        )
        raise ValueError(f"{where(i)}: {rules[int(np.argmax(broken[:, i]))]}")


def _sizes(masks: np.ndarray, n_vars: int) -> np.ndarray:
    """The parent count of each mask, over its low ``n_vars`` bits."""
    return ((masks[:, None] >> np.arange(n_vars)) & 1).sum(axis=1)


def parent_masks(n_vars: int, node: int, max_parents: int) -> list[int]:
    """All candidate parent masks for ``node`` with at most ``max_parents`` bits, ascending."""
    masks = [0]
    growable = [0] if max_parents > 0 else []  # the masks below the cap, ascending
    for v in range(n_vars):
        if v != node:
            # every mask so far lies below bit v, so the extensions follow in order
            grown = [mask | 1 << v for mask in growable]
            masks += grown
            growable += [mask for mask in grown if mask.bit_count() < max_parents]
    return masks


class _Distinct(NamedTuple):
    """The distinct (table, prior row) fits of one parent-set size, numbered from ``start`` in a cache."""

    start: int
    patterns: np.ndarray
    successes: np.ndarray
    trials: np.ndarray
    terms: PriorTerms


def _chunks(groups: list[_Distinct]) -> list[tuple[int, int]]:
    """Cut the distinct fits of every size, ascending, into stacks: ``[lo, hi)`` ranges of their numbers.

    A stack takes whole sizes while its fits times the table rows and upper-triangle entries of
    its widest size stay within ``_CHUNK``.  A size that does not fit is cut into stacks of its
    own, the last of which stays open to the next sizes; one fit over the bound is a stack alone.
    """
    cuts, count, rows = {0}, 0, 0  # the fits and the most table rows of the open stack
    for group in groups:
        n_fits, group_rows = group.successes.shape
        width = group.patterns.shape[-1]
        entries, rows = width * (width + 1) // 2, max(rows, group_rows)
        if (count + n_fits) * rows * entries <= _CHUNK:
            count += n_fits
            continue
        step = max(1, _CHUNK // max(1, group_rows * entries))
        cuts.update(range(group.start, group.start + n_fits, step))
        count, rows = (n_fits - 1) % step + 1, group_rows
    bounds = sorted(cuts | {groups[-1].start + len(groups[-1].successes)})
    return list(zip(bounds, bounds[1:]))


def _stack(groups: list[_Distinct], lo: int, hi: int) -> tuple:
    """The arguments of :func:`_fit_aggregated` for distinct fits ``lo`` to ``hi - 1``, padded to the widest.

    Every fit gets a row of its own, also where its size shares one pattern table or prior row.  A
    narrower table gets zero pattern columns and zero-trial rows; its extra coefficients sit at
    centre 0 with infinite spread, the unpenalised convention, so they add nothing to any sum.
    """
    pieces = []  # (size, the slice of its fits in the stack, their rows in the stack)
    for group in groups:
        first, last = max(lo, group.start), min(hi, group.start + len(group.successes))
        if first < last:
            pieces.append((group, slice(first - group.start, last - group.start), slice(first - lo, last - lo)))
    n_rows = max(group.successes.shape[1] for group, *_ in pieces)
    width = max(group.patterns.shape[-1] for group, *_ in pieces)
    patterns = np.zeros((hi - lo, n_rows, width))
    successes, trials = np.zeros((hi - lo, n_rows)), np.zeros((hi - lo, n_rows))
    centre, spread = np.zeros((hi - lo, width)), np.full((hi - lo, width), np.inf)
    widths = np.empty(hi - lo, dtype=np.int64)
    for group, rows, fits in pieces:
        p, w = group.patterns.shape[1:]
        patterns[fits, :p, :w] = _per_fit(group.patterns, rows)
        successes[fits, :p], trials[fits, :p] = group.successes[rows], group.trials[rows]
        terms = group.terms.take(rows)
        centre[fits, :w], spread[fits, :w], widths[fits] = terms.centre, terms.spread, w
    return patterns, successes, trials, PriorTerms(centre, spread, groups[0].terms.df), widths


def build_score_cache(data: Dataset, prior: Prior, max_parents: int | None = None) -> ScoreCache:
    """Score every candidate parent set of every node.

    Scores are Laplace log marginal likelihoods; a fit that fails enters the
    cache as -inf with its ``NodeFit.failure`` as a diagnostic, so downstream
    search simply never picks it.  Each distinct (table, prior row) of one
    parent-set size is fit once: the dataset counts and numbers a size's
    distinct tables once for all the priors scored on it
    (:meth:`Dataset.distinct_tables`), and a prior with a row per parent set
    refines that numbering by its rows.  The distinct fits of all sizes, in
    ascending size, share stacks of at most about ``_CHUNK`` padded working
    elements, so a cache runs about as many sweeps as its slowest fit.  A
    score depends on its table and prior alone, so the cache is a pure
    function of the data multiset.  No table is classified for separation
    here; the cache keeps ``data`` so that :meth:`ScoreCache.separation` can
    classify the same distinct tables on request.
    """
    n = data.n_vars
    if n < 1:
        raise ValueError("dataset needs at least one variable")
    max_parents = n - 1 if max_parents is None else as_int(max_parents, "max_parents")
    if not 0 <= max_parents <= n - 1:
        raise ValueError(f"max_parents must lie in 0..{n - 1}")
    if isinstance(prior, StrongGaussianPrior) and prior.truth.n != n:
        raise ValueError("informed prior truth has a different variable count")

    per_node = [parent_masks(n, node, max_parents) for node in range(n)]
    nodes = np.repeat(np.arange(n, dtype=np.int64), [len(masks) for masks in per_node])
    masks = np.concatenate(per_node).astype(np.int64, copy=False)
    sizes = _sizes(masks, n)
    groups: list[_Distinct] = []
    distinct, start = np.empty(len(masks), dtype=np.int64), 0  # the number of each key's distinct fit
    for size in range(max_parents + 1):
        at = np.flatnonzero(sizes == size)
        patterns, successes, trials, number = data.distinct_tables(nodes[at], masks[at])
        terms = prior.for_masks(nodes[at], masks[at])
        if len(terms.centre) > 1:  # a prior row per key: fit each distinct (table, prior row) once
            first, fit_number = _distinct_rows(np.column_stack([number, *terms[:2]]))
            table = number[first]
            patterns, successes, trials = _per_fit(patterns, table), successes[table], trials[table]
            terms, number = terms.take(first), fit_number
        distinct[at] = start + number
        groups.append(_Distinct(start, patterns, successes, trials, terms))
        start += len(successes)
    fits = [_fit_aggregated(*_stack(groups, lo, hi)) for lo, hi in _chunks(groups)]
    log_score = np.concatenate([fit.log_marginal for fit in fits])[distinct]
    converged = np.concatenate([fit.converged for fit in fits])[distinct]
    # a fit scores -inf exactly when it failed (see NodeFit), so only those rows read a message
    failure = [message for fit in fits for message in fit.failure]
    failed = np.flatnonzero(log_score == -np.inf)
    diagnostics = [
        (node, mask, failure[i]) for node, mask, i in zip(*(a[failed].tolist() for a in (nodes, masks, distinct)))
    ]
    return ScoreCache(n, max_parents, nodes, masks, log_score, converged, diagnostics, prior.describe(), data=data)


# each ``<name>_<field>`` sets that field of the class of prior ``name`` (see :func:`prior_from_name`); each
# is also a study config field and an ``abn-forge score`` flag, and must be finite and positive
PRIOR_HYPERPARAMETERS = ("wi_variance", "st_df", "st_scale", "st_intercept_scale", "si_variance", "si_absent_variance")
_PRIORS = {"wi": GaussianPrior, "st": StudentTPrior, "si": StrongGaussianPrior}


def prior_from_name(name: str, *, truth: AbnParams | None = None, **hyperparameters: float) -> Prior:
    """Build a prior from its short study name: ``wi``, ``st`` or ``si``.

    Each keyword of ``PRIOR_HYPERPARAMETERS`` that starts with ``name`` sets that field of the prior;
    the others are ignored, and an omitted one keeps its class default.
    """
    if unknown := sorted(set(hyperparameters) - set(PRIOR_HYPERPARAMETERS)):
        raise TypeError(f"prior_from_name() got unexpected keyword arguments: {', '.join(unknown)}")
    key = name.strip().lower()
    if key not in _PRIORS:
        *first, last = _PRIORS
        raise ValueError(f"unknown prior name: {name!r} (expected {', '.join(first)} or {last})")
    values = {k[len(key) + 1 :]: v for k, v in hyperparameters.items() if k.startswith(key + "_")}
    if key == "si":
        if truth is None:
            raise ValueError("the informed prior needs the generating parameters")
        values["truth"] = truth
    return _PRIORS[key](**values)
