"""Per-node scores: penalised logistic fits and Laplace-approximate log marginal likelihoods.

Each candidate parent set of each node gets a Bayesian logistic regression
(intercept plus one slope per parent) under one of three prior families:

* ``GaussianPrior`` - independent normals, the weakly-informative default
  being mean 0 and variance 1000 per coefficient;
* ``StudentTPrior`` - independent t distributions, by default Cauchy with
  scale 2.5 on slopes and 10 on the intercept;
* ``StrongGaussianPrior`` - normals centred on the generating parameters with
  small variance, for studies where the truth is known.

Fitting maximises the exact log posterior by iteratively reweighted least
squares with the prior folded in as pseudo-observations.  For the t family
each sweep first performs an EM step: conditional on the current coefficient,
the t prior is replaced by its conditional Gaussian with working variance
``(df * scale^2 + (coef - loc)^2) / (df + 1)``, which at convergence is a
fixed point.  Steps that would decrease the log posterior are halved.

The node score is the Laplace approximation at the mode

    log p(y | b) + log p(b) + d/2 log(2 pi) - 1/2 log det H

with H the negative Hessian of the log posterior.  Duplicate design rows are
aggregated into (pattern, successes, trials) counts first; the posterior is
unchanged and binary designs collapse to at most 2^parents patterns.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np
from scipy.special import expit, gammaln

from .data import (
    AbnParams,
    Dataset,
    SeparationStatus,
    aggregate_design,
    separation_of_patterns,
)
from .graph import MAX_NODES, _bits

LOG_2PI = math.log(2.0 * math.pi)
# a fit has converged once no coefficient moves by TOL in a sweep
TOL = 1e-8
MAX_ITER = 200


class PriorTerms(NamedTuple):
    """A coefficient prior resolved for one fit: all the IRLS fit needs of it.

    ``precision`` is the diagonal IRLS working precision at a coefficient
    vector and ``curvature`` the diagonal of minus the log prior's Hessian.
    """

    centre: np.ndarray
    log_density: Callable[[np.ndarray], float]
    precision: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class GaussianPrior:
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
        precision = _gaussian_curvature(variance)
        return PriorTerms(
            centre=mean,
            log_density=lambda coef: _gaussian_log_prior(coef, mean, variance),
            precision=lambda coef: precision,
            curvature=lambda coef: precision,
        )

    def for_node(self, node: int, parent_mask: int) -> GaussianPrior:
        """The coefficient prior for one candidate parent set: this one, anywhere."""
        return self

    def describe(self) -> str:
        """The label of the ``# prior:`` cache header and the CLI summary."""
        mean = np.asarray(self.mean, dtype=float)
        variance = np.asarray(self.variance, dtype=float)
        if mean.ndim == 0 and variance.ndim == 0:
            return f"gaussian mean={float(mean):g} variance={float(variance):g}"
        return "gaussian (per-coefficient)"


@dataclass(frozen=True)
class StudentTPrior:
    """Independent Student t priors, Cauchy by default.

    Slopes get ``scale``; the intercept (column 0 of every design) gets
    ``intercept_scale``, which has no consensus default and is therefore kept
    explicit and reported wherever the prior is described.
    """

    df: float = 1.0
    scale: float = 2.5
    intercept_scale: float = 10.0
    location: float = 0.0

    def __post_init__(self) -> None:
        if not (self.df > 0 and self.scale > 0 and self.intercept_scale > 0):
            raise ValueError("df and scales must be positive")

    def resolve(self, n_coef: int) -> tuple[np.ndarray, np.ndarray]:
        loc = np.full(n_coef, float(self.location))
        scales = np.full(n_coef, float(self.scale))
        scales[0] = float(self.intercept_scale)
        return loc, scales

    def terms(self, n_coef: int) -> PriorTerms:
        loc, scales = self.resolve(n_coef)
        df = float(self.df)

        def precision(coef: np.ndarray) -> np.ndarray:
            # EM step: the t prior conditional on ``coef`` is this Gaussian
            u = coef - loc
            return _gaussian_curvature((df * scales * scales + u * u) / (df + 1.0))

        return PriorTerms(
            centre=loc,
            log_density=lambda coef: _student_log_prior(coef, loc, scales, df),
            precision=precision,
            curvature=lambda coef: _student_curvature(coef, loc, scales, df),
        )

    def for_node(self, node: int, parent_mask: int) -> StudentTPrior:
        return self

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

    def for_node(self, node: int, parent_mask: int) -> GaussianPrior:
        """The concrete per-coefficient prior for one candidate parent set."""
        truth = self.truth
        if not 0 <= node < truth.n:
            raise ValueError(f"node {node} out of range")
        mean = [truth.intercepts[node]]
        var = [self.variance]
        for parent in _bits(parent_mask):
            coef = truth.edge_coef.get((parent, node))
            if coef is None:
                mean.append(0.0)
                var.append(self.absent_variance)
            else:
                mean.append(coef)
                var.append(self.variance)
        return GaussianPrior(mean=np.array(mean), variance=np.array(var))

    def describe(self) -> str:
        return (
            f"gaussian_informed variance={self.variance:g} "
            f"absent_variance={self.absent_variance:g}"
        )


# A prior on the coefficients of one fit, and a prior for a whole network:
# ``for_node`` turns the latter into the former for each candidate parent set.
CoefficientPrior = Union[GaussianPrior, StudentTPrior]
Prior = Union[GaussianPrior, StudentTPrior, StrongGaussianPrior]


def _gaussian_log_prior(coef: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    finite = np.isfinite(variance)
    if not finite.any():
        return 0.0
    v = variance[finite]
    u = coef[finite] - mean[finite]
    return float(-0.5 * np.sum(np.log(2.0 * np.pi * v) + u * u / v))


def _student_log_prior(coef: np.ndarray, loc: np.ndarray, scale: np.ndarray, df: float) -> float:
    u = (coef - loc) / scale
    per = (
        gammaln((df + 1.0) / 2.0)
        - gammaln(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - np.log(scale)
        - (df + 1.0) / 2.0 * np.log1p(u * u / df)
    )
    return float(np.sum(per))


def _gaussian_curvature(variance: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        out = 1.0 / variance
    return np.where(np.isfinite(variance), out, 0.0)


def _student_curvature(coef: np.ndarray, loc: np.ndarray, scale: np.ndarray, df: float) -> np.ndarray:
    u = coef - loc
    a = df * scale * scale
    return (df + 1.0) * (a - u * u) / (a + u * u) ** 2


def _binomial_loglik(patterns: np.ndarray, successes: np.ndarray, trials: np.ndarray, coef: np.ndarray) -> float:
    if len(trials) == 0:
        return 0.0
    eta = patterns @ coef
    log_p = -np.logaddexp(0.0, -eta)
    log_q = -np.logaddexp(0.0, eta)
    return float(successes @ log_p + (trials - successes) @ log_q)


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


def fit_node(X: np.ndarray, y: np.ndarray, prior: CoefficientPrior) -> NodeFit:
    """Fit one node's logistic regression by posterior-mode IRLS.

    ``X`` must carry the intercept as its first column; ``y`` is 0/1.
    Convergence means the largest coefficient change of a sweep fell below
    ``TOL``.  A fit that cannot be scored comes back with ``failure`` set,
    the last iterate as its mode and a ``log_marginal`` of -inf.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be 2-d with one response per row")
    if X.shape[0] and not np.all(X[:, 0] == 1.0):
        raise ValueError("first design column must be the intercept")
    if len(y) and not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("outcomes must be 0 or 1")
    return _fit_aggregated(*aggregate_design(X, y), prior)


def _fit_aggregated(
    patterns: np.ndarray,
    successes: np.ndarray,
    trials: np.ndarray,
    prior: CoefficientPrior,
) -> NodeFit:
    n_coef = patterns.shape[1]
    terms = prior.terms(n_coef)

    def log_post(coef: np.ndarray) -> float:
        return _binomial_loglik(patterns, successes, trials, coef) + terms.log_density(coef)

    beta = terms.centre.copy()
    current = log_post(beta)
    converged = False
    failure = ""
    diag = np.arange(n_coef)

    for iterations in range(1, MAX_ITER + 1):
        inv_var = terms.precision(beta)

        eta = patterns @ beta
        p = expit(eta)
        w = trials * p * (1.0 - p)
        grad = patterns.T @ (successes - trials * p) - (beta - terms.centre) * inv_var
        hess = (patterns * w[:, None]).T @ patterns
        hess[diag, diag] += inv_var
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            failure = (
                f"weighted system singular at sweep {iterations} "
                "(flat prior on a separated design?)"
            )
            break

        candidate = beta + step
        value = log_post(candidate)
        halvings = 0
        while value < current - 1e-12 and halvings < 30:
            step = step / 2.0
            candidate = beta + step
            value = log_post(candidate)
            halvings += 1
        delta = float(np.abs(candidate - beta).max()) if n_coef else 0.0
        beta = candidate
        current = value
        if delta < TOL:
            converged = True
            break
    else:
        failure = f"no convergence in {MAX_ITER} sweeps"

    p = expit(patterns @ beta)
    w = trials * p * (1.0 - p)
    neg_hessian = (patterns * w[:, None]).T @ patterns
    neg_hessian[diag, diag] += terms.curvature(beta)

    n_obs = trials.sum()
    if failure:
        log_marginal = float("-inf")
    elif n_obs == 0:
        log_marginal = 0.0
    else:
        log_marginal = _laplace_value(current, neg_hessian)
        if not math.isfinite(log_marginal):
            failure = "non-finite log score"
            log_marginal = float("-inf")

    return NodeFit(
        coef=beta,
        neg_hessian=neg_hessian,
        log_posterior=current,
        log_marginal=log_marginal,
        converged=converged,
        iterations=iterations,
        failure=failure,
    )


def _laplace_value(log_posterior_at_mode: float, neg_hessian: np.ndarray) -> float:
    """The Laplace log marginal, or nan when the negative Hessian has no Cholesky factor."""
    n_coef = neg_hessian.shape[0]
    try:
        chol = np.linalg.cholesky(neg_hessian)
    except np.linalg.LinAlgError:
        return float("nan")
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return log_posterior_at_mode + 0.5 * n_coef * LOG_2PI - 0.5 * log_det


@dataclass(frozen=True)
class CacheEntry:
    log_score: float
    converged: bool


_CACHE_COLUMNS = ["node", "parent_mask", "log_score", "converged", "separation"]


@dataclass
class ScoreCache:
    """Log scores for every (node, parent mask) pair up to a parent-count cap.

    The separation status of an entry is not needed to score or search, so a
    cache built from data classifies an entry's table only when
    :meth:`separation` asks for it, and keeps the answer in ``separations``.
    A cache read from CSV has every status from the file's column.
    """

    n_vars: int
    max_parents: int
    entries: dict[tuple[int, int], CacheEntry]
    diagnostics: list[tuple[int, int, str]] = field(default_factory=list)
    prior_label: str = ""
    separations: dict[tuple[int, int], SeparationStatus] = field(default_factory=dict)
    data: Dataset | None = field(default=None, repr=False, compare=False)

    def score(self, node: int, parent_mask: int) -> float:
        return self.entries[(node, parent_mask)].log_score

    def separation(self, node: int, parent_mask: int) -> SeparationStatus:
        """Albert-Anderson status of one entry's table, classified on first request."""
        key = (node, parent_mask)
        status = self.separations.get(key)
        if status is None:
            if key not in self.entries:
                raise KeyError(key)
            if self.data is None:
                raise ValueError(f"no separation status for {key} and no data to classify it")
            table = self.data.parent_table(node, parent_mask)
            status = self.separations[key] = separation_of_patterns(*table)
        return status

    def total_entries(self) -> int:
        return len(self.entries)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# n_vars: {self.n_vars}\n")
        buf.write(f"# max_parents: {self.max_parents}\n")
        if self.prior_label:
            buf.write(f"# prior: {self.prior_label}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CACHE_COLUMNS)
        for (node, mask) in sorted(self.entries):
            entry = self.entries[(node, mask)]
            writer.writerow(
                [
                    node,
                    mask,
                    repr(entry.log_score),
                    "true" if entry.converged else "false",
                    self.separation(node, mask).value,
                ]
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ScoreCache":
        """Read a cache written by :meth:`to_csv`; a malformed line raises ``ValueError``."""
        sizes: dict[str, int] = {}
        prior_label = ""
        rows = []
        for number, line in enumerate(text.splitlines(), start=1):
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(":")
                if key in ("n_vars", "max_parents"):
                    value = value.strip()
                    if not (value.isascii() and value.isdigit() and int(value) <= MAX_NODES):
                        raise ValueError(
                            f"line {number}: {key} must be an integer in 0..{MAX_NODES}, "
                            f"got {value!r}"
                        )
                    sizes[key] = int(value)
                elif key == "prior":
                    prior_label = value.strip()
            elif line.strip():
                rows.append((number, next(csv.reader([line]))))
        if not rows:
            raise ValueError("empty score cache file")
        for key in ("n_vars", "max_parents"):
            if key not in sizes:
                raise ValueError(f"missing '# {key}:' comment")
        n_vars, max_parents = sizes["n_vars"], sizes["max_parents"]
        (number, header), *rows = rows
        if header != _CACHE_COLUMNS:
            expected = ",".join(_CACHE_COLUMNS)
            raise ValueError(f"line {number}: expected header {expected}, got {','.join(header)}")
        parsed = []
        for number, row in rows:
            try:
                if len(row) != len(_CACHE_COLUMNS):
                    raise ValueError(f"expected {len(_CACHE_COLUMNS)} fields, got {len(row)}")
                if row[3] not in ("true", "false"):
                    raise ValueError(f"converged must be true or false, got {row[3]!r}")
                log_score = float(row[2])
                if math.isnan(log_score) or log_score == math.inf:
                    raise ValueError(f"log_score must be finite or -inf, got {row[2]!r}")
                entry = CacheEntry(log_score=log_score, converged=row[3] == "true")
                parsed.append((number, int(row[0]), int(row[1]), entry, SeparationStatus(row[4])))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
        entries: dict[tuple[int, int], CacheEntry] = {}
        separations: dict[tuple[int, int], SeparationStatus] = {}
        for number, node, mask, entry, status in parsed:
            # the search indexes its tables by (node, mask), so a stray key
            # would land in another node's row
            if not 0 <= node < n_vars:
                problem = f"node {node} is not in 0..{n_vars - 1}"
            elif not 0 <= mask < 1 << n_vars:
                problem = f"parent mask {mask} has bits beyond {n_vars} variables"
            elif (mask >> node) & 1:
                problem = f"parent mask {mask} contains node {node} itself"
            elif mask.bit_count() > max_parents:
                problem = f"parent mask {mask} has more than {max_parents} parents"
            elif (node, mask) in entries:
                problem = f"duplicate entry for node {node}, parent mask {mask}"
            else:
                problem = None
            if problem:
                raise ValueError(f"line {number}: {problem}")
            entries[(node, mask)] = entry
            separations[(node, mask)] = status
        return cls(
            n_vars=n_vars,
            max_parents=max_parents,
            entries=entries,
            prior_label=prior_label,
            separations=separations,
        )


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


def build_score_cache(data: Dataset, prior: Prior, max_parents: int | None = None) -> ScoreCache:
    """Score every candidate parent set of every node.

    Scores are Laplace log marginal likelihoods; a fit that fails enters the
    cache as -inf with its ``NodeFit.failure`` as a diagnostic, so downstream
    search simply never picks it.  Entries are computed in ascending (node,
    mask) order, which together with row-order-free aggregation makes the
    cache a pure function of the data multiset.  No table is classified for
    separation here; the cache keeps ``data`` so that
    :meth:`ScoreCache.separation` can do it on request.
    """
    n = data.n_vars
    if n < 1:
        raise ValueError("dataset needs at least one variable")
    if max_parents is None:
        max_parents = n - 1
    if not 0 <= max_parents <= n - 1:
        raise ValueError(f"max_parents must lie in 0..{n - 1}")
    if isinstance(prior, StrongGaussianPrior) and prior.truth.n != n:
        raise ValueError("informed prior truth has a different variable count")

    entries: dict[tuple[int, int], CacheEntry] = {}
    diagnostics: list[tuple[int, int, str]] = []

    for node in range(n):
        for mask in parent_masks(n, node, max_parents):
            fit = _fit_aggregated(*data.parent_table(node, mask), prior.for_node(node, mask))
            entries[(node, mask)] = CacheEntry(fit.log_marginal, fit.converged)
            if fit.failure:
                diagnostics.append((node, mask, fit.failure))

    return ScoreCache(
        n_vars=n,
        max_parents=max_parents,
        entries=entries,
        diagnostics=diagnostics,
        prior_label=prior.describe(),
        data=data,
    )


def prior_from_name(
    name: str,
    *,
    truth: AbnParams | None = None,
    wi_variance: float = 1000.0,
    st_df: float = 1.0,
    st_scale: float = 2.5,
    st_intercept_scale: float = 10.0,
    si_variance: float = 0.1,
    si_absent_variance: float = 1000.0,
) -> Prior:
    """Build a prior from its short study name: ``wi``, ``st`` or ``si``."""
    key = name.strip().lower()
    if key == "wi":
        return GaussianPrior(mean=0.0, variance=wi_variance)
    if key == "st":
        return StudentTPrior(df=st_df, scale=st_scale, intercept_scale=st_intercept_scale)
    if key == "si":
        if truth is None:
            raise ValueError("the informed prior needs the generating parameters")
        return StrongGaussianPrior(
            truth=truth, variance=si_variance, absent_variance=si_absent_variance
        )
    raise ValueError(f"unknown prior name: {name!r} (expected wi, st or si)")
