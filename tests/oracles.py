"""Independent reference implementations the tests compare the library against.

Everything here deliberately avoids the library's own algorithms: separation
is decided by exact Fourier-Motzkin elimination over rationals, equivalence
classes by enumerating all DAGs over a skeleton, the best network under a
score cache by walking every acyclic choice of cached parent sets (and, bit
for bit, by a float-and-mask subset sweep with a pull-form sink DP),
marginal likelihoods by numerical integration, the unpenalised MLE by a
plain Newton loop, a penalised fit by a scalar IRLS loop over one table with
the library's rules, and a node's design by one explicit row per observation.
``parent_table`` is the one exception: the library's own table builder, for one key.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize
from scipy.special import expit, gammaln

from abn_forge import (
    Dag,
    Dataset,
    GaussianPrior,
    NodeFit,
    ScoreCache,
    SearchResult,
    StrongGaussianPrior,
    StudentTPrior,
)

# ---------------------------------------------------------------------------
# linear-inequality feasibility by Fourier-Motzkin elimination (exact)


def _fm_feasible(rows: list[tuple[Fraction, ...]], consts: list[Fraction]) -> bool:
    """Whether { b : row . b >= const for every row } is nonempty.

    Eliminates one variable at a time, combining each lower bound with each
    upper bound, all in exact rational arithmetic.
    """
    n_vars = len(rows[0]) if rows else 0
    system = [(tuple(r), c) for r, c in zip(rows, consts)]
    for var in range(n_vars):
        lowers2 = []
        uppers2 = []
        keep2 = []
        for coefs, const in system:
            a = coefs[var]
            if a == 0:
                keep2.append((coefs, const))
                continue
            scaled = tuple(c / abs(a) for c in coefs)
            sconst = const / abs(a)
            if a > 0:
                lowers2.append((scaled, sconst))  # b_var + rest.b >= c  =>  b_var >= c - rest.b
            else:
                uppers2.append((scaled, sconst))  # -b_var + rest.b >= c  =>  b_var <= rest.b - c
        combined = []
        for (lcoef, lconst) in lowers2:
            for (ucoef, uconst) in uppers2:
                coefs = tuple(
                    (lc + uc) if i != var else Fraction(0)
                    for i, (lc, uc) in enumerate(zip(lcoef, ucoef))
                )
                combined.append((coefs, lconst + uconst))
        system = keep2 + combined
        # dedupe to keep the row count in check
        system = list({(coefs, const) for coefs, const in system})
    return all(const <= 0 for _, const in system)


def _signed_rows(X: np.ndarray, y: np.ndarray) -> list[tuple[Fraction, ...]]:
    rows = []
    for xi, yi in zip(np.asarray(X), np.asarray(y)):
        sign = 1 if yi > 0.5 else -1
        rows.append(tuple(Fraction(sign) * Fraction(v).limit_denominator(10**6) for v in xi))
    return sorted(set(rows))


def fm_separation(X: np.ndarray, y: np.ndarray) -> str:
    """Separation status ('none' / 'quasi_complete' / 'complete') by exact feasibility.

    complete:  exists b with u.b >= 1 for all signed rows u (scale invariance
    makes the right-hand side 1 equivalent to any positive margin).
    quasi-complete: not complete, but some b != 0 has u.b >= 0 for all rows;
    nonzeroness is enforced by trying b_k >= 1 and -b_k >= 1 for every k.
    """
    y = np.asarray(y, dtype=float)
    if len(y) == 0 or y.min() > 0.5 or y.max() < 0.5:
        return "complete"
    rows = _signed_rows(X, y)
    d = len(rows[0])
    if _fm_feasible(rows, [Fraction(1)] * len(rows)):
        return "complete"
    zeros = [Fraction(0)] * len(rows)
    for k in range(d):
        for sign in (1, -1):
            pin = tuple(Fraction(sign if i == k else 0) for i in range(d))
            if _fm_feasible(rows + [pin], zeros + [Fraction(1)]):
                return "quasi_complete"
    return "none"


# ---------------------------------------------------------------------------
# DAG enumeration and equivalence classes


def _mask_edges(parent_masks) -> set[tuple[int, int]]:
    n = len(parent_masks)
    return {(p, c) for c, m in enumerate(parent_masks) for p in range(n) if (m >> p) & 1}


def _acyclic_edges(n: int, edges: set[tuple[int, int]]) -> bool:
    color = [0] * n
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)

    def dfs(u: int) -> bool:
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1:
                return False
            if color[v] == 0 and not dfs(v):
                return False
        color[u] = 2
        return True

    return all(color[u] != 0 or dfs(u) for u in range(n))


def enumerate_dags(n: int) -> list[tuple[int, ...]]:
    """All DAGs on n nodes as parent-mask tuples (n <= 4: 543 DAGs at n=4)."""
    assert n <= 4
    all_masks = [[m for m in range(1 << n) if not (m >> j) & 1] for j in range(n)]
    out = []
    for combo in itertools.product(*all_masks):
        if _acyclic_edges(n, _mask_edges(combo)):
            out.append(combo)
    return out


def _vstructures(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int, int]]:
    adjacent = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    out = set()
    for c in range(n):
        parents = sorted(a for a, b in edges if b == c)
        for a, b in itertools.combinations(parents, 2):
            if (a, b) not in adjacent:
                out.add((a, c, b))
    return out


def cpdag_oracle(n: int, parent_masks: tuple[int, ...]) -> tuple[set, set]:
    """The Markov equivalence class of a DAG by brute force.

    Enumerates every orientation of the skeleton, keeps those that are acyclic
    with the same v-structures, and reports an edge as directed only when all
    class members agree.  Returns (directed pairs, undirected pairs a<b).
    """
    edges = _mask_edges(parent_masks)
    skeleton = sorted({(min(a, b), max(a, b)) for a, b in edges})
    target_v = _vstructures(n, edges)
    members = []
    for flips in itertools.product((False, True), repeat=len(skeleton)):
        oriented = {
            (b, a) if flip else (a, b) for (a, b), flip in zip(skeleton, flips)
        }
        if _acyclic_edges(n, oriented) and _vstructures(n, oriented) == target_v:
            members.append(oriented)
    assert members, "the DAG itself is always a member"
    directed = set.intersection(*members) if members else set()
    undirected = {
        (min(a, b), max(a, b))
        for member in members
        for (a, b) in member
        if (a, b) not in directed
    }
    return directed, undirected


def cache_from_scores(n_vars: int, max_parents: int, scores: dict[tuple[int, int], float]) -> ScoreCache:
    """A hand-built cache with no data: one converged entry per ``(node, mask): score`` item."""
    keys = sorted(scores)
    nodes, masks = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    log_score = [float(scores[key]) for key in keys]
    return ScoreCache(n_vars, max_parents, nodes, masks, log_score, np.ones(len(keys), dtype=bool))


def brute_force_search(cache: ScoreCache) -> SearchResult:
    """Reference optimum by enumerating parent-set combinations, n <= 5 only.

    Walks the nodes depth-first, assigning each node one of its cached parent
    sets and abandoning a branch as soon as the partial graph closes a cycle.
    Scores must match the library's exact search exactly; on ties the
    selected DAG may legitimately differ.
    """
    n = cache.n_vars
    if n > 5:
        raise ValueError("brute force enumeration is for n <= 5")
    options: list[list[tuple[int, float]]] = []
    for node in range(n):
        at = cache.nodes == node
        node_options = sorted(zip(cache.masks[at].tolist(), cache.log_score[at].tolist()))
        if not node_options:
            raise ValueError(f"cache has no entries for node {node}")
        options.append(node_options)

    best_total = -np.inf
    best_parents: tuple[int, ...] | None = None
    chosen = [0] * n

    def descend(node: int, partial: float) -> None:
        nonlocal best_total, best_parents
        if node == n:
            if partial > best_total:
                best_total = partial
                best_parents = tuple(chosen)
            return
        for m, s in options[node]:
            chosen[node] = m
            if _acyclic_edges(n, _mask_edges(chosen[: node + 1] + [0] * (n - node - 1))):
                descend(node + 1, partial + s)
        chosen[node] = 0

    descend(0, 0.0)
    if best_parents is None:
        raise RuntimeError("no acyclic assignment found")
    total = sum(cache.score(j, best_parents[j]) for j in range(n))
    return SearchResult(dag=Dag(n, best_parents), total_score=float(total))


def reference_best_parent_sets(cache: ScoreCache) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2^n) best cached score within every candidate mask, and the mask attaining it.

    The float-and-mask subset sweep: a position with no entry holds (-inf,
    mask 0), and bit by bit each mask takes the better of itself and the mask
    without that bit, a higher score first, then a lower mask.
    """
    n = cache.n_vars
    size = 1 << n
    score = np.full((n, size), -np.inf)
    mask = np.zeros((n, size), dtype=np.int64)
    score[cache.nodes, cache.masks] = cache.log_score
    mask[cache.nodes, cache.masks] = cache.masks
    for row_score, row_mask in zip(score, mask):
        for b in range(n):
            s = row_score.reshape(-1, 2, 1 << b)
            m = row_mask.reshape(-1, 2, 1 << b)
            better = (s[:, 0] > s[:, 1]) | ((s[:, 0] == s[:, 1]) & (m[:, 0] < m[:, 1]))
            np.copyto(s[:, 1], s[:, 0], where=better)
            np.copyto(m[:, 1], m[:, 0], where=better)
    return score, mask


def full_mask_tables(table) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2^n) score and mask of a :class:`BestParentTable`, over full candidate masks.

    Row j of the table is indexed by the candidate mask with bit j squeezed
    out, so a full mask reads the position it has without bit j: the same
    arrays :func:`reference_best_parent_sets` builds.
    """
    full = np.arange(1 << table.n_vars)
    low = (1 << np.arange(table.n_vars)[:, None]) - 1
    rank = np.take_along_axis(table.rank, (full & low) | ((full >> 1) & ~low), axis=1)
    return (
        np.take_along_axis(table.ranked_score, rank, axis=1),
        np.take_along_axis(table.ranked_mask, rank, axis=1),
    )


def reference_exact_search(cache: ScoreCache) -> SearchResult:
    """Sink-peeling DP over every subset, pulling each subset from all of its sinks.

    Each layer of subsets of one size tries every node as the sink, lowest
    first, and keeps a strictly better value, so ties go to the lowest sink
    and then, through the best-parent table, to the lowest parent mask.
    """
    n = cache.n_vars
    size = 1 << n
    table_score, table_mask = reference_best_parent_sets(cache)
    indices = np.arange(size, dtype=np.int64)
    popcount = np.zeros(size, dtype=np.int64)
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
            value = np.where((layer >> j) & 1, best[rest] + table_score[j][rest], -np.inf)
            better = value > layer_best
            np.copyto(layer_best, value, where=better)
            layer_sink[better] = j
        best[layer] = layer_best
        sink[layer] = layer_sink
    parents = [0] * n
    remaining = size - 1
    while remaining:
        j = int(sink[remaining])
        if j < 0:
            raise RuntimeError("search table contains no admissible sink; cache incomplete?")
        rest = remaining ^ (1 << j)
        parents[j] = int(table_mask[j][rest])
        remaining = rest
    total = sum(cache.score(j, parents[j]) for j in range(n))
    return SearchResult(dag=Dag(n, tuple(parents)), total_score=float(total))


# ---------------------------------------------------------------------------
# reference log posterior pieces (no shared code with the library)


def norm_logpdf(x: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """The normal log density in closed form; ``scipy.stats.norm.logpdf`` costs far more per call."""
    z = (x - mean) / sd
    return -0.5 * z * z - np.log(sd) - 0.5 * math.log(2.0 * math.pi)


def t_logpdf(x: np.ndarray, df: float, scale: np.ndarray) -> np.ndarray:
    """The Student t log density at location 0 in closed form, as ``scipy.stats.t.logpdf``."""
    z = x / scale
    const = gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * math.log(df * math.pi)
    return const - np.log(scale) - (df + 1.0) / 2.0 * np.log1p(z * z / df)


def ref_log_posterior(
    beta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    prior_spec: dict,
    trials: np.ndarray | None = None,
) -> float:
    eta = X @ beta
    n = np.ones(len(y)) if trials is None else np.asarray(trials, dtype=float)
    loglik = float(y @ eta - n @ np.logaddexp(0.0, eta))
    kind = prior_spec["kind"]
    if kind == "gaussian":
        mean = np.broadcast_to(np.asarray(prior_spec["mean"], dtype=float), beta.shape)
        sd = np.sqrt(np.broadcast_to(np.asarray(prior_spec["variance"], dtype=float), beta.shape))
        logprior = float(norm_logpdf(beta, mean, sd).sum())
    elif kind == "student":
        scales = np.asarray(prior_spec["scales"], dtype=float)
        logprior = float(t_logpdf(beta, prior_spec["df"], scales).sum())
    else:
        raise ValueError(kind)
    return loglik + logprior


def ref_log_posterior_grad(
    beta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    prior_spec: dict,
    trials: np.ndarray | None = None,
) -> np.ndarray:
    """The gradient of :func:`ref_log_posterior` in closed form."""
    n = np.ones(len(y)) if trials is None else np.asarray(trials, dtype=float)
    grad = X.T @ (y - n * expit(X @ beta))
    kind = prior_spec["kind"]
    if kind == "gaussian":
        mean = np.broadcast_to(np.asarray(prior_spec["mean"], dtype=float), beta.shape)
        variance = np.broadcast_to(np.asarray(prior_spec["variance"], dtype=float), beta.shape)
        return grad - (beta - mean) / variance
    if kind == "student":
        df, scales = prior_spec["df"], np.asarray(prior_spec["scales"], dtype=float)
        return grad - (df + 1.0) * beta / (df * scales * scales + beta * beta)
    raise ValueError(kind)


def _ref_mode(
    X: np.ndarray, y: np.ndarray, prior_spec: dict, trials: np.ndarray | None = None
) -> np.ndarray:
    d = X.shape[1]
    res = optimize.minimize(
        lambda b: -ref_log_posterior(b, X, y, prior_spec, trials),
        x0=np.zeros(d),
        method="BFGS",
        jac=lambda b: -ref_log_posterior_grad(b, X, y, prior_spec, trials),
    )
    return res.x


def _fd_hessian(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    d = len(x)
    H = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return H


def _pointwise_logpost(X: np.ndarray, y: np.ndarray, prior_spec: dict):
    """A fast closure equal to ``ref_log_posterior`` on Bernoulli rows.

    Rows are aggregated into unique predictor patterns (the Bernoulli product
    carries no binomial coefficient, so this is exact) and the prior densities
    are inlined, which keeps adaptive quadrature from being throttled by
    per-point overhead.
    """
    patterns, inverse = np.unique(X, axis=0, return_inverse=True)
    succ = np.bincount(inverse, weights=y, minlength=len(patterns))
    tot = np.bincount(inverse, minlength=len(patterns)).astype(float)
    d = X.shape[1]
    kind = prior_spec["kind"]
    if kind == "gaussian":
        mean = np.broadcast_to(np.asarray(prior_spec["mean"], dtype=float), (d,))
        var = np.broadcast_to(np.asarray(prior_spec["variance"], dtype=float), (d,))
        const = -0.5 * float(np.sum(np.log(2.0 * math.pi * var)))

        def logpost(beta: np.ndarray) -> float:
            eta = patterns @ beta
            loglik = float(succ @ eta - tot @ np.logaddexp(0.0, eta))
            z = beta - mean
            return loglik + const - 0.5 * float(np.sum(z * z / var))

    elif kind == "student":
        scales = np.asarray(prior_spec["scales"], dtype=float)
        df = float(prior_spec["df"])
        const = d * float(
            gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * math.log(df * math.pi)
        ) - float(np.sum(np.log(scales)))

        def logpost(beta: np.ndarray) -> float:
            eta = patterns @ beta
            loglik = float(succ @ eta - tot @ np.logaddexp(0.0, eta))
            t2 = (beta / scales) ** 2
            return loglik + const - 0.5 * (df + 1.0) * float(np.sum(np.log1p(t2 / df)))

    else:
        raise ValueError(kind)
    return logpost


def quad_log_marginal(X: np.ndarray, y: np.ndarray, prior_spec: dict) -> float:
    """log of the exact marginal likelihood by adaptive quadrature (d <= 2)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    logpost = _pointwise_logpost(X, y, prior_spec)
    mode = _ref_mode(X, y, prior_spec)
    shift = logpost(mode)
    H = -_fd_hessian(logpost, mode)
    sd = np.sqrt(np.clip(np.diag(np.linalg.inv(H)), 1e-8, None))
    # posterior mass beyond 20 posterior sds is ~exp(-200); the +8 pads the
    # bracket for heavy-tailed priors without bloating the quadrature domain
    span = 20.0 * sd + 8.0

    if d == 1:
        value, _ = integrate.quad(
            lambda b0: math.exp(logpost(np.array([b0])) - shift),
            mode[0] - span[0],
            mode[0] + span[0],
            points=[mode[0]],
            limit=400,
        )
        return math.log(value) + shift
    if d == 2:
        value, _ = integrate.dblquad(
            lambda b1, b0: math.exp(logpost(np.array([b0, b1])) - shift),
            mode[0] - span[0],
            mode[0] + span[0],
            lambda _: mode[1] - span[1],
            lambda _: mode[1] + span[1],
            epsabs=1e-10,
        )
        return math.log(value) + shift
    raise ValueError("adaptive quadrature oracle only covers d <= 2")


def gauss_hermite_log_marginal(
    X: np.ndarray,
    y: np.ndarray,
    prior_spec: dict,
    points: int = 16,
    trials: np.ndarray | None = None,
) -> float:
    """log marginal likelihood by mode-centred Gauss-Hermite product quadrature.

    The mode and curvature only centre and scale the rule; with enough points
    per axis the value converges to the exact integral, giving a check that
    goes beyond the Laplace approximation it is compared against.  Pass
    aggregated (X, successes, trials) for anything beyond toy sample sizes.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = np.ones(len(y)) if trials is None else np.asarray(trials, dtype=float)
    d = X.shape[1]
    mode = _ref_mode(X, y, prior_spec, n)
    H = -_fd_hessian(lambda b: ref_log_posterior(b, X, y, prior_spec, n), mode)
    # guard against stray negative curvature directions in the FD estimate
    w_eig, V = np.linalg.eigh(H)
    w_eig = np.clip(w_eig, 1e-6, None)
    L = V @ np.diag(1.0 / np.sqrt(w_eig))  # columns scale the unit gaussian
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=1)  # (points^d, d)
    wgrids = np.meshgrid(*([weights] * d), indexing="ij")
    W = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    thetas = mode[None, :] + math.sqrt(2.0) * (Z @ L.T)
    eta = thetas @ X.T
    loglik = eta @ y - np.logaddexp(0.0, eta) @ n
    kind = prior_spec["kind"]
    if kind == "gaussian":
        mean = np.broadcast_to(np.asarray(prior_spec["mean"], dtype=float), (d,))
        sd_p = np.sqrt(np.broadcast_to(np.asarray(prior_spec["variance"], dtype=float), (d,)))
        logprior = norm_logpdf(thetas, mean, sd_p).sum(axis=1)
    else:
        scales = np.asarray(prior_spec["scales"], dtype=float)
        logprior = t_logpdf(thetas, prior_spec["df"], scales).sum(axis=1)
    log_terms = loglik + logprior + (Z * Z).sum(axis=1) + np.log(W)
    peak = log_terms.max()
    total = math.log(np.exp(log_terms - peak).sum()) + peak
    _, logdet = np.linalg.slogdet(L)
    return total + d / 2.0 * math.log(2.0) + logdet


def newton_mle(X: np.ndarray, y: np.ndarray, iterations: int = 80) -> np.ndarray:
    """Plain unpenalised Newton iterations for the logistic MLE (may run away)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(X.shape[1])
    for _ in range(iterations):
        eta = X @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))
        w = np.clip(p * (1.0 - p), 1e-12, None)
        H = (X * w[:, None]).T @ X + 1e-12 * np.eye(X.shape[1])
        g = X.T @ (y - p)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        if np.abs(step).max() > 20.0:
            step *= 20.0 / np.abs(step).max()
        beta = beta + step
        if np.abs(step).max() < 1e-12:
            break
    return beta


# ---------------------------------------------------------------------------
# the scalar IRLS fit: one table at a time, the prior's terms as callables


def _scalar_prior_terms(prior: GaussianPrior | StudentTPrior, d: int):
    """(centre, log density, working precision, curvature) of a coefficient prior."""
    if isinstance(prior, GaussianPrior):
        mean, variance = prior.resolve(d)
        finite = np.isfinite(variance)
        with np.errstate(divide="ignore"):
            precision = np.where(finite, 1.0 / variance, 0.0)

        def log_density(coef):
            if not finite.any():
                return 0.0
            v = variance[finite]
            u = coef[finite] - mean[finite]
            return float(-0.5 * np.sum(np.log(2.0 * np.pi * v) + u * u / v))

        return mean, log_density, lambda coef: precision, lambda coef: precision
    loc, scales = prior.resolve(d)
    df = float(prior.df)

    def log_density(coef):
        u = (coef - loc) / scales
        per = (
            gammaln((df + 1.0) / 2.0)
            - gammaln(df / 2.0)
            - 0.5 * math.log(df * math.pi)
            - np.log(scales)
            - (df + 1.0) / 2.0 * np.log1p(u * u / df)
        )
        return float(np.sum(per))

    def precision(coef):
        u = coef - loc
        return 1.0 / ((df * scales * scales + u * u) / (df + 1.0))

    def curvature(coef):
        u = coef - loc
        a = df * scales * scales
        return (df + 1.0) * (a - u * u) / (a + u * u) ** 2

    return loc, log_density, precision, curvature


def scalar_irls_fit(
    patterns: np.ndarray,
    successes: np.ndarray,
    trials: np.ndarray,
    prior: GaussianPrior | StudentTPrior,
) -> NodeFit:
    """Posterior-mode IRLS of one aggregated table, with the library's rules.

    The first iterate is one penalised weighted least-squares step from the
    fitted probabilities (s + 1/2) / (t + 1), with the prior as
    pseudo-observations at its centre under its working precision there; a
    singular or non-finite start keeps the centre.  Each sweep is a Newton step
    on the exact log posterior where its negative Hessian has a Cholesky
    factor, and otherwise uses the prior's working precision in place of its
    curvature.  Convergence when no coefficient moves by 1e-8 in a sweep;
    step-halving on a drop of more than 1e-12, at most 30 halvings a sweep; the
    failure is the first of a singular weighted system, no convergence in 200
    sweeps, and a Laplace value without a Cholesky factor.
    """
    n_coef = patterns.shape[1]
    centre, log_density, precision, curvature = _scalar_prior_terms(prior, n_coef)

    def log_post(coef):
        eta = patterns @ coef
        loglik = successes @ -np.logaddexp(0.0, -eta) + (trials - successes) @ -np.logaddexp(0.0, eta)
        return float(loglik) + log_density(coef)

    diag = np.arange(n_coef)
    beta = centre.copy()
    start_weights = np.empty(len(trials))
    response = np.empty(len(trials))
    for row, (s, t) in enumerate(zip(successes, trials)):
        mu = (s + 0.5) / (t + 1.0)
        start_weights[row] = t * mu * (1.0 - mu)
        response[row] = math.log(mu / (1.0 - mu))
    start_precision = precision(centre)
    system = (patterns * start_weights[:, None]).T @ patterns
    system[diag, diag] += start_precision
    try:
        start = np.linalg.solve(system, patterns.T @ (start_weights * response) + start_precision * centre)
        if np.isfinite(start).all():
            beta = start
    except np.linalg.LinAlgError:
        pass

    current = log_post(beta)
    converged = False
    failure = ""
    for iterations in range(1, 201):
        inv_var = precision(beta)
        p = expit(patterns @ beta)
        w = trials * p * (1.0 - p)
        grad = patterns.T @ (successes - trials * p) - (beta - centre) * inv_var
        weighted = (patterns * w[:, None]).T @ patterns
        hess = weighted.copy()
        hess[diag, diag] += curvature(beta)
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            hess = weighted
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
        delta = float(np.abs(candidate - beta).max())
        beta, current = candidate, value
        if delta < 1e-8:
            converged = True
            break
    else:
        failure = "no convergence in 200 sweeps"

    p = expit(patterns @ beta)
    neg_hessian = (patterns * (trials * p * (1.0 - p))[:, None]).T @ patterns
    neg_hessian[diag, diag] += curvature(beta)
    log_marginal = float("-inf")
    if not failure and trials.sum() == 0:
        log_marginal = 0.0
    elif not failure:
        try:
            chol = np.linalg.cholesky(neg_hessian)
            log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
            value = current + 0.5 * n_coef * math.log(2.0 * math.pi) - 0.5 * log_det
        except np.linalg.LinAlgError:
            value = float("nan")
        if math.isfinite(value):
            log_marginal = value
        else:
            failure = "non-finite log score"
    return NodeFit(beta, neg_hessian, current, log_marginal, converged, iterations, failure)


# ---------------------------------------------------------------------------
# explicit designs and tables


def explicit_design(data: Dataset, node: int, parent_mask: int) -> tuple[np.ndarray, np.ndarray]:
    """One row per observation (the intercept, then the parents ascending) and the node's column."""
    parents = [k for k in range(data.n_vars) if (parent_mask >> k) & 1]
    X = np.column_stack([np.ones(data.n_obs)] + [data.values[:, k] for k in parents])
    return X.astype(float), data.values[:, node].astype(float)


def parent_table(data: Dataset, node: int, parent_mask: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One node's aggregated design over ``parent_mask``: (patterns, successes, trials).

    The one-key case of :meth:`Dataset.parent_tables`: the observed configurations, and no padding.
    """
    if not 0 <= node < data.n_vars:
        raise ValueError(f"node {node} out of range")
    if (parent_mask >> node) & 1:
        raise ValueError(f"node {node} cannot be its own parent")
    if parent_mask & ~((1 << data.n_vars) - 1):
        raise ValueError("parent mask references variables beyond the dataset")
    return tuple(table[0] for table in data.parent_tables(np.array([node]), np.array([parent_mask])))


def reference_parent_tables(data: Dataset, nodes, masks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Dataset.parent_tables`` by one count per key over every observation, in the layout it promises.

    Each key's configurations are numbered with the first parent most significant.  When some key
    observes all 2^k, every table lists them all ascending, under one shared (1, 2^k, k+1)
    ``patterns``; otherwise a table lists its observed configurations ascending, then its
    unobserved ones ascending, cut to the most any key observes.
    """
    orders, counts = [], []
    for node, mask in zip(nodes, masks):
        parents = [v for v in range(data.n_vars) if (int(mask) >> v) & 1]
        config = np.zeros(data.n_obs, dtype=np.int64)
        for v in parents:
            config = config << 1 | data.values[:, v]
        n_configs = 1 << len(parents)
        trials = np.bincount(config, minlength=n_configs).astype(float)
        successes = np.bincount(config, weights=data.values[:, node].astype(float), minlength=n_configs)
        seen = np.flatnonzero(trials > 0)
        orders.append(np.concatenate([seen, np.flatnonzero(trials == 0)]))
        counts.append((len(seen), successes, trials))
    k = int(masks[0]).bit_count()
    width = max(seen for seen, _, _ in counts)
    shared = width == 1 << k
    if shared:
        orders = [np.sort(order) for order in orders]
    rows = np.array([order[:width] for order in orders], dtype=np.int64).reshape(len(orders), width)
    patterns = np.ones(rows.shape + (k + 1,))
    for i in range(k):
        patterns[..., 1 + i] = (rows >> (k - 1 - i)) & 1
    if shared:
        patterns = patterns[:1]
    successes = np.array([s[row] for (_, s, _), row in zip(counts, rows)], dtype=float).reshape(rows.shape)
    trials = np.array([t[row] for (_, _, t), row in zip(counts, rows)], dtype=float).reshape(rows.shape)
    return patterns, successes, trials


def prior_for_node(prior, node: int, parent_mask: int):
    """The coefficient prior of one candidate parent set: ``wi`` and ``st`` as they are, ``si`` made concrete."""
    if isinstance(prior, StrongGaussianPrior):
        terms = prior.for_masks(np.array([node]), np.array([parent_mask]))
        return GaussianPrior(mean=terms.centre[0], variance=terms.spread[0])
    return prior
