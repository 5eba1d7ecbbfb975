import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit

from abn_forge import (
    AbnParams,
    CacheEntry,
    Dag,
    Dataset,
    GaussianPrior,
    ScoreCache,
    SeparationStatus,
    StrongGaussianPrior,
    StudentTPrior,
    aggregate_design,
    build_score_cache,
    fit_node,
    prior_from_name,
    random_dag,
    sample,
    separation_of_design,
)
from abn_forge import score as score_module
from abn_forge.data import separation_of_patterns
from abn_forge.experiments import StudyConfig, run_study
from abn_forge.graph import MAX_NODES
from abn_forge.score import PriorTerms, _fit_aggregated, _laplace_value, parent_masks
from oracles import (
    cache_from_scores,
    explicit_design,
    gauss_hermite_log_marginal,
    newton_mle,
    norm_logpdf,
    parent_table,
    prior_for_node,
    quad_log_marginal,
    ref_log_posterior,
    ref_log_posterior_grad,
    scalar_irls_fit,
    t_logpdf,
)
from test_golden import TRUTH as GOLDEN_TRUTH
from test_golden import _cache as golden_cache
from test_golden import golden_data

CACHE_HEADER = "node,parent_mask,log_score,converged,separation"
# the (node, mask) keys of a full cache at n_vars=3 and max_parents=1, in key order
CACHE_KEYS = [f"{node},{mask}" for node in range(3) for mask in parent_masks(3, node, 1)]


def gaussian_spec(prior: GaussianPrior, d: int) -> dict:
    mean, variance = prior.resolve(d)
    return {"kind": "gaussian", "mean": mean, "variance": variance}


def student_spec(prior: StudentTPrior, d: int) -> dict:
    _, scales = prior.resolve(d)
    return {"kind": "student", "df": prior.df, "scales": scales}


def bernoulli_design(rng, n_obs, coefs):
    """n_obs rows of [1, x1, ...] with y drawn from the logistic model."""
    d = len(coefs) - 1
    X = np.column_stack([np.ones(n_obs)] + [rng.integers(0, 2, n_obs) for _ in range(d)])
    y = (rng.uniform(size=n_obs) < expit(X @ np.asarray(coefs))).astype(float)
    return X.astype(float), y


class TestPriorTypes:
    def test_gaussian_broadcasts_scalars(self):
        mean, var = GaussianPrior(mean=0.0, variance=1000.0).resolve(3)
        assert np.array_equal(mean, np.zeros(3))
        assert np.array_equal(var, np.full(3, 1000.0))

    def test_gaussian_keeps_vectors(self):
        prior = GaussianPrior(mean=np.array([1.0, 2.0]), variance=np.array([0.1, 5.0]))
        mean, var = prior.resolve(2)
        assert np.array_equal(mean, [1.0, 2.0])
        assert np.array_equal(var, [0.1, 5.0])

    def test_gaussian_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            GaussianPrior(mean=0.0, variance=0.0).resolve(2)

    def test_student_scales_put_wide_slot_on_intercept(self):
        loc, scales = StudentTPrior().resolve(3)
        assert np.array_equal(loc, np.zeros(3))
        assert scales[0] == 10.0
        assert np.all(scales[1:] == 2.5)

    def test_student_rejects_bad_df(self):
        with pytest.raises(ValueError):
            StudentTPrior(df=0.0)
        # an infinite df would fail every fit after 200 sweeps
        for df in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="df must be finite"):
                StudentTPrior(df=df)

    def test_weakly_informative_shorthand(self):
        for prior in (GaussianPrior(), prior_from_name("wi")):
            assert isinstance(prior, GaussianPrior)
            mean, var = prior.resolve(2)
            assert np.all(mean == 0.0) and np.all(var == 1000.0)


class TestStrongGaussianPrior:
    @pytest.fixture
    def truth(self):
        dag = Dag.from_edges(3, [(0, 2), (1, 2)])
        return AbnParams(
            dag=dag,
            intercepts=(0.25, 0.0, -0.5),
            edge_coef={(0, 2): 5.0, (1, 2): 3.0},
        )

    def test_true_parent_gets_tight_informed_slot(self, truth):
        prior = StrongGaussianPrior(truth=truth)
        concrete = prior_for_node(prior, 2, 0b011)
        mean, var = concrete.resolve(3)
        assert np.array_equal(mean, [-0.5, 5.0, 3.0])
        assert np.array_equal(var, [0.1, 0.1, 0.1])

    def test_absent_parent_gets_diffuse_slot(self, truth):
        prior = StrongGaussianPrior(truth=truth)
        concrete = prior_for_node(prior, 1, 0b101)
        mean, var = concrete.resolve(3)
        assert np.array_equal(mean, [0.0, 0.0, 0.0])
        assert np.array_equal(var, [0.1, 1000.0, 1000.0])

    def test_absent_variance_is_configurable(self, truth):
        prior = StrongGaussianPrior(truth=truth, absent_variance=50.0)
        _, var = prior_for_node(prior, 0, 0b010).resolve(2)
        assert var[1] == 50.0

    def test_rejects_bad_variances(self, truth):
        with pytest.raises(ValueError):
            StrongGaussianPrior(truth=truth, variance=-1.0)

    def test_rejects_out_of_range_node(self, truth):
        with pytest.raises(ValueError):
            prior_for_node(StrongGaussianPrior(truth=truth), 3, 0)


class TestPriorFromName:
    def test_round_trip_names(self):
        assert isinstance(prior_from_name("wi"), GaussianPrior)
        assert isinstance(prior_from_name("ST"), StudentTPrior)
        dag = Dag.from_edges(2, [(0, 1)])
        truth = AbnParams.uniform(dag)
        si = prior_from_name("si", truth=truth, si_absent_variance=123.0)
        assert isinstance(si, StrongGaussianPrior)
        assert si.absent_variance == 123.0

    def test_si_requires_truth(self):
        with pytest.raises(ValueError):
            prior_from_name("si")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match=r"^unknown prior name: 'jeffreys' \(expected wi, st or si\)$"):
            prior_from_name("jeffreys")

    def test_a_misspelt_hyperparameter_is_a_type_error(self):
        with pytest.raises(TypeError, match="wi_varience"):
            prior_from_name("wi", wi_varience=1.0)

    def test_another_priors_hyperparameter_is_ignored(self):
        assert prior_from_name("wi", st_scale=7.0).describe() == GaussianPrior().describe()

    def test_describe_strings_are_stable(self):
        assert GaussianPrior().describe() == "gaussian mean=0 variance=1000"
        assert (
            GaussianPrior(mean=np.zeros(2), variance=1.0).describe()
            == "gaussian (per-coefficient)"
        )
        assert StudentTPrior().describe() == "student_t df=1 scale=2.5 intercept_scale=10"
        truth = AbnParams.uniform(Dag.from_edges(2, [(0, 1)]))
        assert (
            StrongGaussianPrior(truth=truth).describe()
            == "gaussian_informed variance=0.1 absent_variance=1000"
        )


class TestFitNode:
    def test_tight_prior_pins_coefficients(self):
        rng = np.random.default_rng(0)
        X, y = bernoulli_design(rng, 60, [0.0, 0.0])
        m = np.array([0.3, -1.2])
        fit = fit_node(X, y, GaussianPrior(mean=m, variance=1e-8))
        assert fit.converged
        assert np.abs(fit.coef - m).max() < 1e-3

    def test_diffuse_prior_recovers_unpenalised_mle(self):
        rng = np.random.default_rng(1)
        X, y = bernoulli_design(rng, 400, [-0.3, 1.2])
        fit = fit_node(X, y, GaussianPrior())
        assert separation_of_design(X, y) == SeparationStatus.NONE
        assert np.abs(fit.coef - newton_mle(X, y)).max() < 1e-3

    def test_student_prior_tames_complete_separation(self):
        X = np.column_stack([np.ones(12), np.repeat([0.0, 1.0], 6)])
        y = np.repeat([0.0, 1.0], 6)
        fit = fit_node(X, y, StudentTPrior())
        assert fit.converged
        assert separation_of_design(X, y) == SeparationStatus.COMPLETE
        assert np.all(np.isfinite(fit.coef))
        assert np.abs(fit.coef).max() < 15.0

    def test_mode_maximises_the_exact_posterior(self):
        rng = np.random.default_rng(2)
        X, y = bernoulli_design(rng, 80, [0.2, -0.8])
        for prior, spec in [
            (GaussianPrior(), gaussian_spec(GaussianPrior(), 2)),
            (StudentTPrior(), student_spec(StudentTPrior(), 2)),
        ]:
            fit = fit_node(X, y, prior)
            at_mode = ref_log_posterior(fit.coef, X, y, spec)
            for _ in range(40):
                probe = fit.coef + rng.normal(scale=0.05, size=2)
                assert ref_log_posterior(probe, X, y, spec) <= at_mode + 1e-9

    def test_student_gradient_vanishes_at_mode(self):
        rng = np.random.default_rng(3)
        X, y = bernoulli_design(rng, 120, [0.1, 0.9])
        prior = StudentTPrior()
        fit = fit_node(X, y, prior)
        _, scales = prior.resolve(2)
        u = fit.coef
        p = expit(X @ u)
        grad = X.T @ (y - p) - (prior.df + 1.0) * u / (prior.df * scales**2 + u * u)
        assert np.abs(grad).max() < 1e-4

    def test_neg_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X, y = bernoulli_design(rng, 90, [0.0, 0.7])
        for prior, spec in [
            (GaussianPrior(), gaussian_spec(GaussianPrior(), 2)),
            (StudentTPrior(), student_spec(StudentTPrior(), 2)),
        ]:
            fit = fit_node(X, y, prior)
            h = 1e-5
            fd = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    ei, ej = np.zeros(2), np.zeros(2)
                    ei[i], ej[j] = h, h
                    fd[i, j] = -(
                        ref_log_posterior(fit.coef + ei + ej, X, y, spec)
                        - ref_log_posterior(fit.coef + ei - ej, X, y, spec)
                        - ref_log_posterior(fit.coef - ei + ej, X, y, spec)
                        + ref_log_posterior(fit.coef - ei - ej, X, y, spec)
                    ) / (4 * h * h)
            assert np.allclose(fit.neg_hessian, fd, rtol=1e-3, atol=1e-4)

    def test_converged_curvature_is_positive_definite(self):
        rng = np.random.default_rng(5)
        X, y = bernoulli_design(rng, 70, [0.4, -0.4])
        fit = fit_node(X, y, GaussianPrior())
        np.linalg.cholesky(fit.neg_hessian)
        assert np.allclose(fit.neg_hessian, fit.neg_hessian.T)

    def test_linear_predictor_beyond_709_fits_without_warnings(self):
        # the prior holds the intercept near -1000, so eta = -998 on the x = 0
        # rows, where exp(-eta) overflows to inf and the fitted probability is 0
        X = np.column_stack([np.ones(12), np.repeat([0.0, 1.0], 6)])
        y = np.array([0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1], dtype=float)
        prior = GaussianPrior(mean=np.array([-1000.0, 0.0]), variance=np.array([1.0, 1000.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_node(X, y, prior)
        assert (X @ fit.coef).min() < -709.0
        ref = scalar_irls_fit(*aggregate_design(X, y), prior)
        assert fit.converged and ref.converged and fit.iterations == ref.iterations == 4
        assert np.abs(fit.coef - ref.coef).max() <= 1e-9
        assert abs(fit.log_marginal - ref.log_marginal) <= 1e-9

    def test_rejects_design_without_intercept(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError):
            fit_node(X, np.zeros(5), GaussianPrior())

    @pytest.mark.parametrize("n_obs", [0, 3])
    def test_rejects_design_without_columns(self, n_obs):
        # with rows, column 0 does not exist; without, there is no intercept to score
        with pytest.raises(ValueError, match="intercept"):
            fit_node(np.zeros((n_obs, 0)), np.zeros(n_obs), GaussianPrior())

    @pytest.mark.parametrize("X, y", [(np.ones(4), np.zeros(4)), (np.ones((4, 1)), np.zeros(3))])
    def test_rejects_a_design_of_the_wrong_shape(self, X, y):
        with pytest.raises(ValueError, match="^X must be 2-d with one response per row$"):
            fit_node(X, y, GaussianPrior())

    def test_rejects_non_binary_outcome(self):
        X = np.ones((4, 1))
        with pytest.raises(ValueError):
            fit_node(X, np.array([0.0, 1.0, 2.0, 0.0]), GaussianPrior())

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_row_permutation_leaves_fit_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        X, y = bernoulli_design(rng, 50, [0.0, 0.5])
        perm = rng.permutation(50)
        a = fit_node(X, y, GaussianPrior())
        b = fit_node(X[perm], y[perm], GaussianPrior())
        assert np.array_equal(a.coef, b.coef)
        assert a.log_marginal == b.log_marginal


class TestLogMarginal:
    def test_empty_dataset_scores_exactly_zero(self):
        X = np.ones((0, 1))
        y = np.zeros(0)
        for prior in (GaussianPrior(), StudentTPrior(), GaussianPrior(0.0, 0.1)):
            fit = fit_node(X, y, prior)
            assert fit.log_marginal == 0.0

    def test_intercept_only_gaussian_matches_quadrature(self):
        rng = np.random.default_rng(6)
        for _ in range(4):
            X = np.ones((50, 1))
            y = (rng.uniform(size=50) < 0.65).astype(float)
            prior = GaussianPrior()
            fit = fit_node(X, y, prior)
            exact = quad_log_marginal(X, y, gaussian_spec(prior, 1))
            assert abs(fit.log_marginal - exact) < 0.05

    def test_one_predictor_gaussian_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            X, y = bernoulli_design(rng, 50, [0.3, 1.0])
            prior = GaussianPrior()
            fit = fit_node(X, y, prior)
            exact = quad_log_marginal(X, y, gaussian_spec(prior, 2))
            assert abs(fit.log_marginal - exact) < 0.05

    def test_one_predictor_student_matches_quadrature(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            X, y = bernoulli_design(rng, 50, [-0.2, 0.8])
            prior = StudentTPrior()
            fit = fit_node(X, y, prior)
            exact = quad_log_marginal(X, y, student_spec(prior, 2))
            assert abs(fit.log_marginal - exact) < 0.1

    def test_fit_carries_the_same_value(self):
        rng = np.random.default_rng(9)
        X, y = bernoulli_design(rng, 60, [0.0, 0.6])
        prior = GaussianPrior()
        fit = fit_node(X, y, prior)
        log_post = ref_log_posterior(fit.coef, X, y, gaussian_spec(prior, 2))
        _, log_det = np.linalg.slogdet(fit.neg_hessian)
        assert np.isclose(fit.log_marginal, log_post + np.log(2.0 * np.pi) - 0.5 * log_det)

    def test_non_positive_definite_curvature_is_reported(self):
        rng = np.random.default_rng(10)
        X, y = bernoulli_design(rng, 30, [0.0, 0.0])
        fit = fit_node(X, y, GaussianPrior())
        [value] = _laplace_value(np.array([fit.log_posterior]), -np.eye(2)[None], np.array([2]))
        assert not np.isfinite(value)


@pytest.fixture(scope="module")
def small_study_data():
    dag = Dag.from_edges(4, [(0, 2), (1, 2), (2, 3)])
    params = AbnParams.uniform(dag, edge_coef=5.0, intercept=0.0)
    data = sample(params, 300, np.random.default_rng(20))
    return dag, params, data


class TestParentMasks:
    def test_matches_full_scan_of_all_masks(self):
        for n_vars in range(1, 11):
            for node in range(n_vars):
                for cap in range(n_vars + 1):
                    scan = [
                        mask
                        for mask in range(1 << n_vars)
                        if not (mask >> node) & 1 and mask.bit_count() <= cap
                    ]
                    assert parent_masks(n_vars, node, cap) == scan


class TestScoreCache:
    def test_covers_every_parent_set(self, small_study_data):
        _, _, data = small_study_data
        cache = build_score_cache(data, GaussianPrior())
        assert cache.total_entries() == 4 * 2**3
        for node in range(4):
            for mask in parent_masks(4, node, 3):
                assert np.isfinite(cache.score(node, mask))

    def test_max_parents_trims_the_lattice(self, small_study_data):
        _, _, data = small_study_data
        cache = build_score_cache(data, GaussianPrior(), max_parents=1)
        assert cache.total_entries() == 4 * 4
        with pytest.raises(KeyError):
            cache.score(0, 0b0110)

    @pytest.mark.parametrize("max_parents", [True, 1.0])
    def test_max_parents_must_be_an_integer(self, small_study_data, max_parents):
        _, _, data = small_study_data
        with pytest.raises(ValueError, match="max_parents must be an integer"):
            build_score_cache(data, GaussianPrior(), max_parents=max_parents)

    def test_a_capped_cache_reads_back(self, small_study_data):
        _, _, data = small_study_data
        text = build_score_cache(data, GaussianPrior(), max_parents=np.int64(1)).to_csv()
        assert "# max_parents: 1\n" in text
        assert ScoreCache.from_csv(text).to_csv() == text

    def test_entries_are_a_read_only_view(self, small_study_data):
        _, _, data = small_study_data
        cache = build_score_cache(data, GaussianPrior(), max_parents=1)
        entries = cache.entries
        assert len(entries) == cache.total_entries() == 16
        assert entries[(2, 0b0001)] == CacheEntry(cache.score(2, 0b0001), True)
        with pytest.raises(TypeError):
            entries[(2, 0b0001)] = CacheEntry(0.0, True)
        with pytest.raises(TypeError):
            del entries[(0, 0)]

    # (0, 0b10000) and (1, 0b10000) share the lookup key of (1, 0) but are not cached
    @pytest.mark.parametrize("key", [(0, 0b0110), (0, 0b0001), (4, 0), (-1, 0), (0, 0b10000), (1, 0b10000)])
    def test_an_uncached_key_raises_key_error(self, small_study_data, key):
        _, _, data = small_study_data
        cache = build_score_cache(data, GaussianPrior(), max_parents=1)
        with pytest.raises(KeyError):
            cache.score(*key)

    def test_hand_built_arrays_run_in_key_order(self):
        with pytest.raises(ValueError, match="ascending"):
            ScoreCache(2, 1, [1, 0], [0, 0], [0.0, 0.0], [True, True])
        with pytest.raises(ValueError, match="ascending"):
            ScoreCache(2, 1, [0, 0], [1, 1], [0.0, 0.0], [True, True])
        with pytest.raises(ValueError, match="one row per entry"):
            ScoreCache(2, 1, [0, 1], [0, 0], [0.0], [True, True])
        with pytest.raises(ValueError, match="one row per entry"):
            ScoreCache(2, 1, [0, 1], [0, 0], [0.0, 0.0], [True, True], separations=[SeparationStatus.NONE])

    def test_hand_built_statuses_are_separation_statuses(self):
        cache = ScoreCache(1, 0, [0], [0], [0.0], [True], separations=["complete"])
        assert cache.separation().tolist() == [SeparationStatus.COMPLETE]
        assert cache.to_csv().endswith("0,0,0.0,true,complete\n")
        for bad in ("bogus", None):
            with pytest.raises(ValueError, match="not a valid SeparationStatus"):
                ScoreCache(1, 0, [0], [0], [0.0], [True], separations=[bad])

    # a hand-built cache is held to the rules of from_csv; the full cache at n_vars=2 and
    # max_parents=1 is nodes (0, 0, 1, 1) on masks (0, 2, 0, 1)
    @pytest.mark.parametrize(
        "args, match",
        [
            ((3, 1, [0], [0, 2, 4], [-1.0, -2.0, -3.0], [True] * 3), "one row per entry"),  # would broadcast
            ((2, 1, [[0, 0, 1, 1]], [[0, 2, 0, 1]], [[0.0] * 4], [[True] * 4]), "one row per entry"),
            ((0, 0, [], [], [], []), "n_vars must lie in 1..24"),
            ((MAX_NODES + 1, 0, [0], [0], [0.0], [True]), "n_vars must lie in 1..24"),
            ((2, 2, [0, 0, 1, 1], [0, 2, 0, 1], [0.0] * 4, [True] * 4), "max_parents in 0..n_vars - 1"),
            ((2, 1, [0, 0, 1, 1, 2], [0, 2, 0, 1, 0], [0.0] * 5, [True] * 5), "node 2 is not in 0..1"),
            ((2, 1, [0, 0, 1, 1], [0, 2, 0, 8], [0.0] * 4, [True] * 4), "bits beyond 2 variables"),
            ((2, 1, [0, 0, 1, 1], [0, 1, 0, 1], [0.0] * 4, [True] * 4), "contains node 0 itself"),
            ((2, 0, [0, 0, 1], [0, 2, 0], [0.0] * 3, [True] * 3), "more than 0 parents"),
            ((2, 1, [0, 0, 1, 1], [0, 2, 0, 1], [0.0, np.nan, 0.0, 0.0], [True] * 4), "finite or -inf"),
            ((2, 1, [0, 0, 1, 1], [0, 2, 0, 1], [0.0, np.inf, 0.0, 0.0], [True] * 4), "finite or -inf"),
        ],
        ids=["broadcast", "2d", "no_vars", "too_many_vars", "max_parents", "node", "mask_bits", "own_node",
             "parent_count", "nan", "inf"],
    )
    def test_hand_built_arrays_are_checked_like_a_csv(self, args, match):
        with pytest.raises(ValueError, match=match):
            ScoreCache(*args)

    def test_entries_match_single_fits(self, small_study_data):
        _, params, data = small_study_data
        for name in ("wi", "st", "si"):
            prior = prior_from_name(name, truth=params)
            cache = build_score_cache(data, prior)
            finite = [key for key, entry in cache.entries.items() if np.isfinite(entry.log_score)]
            assert len(finite) >= 30
            for node, mask in finite:
                X, y = explicit_design(data, node, mask)
                fit = fit_node(X, y, prior_for_node(prior, node, mask))
                assert np.isclose(cache.score(node, mask), fit.log_marginal, rtol=1e-12), (
                    name, node, mask
                )

    def test_student_cache_matches_single_fits(self, small_study_data):
        _, _, data = small_study_data
        prior = StudentTPrior()
        cache = build_score_cache(data, prior)
        X, y = explicit_design(data, 2, 0b0011)
        fit = fit_node(X, y, prior)
        assert np.isclose(cache.score(2, 0b0011), fit.log_marginal, rtol=1e-12)

    def test_informed_cache_uses_per_set_priors(self, small_study_data):
        _, params, data = small_study_data
        prior = StrongGaussianPrior(truth=params)
        cache = build_score_cache(data, prior)
        X, y = explicit_design(data, 2, 0b0011)
        fit = fit_node(X, y, prior_for_node(prior, 2, 0b0011))
        assert np.isclose(cache.score(2, 0b0011), fit.log_marginal, rtol=1e-12)

    def test_csv_round_trip(self, small_study_data):
        _, _, data = small_study_data
        cache = build_score_cache(data, StudentTPrior())
        again = ScoreCache.from_csv(cache.to_csv())
        assert again.n_vars == cache.n_vars
        assert again.max_parents == cache.max_parents
        assert again.entries == cache.entries
        assert again.to_csv() == cache.to_csv()

    @pytest.mark.parametrize("name", ["cache_wi.csv", "cache_st.csv", "cache_si.csv"])
    def test_golden_caches_load(self, name):
        text = (Path(__file__).resolve().parent / "golden" / name).read_text()
        cache = ScoreCache.from_csv(text)
        assert cache.total_entries() == 5 * 2**4
        assert cache.to_csv() == text

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["node,parent_mask,log_score,converged", "0,0,-1.0,true"], "line 3: expected header"),
            ([CACHE_HEADER, "0,0,-1.0,true"], "line 4: expected 5 fields, got 4"),
            ([CACHE_HEADER, "0,0,-1.0,true,none,x"], "line 4: expected 5 fields, got 6"),
            ([CACHE_HEADER, "0,0,-1.0,true,none", "0,x,-1.0,true,none"], "line 5: invalid literal"),
            ([CACHE_HEADER, "-1,0,-1.0,true,none"], r"line 4: node -1 is not in 0\.\.2"),
            ([CACHE_HEADER, "3,0,-1.0,true,none"], r"line 4: node 3 is not in 0\.\.2"),
            ([CACHE_HEADER, "0,8,-1.0,true,none"], "line 4: parent mask 8 has bits beyond 3"),
            ([CACHE_HEADER, "0,-2,-1.0,true,none"], "line 4: parent mask -2 has bits beyond 3"),
            ([CACHE_HEADER, "1,3,-1.0,true,none"], "line 4: parent mask 3 contains node 1"),
            ([CACHE_HEADER, "0,6,-1.0,true,none"], "line 4: parent mask 6 has more than 1 parents"),
            ([CACHE_HEADER, "0,2,-1.0,true,none", "0,2,-2.0,true,none"],
             "line 5: duplicate entry for node 0, parent mask 2"),
            ([CACHE_HEADER, "0,0,-1.0,True,none"], "line 4: converged must be true or false, got 'True'"),
            ([CACHE_HEADER, "0,0,-1.0,,none"], "line 4: converged must be true or false, got ''"),
            (["# n_vars: x", CACHE_HEADER], "line 3: n_vars must be an integer in 1..24, got 'x'"),
            (["# n_vars: 25", CACHE_HEADER], "line 3: n_vars must be an integer in 1..24, got '25'"),
            (["# n_vars: 0", CACHE_HEADER], "line 3: n_vars must be an integer in 1..24, got '0'"),
            (["# max_parents: -1", CACHE_HEADER], "line 3: max_parents must be an integer in 0..24"),
            ([CACHE_HEADER, "0,0,nan,true,none"], "line 4: log_score must be finite or -inf, got nan"),
            ([CACHE_HEADER, "0,0,inf,true,none"], "line 4: log_score must be finite or -inf, got inf"),
            ([CACHE_HEADER, "99999999999999999999,0,-1.0,true,none"], "^line 4: "),  # beyond int64
        ],
    )
    def test_from_csv_rejects_malformed_lines(self, rows, message):
        text = "\n".join(["# n_vars: 3", "# max_parents: 1", *rows]) + "\n"
        with pytest.raises(ValueError, match=message):
            ScoreCache.from_csv(text)

    def test_from_csv_names_the_first_bad_row_in_file_order(self):
        # the rows run in reverse key order, so line 7 is the sixth row by key and line 12 the first
        rows = [f"{key},-1.0,true,none" for key in CACHE_KEYS][::-1]
        rows[3], rows[8] = rows[3].replace("-1.0", "nan"), rows[8].replace("-1.0", "inf")
        text = "\n".join(["# n_vars: 3", "# max_parents: 1", CACHE_HEADER, *rows]) + "\n"
        with pytest.raises(ValueError, match="^line 7: log_score must be finite or -inf"):
            ScoreCache.from_csv(text)

    def test_from_csv_names_a_repeated_key_at_its_second_copy(self):
        rows = [f"{key},-1.0,true,none" for key in CACHE_KEYS]
        # (0, 2) again on line 10, three rows after its first copy, and (0, 0), lower by key, on line 14
        rows = [*rows[:6], "0,2,-2.0,true,none", *rows[6:], "0,0,-2.0,true,none"]
        text = "\n".join(["# n_vars: 3", "# max_parents: 1", CACHE_HEADER, *rows]) + "\n"
        with pytest.raises(ValueError, match="^line 10: duplicate entry for node 0, parent mask 2$"):
            ScoreCache.from_csv(text)

    def test_from_csv_rejects_a_comment_below_the_header(self):
        rows = [f"{key},-1.0,true,none" for key in CACHE_KEYS]
        text = "\n".join(["# n_vars: 3", "# max_parents: 1", CACHE_HEADER, *rows[:2], "# prior: wi", *rows[2:]]) + "\n"
        with pytest.raises(ValueError, match="^line 6: expected 5 fields, got 1$"):
            ScoreCache.from_csv(text)

    def test_from_csv_skips_blank_lines_above_the_header(self):
        text = (Path(__file__).resolve().parent / "golden" / "cache_st.csv").read_text()
        comments, header, rows = text.partition(CACHE_HEADER)
        spaced = "\n" + comments.replace("\n", "\n\n") + " \n" + header + rows
        assert ScoreCache.from_csv(spaced).to_csv() == text

    @pytest.mark.parametrize(
        "dropped, message",
        [
            (["1,4"], "missing entry for node 1, parent mask 4"),
            (["2,1", "0,0"], "missing entry for node 0, parent mask 0"),
            (["2,0", "2,1", "2,2"], "missing entry for node 2, parent mask 0"),
        ],
    )
    def test_from_csv_rejects_a_missing_parent_set(self, dropped, message):
        rows = [f"{key},-1.0,true,none" for key in CACHE_KEYS if key not in dropped]
        text = "\n".join(["# n_vars: 3", "# max_parents: 1", CACHE_HEADER, *rows]) + "\n"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScoreCache.from_csv(text)

    @pytest.mark.parametrize(
        "comments, message",
        [
            (["# n_vars: 2", "# max_parents: 0", "# n_vars: 1"], "line 3: repeated '# n_vars:' comment"),
            (["# n_vars: 1", "# max_parents: 0", "# prior: x", "# max_parents: 0"],
             "line 4: repeated '# max_parents:' comment"),
            (["# n_vars: 3", "# max_parents: 1", "# max_parents: 3"], "line 3: repeated '# max_parents:' comment"),
            (["# n_vars: 3", "# max_parents: 1", "# n_vars: 2", "# max_parents: 9"],
             "line 3: repeated '# n_vars:' comment"),
            (["# prior: wi", "# n_vars: 1", "# max_parents: 0", "# prior: st"], "line 4: repeated '# prior:' comment"),
            (["# prior:", "# n_vars: 1", "# max_parents: 0", "# prior: st"], "line 4: repeated '# prior:' comment"),
        ],
    )
    def test_from_csv_rejects_a_repeated_size_comment(self, comments, message):
        # the first two files would read as a one-variable cache if the last comment won, and the
        # last two would silently take the last prior label, even over an empty one
        text = "\n".join([*comments, CACHE_HEADER, "0,0,-1.0,true,none"]) + "\n"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScoreCache.from_csv(text)

    @pytest.mark.parametrize("n_vars, max_parents", [(3, 3), (2, 9)])
    def test_from_csv_rejects_max_parents_above_n_vars_minus_one(self, n_vars, max_parents):
        text = "\n".join([f"# n_vars: {n_vars}", f"# max_parents: {max_parents}", CACHE_HEADER]) + "\n"
        with pytest.raises(ValueError, match=rf"^max_parents must lie in 0\.\.{n_vars - 1}$"):
            ScoreCache.from_csv(text)

    @pytest.mark.parametrize("comments", [[], ["# n_vars: 3"], ["# max_parents: 1"]])
    def test_from_csv_requires_the_size_comments(self, comments):
        text = "\n".join([*comments, CACHE_HEADER]) + "\n"
        with pytest.raises(ValueError, match="missing '# (n_vars|max_parents):' comment"):
            ScoreCache.from_csv(text)

    def test_rebuild_is_byte_identical(self, small_study_data):
        _, _, data = small_study_data
        a = build_score_cache(data, GaussianPrior()).to_csv()
        b = build_score_cache(data, GaussianPrior()).to_csv()
        assert a == b

    def test_priors_share_the_moments_of_a_dataset(self, monkeypatch):
        truth = AbnParams.balanced(random_dag(5, 0.8, np.random.default_rng(2)))
        data = sample(truth, 60, np.random.default_rng(2))
        counted = []
        moments = Dataset._moments

        def count(self, size):
            before = len(self._levels)
            result = moments(self, size)
            counted.extend(range(before, len(self._levels)))  # the itemset sizes this call counted
            return result

        monkeypatch.setattr(Dataset, "_moments", count)
        for name in ("wi", "st", "si"):
            cache = build_score_cache(data, prior_from_name(name, truth=truth))
        cache.separation()
        assert counted == [0, 1, 2, 3, 4]  # each size once, for all three priors and every table after

    def test_failed_fits_get_floor_score_and_diagnostics(self):
        # an improper flat prior on separated data cannot converge
        values = np.repeat([[0, 0], [1, 1]], 8, axis=0).astype(np.uint8)
        data = Dataset(values=values)
        flat = GaussianPrior(mean=0.0, variance=float("inf"))
        cache = build_score_cache(data, flat)
        assert cache.score(1, 0b01) == float("-inf")
        [message] = [m for node, mask, m in cache.diagnostics if (node, mask) == (1, 0b01)]
        assert message.startswith("weighted system singular at sweep ")
        fit = fit_node(*explicit_design(data, 1, 0b01), flat)
        assert fit.failure == message
        assert fit.log_marginal == float("-inf")

    def test_scores_prefer_true_parents(self, small_study_data):
        _, _, data = small_study_data
        cache = build_score_cache(data, GaussianPrior())
        assert cache.score(2, 0b0011) > cache.score(2, 0)
        assert cache.score(2, 0b0011) > cache.score(2, 0b0001)


@pytest.fixture
def separation_calls(monkeypatch):
    """Counts calls of the separation classifier the score module looks up."""
    calls = []
    classify = score_module.separation_of_patterns

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(score_module, "separation_of_patterns", counted)
    return calls


@pytest.fixture(scope="module")
def separated_data():
    # few rows and strong edges, so the tables mix all three statuses
    truth = AbnParams.balanced(Dag.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
    return sample(truth, 40, np.random.default_rng(3))


class TestTablesSharedByPriors:
    """A dataset keeps each size's distinct tables, so every prior of a cell reads one count."""

    @pytest.mark.parametrize("seed", range(3))
    def test_caches_on_one_dataset_equal_caches_on_fresh_ones(self, seed):
        rng = np.random.default_rng(seed)
        truth = AbnParams.balanced(random_dag(5, 0.8, rng))
        data = sample(truth, 40 + 30 * seed, rng)
        priors = {name: prior_from_name(name, truth=truth) for name in ("wi", "st", "si")}
        for order in (("wi", "st", "si"), ("si", "st", "wi")):
            shared = Dataset(data.values)
            for max_parents in (4, 2):
                for name in order:
                    got = build_score_cache(shared, priors[name], max_parents)
                    expected = build_score_cache(Dataset(data.values), priors[name], max_parents)
                    assert got.log_score.tobytes() == expected.log_score.tobytes(), (order, max_parents, name)
                    assert got.converged.tobytes() == expected.converged.tobytes()
                    assert got.diagnostics == expected.diagnostics

    def test_a_three_prior_cell_counts_each_size_once(self, monkeypatch):
        sizes = []
        count = Dataset.parent_tables

        def counting(self, nodes, masks):
            sizes.append(int(masks[0]).bit_count())
            return count(self, nodes, masks)

        monkeypatch.setattr(Dataset, "parent_tables", counting)
        config = StudyConfig(
            study="lindley", n_nodes=4, densities=(0.5,), sample_sizes=(50,), replicates=1,
            priors=("wi", "st", "si"), master_seed=3,
        )
        rows = run_study(config, workers=1)
        assert len(rows) == 3 and not any(row.note.startswith("error") for row in rows)
        assert sorted(sizes) == [0, 1, 2, 3]


class TestSeparationOnDemand:
    def test_building_a_cache_classifies_nothing(self, separated_data, separation_calls):
        for prior in (GaussianPrior(), StudentTPrior()):
            build_score_cache(separated_data, prior)
        assert separation_calls == []

    def test_study_cells_classify_nothing(self, separation_calls):
        config = StudyConfig(
            study="separation",
            n_nodes=3,
            densities=(0.8,),
            sample_sizes=(30,),
            replicates=2,
            priors=("wi", "st"),
            master_seed=4,
        )
        assert len(run_study(config, workers=1)) == 4
        assert separation_calls == []

    def test_each_entry_is_classified_once(self, separated_data, separation_calls):
        # once through its size's distinct table, which the entries of equal tables share
        cache = build_score_cache(separated_data, GaussianPrior())
        first = cache.to_csv()
        sizes = np.array([mask.bit_count() for mask in cache.masks.tolist()])
        tables = sum(
            len(separated_data.distinct_tables(cache.nodes[sizes == k], cache.masks[sizes == k])[1]) for k in range(4)
        )
        assert len(separation_calls) == tables < cache.total_entries()
        assert cache.to_csv() == first
        assert len(separation_calls) == tables

    @pytest.mark.parametrize("n_obs, max_parents", [(12, 4), (40, 2), (0, 4)])
    def test_each_distinct_table_is_classified_once(self, separation_calls, n_obs, max_parents):
        # counted apart from the library: a table per key from its explicit design, kept per size
        data = sample(AbnParams.balanced(random_dag(5, 0.8, np.random.default_rng(n_obs))), n_obs, np.random.default_rng(1))
        cache = build_score_cache(data, GaussianPrior(), max_parents)
        tables = set()
        for node, mask in zip(cache.nodes.tolist(), cache.masks.tolist()):
            patterns, successes, trials = aggregate_design(*explicit_design(data, node, mask))
            tables.add((mask.bit_count(), patterns.tobytes(), successes.tobytes(), trials.tobytes()))
        cache.separation()
        assert len(separation_calls) == len(tables) < cache.total_entries()
        assert all((trials > 0).all() for _, _, trials in separation_calls)  # observed rows only

    @given(st.integers(0, 10_000), st.integers(0, 30), st.integers(0, 4))
    @example(seed=0, n_obs=0, cap=4)
    @example(seed=1, n_obs=20, cap=1)
    @settings(max_examples=15, deadline=None)
    def test_column_equals_the_classifier_on_each_entrys_table(self, seed, n_obs, cap):
        rng = np.random.default_rng(seed)
        n_vars = int(rng.integers(1, 6))
        data = Dataset(rng.random((n_obs, n_vars)) < rng.uniform(0.1, 0.9, n_vars))
        cache = build_score_cache(data, GaussianPrior(), min(cap, n_vars - 1))
        keys = zip(cache.nodes.tolist(), cache.masks.tolist())
        assert cache.separation().tolist() == [separation_of_patterns(*parent_table(data, *key)) for key in keys]

    def test_csv_column_matches_the_design_classifier(self, separated_data):
        cache = build_score_cache(separated_data, GaussianPrior())
        statuses = ScoreCache.from_csv(cache.to_csv()).separation().tolist()
        for node, mask, status in zip(cache.nodes.tolist(), cache.masks.tolist(), statuses):
            assert status == separation_of_design(*explicit_design(separated_data, node, mask))
        assert set(statuses) == set(SeparationStatus)

    def test_a_shuffled_csv_keeps_each_status_with_its_key(self, separated_data):
        text = build_score_cache(separated_data, GaussianPrior()).to_csv()
        head, _, rows = text.partition(CACHE_HEADER + "\n")
        shuffled = head + CACHE_HEADER + "\n" + "".join(reversed(rows.splitlines(keepends=True)))
        assert ScoreCache.from_csv(shuffled).to_csv() == text

    def test_hand_built_cache_without_data_cannot_classify(self):
        cache = cache_from_scores(1, 0, {(0, 0): 0.0})
        with pytest.raises(ValueError, match="no data"):
            cache.separation()


class TestCacheAgainstQuadrature:
    def test_oracle_closed_form_densities_match_scipy_stats(self):
        x = np.linspace(-60.0, 60.0, 241)[:, None]
        for sd in (0.3, 1.0, np.sqrt(1000.0)):
            for mean in (-2.0, 0.0, 5.0):
                expected = stats.norm.logpdf(x, loc=mean, scale=sd)
                assert np.allclose(norm_logpdf(x, mean, sd), expected, rtol=1e-12, atol=1e-12)
        scales = np.array([0.5, 2.5, 10.0])
        for df in (1.0, 3.0, 7.5, 30.0):
            expected = stats.t.logpdf(x, df=df, loc=0.0, scale=scales)
            assert np.allclose(t_logpdf(x, df, scales), expected, rtol=1e-12, atol=1e-12)

    def test_oracle_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            X, y = bernoulli_design(rng, 50, rng.normal(size=d))
            patterns, successes, trials = aggregate_design(X, y)
            specs = [
                gaussian_spec(GaussianPrior(mean=np.linspace(-1.0, 1.0, d), variance=2.0), d),
                student_spec(StudentTPrior(), d),
                student_spec(StudentTPrior(df=3.0, scale=0.5), d),
            ]
            for spec in specs:
                for beta in rng.normal(scale=2.0, size=(5, d)):
                    h, eye = 1e-5, np.eye(d)
                    central = [
                        (ref_log_posterior(beta + h * e, patterns, successes, spec, trials)
                         - ref_log_posterior(beta - h * e, patterns, successes, spec, trials)) / (2.0 * h)
                        for e in eye
                    ]
                    grad = ref_log_posterior_grad(beta, patterns, successes, spec, trials)
                    assert np.allclose(grad, central, rtol=0.0, atol=1e-6), (d, spec["kind"], beta)

    def test_argmax_parent_sets_match_quadrature_oracle(self):
        prior = StudentTPrior()
        hits = 0
        total = 0
        for rep in range(20):
            rng = np.random.default_rng(1000 + rep)
            dag = random_dag(5, 0.8, rng)
            params = AbnParams.uniform(dag, edge_coef=5.0, intercept=0.0)
            data = sample(params, 1000, rng)
            cache = build_score_cache(data, prior)
            for node in range(5):
                masks = list(parent_masks(5, node, 4))
                cache_best = max(masks, key=lambda m: cache.score(node, m))
                oracle_scores = {}
                for mask in masks:
                    X, y = explicit_design(data, node, mask)
                    spec = student_spec(prior, X.shape[1])
                    patterns, successes, trials = aggregate_design(X, y)
                    oracle_scores[mask] = gauss_hermite_log_marginal(
                        patterns, successes, spec, points=10, trials=trials
                    )
                oracle_best = max(masks, key=lambda m: oracle_scores[m])
                hits += cache_best == oracle_best
                total += 1
        assert total == 100
        assert hits >= 90


FLAT = GaussianPrior(mean=0.0, variance=float("inf"))


@pytest.fixture(scope="module")
def flat_failures():
    # under a flat prior, the size-2 parent sets here include a singular
    # system, a fit that never converges, and scored fits
    return Dataset(np.random.default_rng(3).integers(0, 2, (20, 4)))


def assert_matches_scalar_reference(cache, prior):
    failures = {(node, mask): message for node, mask, message in cache.diagnostics}
    for (node, mask), entry in cache.entries.items():
        ref = scalar_irls_fit(*parent_table(cache.data, node, mask), prior_for_node(prior, node, mask))
        assert entry.converged == ref.converged, (node, mask)
        assert failures.get((node, mask), "") == ref.failure, (node, mask)
        if ref.failure:
            assert entry.log_score == float("-inf")
        else:
            assert abs(entry.log_score - ref.log_marginal) <= 1e-9, (node, mask)


def stack_rows(table, terms, rows):
    """The arguments of ``_fit_aggregated`` for fits ``rows`` of a one-size table stack under ``terms``,
    each with a row of its own where the stack or the prior shares one."""
    patterns, successes, trials = table
    n_fits, width = len(successes), patterns.shape[-1]
    patterns = np.broadcast_to(patterns, (n_fits, *patterns.shape[1:]))[rows]
    centre, spread = (np.broadcast_to(a, (n_fits, width))[rows] for a in terms[:2])
    return patterns, successes[rows], trials[rows], PriorTerms(centre, spread, terms.df), np.full(len(rows), width)


def assert_a_row_per_fit(patterns, successes, trials, terms, widths):
    n_fits = len(widths)
    assert patterns.shape[0] == successes.shape[0] == trials.shape[0] == n_fits
    assert terms.centre.shape == terms.spread.shape == (n_fits, patterns.shape[-1])
    assert widths.dtype.kind == "i" and 1 <= widths.min() and widths.max() <= patterns.shape[-1]


def padded_stack(fits):
    """One stack of ``(table, one-row PriorTerms)`` fits of any widths, each padded to the widest:
    zero pattern columns and zero-trial rows, extra coefficients at centre 0 with infinite spread."""
    n_rows = max(len(successes) for (_, successes, _), _ in fits)
    width = max(patterns.shape[1] for (patterns, _, _), _ in fits)
    patterns = np.zeros((len(fits), n_rows, width))
    successes, trials = np.zeros((len(fits), n_rows)), np.zeros((len(fits), n_rows))
    centre, spread = np.zeros((len(fits), width)), np.full((len(fits), width), np.inf)
    widths = []
    for i, ((p, s, t), terms) in enumerate(fits):
        patterns[i, : len(s), : p.shape[1]], successes[i, : len(s)], trials[i, : len(s)] = p, s, t
        centre[i, : p.shape[1]], spread[i, : p.shape[1]] = terms.centre[0], terms.spread[0]
        widths.append(p.shape[1])
    return patterns, successes, trials, PriorTerms(centre, spread, fits[0][1].df), np.array(widths)


def size_two_keys(n_vars):
    keys = [(node, mask) for node in range(n_vars) for mask in parent_masks(n_vars, node, 2)]
    keys = [(node, mask) for node, mask in keys if mask.bit_count() == 2]
    return np.array([node for node, _ in keys]), np.array([mask for _, mask in keys])


class TestOrderedSum:
    def test_matches_accumulate_bit_for_bit(self):
        # 8 terms or more: numpy adds a lone axis pairwise, which changes last bits; -0.0 terms:
        # a reduce that starts from 0.0 would return 0.0; a Fortran-ordered array: numpy would
        # reduce its leading axis as the inner loop
        rng = np.random.default_rng(13)
        for terms in (1, 2, 7, 8, 9, 20, 200, 600):
            for kept in ((), (1,), (1, 1), (3,), (1, 4), (2, 5)):
                shape = (terms, *kept)
                values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
                signed_zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
                sparse = np.where(rng.random(shape) < 0.5, values, -0.0)
                for a in (values, np.full(shape, -0.0), signed_zeros, sparse):
                    expected = np.add.accumulate(a, axis=0)[-1]
                    for layout in (a, np.asfortranarray(a)):
                        got = score_module._ordered_sum(layout)
                        assert got.shape == expected.shape
                        assert got.tobytes() == expected.tobytes(), (terms, kept)
        assert np.signbit(score_module._ordered_sum(np.full((3, 2), -0.0))).all()

    def test_an_empty_sum_is_zero(self):
        assert score_module._ordered_sum(np.zeros((0, 3))).tobytes() == np.zeros(3).tobytes()


class TestBatchedFit:
    @pytest.mark.parametrize("name", ["wi", "st", "si"])
    def test_golden_caches_match_the_scalar_reference(self, name):
        prior = prior_from_name(name, truth=GOLDEN_TRUTH)
        assert_matches_scalar_reference(golden_cache(name), prior)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_caches_match_the_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        truth = AbnParams.balanced(random_dag(4 + seed % 2, 0.8, rng))
        data = sample(truth, 30 + 20 * seed, rng)
        for prior in (GaussianPrior(), StudentTPrior(), StrongGaussianPrior(truth=truth)):
            assert_matches_scalar_reference(build_score_cache(data, prior), prior)

    @pytest.mark.parametrize("name", ["wi", "st", "si"])
    def test_every_converged_fit_stops_at_a_stationary_point(self, name):
        # the golden dataset and four random n=5 ones; a converged st saddle is stationary too
        datasets = [(golden_data(), GOLDEN_TRUTH)]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            truth = AbnParams.balanced(random_dag(5, 0.8, rng))
            datasets.append((sample(truth, 30 + 20 * seed, rng), truth))
        for data, truth in datasets:
            prior = prior_from_name(name, truth=truth)
            for (node, mask), entry in build_score_cache(data, prior).entries.items():
                if not entry.converged:
                    continue
                X, y = explicit_design(data, node, mask)
                coef_prior = prior_for_node(prior, node, mask)
                fit = fit_node(X, y, coef_prior)
                if isinstance(coef_prior, StudentTPrior):
                    spec = student_spec(coef_prior, X.shape[1])
                else:
                    spec = gaussian_spec(coef_prior, X.shape[1])
                gradient = ref_log_posterior_grad(fit.coef, X, y, spec)
                assert np.abs(gradient).max() < 1e-6, (node, mask, gradient)

    def test_flat_prior_failures_match_the_scalar_reference(self):
        # separated tables: on a flat prior the iterate runs off until the
        # weighted system is singular, here at the same sweep in both fits
        rows = [[0, 0, 0], [1, 1, 1], [0, 1, 1], [1, 0, 0], [0, 1, 0]]
        data = Dataset(np.repeat(rows, 4, axis=0).astype(np.uint8))
        cache = build_score_cache(data, FLAT)
        assert len(cache.diagnostics) == 5
        assert all(message.startswith("weighted system singular") for *_, message in cache.diagnostics)
        assert_matches_scalar_reference(cache, FLAT)

    def test_a_table_scores_the_same_anywhere_in_any_stack(self, small_study_data):
        _, _, data = small_study_data
        table = data.parent_tables(*size_two_keys(4))
        for prior in (GaussianPrior(), StudentTPrior()):
            terms = prior.terms(3)
            alone = [_fit_aggregated(*stack_rows(table, terms, [i])) for i in range(12)]
            for order in ([11, 5, 0, 7], [3, 3], [7], list(range(12))[::-1]):
                stack = _fit_aggregated(*stack_rows(table, terms, order))
                for position, i in enumerate(order):
                    assert stack.log_marginal[position] == alone[i].log_marginal[0]
                    assert np.array_equal(stack.coef[position], alone[i].coef[0])
                    assert np.array_equal(stack.neg_hessian[position], alone[i].neg_hessian[0])

    @pytest.mark.parametrize("name", ["wi", "st", "si"])
    def test_a_table_scores_the_same_in_a_stack_of_any_widths(self, name):
        # parent sets of sizes 0-2 of the golden dataset, under the prior and, in the Gaussian
        # stacks, under a flat prior too: (1, 5) is an st saddle and singular on a flat prior
        data, prior = golden_data(), prior_from_name(name, truth=GOLDEN_TRUTH)
        keys = [(node, mask) for node in (0, 1) for mask in parent_masks(5, node, 2)]
        fits = [(parent_table(data, *key), prior.for_masks(*np.array([key]).T)) for key in keys]
        if name != "st":
            fits += [(parent_table(data, *key), FLAT.terms(1 + key[1].bit_count())) for key in [(0, 2), (1, 5)]]
        alone = [
            _fit_aggregated(*(a[None] for a in table), terms, np.array([table[0].shape[1]])) for table, terms in fits
        ]
        kinds = {message.partition(" ")[0] for fit in alone for message in fit.failure}
        assert kinds == ({"", "non-finite"} if name == "st" else {"", "weighted"})
        ascending = sorted(range(len(fits)), key=lambda i: fits[i][0][0].shape[1])
        shuffled = list(np.random.default_rng(0).permutation(len(fits))) + [0, len(fits) - 1]
        for order in (ascending, ascending[::-1], shuffled):
            stack = _fit_aggregated(*padded_stack([fits[i] for i in order]))
            for position, i in enumerate(order):
                width = fits[i][0][0].shape[1]
                assert stack.log_marginal[position] == alone[i].log_marginal[0], (name, i)
                assert stack.converged[position] == alone[i].converged[0]
                assert stack.failure[position] == alone[i].failure[0]
                assert stack.sweeps[position] == alone[i].sweeps[0]
                assert np.array_equal(stack.coef[position, :width], alone[i].coef[0])
                assert not stack.coef[position, width:].any()
                assert np.array_equal(stack.neg_hessian[position, :width, :width], alone[i].neg_hessian[0])

    @pytest.mark.parametrize("chunk", [1, 40, 300, 5000])
    def test_chunking_changes_no_score(self, chunk, monkeypatch):
        rng = np.random.default_rng(4)
        truth = AbnParams.balanced(random_dag(5, 0.8, rng))
        data = sample(truth, 60, rng)
        for name in ("wi", "st", "si"):
            prior = prior_from_name(name, truth=truth)
            whole = build_score_cache(data, prior)
            stacks = []

            def fit(patterns, successes, trials, terms, widths):
                assert_a_row_per_fit(patterns, successes, trials, terms, widths)
                n_fits, n_rows = successes.shape
                stacks.append((n_fits, n_fits * n_rows * np.arange(patterns.shape[-1] + 1).sum()))
                return _fit_aggregated(patterns, successes, trials, terms, widths)

            monkeypatch.setattr(score_module, "_CHUNK", chunk)
            monkeypatch.setattr(score_module, "_fit_aggregated", fit)
            chunked = build_score_cache(data, prior)
            monkeypatch.undo()
            assert chunked.entries == whole.entries and chunked.diagnostics == whole.diagnostics
            assert len(stacks) > 1
            # padded elements stay within the bound, unless one fit alone exceeds it
            assert all(elements <= chunk or n_fits == 1 for n_fits, elements in stacks)

    def test_every_stack_has_a_row_per_fit_and_explicit_widths(self, monkeypatch):
        # the size-2 tables of this dataset observe all 4 parent configurations, so parent_tables
        # shares one (1, 4, 3) pattern array among them, and a small _CHUNK gives that size stacks
        # of its own
        rng = np.random.default_rng(4)
        truth = AbnParams.balanced(random_dag(5, 0.8, rng))
        data = sample(truth, 60, rng)
        assert len(data.parent_tables(*size_two_keys(5))[0]) == 1
        calls = []

        def fit(*args):
            calls.append(args)
            return _fit_aggregated(*args)

        monkeypatch.setattr(score_module, "_CHUNK", 300)
        monkeypatch.setattr(score_module, "_fit_aggregated", fit)
        for name in ("wi", "st", "si"):
            build_score_cache(data, prior_from_name(name, truth=truth))
        for args in calls:
            assert len(args) == 5
            assert_a_row_per_fit(*args)
        # among them stacks of several size-2 fits alone
        assert any(len(widths) > 1 and set(widths.tolist()) == {3} for *_, widths in calls)

    @pytest.mark.parametrize("name", ["wi", "st", "si"])
    def test_padded_stacks_raise_no_warning(self, name):
        rng = np.random.default_rng(6)
        truth = AbnParams.balanced(random_dag(6, 0.8, rng))
        for data, generating in [(golden_data(), GOLDEN_TRUTH), (sample(truth, 80, rng), truth)]:
            prior = prior_from_name(name, truth=generating)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                cache = build_score_cache(data, prior)
            assert len(cache.entries) == data.n_vars << (data.n_vars - 1)

    def test_fit_node_gives_the_cache_entry_bit_for_bit(self):
        # few rows, so many tables miss configurations and are padded in the stack; then, at
        # n=6, N=400, tables of 3 and 4 parents with 8 or more rows, where a one-fit stack sums
        # 8 or more terms that numpy would add pairwise
        narrow = AbnParams.balanced(Dag.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
        wide = AbnParams.balanced(random_dag(6, 0.2, np.random.default_rng(1)))
        wide_data = sample(wide, 400, np.random.default_rng(9))
        assert all(len(parent_table(wide_data, 0, mask)[1]) >= 8 for mask in (0b1110, 0b11110))
        for truth, data in ((narrow, sample(narrow, 40, np.random.default_rng(3))), (wide, wide_data)):
            for name in ("wi", "st", "si"):
                prior = prior_from_name(name, truth=truth)
                cache = build_score_cache(data, prior)
                for (node, mask), entry in cache.entries.items():
                    fit = fit_node(*explicit_design(data, node, mask), prior_for_node(prior, node, mask))
                    assert fit.log_marginal == entry.log_score, (name, node, mask)
                    assert fit.converged == entry.converged

    def test_failing_rows_fail_alone(self, flat_failures):
        table = flat_failures.parent_tables(*size_two_keys(4))
        terms = FLAT.terms(3)
        stack = _fit_aggregated(*stack_rows(table, terms, np.arange(len(table[1]))))
        kinds = [message.partition(" ")[0] for message in stack.failure]
        assert kinds.count("weighted") >= 1 and kinds.count("no") == 1 and kinds.count("") >= 2
        for i, message in enumerate(stack.failure):
            alone = _fit_aggregated(*stack_rows(table, terms, [i]))
            assert alone.failure == [message]
            assert alone.sweeps[0] == stack.sweeps[i]
            assert alone.log_marginal[0] == stack.log_marginal[i]
            assert np.array_equal(alone.coef[0], stack.coef[i])
        assert stack.iterations == 200


class TestSweepCounts:
    def test_a_dense_large_shaped_cache_runs_its_pinned_sweeps(self, monkeypatch):
        # n=7, N=10000, at most 2 parents, as the dense_large benchmark cell: the most sweeps of
        # each stack, per prior; a change to how the fits start or step moves them
        rng = np.random.default_rng(0)
        truth = AbnParams.balanced(random_dag(7, 0.8, rng))
        data = sample(truth, 10_000, rng)
        iterations = {}
        for name in ("wi", "st", "si"):
            stacks = iterations[name] = []

            def fit(*args):
                stack = _fit_aggregated(*args)
                stacks.append(stack.iterations)
                return stack

            monkeypatch.setattr(score_module, "_fit_aggregated", fit)
            build_score_cache(data, prior_from_name(name, truth=truth), 2)
            monkeypatch.undo()
        assert iterations == {"wi": [5], "st": [5], "si": [6]}
