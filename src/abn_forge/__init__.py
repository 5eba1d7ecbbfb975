"""Additive Bayesian network structure learning over binary data.

Logistic node models under weakly-informative Gaussian, Student t, or
truth-informed Gaussian priors; Laplace-approximate node scores; exact
structure search; and the simulation studies that compare the priors under
data separation and density-dependent complexity bias.
"""

from .data import (
    AbnParams,
    Dataset,
    SeparationStatus,
    aggregate_design,
    sample,
    separation_of_design,
)
from .experiments import (
    LINDLEY,
    SEPARATION,
    ResultRow,
    StudyConfig,
    derive_rng,
    results_from_csv,
    results_to_csv,
    run_study,
    summarize_rows,
    summary_from_csv,
    summary_to_csv,
)
from .graph import (
    Cpdag,
    CyclicGraphError,
    Dag,
    Metrics,
    compare,
    is_acyclic,
    parse_graph_json,
    random_dag,
    to_cpdag,
    topological_order,
)
from .score import (
    CacheEntry,
    GaussianPrior,
    NodeFit,
    ScoreCache,
    StrongGaussianPrior,
    StudentTPrior,
    build_score_cache,
    fit_node,
    prior_from_name,
)
from .search import BestParentTable, SearchResult, best_parent_sets, exact_search
from .svg import render_summary_svg

__version__ = "0.1.0"

__all__ = [
    "AbnParams",
    "BestParentTable",
    "CacheEntry",
    "Cpdag",
    "CyclicGraphError",
    "Dag",
    "Dataset",
    "GaussianPrior",
    "LINDLEY",
    "Metrics",
    "NodeFit",
    "ResultRow",
    "ScoreCache",
    "SEPARATION",
    "SearchResult",
    "SeparationStatus",
    "StrongGaussianPrior",
    "StudentTPrior",
    "StudyConfig",
    "aggregate_design",
    "best_parent_sets",
    "build_score_cache",
    "compare",
    "derive_rng",
    "exact_search",
    "fit_node",
    "is_acyclic",
    "parse_graph_json",
    "prior_from_name",
    "random_dag",
    "render_summary_svg",
    "results_from_csv",
    "results_to_csv",
    "run_study",
    "sample",
    "separation_of_design",
    "summarize_rows",
    "summary_from_csv",
    "summary_to_csv",
    "to_cpdag",
    "topological_order",
]
