"""Learn and analyze linear-Gaussian Bayesian networks from Likert surveys.

The pipeline: ingest a survey export, learn a bootstrap-averaged DAG by
score-based tabu search, fit linear-Gaussian parameters, then analyze the
result (communities, centralities, path-product influence) and compare it
against published factor and network studies.  ``attachnet --help`` exposes
the same stages on the command line.
"""

from .analytics import (
    CentralityVector,
    Partition,
    betweenness,
    communities_walktrap,
    degree_centrality,
    pagerank,
)
from .compare import (
    Ellipse,
    FactorTable,
    KMeansResult,
    confidence_ellipse,
    edge_set_correlation,
    fold_model_edges,
    kmeans_best_seed,
    mann_whitney_u,
    pca_project,
    pearson_significance,
)
from .dag import Dag, roots_and_terminals
from .errors import (
    AttachnetError,
    ConvergenceError,
    EmptyCohortError,
    FixtureError,
    ParseError,
    PathCountError,
    ValidationError,
)
from .fixtures import load_fixture_model
from .influence import (
    InfluencePath,
    InfluenceResult,
    cluster_coupling,
    count_paths,
    enumerate_paths,
    influence_result,
    median_abs_coefficient,
    path_product,
    top_paths,
    total_influence,
)
from .ingest import (
    CohortFilter,
    ColumnSchema,
    DemographicReport,
    ResponseTable,
    demographic_summary,
    filter_cohort,
    map_region,
    parse_responses,
    serialize_responses,
    standard_filter,
)
from .params import (
    GaussianBnParams,
    InterceptReport,
    fit_mle,
    intercept_report,
    read_model,
    simulate,
    write_model,
)
from .score import SufficientStats, graph_score, local_score, sufficient_stats
from .structure import (
    ArcStrengthTable,
    SearchConfig,
    StabilityReport,
    average_network,
    bootstrap_strengths,
    stability_curve,
    tabu_search,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
