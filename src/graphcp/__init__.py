"""Black-box conformal prediction sets for graph node classification.

Given predicted class probabilities, node features and a graph, the package
builds adaptive non-conformity scores, optionally corrects them with
similarity- and structure-navigated neighbor aggregation, calibrates a
split-conformal threshold with a finite-sample coverage guarantee, and
evaluates the resulting prediction sets (coverage, size, singleton hits,
size-stratified coverage violation) over repeated random splits.
"""

from .conformal import CalibratedThreshold, PredictionSets, calibrate, conformal_rank, predict_sets
from .errors import ValidationError
from .graph import (
    KnnConfig,
    SparseGraph,
    adjacency_graph,
    build_knn_graph,
    empty_graph,
    from_arcs,
)
from .harness import (
    ExperimentConfig,
    edge_homophily,
    generate_synthetic,
    run_experiment,
    run_image_experiment,
    run_oracle_experiment,
    snaps_param_grid,
    tune_hyperparams,
)
from .matrixio import (
    DatasetBundle,
    load_bundle,
    load_edges,
    load_labels,
    load_matrix,
    make_bundle,
    save_bundle,
    symmetrize_edges,
    write_matrix,
)
from .metrics import MetricSummary, evaluate, sscv
from .propagate import (
    NeighborMeans,
    SnapsParams,
    combine_scores,
    daps_scores,
    image_snaps,
    neighbor_means,
    oracle_aggregate,
    snaps_scores,
    weighted_row_means,
)
from .report import (
    TrialReport,
    TrialResult,
    compute_aggregate,
    make_report,
    read_report,
    report_from_dict,
    report_to_dict,
    reports_equal,
    write_report,
)
from .scores import RapsParams, ScoreMatrix, XiPolicy, aps_scores, probability_ranks, raps_scores

__version__ = "0.1.0"
