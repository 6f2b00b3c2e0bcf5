import types

import graphcp as g


def test_public_names():
    """The package's public names, pinned: adding or removing an export is a
    deliberate edit of this list."""
    names = sorted(name for name in dir(g) if not name.startswith("_")
                   and not isinstance(getattr(g, name), types.ModuleType))
    assert names == [
        "CalibratedThreshold", "DatasetBundle", "ExperimentConfig", "KnnConfig",
        "MetricSummary", "NeighborMeans", "PredictionSets", "RapsParams",
        "ScoreMatrix", "SnapsParams", "SparseGraph", "TrialReport", "TrialResult",
        "ValidationError", "XiPolicy", "adjacency_graph", "aps_scores",
        "build_knn_graph", "calibrate", "combine_scores", "conformal_rank",
        "edge_homophily", "empty_graph", "evaluate", "from_arcs",
        "generate_synthetic", "image_snaps", "load_bundle", "load_edges",
        "load_labels", "load_matrix", "make_bundle", "make_report",
        "neighbor_means", "oracle_aggregate", "predict_sets", "probability_ranks",
        "read_report", "report_to_dict", "reports_equal", "run_experiment",
        "run_image_experiment", "run_oracle_experiment", "save_bundle",
        "snaps_param_grid", "snaps_scores", "sscv", "symmetrize_edges",
        "weighted_row_means", "write_matrix", "write_report",
    ]
