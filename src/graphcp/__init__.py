"""Black-box conformal prediction sets for graph node classification.

Given predicted class probabilities, node features and a graph, the package
builds adaptive non-conformity scores, optionally corrects them with
similarity- and structure-navigated neighbor aggregation, calibrates a
split-conformal threshold with a finite-sample coverage guarantee, and
evaluates the resulting prediction sets (coverage, size, singleton hits,
size-stratified coverage violation) over repeated random splits.

Names resolve on first use (PEP 562): ``_EXPORTS`` maps each submodule to
the public names it defines.  The first read of such a name, or of a
submodule such as ``graphcp.harness``, imports that submodule (and what it
imports) and keeps the value in this namespace.  So ``import graphcp``
loads only ``graphcp.errors``, and a process that writes a bundle never
loads the experiment harness.  ``__all__`` and ``dir()`` come from the same
table.
"""

import importlib

from .errors import ValidationError

__version__ = "0.1.0"

_EXPORTS = {
    "conformal": ("CalibratedThreshold", "PredictionSets", "calibrate",
                  "conformal_rank", "predict_sets"),
    "graph": ("KnnConfig", "SparseGraph", "adjacency_graph", "build_knn_graph",
              "empty_graph", "from_arcs"),
    "harness": ("ExperimentConfig", "edge_homophily", "run_experiment",
                "run_image_experiment", "run_oracle_experiment",
                "snaps_param_grid"),
    "matrixio": ("DatasetBundle", "load_bundle", "load_edges", "load_labels",
                 "load_matrix", "make_bundle", "save_bundle", "symmetrize_edges",
                 "write_matrix"),
    "metrics": ("MetricSummary", "evaluate", "sscv"),
    "propagate": ("NeighborMeans", "SnapsParams", "combine_scores", "image_snaps",
                  "neighbor_means", "oracle_aggregate", "snaps_scores",
                  "weighted_row_means"),
    "report": ("TrialReport", "TrialResult", "make_report", "read_report",
               "report_to_dict", "reports_equal", "write_report"),
    "scores": ("RapsParams", "ScoreMatrix", "XiPolicy", "aps_scores",
               "probability_ranks"),
    "synth": ("generate_synthetic",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["ValidationError", *_SOURCE])


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
