import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import graphcp as g
from graphcp.errors import ValidationError

# The package's public names, pinned: adding or removing an export is a
# deliberate edit of this list.
PUBLIC_NAMES = [
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


def test_public_names():
    names = sorted(name for name in dir(g) if not name.startswith("_")
                   and not isinstance(getattr(g, name), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from graphcp import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_every_name_in_the_table_resolves_to_its_module():
    # a typo in the table fails here, not as a user's AttributeError
    for module, names in g._EXPORTS.items():
        mod = getattr(g, module)
        assert mod.__name__ == f"graphcp.{module}"
        for name in names:
            assert getattr(g, name) is getattr(mod, name)
            assert getattr(g, name).__module__ == mod.__name__
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        g.no_such_name  # noqa: B018
    # the generator lives in synth alone
    assert not hasattr(g.harness, "generate_synthetic")


def _graphcp_modules_after(code: str) -> set[str]:
    """The graphcp modules a fresh interpreter has loaded after ``code``."""
    probe = (f"{code}\nimport sys\nprint(' '.join(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'graphcp')))")
    src = str(Path(g.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    return set(done.stdout.splitlines()[-1].split())


def test_import_loads_only_the_error_module():
    assert _graphcp_modules_after("import graphcp") == {"graphcp", "graphcp.errors"}


def test_a_bundle_set_up_loads_only_the_generator_and_the_bundle_io():
    code = ("import graphcp\n"
            "graphcp.generate_synthetic, graphcp.save_bundle")
    assert _graphcp_modules_after(code) == {
        "graphcp", "graphcp.errors", "graphcp.synth", "graphcp.matrixio"}


def test_the_synth_command_loads_only_its_modules(tmp_path):
    code = ("from graphcp import cli\n"
            "assert cli.main(['synth', '--n', '160', '--classes', '2', '--dim', '2',"
            f" '--out-dir', {str(tmp_path)!r}]) == 0")
    assert _graphcp_modules_after(code) == {
        "graphcp", "graphcp.errors", "graphcp.synth", "graphcp.matrixio",
        "graphcp.cli"}
    assert (tmp_path / "manifest.txt").is_file()


XI = g.XiPolicy("fixed", 1.0)
_RNG = np.random.default_rng(0)
_P = _RNG.dirichlet(np.ones(3), size=40)
_F, _Y = _RNG.normal(size=(40, 4)), _RNG.integers(0, 3, size=40)
_BUNDLE = g.generate_synthetic(n=120, num_classes=3, dim=3, homophily=0.8,
                               class_sep=1.0, noise=1.0, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: g.KnnConfig(k=2.5), "k=2.5 must be an integer"),
    (lambda: g.KnnConfig(k=True), "k=True must be an integer"),
    (lambda: g.KnnConfig(k=2, sample_size=30.5), "sample_size=30.5 must be an integer"),
    (lambda: g.image_snaps(g.ScoreMatrix(_P, "aps", XI), _F, k=2.0, eta=0.5),
     "k=2.0 must be an integer"),
    (lambda: g.run_image_experiment(_P, _F, _Y, k=2.5), "k=2.5 must be an integer"),
    (lambda: g.run_image_experiment(_P, _F, _Y, n_trials=2.0),
     "n_trials=2.0 must be an integer"),
    (lambda: g.run_image_experiment(_P, _F, _Y, calib_size=10.0),
     "calibration size 10.0 must be an integer"),
    (lambda: g.run_oracle_experiment(_BUNDLE, n_trials=2.0),
     "n_trials=2.0 must be an integer"),
    (lambda: g.ExperimentConfig(n_model_splits=1.5),
     "n_model_splits=1.5 must be an integer"),
    (lambda: g.RapsParams(1.5, 0.1), "k_reg=1.5 must be an integer"),
    (lambda: g.RapsParams(True, 0.1), "k_reg=True must be an integer"),
    (lambda: g.XiPolicy(seed=1.5), "seed=1.5 must be an integer"),
    (lambda: g.XiPolicy(seed=False), "seed=False must be an integer"),
    (lambda: g.oracle_aggregate(g.ScoreMatrix(_P, "aps", XI), _Y, 1.5, 0.5, 0),
     "m=1.5 must be an integer"),
    (lambda: g.oracle_aggregate(g.ScoreMatrix(_P, "aps", XI), _Y, True, 0.5, 0),
     "m=True must be an integer"),
    (lambda: g.oracle_aggregate(g.ScoreMatrix(_P, "aps", XI), _Y, -1, 0.5, 0),
     "m=-1 must be >= 0"),
    (lambda: g.oracle_aggregate(g.ScoreMatrix(_P, "aps", XI), _Y, 1, 0.5, 1.5),
     "seed=1.5 must be an integer"),
], ids=["knn-k-float", "knn-k-bool", "knn-sample-size", "image-snaps-k",
        "image-k", "image-n-trials", "image-calib-size", "oracle-n-trials",
        "model-splits", "raps-k-reg-float", "raps-k-reg-bool", "xi-seed-float",
        "xi-seed-bool", "oracle-m-float", "oracle-m-bool", "oracle-m-negative",
        "oracle-seed-float"])
def test_counts_must_be_integers(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_numpy_integer_counts_are_accepted():
    ints = dict(k=np.int32(2), n_trials=np.int64(2), calib_size=np.int64(10))
    report = g.run_image_experiment(_P, _F, _Y, **ints)
    assert g.reports_equal(report, g.run_image_experiment(
        _P, _F, _Y, **{key: int(v) for key, v in ints.items()}))
    assert g.KnnConfig(k=np.int64(3), sample_size=np.int64(30)).k == 3
    # stored as Python ints, the value a report records
    for value in (g.RapsParams(np.int64(2), 0.1).k_reg, g.XiPolicy(seed=np.int32(7)).seed):
        assert type(value) is int


@pytest.mark.parametrize("call, message", [
    (lambda: g.SnapsParams(math.nan, 0.0), "aggregation weights must be >= 0"),
    (lambda: g.SnapsParams(0.0, math.nan), "aggregation weights must be >= 0"),
    (lambda: g.RapsParams(math.nan, 0.1), "k_reg must be >= 1"),
    (lambda: g.RapsParams(1, math.nan), "lambda_reg must be finite and >= 0"),
    (lambda: g.RapsParams(1, math.inf), "lambda_reg must be finite and >= 0"),
    (lambda: g.KnnConfig(k=2, min_similarity=math.nan), "min_similarity must not be NaN"),
    (lambda: g.ExperimentConfig(grid_step=math.nan), "grid_step must lie in (0, 1]"),
], ids=["snaps-lam", "snaps-mu", "raps-k-reg", "raps-lambda-nan", "raps-lambda-inf",
        "knn-min-similarity", "grid-step"])
def test_nan_and_infinite_weights_are_rejected(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: g.from_arcs(5, np.array([1, 2, 3])),
     "arcs must be an (m, 2) array of node pairs, got shape (3,)"),
    (lambda: g.adjacency_graph(4, [[0, 1, 2]]),
     "arcs must be an (m, 2) array of node pairs, got shape (1, 3)"),
    (lambda: g.from_arcs(5, [[0, 1], [0, 1.5], [1, 0]]),
     "arc 1 (0.0, 1.5) is not a pair of integers"),
    (lambda: g.from_arcs(5, [[0, 1], [math.nan, 0]]), "arc 1 (nan, 0.0) is not a pair"),
    (lambda: g.from_arcs(3, [[0, 1], [2, 3]]), "arc 1 (2, 3) has an endpoint out of range [0, 3)"),
    (lambda: g.from_arcs(3, [[0, -1]]), "arc 0 (0, -1) has an endpoint out of range"),
    (lambda: g.from_arcs(3, [["0", "1"]]), "arcs must hold integers"),
    (lambda: g.from_arcs(3, [[0, 1], [1, 0]], [0.5, math.nan]),
     "row 1 has non-finite weight nan on its arc to column 0"),
    (lambda: g.from_arcs(3, [[1, 0], [0, 2]], [math.inf, 0.5]),
     "row 1 has non-finite weight inf on its arc to column 0"),
    (lambda: g.from_arcs(-1, [[0, 1]]), "n=-1 must be >= 0"),
    (lambda: g.from_arcs(3.5, [[0, 1]]), "n=3.5 must be an integer"),
    (lambda: g.adjacency_graph(True, [[0, 0]]), "n=True must be an integer"),
    (lambda: g.empty_graph(-2), "n=-2 must be >= 0"),
    (lambda: g.empty_graph(2.0), "n=2.0 must be an integer"),
    (lambda: g.SparseGraph(2, [0, 1, 1.5], [1], [1.0]),
     "row_offsets: entry 2 holds 1.5, not an integer"),
    (lambda: g.SparseGraph(2, [0, 0, 2], [0, 0.5], [1.0, 1.0]),
     "col_indices: row 1 holds 0.5, not an integer"),
    (lambda: g.SparseGraph(2, [[0, 1, 1]], [1], [1.0]),
     "row_offsets: expected a 1-D array, got ndim=2"),
    (lambda: g.SparseGraph(2, [0, 1, 2], [1, 2], [1.0, 1.0]),
     "col_indices: row 1 holds 2, out of range [0, 2)"),
    (lambda: g.SparseGraph(2, [0, 1, 3], [1, 0], [1.0, 1.0]),
     "row_offsets: entry 2 holds 3, out of range [0, 3)"),
    (lambda: g.SparseGraph(2, [0, 1, 2], [[1, 0]], [1.0, 1.0]),
     "col_indices: expected a 1-D array, got ndim=2"),
    (lambda: g.SparseGraph(3, [0, 2, 2, 4], [0, 1, 2, 2], np.ones(4)),
     "strictly increasing column indices: row 2 does not"),
    (lambda: g.SparseGraph(2, [0, 1, 2], [1, 0], [1.0, -math.inf]),
     "row 1 has non-finite weight -inf on its arc to column 0"),
    (lambda: g.SparseGraph(-1, [0], [], []), "n=-1 must be >= 0"),
], ids=["arcs-1d", "adjacency-triples", "arc-fraction", "arc-nan", "arc-range",
        "arc-negative", "arc-strings", "weight-nan", "weight-inf", "n-negative",
        "n-float", "n-bool", "empty-negative", "empty-float", "offset-fraction",
        "column-fraction", "offsets-2d", "column-range", "offset-range", "columns-2d",
        "column-duplicate",
        "csr-weight-inf", "csr-n-negative"])
def test_graph_constructors_reject_malformed_input(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_graph_constructors_keep_legal_edge_cases():
    # negative finite weights (k-NN graphs under min_similarity < 0), integer
    # valued float arcs, numpy integer n and an empty arc list all pass
    graph = g.from_arcs(np.int64(3), np.array([[0.0, 2.0], [1.0, 0.0]]), [-0.5, 0.25])
    assert graph.n == 3 and type(graph.n) is int
    assert graph.col_indices.tolist() == [2, 0] and graph.col_indices.dtype == np.int64
    assert graph.degrees.tolist() == [-0.5, 0.25, 0.0]
    assert g.from_arcs(2, []).nnz == 0 and g.adjacency_graph(0, []).n == 0
    # a directly built graph holds its arrays as int64 and float64 arrays
    csr = g.SparseGraph(2, [0.0, 1.0, 1.0], [1], [2.0])
    assert csr.row_offsets.dtype == csr.col_indices.dtype == np.int64
    assert csr.row(0)[0].tolist() == [1] and csr.nnz == 1
