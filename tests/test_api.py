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
