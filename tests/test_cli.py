import json
import shutil

import numpy as np
import pytest

import graphcp as g
from graphcp.cli import main

from conftest import image_trial_reference


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main([
        "synth", "--n", "300", "--classes", "3", "--dim", "4",
        "--homophily", "0.8", "--class-sep", "2.0", "--noise", "1.0",
        "--seed", "5", "--out-dir", str(out),
    ])
    assert code == 0
    return out


def test_synth_writes_loadable_bundle(synth_dir):
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    assert bundle.n == 300
    assert bundle.num_classes == 3


def test_run_writes_report(synth_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "run", "--manifest", str(synth_dir / "manifest.txt"),
        "--method", "daps", "--alpha", "0.1", "--splits", "1", "--trials", "3",
        "--k", "4", "--grid-step", "0.25", "--seed", "3",
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data) == {"config", "trials", "aggregate"}
    assert len(data["trials"]) == 3
    assert data["config"]["method"] == "daps"
    assert 0.0 <= data["aggregate"]["coverage"]["mean"] <= 1.0


def test_run_forced_params_csv(synth_dir, tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "run", "--manifest", str(synth_dir / "manifest.txt"),
        "--method", "snaps", "--alpha", "0.1", "--splits", "1", "--trials", "2",
        "--k", "4", "--lambda", "0.2", "--mu", "0.2", "--seed", "3",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    report = g.read_report(out, format="csv")
    assert report.trials[0].params == {"lambda": 0.2, "mu": 0.2}


def test_missing_manifest_is_validation_exit(tmp_path):
    code = main([
        "run", "--manifest", str(tmp_path / "nope.txt"),
        "--method", "aps", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1


@pytest.mark.parametrize("name", ["edges.txt", "labels.txt", "manifest.txt",
                                  "features.csv"])
def test_non_utf8_bundle_file_exits_one_naming_it(synth_dir, tmp_path, capsys, name):
    bundle = tmp_path / "bundle"
    shutil.copytree(synth_dir, bundle)
    manifest = bundle / "manifest.txt"
    if name == "features.csv":
        g.write_matrix(g.load_matrix(bundle / "features.snpm"), bundle / name)
        manifest.write_text(manifest.read_text().replace("features.snpm", name))
    path = bundle / name
    lines = path.read_bytes().count(b"\n")
    with open(path, "ab") as fh:
        fh.write(b"\xff 2\n")
    code = main([
        "run", "--manifest", str(manifest), "--method", "aps",
        "--splits", "1", "--trials", "1", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1
    assert f"{path}: not UTF-8 text at line {lines + 1}\n" in capsys.readouterr().err


def test_bad_arguments_exit_one(capsys):
    assert main(["run", "--method", "aps"]) == 1  # --manifest/--out missing
    assert main(["bogus-subcommand"]) == 1
    assert main(["knn-cache"]) == 1


def test_oracle_subcommand(synth_dir, tmp_path):
    out = tmp_path / "oracle.json"
    code = main([
        "oracle", "--manifest", str(synth_dir / "manifest.txt"),
        "--alpha", "0.1", "--m-sweep", "0,2", "--w", "0.5",
        "--trials", "2", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["m_sweep"] == [0, 2]
    assert len(data["reports"]) == 2
    assert data["reports"][0]["config"]["m"] == 0


@pytest.mark.parametrize("extra, message", [
    (["oracle", "--trials", "0"], "n_trials=0 must be >= 1"),
    (["oracle", "--trials", "-2"], "n_trials=-2 must be >= 1"),
    (["oracle", "--m-sweep", ","], "m_sweep is empty"),
    (["oracle", "--m-sweep", "2,0,2"], "m_sweep repeats m=2"),
    (["oracle", "--calib-size", "0"], "calibration size 0 must lie in"),
    (["run", "--calib-size", "0"], "fixed calibration size must be >= 1"),
    (["run", "--method", "daps", "--lambda", "0.4", "--mu", "0.2"], "mu weight"),
    (["run", "--method", "aps", "--lambda", "0.4", "--mu", "0.2"],
     "method 'aps' does not aggregate"),
    (["run", "--method", "raps", "--lambda", "0.4", "--mu", "0.2"],
     "method 'raps' does not aggregate"),
    (["run", "--method", "aps", "--base", "raps"],
     "method 'aps' does not aggregate; base 'raps'"),
    # 3 calibration nodes leave 1 to tune on, too few to halve
    (["run", "--method", "snaps", "--calib-size", "3"],
     "cannot split 1 node(s) into two nonempty parts"),
    (["oracle", "--m-sweep", "0,2,-1"], "m_sweep holds m=-1; each m must be >= 0"),
])
def test_arguments_no_run_can_honor_exit_one(synth_dir, tmp_path, capsys, extra,
                                             message):
    out = tmp_path / "r.json"
    code = main([extra[0], "--manifest", str(synth_dir / "manifest.txt"),
                 *extra[1:], "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _image_argv(tmp_path, probs, feats, labels):
    """Write (calibration, test) pairs of image-mode inputs under ``tmp_path``
    and return the matching ``graphcp image`` arguments; a test-label entry of
    None leaves out ``--labels-test``."""
    argv = ["image"]
    for flag, (cal, test) in (("probs", probs), ("feats", feats)):
        for side, mat in (("calib", cal), ("test", test)):
            path = tmp_path / f"{flag}-{side}.snpm"
            g.write_matrix(mat, path)
            argv += [f"--{flag}-{side}", str(path)]
    for side, y in zip(("calib", "test"), labels):
        if y is not None:
            path = tmp_path / f"labels-{side}.txt"
            path.write_text("".join(f"{v}\n" for v in y))
            argv += [f"--labels-{side}", str(path)]
    return argv


def _halves(a, at):
    return a[:at], a[at:]


def test_image_subcommand(synth_dir, tmp_path):
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    half = bundle.n // 2
    out = tmp_path / "image.json"
    code = main(_image_argv(tmp_path, _halves(bundle.probabilities, half),
                            _halves(bundle.features, half),
                            _halves(bundle.labels, half))
                + ["--k", "5", "--eta", "0.5", "--alpha", "0.1",
                   "--seed", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["k"] == 5
    assert 0.0 <= data["trials"][0]["coverage"] <= 1.0


def test_image_without_test_labels(synth_dir, tmp_path):
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    half = bundle.n // 2
    out = tmp_path / "image.json"
    code = main(_image_argv(tmp_path, _halves(bundle.probabilities, half),
                            _halves(bundle.features, half),
                            (bundle.labels[:half], None))
                + ["--k", "5", "--eta", "0.5", "--alpha", "0.1",
                   "--seed", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["trials"][0]["coverage"] is None
    assert data["trials"][0]["size"] > 0


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
def test_image_matches_reference_trial(synth_dir, tmp_path, labeled):
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    P, feats, labels = bundle.probabilities, bundle.features, bundle.labels
    half = bundle.n // 2
    out = tmp_path / "image.json"
    code = main(_image_argv(tmp_path, _halves(P, half), _halves(feats, half),
                            (labels[:half], labels[half:] if labeled else None))
                + ["--k", "5", "--eta", "0.5", "--alpha", "0.1",
                   "--seed", "3", "--out", str(out)])
    assert code == 0
    # calibration rows come first, and xi is keyed by the row's place in
    # the calibration-then-test order under the --seed value
    ref = image_trial_reference(P, feats, labels, np.arange(half),
                                np.arange(half, bundle.n),
                                g.XiPolicy("uniform", seed=3),
                                alpha=0.1, k=5, eta=0.5)
    got = json.loads(out.read_text())["trials"][0]
    assert got["size"] == ref.size
    assert got["n_eval"] == ref.n_eval
    for key in ("coverage", "sh", "sscv"):
        assert got[key] == (getattr(ref, key) if labeled else None)


def _widen(a):
    return np.hstack([a, np.zeros((a.shape[0], 1))])


@pytest.mark.parametrize("case, message, bad", [
    # rows of the wider file still sum to 1
    ("classes", "has 3 classes but", ("probs-calib", "probs-test")),
    ("feature columns", "has 4 feature columns but", ("feats-calib", "feats-test")),
    # one row moved across the split: the stacked row counts still agree
    ("rows", "has 150 rows but", ("probs-calib", "feats-calib")),
    # named by its row in the test file, not in the stacked matrix
    ("sums", "probability row 5 sums to", ("probs-test",)),
], ids=["classes", "feature-columns", "rows", "row-sum"])
def test_image_rejects_bad_split_files(synth_dir, tmp_path, capsys, case,
                                       message, bad):
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    half = bundle.n // 2
    p_cal, p_test = _halves(bundle.probabilities, half)
    f_cal, f_test = _halves(bundle.features, half)
    if case == "classes":
        p_test = _widen(p_test)
    elif case == "feature columns":
        f_test = _widen(f_test)
    elif case == "rows":
        f_cal, f_test = _halves(bundle.features, half + 1)
    else:
        p_test = p_test.copy()
        p_test[5, 0] += 0.5
    argv = _image_argv(tmp_path, (p_cal, p_test), (f_cal, f_test),
                       _halves(bundle.labels, half))
    assert main(argv + ["--out", str(tmp_path / "image.json")]) == 1
    err = capsys.readouterr().err
    assert message in err
    for name in bad:
        assert str(tmp_path / f"{name}.snpm") in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_image_accepts_one_row_calibration(synth_dir, tmp_path, capsys):
    # k is bounded by the 300-row pool, not by the one calibration row;
    # rank ceil(0.9 * 2) = 2 exceeds one calibration score, so the threshold
    # saturates and every test set holds all 3 labels
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    argv = _image_argv(tmp_path, _halves(bundle.probabilities, 1),
                       _halves(bundle.features, 1), _halves(bundle.labels, 1))
    out = tmp_path / "image.json"
    assert main(argv + ["--k", "5", "--out", str(out)]) == 0
    assert "coverage=1.0000 size=3.000" in capsys.readouterr().out
    trial = json.loads(out.read_text())["trials"][0]
    assert (trial["coverage"], trial["size"], trial["n_eval"]) == (1.0, 3.0, 299)


def test_image_rejects_empty_test_split_before_building_the_pool(
        synth_dir, tmp_path, capsys, monkeypatch):
    calls = []
    find = g.propagate._image_neighbors
    monkeypatch.setattr(g.propagate, "_image_neighbors",
                        lambda *args: calls.append(args) or find(*args))
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    argv = _image_argv(tmp_path, _halves(bundle.probabilities[:100], 100),
                       _halves(bundle.features[:100], 100),
                       (bundle.labels[:100], None))
    out = tmp_path / "image.json"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--probs-test {tmp_path / 'probs-test.snpm'} has no rows" in err
    assert not out.exists()
    assert calls == []


def test_image_rejects_bad_alpha_before_building_the_pool(
        synth_dir, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(g.propagate, "_image_neighbors",
                        lambda *args: calls.append(args))
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    half = bundle.n // 2
    argv = _image_argv(tmp_path, _halves(bundle.probabilities, half),
                       _halves(bundle.features, half), _halves(bundle.labels, half))
    out = tmp_path / "image.json"
    assert main(argv + ["--alpha", "1.5", "--out", str(out)]) == 1
    assert "alpha=1.5 must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


# k is bounded by the pool of 150 calibration and 150 test rows
@pytest.mark.parametrize("extra, message", [
    (["--k", "0"], "k=0 must lie in [1, 299]"),
    (["--k", "300"], "k=300 must lie in [1, 299]"),
    (["--eta", "1.5"], "eta must lie in [0, 1]"),
    (["--eta", "nan"], "eta must lie in [0, 1]"),
], ids=["k-zero", "k-past-calibration", "eta-above-one", "eta-nan"])
def test_image_rejects_bad_k_and_eta(synth_dir, tmp_path, capsys, extra, message):
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    half = bundle.n // 2
    argv = _image_argv(tmp_path, _halves(bundle.probabilities, half),
                       _halves(bundle.features, half), _halves(bundle.labels, half))
    assert main(argv + extra + ["--out", str(tmp_path / "image.json")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "image.json").exists()


@pytest.mark.parametrize("extra, message", [
    (["--method", "snaps", "--lambda", "nan", "--mu", "0"],
     "aggregation weights must be >= 0"),
    (["--grid-step", "nan"], "grid_step must lie in (0, 1]"),
], ids=["lambda-nan", "grid-step-nan"])
def test_run_rejects_nan_weights_with_exit_one(synth_dir, tmp_path, capsys, extra,
                                               message):
    out = tmp_path / "r.json"
    code = main(["run", "--manifest", str(synth_dir / "manifest.txt"), *extra,
                 "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
