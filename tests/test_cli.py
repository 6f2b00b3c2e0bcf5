import json

import pytest

import graphcp as g
from graphcp.cli import main


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


def test_bad_thread_count_exits_one(synth_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRAPHCP_THREADS", "abc")
    code = main([
        "run", "--manifest", str(synth_dir / "manifest.txt"),
        "--method", "aps", "--splits", "1", "--trials", "1",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1
    assert "GRAPHCP_THREADS" in capsys.readouterr().err


def test_bad_arguments_exit_one(capsys):
    assert main(["run", "--method", "aps"]) == 1  # --manifest/--out missing
    assert main(["bogus-subcommand"]) == 1


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


def test_knn_cache_subcommand(synth_dir, tmp_path):
    out = tmp_path / "graph.snpg"
    code = main([
        "knn-cache", "--features", str(synth_dir / "features.snpm"),
        "--k", "3", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    cfg = g.KnnConfig(k=3, seed=2)
    digest = g.matrixio.file_sha256(synth_dir / "features.snpm")
    graph = g.load_knn_cache(out, digest, cfg)
    assert graph.n == 300


def test_image_subcommand(synth_dir, tmp_path):
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    half = bundle.n // 2
    g.write_matrix(bundle.probabilities[:half], tmp_path / "pc.snpm")
    g.write_matrix(bundle.probabilities[half:], tmp_path / "pt.snpm")
    g.write_matrix(bundle.features[:half], tmp_path / "fc.snpm")
    g.write_matrix(bundle.features[half:], tmp_path / "ft.snpm")
    (tmp_path / "yc.txt").write_text("".join(f"{v}\n" for v in bundle.labels[:half]))
    (tmp_path / "yt.txt").write_text("".join(f"{v}\n" for v in bundle.labels[half:]))
    out = tmp_path / "image.json"
    code = main([
        "image",
        "--probs-calib", str(tmp_path / "pc.snpm"),
        "--probs-test", str(tmp_path / "pt.snpm"),
        "--feats-calib", str(tmp_path / "fc.snpm"),
        "--feats-test", str(tmp_path / "ft.snpm"),
        "--labels-calib", str(tmp_path / "yc.txt"),
        "--labels-test", str(tmp_path / "yt.txt"),
        "--k", "5", "--eta", "0.5", "--alpha", "0.1",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["k"] == 5
    assert 0.0 <= data["trials"][0]["coverage"] <= 1.0


def test_image_without_test_labels(synth_dir, tmp_path):
    bundle = g.load_bundle(synth_dir / "manifest.txt")
    half = bundle.n // 2
    g.write_matrix(bundle.probabilities[:half], tmp_path / "pc.snpm")
    g.write_matrix(bundle.probabilities[half:], tmp_path / "pt.snpm")
    g.write_matrix(bundle.features[:half], tmp_path / "fc.snpm")
    g.write_matrix(bundle.features[half:], tmp_path / "ft.snpm")
    (tmp_path / "yc.txt").write_text("".join(f"{v}\n" for v in bundle.labels[:half]))
    out = tmp_path / "image.json"
    code = main([
        "image",
        "--probs-calib", str(tmp_path / "pc.snpm"),
        "--probs-test", str(tmp_path / "pt.snpm"),
        "--feats-calib", str(tmp_path / "fc.snpm"),
        "--feats-test", str(tmp_path / "ft.snpm"),
        "--labels-calib", str(tmp_path / "yc.txt"),
        "--k", "5", "--eta", "0.5", "--alpha", "0.1",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["trials"][0]["coverage"] is None
    assert data["trials"][0]["size"] > 0
