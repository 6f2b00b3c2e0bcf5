import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_times_runs_every_stage_at_small_shapes(tmp_path, monkeypatch, capsys):
    script = _load("stage_times")
    for name, value in dict(N=400, EXACT_N=400, IMAGE_N=400, IMAGE_CALIB=100,
                            IMAGE_TRIALS=4, SNAPS_TRIALS=3, REPEATS=1,
                            SAMPLE_M=200).items():
        monkeypatch.setattr(script, name, value)
    # image_neighbors times the one image-mode neighbor search
    searched, real = [], script.g.propagate._image_neighbors
    monkeypatch.setattr(script.g.propagate, "_image_neighbors",
                        lambda feats, k: searched.append(k) or real(feats, k))
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["stage_times.py", "--out", str(out)])
    script.main()
    assert searched == [5]
    data = json.loads(out.read_text())
    assert set(data["stages"]) == {"generate_synthetic", "save_bundle", "load_bundle",
                                   "sampled_knn_build", "neighbor_means",
                                   "exact_knn_build", "snaps_tunes", "trial_evaluations",
                                   "image_neighbors", "image_trials"}
    assert data["stages"]["load_bundle"]["traced_peak_bytes"] > 0
    # the pool's neighbor search runs at depth k, whatever the trial count
    assert data["config"]["image"]["neighbor_depth"] == 5
    for shape in ("exact", "image"):
        assert data["config"][shape]["fallback_rows"] >= 0
    # one count of undecided screen entries, and of the exact thresholds
    # they needed, per recorded tune
    for key in ("undecided_entries", "exact_thresholds"):
        counts = data["config"]["snaps"][key]
        assert len(counts) == 3 and min(counts) >= 0
    # a line per stage, and the load's traced peak
    assert len(capsys.readouterr().out.splitlines()) == 11


def test_stage_times_replays_the_calls_of_one_operation(monkeypatch):
    script = _load("stage_times")
    bundle = script.g.generate_synthetic(n=400, num_classes=4, dim=4, homophily=0.8,
                                         class_sep=2.0, noise=1.0, seed=3)
    cfg = script.g.ExperimentConfig(method="daps", n_model_splits=1,
                                    n_conformal_splits=2, seed=3)
    calls = script.recorded_calls(bundle, cfg, ("_tune_snaps", "_evaluate_trial"))
    assert [len(c) for c in calls.values()] == [2, 2]
    # a replayed tune draws the same halves and picks the operation's weights
    picked = [t.params for t in script.g.run_experiment(bundle, cfg).trials]
    for (args, kwargs), params in zip(calls["_tune_snaps"], picked):
        assert kwargs == {"mu_only": True}
        got = script.g.harness._tune_snaps(*script.fresh(args), **kwargs)
        assert got.as_dict() == params
    assert len(script.replayed(script.g.harness._tune_snaps,
                               calls["_tune_snaps"], 2)) == 2
    # the recorded generators are left as they were, so replays repeat
    assert script.screen_counts(calls["_tune_snaps"]) == \
        script.screen_counts(calls["_tune_snaps"])


def test_stage_times_counts_the_rows_the_screen_scores_in_full():
    script = _load("stage_times")
    feats = np.random.default_rng(5).normal(size=(200, 4))
    feats[[3, 70, 199]] = 0.0  # a zero row ties every column at 0: over the cap
    normed = script.g.graph._normalized_rows(feats)[0]
    assert script.fallback_rows(normed, 5) == 3
    assert script.fallback_rows(normed[:150], 5) == 2


def test_synthetic_benchmark_runs_every_method(tmp_path, monkeypatch, capsys):
    script = _load("synthetic_benchmark")
    monkeypatch.setattr(sys, "argv", [
        "synthetic_benchmark.py", "--n", "400", "--classes", "4", "--dim", "4",
        "--trials", "2", "--k", "5", "--out-dir", str(tmp_path)])
    script.main()
    reports = sorted(p.name for p in tmp_path.glob("*.json"))
    assert reports == ["aps.json", "daps.json", "raps.json", "snaps.json"]
    for name in reports:
        assert len(json.loads((tmp_path / name).read_text())["trials"]) == 2
    # the bundle line, the header and one row per method
    assert len(capsys.readouterr().out.splitlines()) == 6
