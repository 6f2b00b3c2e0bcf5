import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_times_runs_every_stage_at_small_shapes(tmp_path, monkeypatch, capsys):
    script = _load("stage_times")
    for name, value in dict(N=400, EXACT_N=400, IMAGE_N=400, IMAGE_CALIB=100,
                            IMAGE_TRIALS=4, REPEATS=1, SAMPLE_M=200).items():
        monkeypatch.setattr(script, name, value)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["stage_times.py", "--out", str(out)])
    script.main()
    data = json.loads(out.read_text())
    assert set(data["stages"]) == {"load_bundle", "sampled_knn_build", "neighbor_means",
                                   "exact_knn_build", "image_neighbors", "image_trials"}
    # the pool's neighbor search runs at depth k, whatever the trial count
    assert data["config"]["image"]["neighbor_depth"] == 5
    assert len(capsys.readouterr().out.splitlines()) == 6


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
