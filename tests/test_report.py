import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import graphcp as g
from graphcp.errors import ValidationError
from graphcp.metrics import MetricSummary
from graphcp.report import TrialResult


def _demo_report(n_trials=3, seed=0):
    rng = np.random.default_rng(seed)
    trials = []
    for t in range(n_trials):
        summary = MetricSummary(
            coverage=float(rng.uniform(0.9, 1.0)),
            size=float(rng.uniform(1, 4)),
            sh=float(rng.uniform(0, 0.9)),
            sscv=float(rng.uniform(0, 0.1)),
            n_eval=int(rng.integers(50, 500)),
        )
        trials.append(TrialResult(0, t, summary, {"lambda": 0.2, "mu": 0.1}))
    return g.make_report({"alpha": 0.05, "method": "snaps"}, trials)


def test_empty_report_json(tmp_path):
    report = g.make_report({"alpha": 0.1}, [])
    path = tmp_path / "empty.json"
    g.write_report(report, path)
    data = json.loads(path.read_text())
    assert data["trials"] == []
    assert data["aggregate"]["coverage"]["mean"] is None


def test_csv_six_decimal_cells(tmp_path):
    summary = MetricSummary(coverage=0.950, size=2.42, sh=0.4489, sscv=None, n_eval=10)
    report = g.make_report({}, [TrialResult(0, 0, summary, {})])
    path = tmp_path / "r.csv"
    g.write_report(report, path, format="csv")
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    assert cells[2] == "0.950000"
    assert cells[3] == "2.420000"


def test_json_roundtrip_exact(tmp_path):
    report = _demo_report()
    path = tmp_path / "r.json"
    g.write_report(report, path, format="json")
    assert g.reports_equal(report, g.read_report(path, format="json"))


def test_csv_roundtrip_within_format_precision(tmp_path):
    report = _demo_report()
    path = tmp_path / "r.csv"
    g.write_report(report, path, format="csv")
    back = g.read_report(path, format="csv")
    assert g.reports_equal(report, back, tol=1e-6)
    assert back.config == report.config


def test_aggregate_recomputable_within_1e9():
    report = _demo_report(n_trials=50, seed=4)
    for key in ("coverage", "size", "sh", "sscv"):
        values = [getattr(t.metrics, key) for t in report.trials]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        assert report.aggregate[key]["mean"] == pytest.approx(mean, abs=1e-9)
        assert report.aggregate[key]["std"] == pytest.approx(std, abs=1e-9)


def test_csv_roundtrip_with_unlabeled_metrics(tmp_path):
    # size-only rows (no test labels) leave coverage/sh cells empty
    summary = MetricSummary(coverage=None, size=2.5, sh=None, sscv=None, n_eval=7)
    report = g.make_report({"mode": "image"}, [TrialResult(0, 0, summary, {})])
    path = tmp_path / "r.csv"
    g.write_report(report, path, format="csv")
    back = g.read_report(path, format="csv")
    assert back.trials[0].metrics.coverage is None
    assert back.trials[0].metrics.size == pytest.approx(2.5, abs=1e-6)


def test_unwritable_path_is_validation_error(tmp_path):
    report = _demo_report()
    with pytest.raises(ValidationError, match="cannot write"):
        g.write_report(report, tmp_path / "missing_dir" / "r.json")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValidationError, match="format"):
        g.write_report(_demo_report(), tmp_path / "r.xml", format="xml")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_write_keeps_previous_report(tmp_path, monkeypatch, fmt):
    path = tmp_path / f"r.{fmt}"
    g.write_report(_demo_report(seed=1), path, format=fmt)
    before = path.read_bytes()

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    if fmt == "json":
        monkeypatch.setattr(json, "dump", disk_full)
    else:  # fails after the '# config' line has been written
        monkeypatch.setattr(csv, "writer", lambda fh: SimpleNamespace(writerow=disk_full))
    with pytest.raises(ValidationError, match="No space"):
        g.write_report(_demo_report(seed=2), path, format=fmt)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
