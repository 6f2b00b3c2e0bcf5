"""Trial reports: per-trial metrics, aggregates, and JSON/CSV round-trips.

JSON layout (field order fixed)::

    {"config": {...},
     "trials": [{"model_split": ..., "conformal_split": ..., "coverage": ...,
                 "size": ..., "sh": ..., "sscv": ..., "n_eval": ...,
                 "params": {...}}, ...],
     "aggregate": {"coverage": {"mean": ..., "std": ...}, "size": ..., ...}}

CSV stores one row per trial after a ``# config <json>`` comment line; float
cells use 6 decimals, so a CSV round-trip is exact only to 1e-6.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .matrixio import atomic_open
from .metrics import MetricSummary

_METRICS = ("coverage", "size", "sh", "sscv")


@dataclass(frozen=True)
class TrialResult:
    model_split: int
    conformal_split: int
    metrics: MetricSummary
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrialReport:
    config: dict
    trials: list[TrialResult]
    aggregate: dict


def _mean_std(values: list[float]) -> dict:
    vals = [v for v in values if v is not None]
    if not vals:
        return {"mean": None, "std": None}
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / n
    return {"mean": mean, "std": math.sqrt(var)}


def compute_aggregate(trials: list[TrialResult]) -> dict:
    """Population mean/std of each metric over the trial list."""
    agg = {}
    for key in _METRICS:
        agg[key] = _mean_std([getattr(t.metrics, key) for t in trials])
    return agg


def make_report(config: dict, trials: list[TrialResult]) -> TrialReport:
    return TrialReport(config=config, trials=trials, aggregate=compute_aggregate(trials))


def _trial_to_dict(t: TrialResult) -> dict:
    return {
        "model_split": t.model_split,
        "conformal_split": t.conformal_split,
        "coverage": t.metrics.coverage,
        "size": t.metrics.size,
        "sh": t.metrics.sh,
        "sscv": t.metrics.sscv,
        "n_eval": t.metrics.n_eval,
        "params": dict(t.params),
    }


def report_to_dict(report: TrialReport) -> dict:
    return {
        "config": report.config,
        "trials": [_trial_to_dict(t) for t in report.trials],
        "aggregate": report.aggregate,
    }


def _trial_from_dict(d: dict) -> TrialResult:
    summary = MetricSummary(
        coverage=d["coverage"], size=d["size"], sh=d["sh"],
        sscv=d["sscv"], n_eval=d["n_eval"],
    )
    return TrialResult(
        model_split=d["model_split"], conformal_split=d["conformal_split"],
        metrics=summary, params=dict(d.get("params", {})),
    )


def report_from_dict(d: dict) -> TrialReport:
    trials = [_trial_from_dict(t) for t in d.get("trials", [])]
    aggregate = d.get("aggregate") or compute_aggregate(trials)
    return TrialReport(config=d.get("config", {}), trials=trials, aggregate=aggregate)


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


@contextmanager
def _report_file(path, **kwargs):
    """``atomic_open(path, "w")``; an ``OSError`` becomes a ``ValidationError``."""
    try:
        with atomic_open(path, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write report: {exc}") from exc


def write_json(payload: dict, path) -> None:
    """The one JSON report writer: ``payload`` indented by 2 with a trailing
    newline, replacing ``path`` atomically."""
    with _report_file(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report(report: TrialReport, path, format: str = "json") -> None:
    """Serialize a report; field order is deterministic for both formats.

    The file is replaced atomically: a write that fails leaves any previous
    report at ``path`` intact."""
    path = Path(path)
    if format == "json":
        write_json(report_to_dict(report), path)
    elif format == "csv":
        with _report_file(path, newline="") as fh:
            fh.write("# config " + json.dumps(report.config, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(
                ["model_split", "conformal_split", "coverage", "size",
                 "sh", "sscv", "n_eval", "params"]
            )
            for t in report.trials:
                writer.writerow([
                    t.model_split, t.conformal_split,
                    _fmt(t.metrics.coverage), _fmt(t.metrics.size),
                    _fmt(t.metrics.sh), _fmt(t.metrics.sscv),
                    t.metrics.n_eval, json.dumps(t.params, sort_keys=True),
                ])
    else:
        raise ValidationError(f"unknown report format: {format!r}")


def read_report(path, format: str = "json") -> TrialReport:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such report: {path}")
    if format == "json":
        with open(path, "r", encoding="utf-8") as fh:
            return report_from_dict(json.load(fh))
    if format == "csv":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = fh.readline()
            if not first.startswith("# config "):
                raise ValidationError(f"{path}: missing '# config' line")
            config = json.loads(first[len("# config "):])
            reader = csv.DictReader(fh)
            trials = []

            def cell(row, key):
                return float(row[key]) if row[key] else None

            for row in reader:
                summary = MetricSummary(
                    coverage=cell(row, "coverage"),
                    size=cell(row, "size"),
                    sh=cell(row, "sh"),
                    sscv=cell(row, "sscv"),
                    n_eval=int(row["n_eval"]),
                )
                trials.append(TrialResult(
                    model_split=int(row["model_split"]),
                    conformal_split=int(row["conformal_split"]),
                    metrics=summary,
                    params=json.loads(row["params"]) if row["params"] else {},
                ))
        # aggregate is recomputable from trials, so CSV does not store it
        return make_report(config, trials)
    raise ValidationError(f"unknown report format: {format!r}")


def reports_equal(a: TrialReport, b: TrialReport, tol: float = 0.0,
                  ignore_config: bool = False, ignore_params: bool = False) -> bool:
    """Structural equality; ``tol`` loosens float comparisons (CSV is 6 dp).

    ``ignore_config``/``ignore_params`` support comparing reports of methods
    that must coincide numerically but carry different labels (reduction
    identities such as forcing all aggregation weights to zero).
    """
    if not ignore_config and a.config != b.config:
        return False
    if len(a.trials) != len(b.trials):
        return False

    def close(x, y):
        if x is None or y is None:
            return x is None and y is None
        return x == y if tol == 0.0 else abs(x - y) <= tol

    for ta, tb in zip(a.trials, b.trials):
        if (ta.model_split, ta.conformal_split) != (tb.model_split, tb.conformal_split):
            return False
        if ta.metrics.n_eval != tb.metrics.n_eval:
            return False
        for key in _METRICS:
            if not close(getattr(ta.metrics, key), getattr(tb.metrics, key)):
                return False
        if not ignore_params:
            if set(ta.params) != set(tb.params):
                return False
            if not all(close(ta.params[k], tb.params[k]) for k in ta.params):
                return False
    return True
