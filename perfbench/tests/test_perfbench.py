"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Span, Tracer, combine_ops, op_layer_metrics, self_times  # noqa: E402
from workloads import (ROOT, WORKLOADS, bundle_bytes, import_graphcp,  # noqa: E402
                       make_bundle_files, run_op)

g = import_graphcp()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# small copies of every workload: same code paths, seconds instead of minutes
SMALL = {
    "snaps-5k": replace(WORKLOADS["snaps-5k"], n=400, conformal_splits=2),
    "snaps-10k-sampled": replace(WORKLOADS["snaps-10k-sampled"], n=600,
                                 conformal_splits=1),
    "image-4k": replace(WORKLOADS["image-4k"], n=400, calib_size=100, trials=2),
}


def test_self_times_of_hand_built_tree():
    spans = [
        Span("harness.run_experiment", 0.0, 10.0, None, 0),
        Span("graph.build_knn_graph", 1.0, 4.0, 0, 0),
        Span("conformal.conformal_rank", 3.0, 6.0, 0, 0),   # overlaps the one before
        Span("graph.inner", 2.0, 3.0, 1, 0),
        Span("report.make_report", 9.0, 12.0, 0, 0),        # runs past its parent
        Span("conformal.conformal_rank", 20.0, 21.0, 1, 0),  # outside: covers nothing
    ]
    # root: 10 - |[1,6] u [9,10]| = 4; knn: 3 - 1 (inner; the late child is clipped away)
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0, 1.0]
    m = op_layer_metrics(spans, self_times(spans), 0)
    assert m["harness.self_s"] == 4.0
    assert m["conformal.conformal_rank.calls"] == 2
    assert m["conformal.conformal_rank.self_s"] == 4.0
    assert m["harness.tune_evals"] == 1  # only the call made from the harness


def test_combine_ops_medians_times_and_checks_counts():
    per_op = [{"a.self_s": 1.0, "a.calls": 3}, {"a.self_s": 3.0, "a.calls": 3},
              {"a.self_s": 2.5, "a.calls": 4}]
    values, mismatches = combine_ops(per_op, ["a.self_s", "a.calls", "b.calls"])
    assert values == {"a.self_s": 2.5, "a.calls": 3, "b.calls": 0}
    assert mismatches == ["a.calls differs across traced ops: [3, 3, 4]"]


def _traced_op(w, tmp_path, seed=5):
    manifest = make_bundle_files(g, w.n, seed, tmp_path / "bundle")
    tracer = Tracer()
    tracer.begin_op()
    before = dict(vars(g.harness))
    with tracer.wrapping(g.harness):
        traced = run_op(g, w, seed, manifest, tmp_path / "t.json", tracer.call)
    assert all(vars(g.harness)[k] is v for k, v in before.items())
    plain = run_op(g, w, seed, manifest, tmp_path / "p.json", run._direct)
    assert g.reports_equal(traced, plain)
    metrics = op_layer_metrics(tracer.spans, self_times(tracer.spans), 0)
    return manifest, metrics


def test_computed_counts_on_tiny_graph_bundle(tmp_path):
    w = SMALL["snaps-5k"]
    manifest, m = _traced_op(w, tmp_path)
    bundle = g.load_bundle(manifest)
    knn = g.build_knn_graph(bundle.features, g.KnnConfig(k=w.k, seed=5))
    adj = g.adjacency_graph(bundle.n, bundle.edges)
    assert m["graph.knn_sims"] == w.n * (w.n - 1)
    assert m["graph.knn_arcs"] == knn.nnz
    assert m["propagate.neighbor_means.calls"] == 1
    assert m["propagate.agg_terms"] == (knn.nnz + adj.nnz) * bundle.num_classes
    assert m["harness.tune_evals"] == 231 * w.n_trials
    assert m["conformal.conformal_rank.calls"] == 231 * w.n_trials
    assert m["propagate.combine_scores.calls"] == w.n_trials
    assert "propagate.image_snaps.calls" not in m
    files = [manifest] + [manifest.parent / f for f in
                          ("features.snpm", "probabilities.snpm", "labels.txt", "edges.txt")]
    assert bundle_bytes(manifest) == sum(f.stat().st_size for f in files)


def test_computed_counts_on_tiny_sampled_and_image_bundles(tmp_path):
    w = SMALL["snaps-10k-sampled"]
    _, m = _traced_op(w, tmp_path / "sampled")
    assert m["graph.knn_sims"] == w.n * w.sample_size
    assert m["propagate.neighbor_means.calls"] == w.model_splits

    w = SMALL["image-4k"]
    _, m = _traced_op(w, tmp_path / "image")
    c = w.calib_size
    assert m["propagate.image_snaps.calls"] == 2 * w.trials
    assert m["propagate.image_sims"] == w.trials * (c * c + (w.n - c) * c)
    assert "graph.build_knn_graph.calls" not in m
    assert "harness.tune_evals" not in m


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_of_each_workload(name, tmp_path):
    w = SMALL[name]
    for trace in (False, True):
        m = run.measure(g, w, seed=3, seconds=0.0, trace=trace, work=tmp_path / str(trace),
                        t_start=time.perf_counter())
        assert m["errors"] == []
        assert len(m["ops"]) == run.WARMUP_OPS + run.MIN_TIMED
        assert [o.warmup for o in m["ops"]][:run.WARMUP_OPS + 1] == [True] * run.WARMUP_OPS + [False]
        assert len(m["done"]) == run.MIN_TIMED
        assert len(m["setup_s"]) == run.SETUPS
        assert not [p for o in m["ops"] for p in o.problems if p.startswith("raised")]
        if trace:
            values, problems = run.per_layer(m, [d["name"] for d in SPEC["per_layer"]])
            assert problems == []
            assert set(values) == {d["name"] for d in SPEC["per_layer"]}
            assert values["harness.trials"][0] == w.n_trials
        else:
            values = run.end_to_end(m)
            assert set(values) == {d["name"] for d in SPEC["end_to_end"]}
            assert all(v > 0 for v, _ in values.values())
