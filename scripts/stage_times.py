#!/usr/bin/env python3
"""Time the pipeline stages that grow with n, one at a time, at n=50000,
the exact k-NN build and the graph-mode trial loop's tunes and evaluations
at n=5000, and the two halves of an image-mode run at n=4000.

Generates a planted-partition bundle (K=8, d=8, homophily 0.8, class_sep
2.0, noise 1.0, seed 1), saves it to a temporary directory, then times each
stage 5 times on its own:

* ``generate_synthetic``: draw the bundle (its edges symmetrized by
  ``symmetrize_edges``);
* ``save_bundle``: write its files (matrices, label and edge text, manifest);
* ``load_bundle``: read and validate the saved bundle files; the JSON also
  records the peak of memory traced by ``tracemalloc`` during one more load
  (``traced_peak_bytes``, next to its seconds);
* ``sampled_knn_build``: ``build_knn_graph`` in sampled mode (k=20, M=200);
* ``neighbor_means``: one aggregation of the APS score matrix over the
  k-NN graph and the structural adjacency.

A second bundle of the same kind at n=5000 gives the exact-mode stage, at
the shape of the benchmark's ``snaps-5k`` workload:

* ``exact_knn_build``: ``build_knn_graph`` in exact mode (k=20).

The same bundle gives the graph-mode trial stages, at the shape of
``snaps-5k`` (tuned ``snaps``, 1 model split x 50 conformal splits, alpha
0.05, seed 1). One ``run_experiment`` records the arguments of its 50
``harness._tune_snaps`` calls and of its 50 ``harness._evaluate_trial``
calls; each stage then replays them, each tune on a fresh copy of its
random generator, and sums the times of the calls:

* ``snaps_tunes``: the 50 grid tunes of (lam, mu), given the operation's
  ``NeighborMeans``;
* ``trial_evaluations``: the 50 trial evaluations (calibrate, predict sets,
  coverage, Size, singleton hit and SSCV).

The JSON records, per tune, how many entries the evaluation half's BLAS
screen left undecided, so that ``harness._rescored`` scored them with the
plain formula (``undecided_entries``), and for how many grid points those
entries needed the exact threshold, computed by
``harness._exact_thresholds`` (``exact_thresholds``); both are counted by
wrapping the two functions.

A third bundle of the same kind at n=4000 gives the image-mode stages, at
the shape of the benchmark's ``image-4k`` workload (calibration size 1000,
k=5, eta=0.5, 20 trials, alpha=0.05):

* ``image_neighbors``: the pool's neighbor search
  (``propagate._image_neighbors``): its unit rows and their exact k-NN
  lists at depth k (``graph._knn_lists``);
* ``image_trials``: the rest of ``run_image_experiment``, that is the
  probabilities' validation and APS mass, then the 20 trial bodies
  (``harness._image_trial``: split, scores, correction, evaluation).

For the exact bundle and the image bundle, the JSON also records
``fallback_rows``: how many rows of the exact k-NN lists at depth k
(``graph._knn_lists``) the screen of ``graph._top_k_blocks`` could not
certify, so that they were scored against every row (counted by wrapping
``graph._pairwise_sims``, which scores only those rows).

The shapes are fixed so that every ``BENCH_<n>.json`` can be compared with the
others. Prints one line per stage and writes every run, with the host context,
to ``--out`` as JSON (``BENCH_<n>.json`` by convention, so the trend can be
read across changes).

Example:
    PYTHONPATH=src python3 scripts/stage_times.py --out BENCH_1.json
"""

import argparse
import copy
import json
import os
import platform
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import graphcp as g

N = 50000
K = 20
SAMPLE_M = 200
SEED = 1
REPEATS = 5
EXACT_N = 5000
IMAGE_N, IMAGE_CALIB, IMAGE_K, IMAGE_ETA, IMAGE_TRIALS = 4000, 1000, 5, 0.5, 20
IMAGE_ALPHA = 0.05
SNAPS_TRIALS = 50


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), platform.machine())
    except OSError:
        return platform.machine()


def timed(fn, repeats):
    """(seconds of each run, result of the last run)."""
    runs, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        runs.append(time.perf_counter() - start)
    return runs, result


def traced_peak(fn):
    """Peak bytes ``tracemalloc`` traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fallback_rows(normed, k):
    """Rows of the exact ``graph._knn_lists(normed, k)`` scored in full."""
    real, rows = g.graph._pairwise_sims, []

    def counting(a, b):
        rows.append(a.shape[0])
        return real(a, b)

    g.graph._pairwise_sims = counting
    try:
        g.graph._knn_lists(normed, k)
    finally:
        g.graph._pairwise_sims = real
    return sum(rows)


def fresh(args):
    """``args`` with each random generator copied (the recorded functions
    change no other argument)."""
    return tuple(copy.deepcopy(a) if isinstance(a, np.random.Generator) else a
                 for a in args)


def recorded_calls(bundle, cfg, names):
    """{name: [(args, kwargs), ...]} of the calls ``run_experiment(bundle,
    cfg)`` makes to each ``harness`` function in ``names``, random
    generators copied as they were at the call."""
    calls = {name: [] for name in names}
    reals = {name: getattr(g.harness, name) for name in names}

    def recorder(name):
        def record(*args, **kwargs):
            calls[name].append((fresh(args), kwargs))
            return reals[name](*args, **kwargs)
        return record

    try:
        for name in names:
            setattr(g.harness, name, recorder(name))
        g.run_experiment(bundle, cfg)
    finally:
        for name, fn in reals.items():
            setattr(g.harness, name, fn)
    return calls


def replayed(fn, calls, repeats):
    """Seconds of each of ``repeats`` replays of the recorded ``calls`` to
    ``fn``: the sum of the call times."""
    runs = []
    for _ in range(repeats):
        total = 0.0
        for args, kwargs in calls:
            args = fresh(args)
            start = time.perf_counter()
            fn(*args, **kwargs)
            total += time.perf_counter() - start
        runs.append(total)
    return runs


def screen_counts(calls):
    """``{"undecided_entries": [...], "exact_thresholds": [...]}``: per
    recorded ``_tune_snaps`` call, the entries its screen leaves to
    ``harness._rescored`` and the grid points whose exact threshold
    ``harness._exact_thresholds`` computes.  Both take the ``lam`` weights
    of the counted items first, one per undecided entry or (as a (G', 1)
    column) per grid point, so one wrapper counts both."""
    seams = {"undecided_entries": "_rescored", "exact_thresholds": "_exact_thresholds"}
    counts = {key: [] for key in seams}
    reals = {key: getattr(g.harness, name) for key, name in seams.items()}

    def counting(key):
        def count(lam, *rest):
            counts[key][-1] += len(lam)
            return reals[key](lam, *rest)
        return count

    try:
        for key, name in seams.items():
            setattr(g.harness, name, counting(key))
        for args, kwargs in calls:
            for per_tune in counts.values():
                per_tune.append(0)
            g.harness._tune_snaps(*fresh(args), **kwargs)
    finally:
        for key, name in seams.items():
            setattr(g.harness, name, reals[key])
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    stages = {}
    stages["generate_synthetic"], bundle = timed(
        lambda: g.generate_synthetic(n=N, num_classes=8, dim=8, homophily=0.8,
                                     class_sep=2.0, noise=1.0, seed=SEED), REPEATS)
    knn_cfg = g.KnnConfig(k=K, sample_size=SAMPLE_M, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        stages["save_bundle"], manifest = timed(lambda: g.save_bundle(bundle, tmp),
                                                REPEATS)
        stages["load_bundle"], bundle = timed(lambda: g.load_bundle(manifest),
                                              REPEATS)
        load_peak = traced_peak(lambda: g.load_bundle(manifest))
    stages["sampled_knn_build"], knn = timed(
        lambda: g.build_knn_graph(bundle.features, knn_cfg), REPEATS)
    adj = g.adjacency_graph(bundle.n, bundle.edges)
    scores = g.aps_scores(bundle.probabilities, g.XiPolicy(seed=SEED)).values
    stages["neighbor_means"], _ = timed(lambda: g.neighbor_means(scores, knn, adj),
                                        REPEATS)

    exact = g.generate_synthetic(n=EXACT_N, num_classes=8, dim=8, homophily=0.8,
                                 class_sep=2.0, noise=1.0, seed=SEED)
    stages["exact_knn_build"], exact_knn = timed(
        lambda: g.build_knn_graph(exact.features, g.KnnConfig(k=K)), REPEATS)

    snaps_cfg = g.ExperimentConfig(n_model_splits=1, n_conformal_splits=SNAPS_TRIALS,
                                   seed=SEED)
    calls = recorded_calls(exact, snaps_cfg, ("_tune_snaps", "_evaluate_trial"))
    stages["snaps_tunes"] = replayed(g.harness._tune_snaps, calls["_tune_snaps"],
                                     REPEATS)
    stages["trial_evaluations"] = replayed(g.harness._evaluate_trial,
                                           calls["_evaluate_trial"], REPEATS)

    image = g.generate_synthetic(n=IMAGE_N, num_classes=8, dim=8, homophily=0.8,
                                 class_sep=2.0, noise=1.0, seed=SEED)
    P, feats = image.probabilities, image.features

    stages["image_neighbors"], (nbrs, zero) = timed(
        lambda: g.propagate._image_neighbors(feats, IMAGE_K), REPEATS)

    def image_trials():
        mass = g.scores._mass_above(g.matrixio.validate_probabilities(P))
        return [g.harness._image_trial(P, mass, image.labels, IMAGE_CALIB, IMAGE_K,
                                       IMAGE_ETA, IMAGE_ALPHA, SEED, t, nbrs, zero)
                for t in range(IMAGE_TRIALS)]

    stages["image_trials"], _ = timed(image_trials, REPEATS)

    for name, runs in stages.items():
        print(f"{name:<18} median {statistics.median(runs):.3f} s  "
              f"min {min(runs):.3f} s  (n={len(runs)})")
    print(f"{'load_bundle':<18} traced peak {load_peak / 2 ** 20:.1f} MiB")
    out = {
        "context": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": {"n": N, "classes": 8, "dim": 8, "k": K,
                   "sample_m": SAMPLE_M, "seed": SEED,
                   "repeats": REPEATS, "knn_arcs": knn.nnz,
                   "exact": {"n": EXACT_N, "k": K, "knn_arcs": exact_knn.nnz,
                             "fallback_rows": fallback_rows(
                                 g.graph._normalized_rows(exact.features)[0], K)},
                   "snaps": {"n": EXACT_N, "trials": SNAPS_TRIALS, "alpha": snaps_cfg.alpha,
                             **screen_counts(calls["_tune_snaps"])},
                   "image": {"n": IMAGE_N, "calib_size": IMAGE_CALIB, "k": IMAGE_K,
                             "eta": IMAGE_ETA, "trials": IMAGE_TRIALS,
                             "alpha": IMAGE_ALPHA, "neighbor_depth": nbrs.shape[1],
                             "fallback_rows": fallback_rows(
                                 g.graph._normalized_rows(feats)[0], IMAGE_K)}},
        "stages": {name: {"median_s": statistics.median(runs), "min_s": min(runs),
                          "runs_s": runs}
                   for name, runs in stages.items()},
    }
    out["stages"]["load_bundle"]["traced_peak_bytes"] = load_peak
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
