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
* ``load_bundle``: read and validate the saved bundle files;
* ``sampled_knn_build``: ``build_knn_graph`` in sampled mode (k=20, M=200);
  the JSON also records how many candidates per row its float32 pool
  screen passed on average (``mean_candidates``) and how many rows the
  screen could not certify, so that they were scored over their whole
  pool (``fallback_rows``), both counted by wrapping
  ``graph._candidate_top_k``;
* ``adjacency_graph``: the structural adjacency (unit weights) from the
  bundle's symmetrized arcs;
* ``neighbor_means``: one aggregation of the APS score matrix over the
  k-NN graph and the structural adjacency.

For ``load_bundle``, both k-NN builds and ``adjacency_graph``, the JSON also
records, next to the seconds, the memory ``tracemalloc`` traces during one
more call: its peak (``traced_peak_bytes``) and what the result keeps
(``traced_retained_bytes``), both counted from the call's start.

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
  inputs' validation and the probabilities' APS mass, then the 20 trials
  (split, scores, correction, trial seam): one ``run_image_experiment``
  whose ``harness._image_neighbors`` hands back the lists the stage above
  found.

For the exact bundle and the image bundle, the JSON also records
``fallback_rows``: how many rows of the exact k-NN lists at depth k
(``graph._knn_lists``) the screen of ``graph._top_k_blocks`` could not
certify, so that they were scored against every row (counted by wrapping
``graph._pairwise_sims``, which scores only those rows).

A fresh interpreter per repetition gives the cold-start stage, at the shape
of the benchmark's set-up step (n=5000, the exact bundle's shape):

* ``cold_setup``: ``import graphcp``, ``generate_synthetic`` and
  ``save_bundle`` in a new process, its clock started after ``import numpy``
  as in perfbench's set-up child, so the figure holds the package import
  (with whatever bytecode cache the environment allows) and not the
  interpreter's start-up.

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
import subprocess
import sys
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


def traced(fn):
    """``{"traced_peak_bytes": ..., "traced_retained_bytes": ...}``: the
    peak of the memory ``tracemalloc`` traces while ``fn()`` runs, and what
    is still traced once it returns, while its result is alive."""
    tracemalloc.start()
    try:
        result = fn()  # alive while the retained bytes are read
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"traced_peak_bytes": peak, "traced_retained_bytes": retained}


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


def sampled_screen(normed, k, m):
    """``{"mean_candidates": ..., "fallback_rows": ...}`` of the sampled
    ``graph._knn_lists(normed, k, m)``: the screen's candidates per row it
    certified, and the rows scored over their whole pool."""
    real, screened, fallback = g.graph._candidate_top_k, [], []

    def counting(queries, base, cand, k, counts=None):
        if counts is None:  # a fallback's whole pools
            fallback.append(queries.shape[0])
        else:
            screened.append(counts)
        return real(queries, base, cand, k, counts)

    g.graph._candidate_top_k = counting
    try:
        g.graph._knn_lists(normed, k, m, SEED)
    finally:
        g.graph._candidate_top_k = real
    counts = np.concatenate(screened or [np.empty(0, dtype=np.int64)])
    certified = normed.shape[0] - sum(fallback)
    return {"mean_candidates": float(counts.sum() / certified) if certified else None,
            "fallback_rows": sum(fallback)}


COLD_SETUP = """
import sys, time
import numpy
t = time.perf_counter()
import graphcp as g
n, seed, out = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
g.save_bundle(g.generate_synthetic(n=n, num_classes=8, dim=8, homophily=0.8,
                                   class_sep=2.0, noise=1.0, seed=seed), out)
print(time.perf_counter() - t)
"""


def cold_setups(n, repeats):
    """Seconds of ``repeats`` bundle set-ups, each in a fresh interpreter
    that imports graphcp from the sources this process imported."""
    src = str(Path(g.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            done = subprocess.run([sys.executable, "-c", COLD_SETUP, str(n), str(SEED),
                                   tmp], check=True, capture_output=True, text=True,
                                  env=env)
            runs.append(float(done.stdout.split()[-1]))
    return runs


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

    stages, memory = {}, {}
    stages["generate_synthetic"], bundle = timed(
        lambda: g.generate_synthetic(n=N, num_classes=8, dim=8, homophily=0.8,
                                     class_sep=2.0, noise=1.0, seed=SEED), REPEATS)
    knn_cfg = g.KnnConfig(k=K, sample_size=SAMPLE_M, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        stages["save_bundle"], manifest = timed(lambda: g.save_bundle(bundle, tmp),
                                                REPEATS)
        stages["load_bundle"], bundle = timed(lambda: g.load_bundle(manifest),
                                              REPEATS)
        memory["load_bundle"] = traced(lambda: g.load_bundle(manifest))
    stages["sampled_knn_build"], knn = timed(
        lambda: g.build_knn_graph(bundle.features, knn_cfg), REPEATS)
    memory["sampled_knn_build"] = traced(lambda: g.build_knn_graph(bundle.features, knn_cfg))
    stages["adjacency_graph"], adj = timed(
        lambda: g.adjacency_graph(bundle.n, bundle.edges), REPEATS)
    memory["adjacency_graph"] = traced(lambda: g.adjacency_graph(bundle.n, bundle.edges))
    scores = g.aps_scores(bundle.probabilities, g.XiPolicy(seed=SEED)).values
    stages["neighbor_means"], _ = timed(lambda: g.neighbor_means(scores, knn, adj),
                                        REPEATS)

    exact = g.generate_synthetic(n=EXACT_N, num_classes=8, dim=8, homophily=0.8,
                                 class_sep=2.0, noise=1.0, seed=SEED)
    stages["exact_knn_build"], exact_knn = timed(
        lambda: g.build_knn_graph(exact.features, g.KnnConfig(k=K)), REPEATS)
    memory["exact_knn_build"] = traced(
        lambda: g.build_knn_graph(exact.features, g.KnnConfig(k=K)))

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

    real_neighbors = g.harness._image_neighbors
    g.harness._image_neighbors = lambda _feats, _k: (nbrs, zero)
    try:
        stages["image_trials"], _ = timed(
            lambda: g.run_image_experiment(P, feats, image.labels, alpha=IMAGE_ALPHA,
                                           k=IMAGE_K, eta=IMAGE_ETA,
                                           n_trials=IMAGE_TRIALS,
                                           calib_size=IMAGE_CALIB, seed=SEED),
            REPEATS)
    finally:
        g.harness._image_neighbors = real_neighbors
    stages["cold_setup"] = cold_setups(EXACT_N, REPEATS)

    for name, runs in stages.items():
        print(f"{name:<18} median {statistics.median(runs):.3f} s  "
              f"min {min(runs):.3f} s  (n={len(runs)})")
    for name, traced_bytes in memory.items():
        print(f"{name:<18} traced peak {traced_bytes['traced_peak_bytes'] / 2 ** 20:.1f} MiB"
              f"  retained {traced_bytes['traced_retained_bytes'] / 2 ** 20:.1f} MiB")
    out = {
        "context": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "bytecode_cache": not sys.dont_write_bytecode,
        },
        "config": {"n": N, "classes": 8, "dim": 8, "k": K,
                   "sample_m": SAMPLE_M, "seed": SEED,
                   "repeats": REPEATS, "knn_arcs": knn.nnz,
                   "sampled": sampled_screen(
                       g.graph._normalized_rows(bundle.features)[0], K, SAMPLE_M),
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
    for name, traced_bytes in memory.items():
        out["stages"][name].update(traced_bytes)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
