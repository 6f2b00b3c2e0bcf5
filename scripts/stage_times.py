#!/usr/bin/env python3
"""Time the pipeline stages that grow with n, one at a time, at n=50000,
the exact k-NN build at n=5000 and the two halves of an image-mode run at
n=4000.

Generates a planted-partition bundle (K=8, d=8, homophily 0.8, class_sep
2.0, noise 1.0, seed 1), saves it to a temporary directory, then times each
stage 5 times on its own:

* ``load_bundle``: read and validate the saved bundle files;
* ``sampled_knn_build``: ``build_knn_graph`` in sampled mode (k=20, M=200);
* ``neighbor_means``: one aggregation of the APS score matrix over the
  k-NN graph and the structural adjacency.

A second bundle of the same kind at n=5000 gives the exact-mode stage, at
the shape of the benchmark's ``snaps-5k`` workload:

* ``exact_knn_build``: ``build_knn_graph`` in exact mode (k=20).

A third bundle of the same kind at n=4000 gives the image-mode stages, at
the shape of the benchmark's ``image-4k`` workload (calibration size 1000,
k=5, eta=0.5, 20 trials, alpha=0.05):

* ``image_neighbors``: the pool's neighbor search, its unit rows and
  their self-join at depth k (``graph._self_join_order``);
* ``image_trials``: the rest of ``run_image_experiment``, that is the
  probabilities' validation and APS mass, then the 20 trial bodies
  (``harness._image_trial``: split, scores, correction, evaluation).

The shapes are fixed so that every ``BENCH_<n>.json`` can be compared with the
others. Prints one line per stage and writes every run, with the host context,
to ``--out`` as JSON (``BENCH_<n>.json`` by convention, so the trend can be
read across changes).

Example:
    PYTHONPATH=src python3 scripts/stage_times.py --out BENCH_1.json
"""

import argparse
import json
import os
import platform
import statistics
import tempfile
import time
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


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    bundle = g.generate_synthetic(n=N, num_classes=8, dim=8, homophily=0.8,
                                  class_sep=2.0, noise=1.0, seed=SEED)
    knn_cfg = g.KnnConfig(k=K, sample_size=SAMPLE_M, seed=SEED)
    stages = {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = g.save_bundle(bundle, tmp)
        stages["load_bundle"], bundle = timed(lambda: g.load_bundle(manifest),
                                              REPEATS)
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

    image = g.generate_synthetic(n=IMAGE_N, num_classes=8, dim=8, homophily=0.8,
                                 class_sep=2.0, noise=1.0, seed=SEED)
    P, feats = image.probabilities, image.features

    def image_neighbors():
        normed, zero = g.graph._normalized_rows(feats)
        return g.graph._self_join_order(normed, IMAGE_K), zero

    stages["image_neighbors"], (nbrs, zero) = timed(image_neighbors, REPEATS)

    def image_trials():
        mass = g.scores._mass_above(g.matrixio.validate_probabilities(P))
        return [g.harness._image_trial(P, mass, image.labels, IMAGE_CALIB, IMAGE_K,
                                       IMAGE_ETA, IMAGE_ALPHA, SEED, t, nbrs, zero)
                for t in range(IMAGE_TRIALS)]

    stages["image_trials"], _ = timed(image_trials, REPEATS)

    for name, runs in stages.items():
        print(f"{name:<18} median {statistics.median(runs):.3f} s  "
              f"min {min(runs):.3f} s  (n={len(runs)})")
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
                   "exact": {"n": EXACT_N, "k": K, "knn_arcs": exact_knn.nnz},
                   "image": {"n": IMAGE_N, "calib_size": IMAGE_CALIB, "k": IMAGE_K,
                             "eta": IMAGE_ETA, "trials": IMAGE_TRIALS,
                             "alpha": IMAGE_ALPHA, "neighbor_depth": nbrs.shape[1]}},
        "stages": {name: {"median_s": statistics.median(runs), "min_s": min(runs),
                          "runs_s": runs}
                   for name, runs in stages.items()},
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
