#!/usr/bin/env python3
"""Write one SHA-256 per report over a fixed matrix of runs, so that two
checkouts can be compared report by report: run the script on each, with
its own sources on ``PYTHONPATH``, and compare the two files.

Every bundle is a planted-partition bundle (d=8, homophily 0.8, class_sep
2.0, noise 1.0) saved and loaded back, as the benchmark's set-up does, and
every run is at alpha 0.05.  The matrix:

* the benchmark's three workload shapes (K=8, k=20) at seeds 1-3:
  ``snaps-5k`` (tuned ``snaps``, exact k-NN, n=5000, 1 x 50 trials),
  ``snaps-10k-sampled`` (sampled k-NN with M=200, n=10000, 3 x 17 trials)
  and ``image-4k`` (``run_image_experiment``, n=4000, calibration size
  1000, k=5, eta 0.5, 20 trials), the last also at eta 0;
* on n=2000, K=6 bundles at seeds 1-3, with exact and with sampled (M=100)
  k-NN at k=10, 2 x 5 trials each: tuned ``daps``, ``raps`` and ``snaps``,
  tuned ``snaps`` and ``daps`` over base ``raps``, and ``snaps`` at fixed
  (lam, mu) = (0.3, 0.3);
* on the same bundles, an oracle sweep (``run_oracle_experiment``, default
  m sweep, 10 trials), one digest per m;
* ``graphcp image`` on the same bundles split into calibration files (the
  first ``CLI_CALIB`` rows) and test files (the rest), with and without
  ``--labels-test``.

Each report is written as JSON by ``write_report`` (the CLI by its
``--out``) and hashed.  ``--out`` gets a JSON object from run name to
hex digest; one line with the report count and a digest over all of them
is printed.

Example:
    PYTHONPATH=src python3 scripts/report_digests.py --out digests.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import graphcp as g
from graphcp import cli

SEEDS = (1, 2, 3)
ALPHA = 0.05
# (name, n, K, k, sample size, model splits, conformal splits)
GRAPH_WORKLOADS = (("snaps-5k", 5000, 8, 20, None, 1, 50),
                   ("snaps-10k-sampled", 10000, 8, 20, 200, 3, 17))
# (name, n, K, calibration size, k, eta, trials)
IMAGE_WORKLOADS = (("image-4k", 4000, 8, 1000, 5, 0.5, 20),
                   ("image-4k-eta0", 4000, 8, 1000, 5, 0.0, 20))
SMALL_N, SMALL_CLASSES, SMALL_K, SMALL_SAMPLE_M = 2000, 6, 10, 100
SMALL_SPLITS = (2, 5)  # model splits, conformal splits
SMALL_CONFIGS = {
    "daps": dict(method="daps"),
    "raps": dict(method="raps"),
    "snaps": dict(method="snaps"),
    "snaps-raps": dict(method="snaps", base="raps"),
    "daps-raps": dict(method="daps", base="raps"),
    "snaps-fixed": dict(method="snaps", params=g.SnapsParams(0.3, 0.3)),
}
ORACLE_TRIALS = 10
CLI_CALIB = 1000


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def saved_bundle(tmp: Path, n: int, num_classes: int, seed: int):
    """A planted-partition bundle, saved under ``tmp`` and loaded back."""
    bundle = g.generate_synthetic(n=n, num_classes=num_classes, dim=8, homophily=0.8,
                                  class_sep=2.0, noise=1.0, seed=seed)
    return g.load_bundle(g.save_bundle(bundle, tmp / f"bundle-{n}-{num_classes}-{seed}"))


def report_digest(report, path: Path) -> str:
    g.write_report(report, path)
    return file_digest(path)


def cli_image_digests(tmp: Path, bundle, seed: int) -> dict:
    """``graphcp image`` on ``bundle`` split after ``CLI_CALIB`` rows, with
    and without test labels."""
    files = {}
    for part, rows in (("calib", slice(None, CLI_CALIB)), ("test", slice(CLI_CALIB, None))):
        files[f"--probs-{part}"] = tmp / f"probs-{part}.snpm"
        files[f"--feats-{part}"] = tmp / f"feats-{part}.snpm"
        files[f"--labels-{part}"] = tmp / f"labels-{part}.txt"
        g.write_matrix(bundle.probabilities[rows], files[f"--probs-{part}"])
        g.write_matrix(bundle.features[rows], files[f"--feats-{part}"])
        files[f"--labels-{part}"].write_text(
            "".join(f"{y}\n" for y in bundle.labels[rows].tolist()), encoding="utf-8")
    digests = {}
    for name, skip in (("image-cli", ()), ("image-cli-unlabeled", ("--labels-test",))):
        out = tmp / f"{name}.json"
        argv = ["image", "--alpha", str(ALPHA), "--seed", str(seed), "--out", str(out)]
        for flag, path in files.items():
            if flag not in skip:
                argv += [flag, str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"graphcp {' '.join(argv)} failed")
        digests[name] = file_digest(out)
    return digests


def digests() -> dict:
    """{run name: SHA-256 of its report} over the whole matrix."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        report = tmp / "report.json"
        for seed in SEEDS:
            for name, n, num_classes, k, m, splits, trials in GRAPH_WORKLOADS:
                cfg = g.ExperimentConfig(
                    alpha=ALPHA, knn=g.KnnConfig(k=k, sample_size=m, seed=seed),
                    n_model_splits=splits, n_conformal_splits=trials, seed=seed)
                bundle = saved_bundle(tmp, n, num_classes, seed)
                out[f"{name}/seed{seed}"] = report_digest(g.run_experiment(bundle, cfg),
                                                          report)
            for name, n, num_classes, calib, k, eta, trials in IMAGE_WORKLOADS:
                bundle = saved_bundle(tmp, n, num_classes, seed)
                run = g.run_image_experiment(
                    bundle.probabilities, bundle.features, bundle.labels, alpha=ALPHA,
                    k=k, eta=eta, n_trials=trials, calib_size=calib, seed=seed,
                    name=bundle.name)
                out[f"{name}/seed{seed}"] = report_digest(run, report)
            small = saved_bundle(tmp, SMALL_N, SMALL_CLASSES, seed)
            for knn, m in (("exact", None), ("sampled", SMALL_SAMPLE_M)):
                for name, kwargs in SMALL_CONFIGS.items():
                    cfg = g.ExperimentConfig(
                        alpha=ALPHA, knn=g.KnnConfig(k=SMALL_K, sample_size=m, seed=seed),
                        n_model_splits=SMALL_SPLITS[0], n_conformal_splits=SMALL_SPLITS[1],
                        seed=seed, **kwargs)
                    out[f"{name}-{knn}/seed{seed}"] = report_digest(
                        g.run_experiment(small, cfg), report)
            for run in g.run_oracle_experiment(small, alpha=ALPHA, n_trials=ORACLE_TRIALS,
                                               seed=seed):
                out[f"oracle-m{run.config['m']}/seed{seed}"] = report_digest(run, report)
            for name, digest in cli_image_digests(tmp, small, seed).items():
                out[f"{name}/seed{seed}"] = digest
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    table = digests()
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"{len(table)} reports, sha256 of the table "
          f"{hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
