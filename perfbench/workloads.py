"""The benchmark's workloads and the one operation each of them repeats.

Every workload is a seeded planted-partition bundle (K=8 classes, d=8
features, homophily 0.8, class separation 2.0, noise 1.0) written to disk at
set-up.  One operation is what a user of the library does with it: read the
bundle files, run all trials at alpha = 0.05, and write the JSON report.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALPHA = 0.05
MC_BAND = 0.006  # Monte Carlo half-width of the acceptance suite's coverage band
CLASSES, DIM, HOMOPHILY, CLASS_SEP, NOISE = 8, 8, 0.8, 2.0, 1.0
TRAIN_VALID_PER_CLASS = 40  # harness.TRAIN_PER_CLASS + VALID_PER_CLASS


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    mode: str                        # "graph" (run_experiment) or "image"
    k: int
    sample_size: int | None = None   # sampled k-NN pool M (graph mode)
    model_splits: int = 1
    conformal_splits: int = 1
    calib_size: int = 1000           # image mode
    eta: float = 0.5                 # image mode
    trials: int = 1                  # image mode

    @property
    def n_trials(self) -> int:
        if self.mode == "graph":
            return self.model_splits * self.conformal_splits
        return self.trials

    def split_sizes(self) -> tuple[int, int]:
        """(final calibration size, test size) of every trial."""
        if self.mode == "image":
            return self.calib_size, self.n - self.calib_size
        pool = self.n - CLASSES * TRAIN_VALID_PER_CLASS
        calib = min(1000, pool // 2)
        # tuned snaps spends half the calibration split on the grid search
        return calib - calib // 2, pool - calib

    def coverage_band(self) -> tuple[float, float]:
        n_cal, _ = self.split_sizes()
        return 1 - ALPHA - MC_BAND, 1 - ALPHA + 1 / (n_cal + 1) + MC_BAND


# Sizes and trial counts are scaled so that one operation takes a few seconds
# on two cores and a run times several of them, while every mean coverage
# still sits about 4 sigma or more inside the acceptance band.
WORKLOADS = {w.name: w for w in (
    # the acceptance reference: exact k-NN build and the 231-point tuning grid
    Workload("snaps-5k", n=5000, mode="graph", k=20,
             model_splits=1, conformal_splits=50),
    # the large size: sampled k-NN and per-node neighbor aggregation dominate
    Workload("snaps-10k-sampled", n=10000, mode="graph", k=20, sample_size=200,
             model_splits=3, conformal_splits=17),
    # graph-free mode: many test-to-calibration similarity queries
    Workload("image-4k", n=4000, mode="image", k=5, calib_size=1000,
             eta=0.5, trials=20),
)}


def import_graphcp():
    """Import graphcp from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "graphcp" / "__init__.py").is_file():
        raise FileNotFoundError(f"graphcp sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import graphcp
    if Path(graphcp.__file__).resolve().parent != (src / "graphcp").resolve():
        raise ImportError(f"graphcp imported from {graphcp.__file__}, not {src}")
    return graphcp


def make_bundle_files(g, n: int, seed: int, out_dir: Path) -> Path:
    """Generate an ``n``-node bundle from ``seed`` and save it; returns the
    manifest path."""
    bundle = g.generate_synthetic(n=n, num_classes=CLASSES, dim=DIM,
                                  homophily=HOMOPHILY, class_sep=CLASS_SEP,
                                  noise=NOISE, seed=seed)
    return g.save_bundle(bundle, out_dir)


def bundle_bytes(manifest: Path) -> int:
    """Bytes ``load_bundle`` reads: the manifest and every file it names."""
    return sum(p.stat().st_size for p in manifest.parent.iterdir() if p.is_file())


def run_op(g, w: Workload, seed: int, manifest: Path, report_path: Path, call):
    """One operation; ``call(name, fn, *args, **kw)`` runs each public step."""
    bundle = call("matrixio.load_bundle", g.load_bundle, manifest)
    if w.mode == "graph":
        cfg = g.ExperimentConfig(
            alpha=ALPHA, method="snaps", base="aps",
            knn=g.KnnConfig(k=w.k, sample_size=w.sample_size, seed=seed),
            n_model_splits=w.model_splits, n_conformal_splits=w.conformal_splits,
            seed=seed,
        )
        report = call("harness.run_experiment", g.run_experiment, bundle, cfg)
    else:
        report = call("harness.run_image_experiment", g.run_image_experiment,
                      bundle.probabilities, bundle.features, bundle.labels,
                      alpha=ALPHA, k=w.k, eta=w.eta, n_trials=w.trials,
                      calib_size=w.calib_size, seed=seed, name=bundle.name)
    call("report.write_report", g.write_report, report, report_path)
    return report


def check_report(g, w: Workload, report, report_path: Path) -> list[str]:
    """Problems with one operation's output; an empty list means it passed."""
    problems = []
    written = g.read_report(report_path)
    if not g.reports_equal(written, report):
        problems.append("report read back from disk differs from the one written")
    if len(written.trials) != w.n_trials:
        problems.append(f"{len(written.trials)} trials, expected {w.n_trials}")
    _, n_test = w.split_sizes()
    if any(t.metrics.n_eval != n_test for t in written.trials):
        problems.append(f"a trial did not evaluate {n_test} test nodes")
    lo, hi = w.coverage_band()
    cov = written.aggregate["coverage"]["mean"]
    if not lo <= cov <= hi:
        problems.append(f"mean coverage {cov:.5f} outside [{lo:.5f}, {hi:.5f}]")
    return problems
