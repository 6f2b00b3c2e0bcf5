"""Command-line front end.

Subcommands: ``run`` (repeated conformal trials on a dataset bundle),
``oracle`` (same-label aggregation sweep), ``synth`` (write a synthetic
bundle) and ``image`` (graph-free correction on pre-split files).

Exit codes: 0 success, 1 validation error (bad inputs or arguments),
2 runtime error.  All randomness flows from ``--seed``, and trials run
one after another.  Each command imports the modules it uses, so
``graphcp synth`` never loads the experiment harness.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ValidationError


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; bad arguments are validation
    # errors here (exit 1), so re-raise instead
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="repeated conformal trials on a bundle")
    run.add_argument("--manifest", required=True)
    run.add_argument("--method", default="snaps")
    run.add_argument("--base", default="aps")
    run.add_argument("--alpha", type=float, default=0.05)
    run.add_argument("--splits", type=int, default=10, help="model splits")
    run.add_argument("--trials", type=int, default=100, help="conformal splits per model split")
    run.add_argument("--k", type=int, default=20, help="similarity-graph neighbor count")
    run.add_argument("--sample-m", type=int, default=None,
                     help="candidate sample size for large graphs")
    run.add_argument("--grid-step", type=float, default=0.05)
    run.add_argument("--calib-size", type=int, default=None,
                     help="calibration nodes per trial, half of them tuning "
                          "when the method tunes (default: min(1000, pool // 2))")
    run.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="force the similarity weight (skips tuning; needs --mu)")
    run.add_argument("--mu", type=float, default=None,
                     help="force the structural weight (skips tuning)")
    run.add_argument("--renormalize", action="store_true",
                     help="rescale probability rows instead of rejecting them")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True)
    run.add_argument("--format", choices=["json", "csv"], default="json")

    oracle = sub.add_parser("oracle", help="same-label aggregation sweep")
    oracle.add_argument("--manifest", required=True)
    oracle.add_argument("--alpha", type=float, default=0.05)
    oracle.add_argument("--m-sweep", default="0,1,2,4,8,16,32")
    oracle.add_argument("--w", type=float, default=0.5)
    oracle.add_argument("--trials", type=int, default=20)
    oracle.add_argument("--calib-size", type=int, default=None,
                        help="calibration nodes per trial (default: min(1000, n // 2))")
    oracle.add_argument("--renormalize", action="store_true")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--out", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic bundle")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--classes", type=int, required=True)
    synth.add_argument("--dim", type=int, required=True)
    synth.add_argument("--homophily", type=float, default=0.8)
    synth.add_argument("--class-sep", type=float, default=1.5)
    synth.add_argument("--noise", type=float, default=1.0)
    synth.add_argument("--avg-degree", type=float, default=10.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-dir", required=True)

    image = sub.add_parser("image", help="graph-free correction on pre-split files")
    image.add_argument("--probs-calib", required=True)
    image.add_argument("--probs-test", required=True)
    image.add_argument("--feats-calib", required=True)
    image.add_argument("--feats-test", required=True)
    image.add_argument("--labels-calib", required=True)
    image.add_argument("--labels-test", default=None,
                       help="optional; enables coverage/sh/sscv in the report")
    image.add_argument("--k", type=int, default=5)
    image.add_argument("--eta", type=float, default=0.5)
    image.add_argument("--alpha", type=float, default=0.1)
    image.add_argument("--seed", type=int, default=0)
    image.add_argument("--out", required=True)
    image.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def _cmd_run(args) -> int:
    from .graph import KnnConfig
    from .harness import ExperimentConfig, run_experiment
    from .matrixio import load_bundle
    from .propagate import SnapsParams
    from .report import write_report

    params = None
    if (args.lam is None) != (args.mu is None):
        raise ValidationError("--lambda and --mu must be given together")
    if args.mu is not None:
        params = SnapsParams(args.lam, args.mu)
    # the config checks the arguments, before any file is read
    cfg = ExperimentConfig(
        alpha=args.alpha, method=args.method, base=args.base,
        knn=KnnConfig(k=args.k, sample_size=args.sample_m, seed=args.seed),
        grid_step=args.grid_step,
        n_model_splits=args.splits, n_conformal_splits=args.trials,
        calib_size=args.calib_size, seed=args.seed, params=params,
    )
    bundle = load_bundle(args.manifest, renormalize=args.renormalize)
    report = run_experiment(bundle, cfg)
    write_report(report, args.out, format=args.format)
    agg = report.aggregate
    print(f"{bundle.name} method={args.method} alpha={args.alpha}: "
          f"coverage={agg['coverage']['mean']:.4f} size={agg['size']['mean']:.3f} "
          f"sh={agg['sh']['mean']:.4f} -> {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    from .harness import run_oracle_experiment
    from .matrixio import load_bundle
    from .report import report_to_dict, write_json

    bundle = load_bundle(args.manifest, renormalize=args.renormalize)
    try:
        m_sweep = tuple(int(tok) for tok in args.m_sweep.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"bad --m-sweep: {args.m_sweep!r}") from None
    reports = run_oracle_experiment(
        bundle, alpha=args.alpha, m_sweep=m_sweep, w=args.w,
        n_trials=args.trials, calib_size=args.calib_size, seed=args.seed,
    )
    payload = {
        "m_sweep": list(m_sweep),
        # one report object per m, in sweep order
        "reports": [report_to_dict(r) for r in reports],
    }
    write_json(payload, args.out)
    for m, rep in zip(m_sweep, reports):
        agg = rep.aggregate
        print(f"m={m}: coverage={agg['coverage']['mean']:.4f} "
              f"size={agg['size']['mean']:.3f}")
    return 0


def _cmd_synth(args) -> int:
    from .matrixio import save_bundle
    from .synth import generate_synthetic

    bundle = generate_synthetic(
        n=args.n, num_classes=args.classes, dim=args.dim,
        homophily=args.homophily, class_sep=args.class_sep,
        noise=args.noise, seed=args.seed, avg_degree=args.avg_degree,
    )
    manifest = save_bundle(bundle, args.out_dir)
    print(manifest)
    return 0


def _same_extent(a, b, axis: int, what: str, path_a, path_b) -> None:
    if a.shape[axis] != b.shape[axis]:
        raise ValidationError(f"{path_a} has {a.shape[axis]} {what} but "
                              f"{path_b} has {b.shape[axis]}")


def _cmd_image(args) -> int:
    from .conformal import _check_alpha
    from .harness import _evaluate_trial
    from .matrixio import load_labels, load_matrix, validate_probabilities
    from .propagate import image_snaps
    from .report import TrialResult, make_report, write_report
    from .scores import XiPolicy, aps_scores

    p_cal = load_matrix(args.probs_calib)
    p_test = load_matrix(args.probs_test)
    f_cal = load_matrix(args.feats_calib)
    f_test = load_matrix(args.feats_test)
    # the two splits are scored as one matrix, so check each file on its own
    # first: a bad row is named by its file, and the shapes must agree
    for path, probs in ((args.probs_calib, p_cal), (args.probs_test, p_test)):
        validate_probabilities(probs, path)
    _same_extent(p_cal, p_test, 1, "classes", args.probs_calib, args.probs_test)
    _same_extent(f_cal, f_test, 1, "feature columns", args.feats_calib,
                 args.feats_test)
    _same_extent(p_cal, f_cal, 0, "rows", args.probs_calib, args.feats_calib)
    _same_extent(p_test, f_test, 0, "rows", args.probs_test, args.feats_test)
    if p_test.shape[0] == 0:
        raise ValidationError(f"--probs-test {args.probs_test} has no rows; "
                              "image mode needs at least one test row")
    labels = load_labels(args.labels_calib, p_cal.shape[1])
    _same_extent(p_cal, labels, 0, "rows", args.probs_calib, args.labels_calib)
    if args.labels_test:
        y_test = load_labels(args.labels_test, p_test.shape[1])
        _same_extent(p_test, y_test, 0, "rows", args.probs_test, args.labels_test)
        labels = np.concatenate([labels, y_test])
    n_cal, n_test = p_cal.shape[0], p_test.shape[0]
    calib, test = np.arange(n_cal), n_cal + np.arange(n_test)
    # alpha is checked before image_snaps looks up any neighbor
    _check_alpha(args.alpha)
    base = aps_scores(np.concatenate([p_cal, p_test]),
                      XiPolicy("uniform", seed=args.seed))
    full = image_snaps(base, np.concatenate([f_cal, f_test]), args.k, args.eta)
    _, summary = _evaluate_trial(full, labels, calib, test, args.alpha)
    config = {"mode": "image", "alpha": args.alpha, "k": args.k, "eta": args.eta,
              "calib_size": n_cal, "n_test": n_test, "seed": args.seed}
    trial = TrialResult(0, 0, summary, {"k": args.k, "eta": args.eta})
    write_report(make_report(config, [trial]), args.out, format=args.format)
    cov = "n/a" if summary.coverage is None else f"{summary.coverage:.4f}"
    print(f"image mode: coverage={cov} size={summary.size:.3f} -> {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "oracle": _cmd_oracle,
    "synth": _cmd_synth,
    "image": _cmd_image,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
