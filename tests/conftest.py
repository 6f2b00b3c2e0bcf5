from dataclasses import replace

import numpy as np
import pytest

import graphcp as g


@pytest.fixture(scope="session")
def small_bundle():
    return g.generate_synthetic(n=400, num_classes=4, dim=6, homophily=0.8,
                                class_sep=2.0, noise=1.0, seed=3)


def make_sets(mask, alpha=0.05, q_hat=0.5, n_graph=None):
    """PredictionSets built by hand (bypasses calibrate/predict)."""
    mask = np.asarray(mask, dtype=bool)
    n_eval = mask.shape[0]
    n_graph = n_graph or (n_eval + 1)
    calib_idx = np.array([n_graph - 1], dtype=np.int64)
    threshold = g.CalibratedThreshold(q_hat=q_hat, alpha=alpha, n_calib=1,
                                      calib_idx=calib_idx)
    return g.PredictionSets(mask=mask, eval_idx=np.arange(n_eval, dtype=np.int64),
                            threshold=threshold)


def image_trial_reference(P, feats, labels, calib, test, xi, *, alpha, k, eta):
    """One image-mode trial scored from scratch with the public functions:
    APS scores, calibration rows corrected by their other calibration rows,
    test rows by the calibration rows, then calibrate and evaluate."""
    base = g.aps_scores(P, xi)
    s_cal = g.ScoreMatrix(base.values[calib], "aps", xi)
    s_test = g.ScoreMatrix(base.values[test], "aps", xi)
    corr_cal = g.image_snaps(s_cal, s_cal, feats[calib], feats[calib],
                             k=k, eta=eta, exclude_self=True)
    corr_test = g.image_snaps(s_test, s_cal, feats[test], feats[calib],
                              k=k, eta=eta)
    full = np.empty_like(base.values)
    full[calib] = corr_cal.values
    full[test] = corr_test.values
    threshold = g.calibrate(full, labels, calib, alpha)
    sets = g.predict_sets(full, threshold, test)
    summary = g.evaluate(sets, labels)
    return replace(summary, sscv=g.sscv(sets, labels, alpha=alpha))
