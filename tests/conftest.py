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


def image_scores_reference(values, feats, *, k, eta):
    """Image-mode scores of a pool from scratch, without the screened
    kernel: every cosine similarity from ``_pairwise_sims``, each row's own
    column dropped, each row's k neighbors the first k of a stable argsort
    (ties to the smaller row), mixed with their ``.mean(axis=1)``; zero-norm
    rows keep their scores."""
    normed, zero = g.graph._normalized_rows(np.asarray(feats, dtype=float))
    sims = g.graph._pairwise_sims(normed, normed)
    np.fill_diagonal(sims, -np.inf)
    nbrs = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    full = (1.0 - eta) * values + eta * np.take(values, nbrs, axis=0).mean(axis=1)
    full[zero] = values[zero]
    return full


def image_trial_reference(P, feats, labels, calib, test, xi, *, alpha, k, eta):
    """One image-mode trial scored from scratch with the public functions:
    APS scores of the whole pool, corrected by ``image_snaps``, then
    calibrate on ``calib`` and evaluate ``test``."""
    full = g.image_snaps(g.aps_scores(P, xi), feats, k, eta)
    threshold = g.calibrate(full, labels, calib, alpha)
    sets = g.predict_sets(full, threshold, test)
    summary = g.evaluate(sets, labels)
    return replace(summary, sscv=g.sscv(sets, labels, alpha=alpha))
