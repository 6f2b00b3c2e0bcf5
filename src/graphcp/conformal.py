"""Split-conformal calibration and prediction-set construction.

Calibration collects the true-label score of every calibration node, sorts
them, and takes the order statistic at rank ceil((1-alpha)(n+1)); when that
rank exceeds n the threshold saturates at +inf and every label is included.
The rank is computed with exact decimal arithmetic so that, e.g., n = 9 and
alpha = 0.1 yield rank 9, not 10 via float round-up.

A label enters a node's prediction set iff its score is <= the threshold.
Empty sets are legal (they count as size 0 and never cover).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .matrixio import _label_fault
from .scores import ScoreMatrix


@dataclass(frozen=True)
class CalibratedThreshold:
    """The calibrated score quantile plus the context that produced it."""

    q_hat: float
    alpha: float
    n_calib: int
    calib_idx: np.ndarray

    @property
    def saturated(self) -> bool:
        return math.isinf(self.q_hat)


@dataclass(frozen=True)
class PredictionSets:
    """Per-node label membership as a boolean (n_eval, K) matrix; row order
    follows ``eval_idx``."""

    mask: np.ndarray
    eval_idx: np.ndarray
    threshold: CalibratedThreshold

    def sizes(self) -> np.ndarray:
        # a product with a ones vector counts at about 4x the speed of a
        # bool sum along the rows; its float sums of 0s and 1s are exact
        return (self.mask @ np.ones(self.mask.shape[1])).astype(np.int64)

    @property
    def num_classes(self) -> int:
        return self.mask.shape[1]


def _check_alpha(alpha: float) -> None:
    """The one miscoverage check: ``alpha`` must lie in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha={alpha} must lie in (0, 1)")


def conformal_rank(n: int, alpha: float) -> int:
    """ceil((1-alpha)(n+1)) with alpha read as the decimal the caller wrote."""
    _check_alpha(alpha)
    return _decimal_rank(n, str(alpha))


@functools.lru_cache(maxsize=64)
def _decimal_rank(n: int, alpha: str) -> int:
    # cached on the decimal itself: building the Fraction costs about 10 us,
    # and a run asks for the same few ranks once or twice per trial
    return math.ceil((n + 1) * (1 - Fraction(alpha)))


def _order_statistic(scores: np.ndarray, rank: int) -> np.ndarray:
    """The ``rank``-th smallest entry (1-based) along the last axis, +inf
    where ``rank`` exceeds that axis; one threshold per leading index."""
    n = scores.shape[-1]
    if rank > n:
        return np.full(scores.shape[:-1], math.inf)
    return np.partition(scores, rank - 1, axis=-1)[..., rank - 1]


def _score_values(scores) -> np.ndarray:
    if isinstance(scores, ScoreMatrix):
        return scores.values
    return np.asarray(scores, dtype=np.float64)


def calibrate(scores, labels: np.ndarray, calib_idx: np.ndarray,
              alpha: float) -> CalibratedThreshold:
    """Threshold from the true-label scores of the calibration nodes; a
    calibration label that is not an integer in [0, K) is rejected, naming
    its node; labels of other nodes are not read."""
    values = _score_values(scores)
    labels = np.asarray(labels)
    calib_idx = np.asarray(calib_idx, dtype=np.int64)
    if calib_idx.size == 0:
        raise ValidationError("empty calibration set")
    if calib_idx.min() < 0 or calib_idx.max() >= values.shape[0]:
        raise ValidationError("calibration index out of range")
    n = int(calib_idx.shape[0])
    calib_labels = labels[calib_idx]
    fault = _label_fault(calib_labels, values.shape[1])
    if fault is not None:
        i, whole = fault
        why = f"outside [0, {values.shape[1]})" if whole else "that is not an integer"
        raise ValidationError(f"calibration node {calib_idx[i]} has label "
                              f"{calib_labels[i]} {why}")
    true_scores = values[calib_idx, calib_labels.astype(np.int64, copy=False)]
    q_hat = float(_order_statistic(true_scores, conformal_rank(n, alpha)))
    idx = np.array(calib_idx, dtype=np.int64)
    idx.setflags(write=False)
    return CalibratedThreshold(q_hat=q_hat, alpha=alpha, n_calib=n, calib_idx=idx)


def predict_sets(scores, threshold: CalibratedThreshold,
                 eval_idx: np.ndarray) -> PredictionSets:
    """All labels scoring at or below the threshold, per evaluation node.

    Evaluation nodes must be disjoint from the calibration nodes that made
    the threshold (the split contract).
    """
    values = _score_values(scores)
    eval_idx = np.asarray(eval_idx, dtype=np.int64)
    if eval_idx.size == 0:
        raise ValidationError("empty evaluation set")
    if eval_idx.min() < 0 or eval_idx.max() >= values.shape[0]:
        raise ValidationError("evaluation index out of range")
    # one mark per score row; calibration nodes outside the rows cannot
    # overlap them
    calib = threshold.calib_idx
    marked = np.zeros(values.shape[0], dtype=bool)
    marked[calib[(calib >= 0) & (calib < values.shape[0])]] = True
    overlap = eval_idx[np.take(marked, eval_idx)]
    if overlap.size:
        raise ValidationError(
            f"evaluation set overlaps calibration set (e.g. node {overlap.min()})"
        )
    mask = np.take(values, eval_idx, axis=0) <= threshold.q_hat
    idx = np.array(eval_idx, dtype=np.int64)
    mask.setflags(write=False)
    idx.setflags(write=False)
    return PredictionSets(mask=mask, eval_idx=idx, threshold=threshold)
