"""Evaluation metrics: coverage, mean set size, singleton hits, and the
size-stratified coverage violation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import _check_alpha, _label_vector
from .errors import ValidationError
from .matrixio import _label_fault

# contiguous set-size strata; the upper bounds get clipped to K
SSCV_STRATA = ((0, 1), (2, 3), (4, 10), (11, 100), (101, 1000))


@dataclass(frozen=True)
class MetricSummary:
    # coverage/sh are None only for unlabeled evaluation sets (size-only runs)
    coverage: float | None
    size: float
    sh: float | None
    sscv: float | None
    n_eval: int


def _check_sets(sets, labels, eval_idx):
    if eval_idx is None:
        eval_idx = sets.eval_idx
    else:
        eval_idx = np.asarray(eval_idx, dtype=np.int64)
        if not np.array_equal(eval_idx, sets.eval_idx):
            raise ValidationError("eval_idx does not match the prediction sets")
    if eval_idx.size == 0:
        raise ValidationError("empty evaluation set")
    return _label_vector(labels, eval_idx, "evaluation"), eval_idx


def _measure(sets, labels, eval_idx, alpha: float | None) -> MetricSummary:
    """One counting pass: whether each eval node's true label is in its set
    and each set's size, kept as one histogram over (size, covered), from
    which coverage, Size, singleton hit and, when ``alpha`` is given, SSCV
    all follow.  Each mean is an exact integer count divided by its row
    count, so it has the bits of the mean over the rows.  ``evaluate`` and
    ``sscv`` are views of this summary."""
    labels, eval_idx = _check_sets(sets, labels, eval_idx)
    n, k = sets.mask.shape
    true_labels = np.take(labels, eval_idx)
    fault = _label_fault(true_labels, k)
    if fault is not None:
        i, whole = fault
        why = f"out of range [0, {k})" if whole else "that is not an integer"
        raise ValidationError(f"evaluation node {eval_idx[i]} has label "
                              f"{true_labels[i]} {why}")
    true_labels = true_labels.astype(np.int64, copy=False)
    true_in = np.take(sets.mask.ravel(), np.arange(0, n * k, k) + true_labels)
    # bin 2 s + t counts the sets of size s that miss (t = 0) or hold (t = 1)
    # their true label
    hist = np.bincount(2 * sets.sizes() + true_in, minlength=2 * k + 2)
    of_size = hist[0::2] + hist[1::2]
    covered = hist[1::2]
    return MetricSummary(
        coverage=int(covered.sum()) / n,
        size=int(np.arange(k + 1) @ of_size) / n,
        sh=int(covered[1]) / n,
        sscv=None if alpha is None else _worst_stratum(of_size, covered, alpha),
        n_eval=n)


def _worst_stratum(of_size: np.ndarray, covered: np.ndarray,
                   alpha: float) -> float | None:
    """SSCV from the count of sets of each size 0..K and of those among them
    that cover their true label."""
    worst = None
    for lo, hi in SSCV_STRATA:
        if lo >= of_size.shape[0]:
            break
        members = int(of_size[lo:hi + 1].sum())  # the slice stops at size K
        if not members:
            continue
        dev = abs(int(covered[lo:hi + 1].sum()) / members - (1.0 - alpha))
        if worst is None or dev > worst:
            worst = dev
    return worst


def evaluate(sets, labels, eval_idx=None) -> MetricSummary:
    """Coverage, mean set size, and singleton-hit ratio over the eval nodes.

    A singleton hit is a set that is exactly the correct single label, so
    sh <= coverage always.  ``sscv`` is left unset here; see :func:`sscv`.
    """
    return _measure(sets, labels, eval_idx, None)


def sscv(sets, labels, eval_idx=None, alpha: float = 0.05) -> float | None:
    """Largest per-stratum deviation of coverage from 1 - alpha.

    Nodes are stratified by prediction-set size; empty strata are skipped.
    Returns None only if no stratum is populated.
    """
    _check_alpha(alpha)
    return _measure(sets, labels, eval_idx, alpha).sscv
