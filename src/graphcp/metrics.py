"""Evaluation metrics: coverage, mean set size, singleton hits, and the
size-stratified coverage violation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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
    labels = np.asarray(labels, dtype=np.int64)
    if eval_idx is None:
        eval_idx = sets.eval_idx
    else:
        eval_idx = np.asarray(eval_idx, dtype=np.int64)
        if not np.array_equal(eval_idx, sets.eval_idx):
            raise ValidationError("eval_idx does not match the prediction sets")
    if eval_idx.size == 0:
        raise ValidationError("empty evaluation set")
    if labels.shape[0] <= eval_idx.max():
        raise ValidationError("labels shorter than evaluation indices")
    return labels, eval_idx


def _measure(sets, labels, eval_idx, alpha: float | None) -> MetricSummary:
    """One counting pass: whether each eval node's true label is in its set
    and each set's size, from which coverage, Size, singleton hit and, when
    ``alpha`` is given, SSCV all follow.  ``evaluate`` and ``sscv`` are
    views of this summary."""
    labels, eval_idx = _check_sets(sets, labels, eval_idx)
    true_in = sets.mask[np.arange(eval_idx.shape[0]), labels[eval_idx]]
    sizes = sets.sizes()
    return MetricSummary(
        coverage=float(true_in.mean()), size=float(sizes.mean()),
        sh=float((true_in & (sizes == 1)).mean()),
        sscv=None if alpha is None else _worst_stratum(true_in, sizes,
                                                      sets.num_classes, alpha),
        n_eval=int(eval_idx.shape[0]))


def _worst_stratum(true_in: np.ndarray, sizes: np.ndarray, num_classes: int,
                   alpha: float) -> float | None:
    worst = None
    for lo, hi in SSCV_STRATA:
        if lo > num_classes:
            break
        hi = min(hi, num_classes)
        members = (sizes >= lo) & (sizes <= hi)
        if not members.any():
            continue
        cov = float(true_in[members].mean())
        dev = abs(cov - (1.0 - alpha))
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
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha={alpha} must lie in (0, 1)")
    return _measure(sets, labels, eval_idx, alpha).sscv
