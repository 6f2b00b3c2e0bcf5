"""Planted-partition synthetic bundles for desk-scale checks and benchmarks.

``generate_synthetic`` draws balanced labels, class-informative features,
softmax probabilities and a planted-partition graph from one integer seed.
It needs at least ``TRAIN_PER_CLASS + VALID_PER_CLASS`` nodes per class,
the per-class train/valid sample of ``harness.run_experiment``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .matrixio import DatasetBundle, _check_int, make_bundle

_MASK32 = 0xFFFFFFFF
TRAIN_PER_CLASS = 20
VALID_PER_CLASS = 20


def generate_synthetic(n: int, num_classes: int, dim: int, homophily: float,
                       class_sep: float, noise: float, seed: int,
                       avg_degree: float = 10.0) -> DatasetBundle:
    """Planted-partition bundle with class-informative features and softmax
    probabilities.

    Labels are balanced (counts differ by at most 1).  Features sit at class
    means of radius 2*class_sep plus unit Gaussian noise.  Probabilities are
    softmax(class margin + Gaussian) with the margin class_sep/noise, so
    noise -> 0 sharpens to exact one-hot rows.  The graph draws intra-class
    pairs so that the expected fraction of same-label edges is ``homophily``
    at expected average degree ``avg_degree``.
    """
    _check_int(n, f"n={n}")
    _check_int(num_classes, f"num_classes={num_classes}")
    _check_int(dim, f"dim={dim}")
    _check_int(seed, f"seed={seed}")
    if num_classes < 2:
        raise ValidationError("need at least 2 classes")
    if n < num_classes * (TRAIN_PER_CLASS + VALID_PER_CLASS):
        raise ValidationError(
            f"n={n} too small: need >= {num_classes * 40} for per-class splits"
        )
    # written so that a NaN fails them
    if not 0.0 <= homophily <= 1.0:
        raise ValidationError("homophily must lie in [0, 1]")
    if not (class_sep >= 0 and noise >= 0 and avg_degree >= 0):
        raise ValidationError("class_sep, noise and avg_degree must be >= 0")
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    rng = np.random.default_rng([seed & _MASK32, 0x5EED])

    labels = rng.permutation(np.arange(n) % num_classes).astype(np.int64)

    dirs = rng.normal(size=(num_classes, dim))
    norms = np.sqrt((dirs ** 2).sum(axis=1))
    dirs /= np.where(norms == 0.0, 1.0, norms)[:, None]
    features = 2.0 * class_sep * dirs[labels] + rng.normal(size=(n, dim))

    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = 1.0
    if noise == 0.0:
        probs = onehot.copy()  # zero-temperature softmax limit
    else:
        logits = (class_sep / noise) * onehot + rng.normal(size=(n, num_classes))
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)

    edges = _planted_partition_edges(labels, num_classes, homophily, avg_degree, rng)
    return make_bundle(
        name=f"synthetic-n{n}-k{num_classes}-h{homophily:g}-s{seed}",
        features=features, probabilities=probs, labels=labels,
        num_classes=num_classes, edges=edges,
    )


def _pair_count(t: int) -> int:
    return t * (t - 1) // 2


def _decode_triangle(flat: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    # pair index within an upper triangle (i < j) of t elements
    starts = np.cumsum(np.concatenate([[0], t - 1 - np.arange(t - 1)]))
    i = np.searchsorted(starts, flat, side="right") - 1
    j = flat - starts[i] + i + 1
    return i, j


def _planted_partition_edges(labels, num_classes, homophily, avg_degree, rng):
    n = labels.shape[0]
    members = [np.flatnonzero(labels == c) for c in range(num_classes)]
    intra_pairs = sum(_pair_count(m.shape[0]) for m in members)
    inter_pairs = _pair_count(n) - intra_pairs
    target = avg_degree * n / 2.0
    p_in = homophily * target / intra_pairs if intra_pairs else 0.0
    p_out = (1.0 - homophily) * target / inter_pairs if inter_pairs else 0.0
    if p_in > 1.0 or p_out > 1.0:
        raise ValidationError(
            f"infeasible edge probabilities (p_in={p_in:.3g}, p_out={p_out:.3g}); "
            "lower avg_degree or rebalance homophily"
        )
    chunks = []
    for a in range(num_classes):
        ma = members[a]
        npairs = _pair_count(ma.shape[0])
        if npairs and p_in > 0:
            count = rng.binomial(npairs, p_in)
            if count:
                flat = rng.choice(npairs, size=count, replace=False)
                i, j = _decode_triangle(np.sort(flat), ma.shape[0])
                chunks.append(np.column_stack([ma[i], ma[j]]))
        for b in range(a + 1, num_classes):
            mb = members[b]
            npairs = ma.shape[0] * mb.shape[0]
            if npairs and p_out > 0:
                count = rng.binomial(npairs, p_out)
                if count:
                    flat = rng.choice(npairs, size=count, replace=False)
                    u = ma[flat // mb.shape[0]]
                    v = mb[flat % mb.shape[0]]
                    chunks.append(np.column_stack([u, v]))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0).astype(np.int64)
