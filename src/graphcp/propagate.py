"""Score aggregation over similarity and structural neighborhoods.

The corrected score of node i for class y is the convex mix

    (1 - lam - mu) * s(i, y)
      + lam * weighted mean of s(j, y) over i's similarity neighbors
      + mu  * plain mean of s(j, y) over i's structural neighbors.

Nodes without similarity neighbors get their ``lam`` mass folded back into
the ego term (likewise ``mu`` for isolated nodes), which keeps every output
entry inside the convex hull of the inputs it mixes.

Neighbor sums come from one vectorized exact-sum kernel
(``graph._exact_row_sums``).  It walks all rows at once, arc position by arc
position, and accumulates each (row, class) sum with TwoSum, keeping the
rounding errors and a bound on what they leave out.  A certificate accepts
the rounded sum when that bound proves it is the correctly rounded exact
sum; the entries it cannot certify (none on the planted-partition graphs at
n = 5000 and 10000) are summed with ``math.fsum``.  Every sum is therefore
bit-equal to ``math.fsum`` of the row's products, and the mean divides it by
the graph's degree, itself such a sum of the weights.  An exactly rounded
sum does not depend on the order of its terms, so aggregation commutes
bit-for-bit with any relabeling of the nodes, with no sort of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .graph import (
    _CHUNK_TARGET,
    SparseGraph,
    _exact_row_sums,
    _normalized_rows,
    _top_k_blocks,
    empty_graph,
)
from .matrixio import validate_matrix
from .scores import ScoreMatrix

_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class SnapsParams:
    """Aggregation weights: ``lam`` for similarity neighbors, ``mu`` for
    structural neighbors; the ego node keeps ``1 - lam - mu``."""

    lam: float
    mu: float

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0:
            raise ValidationError("aggregation weights must be >= 0")
        if self.lam + self.mu > 1.0 + 1e-9:
            raise ValidationError(f"lam + mu = {self.lam + self.mu} exceeds 1")

    def as_dict(self) -> dict:
        return {"lambda": self.lam, "mu": self.mu}


@dataclass(frozen=True)
class NeighborMeans:
    """Precomputed per-node neighbor means (zero rows where none exist)."""

    knn_mean: np.ndarray
    adj_mean: np.ndarray
    has_knn: np.ndarray
    has_adj: np.ndarray


def weighted_row_means(g: SparseGraph, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node weighted mean of neighbor rows.

    Returns (means, has) where ``has[i]`` is 1.0 for rows with neighbors and
    ``means[i]`` is zero elsewhere.
    """
    if values.shape[0] != g.n:
        raise ValidationError(f"graph has {g.n} rows, scores have {values.shape[0]}")
    has = np.diff(g.row_offsets) > 0
    bad = np.flatnonzero(has & (g.degrees <= 0.0))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"row {i} has nonpositive degree {g.degrees[i]}; aggregation needs "
            "nonnegative arc weights"
        )
    means = _exact_row_sums(g.row_offsets, g.col_indices, g.weights, values)
    np.divide(means, g.degrees[:, None], out=means, where=has[:, None])
    return means, has.astype(np.float64)


def neighbor_means(values: np.ndarray, knn: SparseGraph, adj: SparseGraph) -> NeighborMeans:
    knn_mean, has_knn = weighted_row_means(knn, values)
    adj_mean, has_adj = weighted_row_means(adj, values)
    return NeighborMeans(knn_mean, adj_mean, has_knn, has_adj)


def combine_scores(values: np.ndarray, nm: NeighborMeans, lam: float, mu: float) -> np.ndarray:
    """Mix ego scores with neighbor means; missing-neighbor mass goes back to
    the ego term."""
    ego_w = 1.0 - lam * nm.has_knn - mu * nm.has_adj
    return ego_w[:, None] * values + lam * nm.knn_mean + mu * nm.adj_mean


def snaps_scores(S: ScoreMatrix, knn: SparseGraph, adj: SparseGraph,
                 p: SnapsParams) -> ScoreMatrix:
    """Similarity-and-structure corrected scores (tagged ``snaps``)."""
    if knn.n != S.n or adj.n != S.n:
        raise ValidationError(
            f"row-count mismatch: scores {S.n}, knn {knn.n}, adjacency {adj.n}"
        )
    nm = neighbor_means(S.values, knn, adj)
    values = combine_scores(S.values, nm, p.lam, p.mu)
    values.setflags(write=False)
    return ScoreMatrix(values, "snaps", S.xi)


def daps_scores(S: ScoreMatrix, adj: SparseGraph, mu: float) -> ScoreMatrix:
    """Structural-diffusion-only correction: the lam = 0 case."""
    if not 0.0 <= mu <= 1.0:
        raise ValidationError("mu must lie in [0, 1]")
    out = snaps_scores(S, empty_graph(S.n), adj, SnapsParams(0.0, mu))
    return replace(out, method="daps")


def _same_label_prefixes(labels: np.ndarray, max_m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform ordered samples (without replacement) of same-label peers.

    ``sel[i, :counts[i]]`` lists node i's sampled peers; for a fixed seed the
    sample for a smaller ``max_m`` is a prefix of the one for a larger
    ``max_m`` (partial Fisher-Yates consumes the stream step by step).
    """
    n = labels.shape[0]
    sel = np.full((n, max_m), -1, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        t = members.shape[0]
        if t <= 1:
            continue
        rng = np.random.default_rng([seed & _MASK32, int(c)])
        cand = np.broadcast_to(members, (t, t)).copy()
        cand = cand[~np.eye(t, dtype=bool)].reshape(t, t - 1)
        m_eff = min(max_m, t - 1)
        rows = np.arange(t)
        for j in range(m_eff):
            pick = rng.integers(j, t - 1, size=t)
            tmp = cand[rows, pick].copy()
            cand[rows, pick] = cand[rows, j]
            cand[rows, j] = tmp
        sel[members, :m_eff] = cand[:, :m_eff]
        counts[members] = m_eff
    return sel, counts


def oracle_aggregate(S: ScoreMatrix, labels: np.ndarray, m: int, w: float,
                     seed: int) -> ScoreMatrix:
    """Mix each node's scores with the mean of ``m`` random same-label peers.

    Peers are drawn uniformly without replacement, excluding the node itself
    (fewer when the class has under m+1 members; none leaves the row alone).
    Requires ground-truth labels for every node, so this is a diagnostic, not
    a deployable score.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != S.n:
        raise ValidationError("labels length must match score rows")
    if not 0.0 <= w <= 1.0:
        raise ValidationError("w must lie in [0, 1]")
    if m < 0:
        raise ValidationError("m must be >= 0")
    values = S.values.copy()
    if m > 0:
        sel, counts = _same_label_prefixes(labels, m, seed)
        full = counts == m
        if full.any():
            idx = np.flatnonzero(full)
            mean = S.values[sel[idx, :m]].mean(axis=1)
            values[idx] = (1.0 - w) * S.values[idx] + w * mean
        for i in np.flatnonzero(~full & (counts > 0)):
            mean = S.values[sel[i, :counts[i]]].mean(axis=0)
            values[i] = (1.0 - w) * S.values[i] + w * mean
    values.setflags(write=False)
    return ScoreMatrix(values, "oracle", S.xi)


def _first_hits(candidates: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``candidates`` with at least k non-negative entries, and those
    rows' first k such entries, in order, as a (rows, k) array."""
    hit = candidates >= 0
    first = hit & (np.cumsum(hit, axis=1) <= k)
    resolved = np.count_nonzero(first, axis=1) == k
    first &= resolved[:, None]
    return resolved, candidates[first].reshape(np.count_nonzero(resolved), k)


def image_snaps(S_eval: ScoreMatrix, S_calib: ScoreMatrix,
                feats_eval: np.ndarray, feats_calib: np.ndarray,
                k: int, eta: float, exclude_self: bool = False,
                candidates: np.ndarray | None = None) -> ScoreMatrix:
    """Graph-free correction: mix each row with the unweighted mean score row
    of its k most cosine-similar calibration rows.

    Neighbors come from the k-NN graph's top-k kernel (``graph._top_k``):
    ties go to the smaller calibration index, and the k rows are averaged in
    the kernel's order (most similar first), which is the order of a stable
    argsort, so every score is reproducible to the bit.  Test rows are
    processed in chunks whose similarity block and partition indices stay
    within ``graph._CHUNK_TARGET`` elements.

    ``exclude_self=True`` treats eval and calibration as the same aligned set
    and skips each row's own entry.  Zero-norm feature rows fall back to the
    uncorrected score.  Non-finite features are rejected.

    ``candidates`` (optional, one row per eval row, -1 for "not a
    calibration row") resolves neighbors without scoring: row i takes its
    first k non-negative entries as its neighbors, in order.  The result is
    bit-identical to the kernel's when each row of ``candidates`` is a
    prefix of that row's tie-exact order (higher similarity first, ties to
    the smaller index) over a superset of the calibration rows, never holds
    the row itself, and is mapped to calibration positions that increase
    with the superset's index: the first k calibration members of such a
    list are exactly the row's calibration top-k.  ``harness`` builds these
    lists once per image-mode run from a self-join of the whole pool.  Rows
    with fewer than k entries go through the kernel.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("eta must lie in [0, 1]")
    feats_eval = validate_matrix(feats_eval, "feats_eval")
    feats_calib = validate_matrix(feats_calib, "feats_calib")
    n_eval, n_calib = feats_eval.shape[0], feats_calib.shape[0]
    if S_eval.n != n_eval or S_calib.n != n_calib:
        raise ValidationError("score/feature row counts disagree")
    if feats_eval.shape[1] != feats_calib.shape[1]:
        raise ValidationError("feature dimension mismatch")
    if k < 1 or k > n_calib:
        raise ValidationError(f"k={k} must lie in [1, {n_calib}]")
    if exclude_self and n_eval != n_calib:
        raise ValidationError("exclude_self requires aligned eval == calib sets")
    if exclude_self and n_calib < 2:
        raise ValidationError(f"calibration set has {n_calib} row(s); excluding "
                              "self needs at least 2")
    if candidates is not None:
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.ndim != 2 or candidates.shape[0] != n_eval:
            raise ValidationError(f"candidates must be a 2-D array with {n_eval} rows")
        if candidates.size and candidates.max() >= n_calib:
            raise ValidationError(f"candidate index out of range (n_calib={n_calib})")

    if eta == 0.0:
        values = S_eval.values.copy()
        values.setflags(write=False)
        return ScoreMatrix(values, "snaps", S_eval.xi)

    ne, zero_eval = _normalized_rows(feats_eval)
    nc, _ = _normalized_rows(feats_calib)
    k_eff = min(k, n_calib - 1) if exclude_self else k

    nbrs = np.empty((n_eval, k_eff), dtype=np.int64)
    rest = np.arange(n_eval)
    if candidates is not None:
        resolved, picked = _first_hits(candidates, k_eff)
        nbrs[resolved] = picked
        rest = rest[~resolved]
    # aligned sets: row i's own column is i
    self_cols = rest if exclude_self else None
    for start, stop, cols, _ in _top_k_blocks(ne[rest], nc, k_eff, self_cols):
        nbrs[rest[start:stop]] = cols

    values = S_eval.values.copy()
    step = max(1, _CHUNK_TARGET // max(k_eff * S_calib.values.shape[1], 1))
    for start in range(0, n_eval, step):
        stop = min(start + step, n_eval)
        nbr_mean = S_calib.values[nbrs[start:stop]].mean(axis=1)
        block = (1.0 - eta) * S_eval.values[start:stop] + eta * nbr_mean
        keep = zero_eval[start:stop]
        block[keep] = S_eval.values[start:stop][keep]
        values[start:stop] = block
    values.setflags(write=False)
    return ScoreMatrix(values, "snaps", S_eval.xi)
