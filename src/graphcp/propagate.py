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

``combine_scores`` computes the mix as the per-row formula above.  The
harness's tuning grid scores its calibration half at every grid point at
once with a batched kernel, ``_mix``: an einsum of (G, 3) weight rows
``[ego, lam, mu]`` with (3, R) input rows ``[v, knn_mean, adj_mean]``, one
call per (has_knn, has_adj) pair of rows.  Tests pin the kernel to the
formula bit for bit, so the grid's thresholds have the final mix's bits.
The evaluation half needs only each score's side of its threshold, which
``harness._snaps_grid_sets`` decides from a float32 BLAS product of the
same weights and inputs, certified by a proven error margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import SparseGraph, _exact_row_sums, _knn_lists, _normalized_rows
from .matrixio import _check_int, validate_matrix
from .scores import ScoreMatrix

_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class SnapsParams:
    """Aggregation weights: ``lam`` for similarity neighbors, ``mu`` for
    structural neighbors; the ego node keeps ``1 - lam - mu``."""

    lam: float
    mu: float

    def __post_init__(self):
        # written so that a NaN weight fails them
        if not (self.lam >= 0 and self.mu >= 0):
            raise ValidationError("aggregation weights must be >= 0")
        if not self.lam + self.mu <= 1.0 + 1e-9:
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


def _pair_blocks(has_knn: np.ndarray, has_adj: np.ndarray) -> tuple[np.ndarray, list]:
    """Rows grouped by their (has_knn, has_adj) pair: ``(order, blocks)``.

    ``blocks`` holds ``(has_knn, has_adj, start, stop)`` for each distinct
    pair, in sorted pair order, and ``order[start:stop]`` lists that pair's
    rows in ascending order."""
    order = np.lexsort((has_adj, has_knn))
    hk, ha = has_knn[order], has_adj[order]
    cuts = np.flatnonzero((hk[1:] != hk[:-1]) | (ha[1:] != ha[:-1])) + 1
    bounds = [0, *cuts.tolist(), order.shape[0]] if order.shape[0] else []
    return order, [(hk[start], ha[start], start, stop)
                   for start, stop in zip(bounds[:-1], bounds[1:])]


def _mix_weights(lam: np.ndarray, mu: np.ndarray, has_knn, has_adj) -> np.ndarray:
    """(G, 3) mixing rows ``[ego, lam, mu]`` for 1-D weights ``lam``/``mu``
    and one (has_knn, has_adj) pair: missing-neighbor mass goes back to the
    ego term."""
    w = np.empty((lam.shape[0], 3))
    w[:, 0] = 1.0 - lam * has_knn - mu * has_adj
    w[:, 1] = lam
    w[:, 2] = mu
    return w


def _mix(w: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The tuning grid's batched mix, which scores its calibration half:
    ``out[g, r] = w[g,0]*x[0,r] + w[g,1]*x[1,r] + w[g,2]*x[2,r]`` for (G, 3)
    weights and (3, R) rows ``[v, knn_mean, adj_mean]``, written into the
    (G, R) ``out``.

    numpy's einsum loop (no BLAS, no contraction path) rounds every product
    and adds them left to right onto a +0.0 accumulator, so each entry is
    the plain formula's value, bit for bit, except that a -0.0 sum reads
    +0.0.  That order holds while r is the loop's inner axis: ``x`` needs
    adjacent columns, and at least two of them (one column makes the three
    weights the inner axis, which einsum sums pairwise).  ``combine_scores``
    adds +0.0 to the formula, so the two agree to the bit (checked by
    tests)."""
    if x.shape[1] == 1:
        wide = np.empty((w.shape[0], 2))
        np.einsum("gj,jr->gr", w, np.repeat(x, 2, axis=1), out=wide, optimize=False)
        out[:] = wide[:, :1]
        return out
    if x.strides[1] != x.itemsize:
        x = np.ascontiguousarray(x)
    return np.einsum("gj,jr->gr", w, x, out=out, optimize=False)


def combine_scores(values: np.ndarray, nm: NeighborMeans, lam: float, mu: float) -> np.ndarray:
    """Mix ego scores with neighbor means; missing-neighbor mass goes back to
    the ego term.  The formula is evaluated left to right, then +0.0 turns a
    -0.0 sum into +0.0, so each entry has the bits of the tuning kernel
    ``_mix``."""
    ego = 1.0 - lam * nm.has_knn - mu * nm.has_adj
    out = ego[:, None] * values
    out += lam * nm.knn_mean
    out += mu * nm.adj_mean
    out += 0.0
    return out


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


def _same_label_prefixes(labels: np.ndarray, max_m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform ordered samples (without replacement) of same-label peers.

    ``sel[i, :counts[i]]`` lists node i's sampled peers; for a fixed seed the
    sample for a smaller ``max_m`` is a prefix of the one for a larger
    ``max_m`` (partial Fisher-Yates consumes the stream step by step).
    """
    n = labels.shape[0]
    sel = np.full((n, max_m), -1, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    if max_m == 0:
        return sel, counts
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
    sel, counts = _same_label_prefixes(labels, m, seed)
    return _oracle_mix(S, sel, counts, m, w)


def _oracle_mix(S: ScoreMatrix, sel: np.ndarray, counts: np.ndarray, m: int,
                w: float) -> ScoreMatrix:
    """``oracle_aggregate`` at ``m`` from the peers ``_same_label_prefixes``
    drew at any ``max_m >= m`` with the same labels and seed: node i's
    sample at m is the prefix of its larger one, so its peers are
    ``sel[i, :min(counts[i], m)]``."""
    values = S.values.copy()
    counts = np.minimum(counts, m)
    # rows with the same peer count mix as one block; rows with no peers
    # keep their scores
    for c in np.unique(counts[counts > 0]):
        idx = np.flatnonzero(counts == c)
        values[idx] = _image_mix(S.values[idx], S.values, sel[idx, :c], w,
                                 np.zeros(idx.size, dtype=bool))
    values.setflags(write=False)
    return ScoreMatrix(values, "oracle", S.xi)


def _check_image_k_eta(k: int, eta: float, n: int) -> None:
    """Image mode's checks on a pool of ``n`` rows: eta in [0, 1], then k in
    [1, n - 1] (each row averages k other rows)."""
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("eta must lie in [0, 1]")
    _check_int(k, f"k={k}")
    if not 1 <= k <= n - 1:
        raise ValidationError(f"k={k} must lie in [1, {n - 1}]")


def image_snaps(S: ScoreMatrix, features: np.ndarray, k: int,
                eta: float) -> ScoreMatrix:
    """Graph-free correction of a pool of rows: mix each row with the
    unweighted mean score row of its k most cosine-similar other rows.

    Every row is scored by the same function of the whole pool, and no
    label is read, so any calibration/test split of the pool leaves the
    two sides exchangeable, as in graph mode.  Neighbors are the pool's
    exact k-NN lists (``_image_neighbors``): ties go to the smaller row
    index, and ``_image_mix`` averages the k rows in the lists' order (most
    similar first), so every score is reproducible to the bit.
    ``harness.run_image_experiment`` builds the same lists once per run and
    mixes each trial through the same ``_image_mix``: the same bits.

    Zero-norm feature rows keep their uncorrected score.  Non-finite
    features, eta outside [0, 1] and k outside [1, n - 1] (or not an
    integer) are rejected.  At ``eta = 0`` no neighbor is looked up.
    """
    features = validate_matrix(features, "features")
    if S.n != features.shape[0]:
        raise ValidationError("score/feature row counts disagree")
    _check_image_k_eta(k, eta, S.n)
    if eta == 0.0:
        values = S.values.copy()
    else:
        nbrs, zero = _image_neighbors(features, k)
        values = _image_mix(S.values, S.values, nbrs, eta, zero)
    values.setflags(write=False)
    return ScoreMatrix(values, "snaps", S.xi)


def _image_neighbors(features: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(nbrs, zero) of a pool's validated ``features``: the (n, k) exact
    k-NN lists of its unit rows (``graph._knn_lists``, at any n) and the
    mask of zero-norm rows, which keep their own scores."""
    normed, zero = _normalized_rows(features)
    return _knn_lists(normed, k)[0], zero


def _image_mix(v: np.ndarray, values: np.ndarray, nbrs: np.ndarray, eta: float,
               keep: np.ndarray) -> np.ndarray:
    """The peer-mean mix of image mode and of the same-label oracle: row i of
    ``v`` becomes ``(1 - eta) * v[i] + eta * values[nbrs[i]].mean(axis=0)``,
    except rows flagged in ``keep`` (zero-norm features), which stay
    ``v[i]``.  The mean has the bits of ``.mean(axis=1)`` over the (rows, k,
    K) neighbor gather: numpy adds that gather's k slices in order to +0.0
    when K > 1, so they are added that way here, one (rows, K) slice at a
    time, into an accumulator the size of the output; with K = 1 the k axis
    is contiguous, numpy sums it pairwise, and the (rows, k) gather is
    reduced as it is.  (One ``.mean(axis=1)`` of the gather for every K is
    as exact but about 3x slower.)"""
    if values.shape[1] == 1:
        nbr_mean = np.take(values, nbrs, axis=0).mean(axis=1)
    else:
        nbr_mean = np.zeros(v.shape)
        for col in nbrs.T:
            nbr_mean += np.take(values, col, axis=0)
        nbr_mean /= nbrs.shape[1]
    out = (1.0 - eta) * v + eta * nbr_mean
    out[keep] = v[keep]
    return out
