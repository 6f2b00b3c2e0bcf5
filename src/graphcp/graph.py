"""Sparse adjacency and cosine-similarity k-NN graph construction.

Graphs are stored in compressed-row form with per-arc weights (1.0 for
structural adjacency, cosine similarity for k-NN arcs).  Column indices are
kept sorted within each row, which makes duplicate detection and deterministic
iteration trivial.  Built graphs are immutable and safe to share across
threads.

The k-NN builder has two modes:

* exact: every other node is a candidate; O(n^2 d) via row-chunked matrix
  products (default for n <= 50,000);
* sampled: each node scores a seed-keyed uniform sample of M candidates,
  O(n M d).  With M = n - 1 the sampled candidate set is all other nodes and
  the result equals exact mode.

Both modes, and the graph-free image mode in ``propagate.image_snaps``, pick
neighbors with one batched top-k kernel (``_top_k``): per row of a
similarity block, the k largest entries, higher similarity first and ties to
the smaller index, in exactly the order of the first k of a stable
``argsort`` of the negated row.  One ``argpartition`` finds each row's k-th
value; only rows with a tie across that boundary fall back to the stable
sort.  Row chunks are sized so that a block and its partition indices stay
within ``_CHUNK_TARGET`` elements together (8 MB of float64 and int64);
sampled mode's candidate gather stays within ``_SAMPLED_GATHER`` elements
(4 MB).  Image mode over many splits of one pool runs the kernel once, as a
self-join of the pool at a fixed depth (``_self_join_order``), and reads
each split's neighbors from that order.

Row sums over arcs (a graph's degrees, and the neighbor sums behind
``propagate.weighted_row_means``) come from one exact-sum kernel,
``_exact_row_sums``: vectorized TwoSum accumulation over all rows at once,
a certificate per entry and a ``math.fsum`` fallback, so every sum equals
``math.fsum`` of the row bit for bit, whatever the order of its arcs.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .matrixio import atomic_open

EXACT_MODE_MAX_N = 50_000
# elements per similarity block; 1 << 22 ran no faster, and processes that
# repeat exact k-NN or image-mode runs at n = 4000-5000 peaked about 20 MB
# higher in resident memory
_CHUNK_TARGET = 1 << 20
# elements of sampled mode's (rows, M, d) candidate gather; its per-row draws
# dominate, so larger chunks gain no speed, only memory
_SAMPLED_GATHER = 1 << 19
_SUM_BLOCK = 1 << 12  # elements of each (rows, C) array of _exact_row_sums
_CACHE_MAGIC = b"SNPG"


@dataclass(frozen=True)
class SparseGraph:
    """Compressed-row adjacency with weighted arcs.

    ``degrees[i]``, derived on construction, is the sum of row i's weights,
    correctly rounded: bit-equal to ``math.fsum`` of the row, computed for
    all rows at once by the exact-sum kernel ``_exact_row_sums`` (TwoSum
    accumulation, a per-entry certificate, ``math.fsum`` fallback for
    entries it cannot certify).
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ro = np.asarray(self.row_offsets, dtype=np.int64)
        ci = np.asarray(self.col_indices, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.float64)
        if ro.shape != (self.n + 1,) or ro[0] != 0 or ro[-1] != ci.shape[0]:
            raise ValidationError("inconsistent row offsets")
        if (np.diff(ro) < 0).any():
            raise ValidationError("row offsets must be nondecreasing")
        if w.shape != ci.shape:
            raise ValidationError("weights/col_indices length mismatch")
        if ci.size:
            if ci.min() < 0 or ci.max() >= self.n:
                raise ValidationError("column index out of range")
            # rows sorted by column index; duplicates show up as non-increase
            interior = np.ones(ci.size, dtype=bool)
            starts = ro[1:-1]
            interior[starts[starts < ci.size]] = False  # row starts may break monotonicity
            if not (ci[1:][interior[1:]] > ci[:-1][interior[1:]]).all():
                raise ValidationError("rows must hold strictly increasing column indices")
        # the kernel sums values[cols] * w; one value 1.0 for every column
        # makes each term the weight itself
        degrees = _exact_row_sums(ro, np.broadcast_to(np.int64(0), ci.shape), w,
                                  np.ones((1, 1)))[:, 0]
        _freeze(degrees)
        object.__setattr__(self, "degrees", degrees)

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        return self.col_indices[lo:hi], self.weights[lo:hi]


@dataclass(frozen=True)
class KnnConfig:
    """k-NN build parameters.

    ``sample_size`` enables sampled mode; it must dominate ``k`` (at least
    10x) to keep the candidate pools meaningful.
    """

    k: int
    sample_size: int | None = None
    seed: int = 0
    min_similarity: float = 0.0
    force_exact: bool = False

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError("k must be >= 0")
        if self.sample_size is not None and self.sample_size < 10 * self.k:
            raise ValidationError(
                f"sample_size={self.sample_size} too small: need >= 10*k = {10 * self.k}"
            )


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's error-free addition: ``hi = fl(a + b)`` and ``a + b = hi + lo``
    exactly, for finite inputs whose sum does not overflow."""
    hi = a + b
    bb = hi - a
    lo = hi - bb
    np.subtract(a, lo, out=lo)
    np.subtract(b, bb, out=bb)
    lo += bb
    return hi, lo


def _exact_row_sums(row_offsets: np.ndarray, col_indices: np.ndarray,
                    weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(n, C) array whose entry (i, c) is ``math.fsum`` of the products
    ``values[col_indices[a], c] * weights[a]`` over row i's arcs a.

    Rows are visited by arc count, descending: step j adds arc j of every row
    that has one, as one (rows, C) block, to a running sum ``s`` with
    TwoSum; a second TwoSum folds the exact errors into ``e`` and ``a2``
    collects the magnitudes of that second TwoSum's errors.  The exact sum is
    then ``s + e`` plus at most ``a2`` (up to its own rounding, which the
    factor ``1 + 2m 2^-53`` covers for m terms), and ``r, f = TwoSum(s, e)``
    is its correctly rounded value when either ``a2 == 0`` (then ``s + e`` is
    exact and ``r`` its round-half-even) or the exact sum lies strictly
    closer to ``r`` than half the gap to r's neighbour toward zero,
    ``|f| + a2 (1 + 2m 2^-53) < (|r| - nextafter(|r|, 0)) / 2``.  Entries
    that fail this certificate, or are not finite, are summed by
    ``math.fsum`` row by row, which also keeps its errors on overflow and
    inf - inf.  Being the correctly rounded exact sum, every entry is
    independent of the arcs' order and so of node labels.  A zero sum is
    +0.0, as ``math.fsum`` returns.  Rows are processed in blocks whose
    (rows, C) arrays stay within ``_SUM_BLOCK`` elements.
    """
    n, num_cols = row_offsets.shape[0] - 1, values.shape[1]
    out = np.zeros((n, num_cols))
    counts = np.diff(row_offsets)
    order = np.argsort(-counts, kind="stable")
    step = max(1, _SUM_BLOCK // max(num_cols, 1))
    for lo in range(0, n, step):
        rows = order[lo:lo + step]
        if counts[rows[0]] == 0:
            break
        out[rows] = _block_sums(row_offsets[rows], counts[rows], col_indices,
                                weights, values)
    return out


# non-finite entries fall back to math.fsum, so the NaNs on their way stay silent
@np.errstate(over="ignore", invalid="ignore")
def _block_sums(starts: np.ndarray, cnt: np.ndarray, col_indices: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``_exact_row_sums`` of the rows whose arcs start at ``starts``, with
    ``cnt`` (nonincreasing) arcs each."""
    s = np.zeros((starts.shape[0], values.shape[1]))
    e = np.zeros_like(s)
    a2 = np.zeros_like(s)
    # the m rows with an arc at position j come first, as cnt is nonincreasing
    active = np.searchsorted(-cnt, -np.arange(cnt[0]), side="left")
    for j, m in enumerate(active.tolist()):
        arcs = starts[:m] + j
        terms = values[col_indices[arcs]] * weights[arcs, None]
        s[:m], err = _two_sum(s[:m], terms)
        e[:m], err = _two_sum(e[:m], err)
        a2[:m] += np.abs(err, out=err)
    r, f = _two_sum(s, e)
    mag = np.abs(r)
    half_gap = 0.5 * (mag - np.nextafter(mag, 0.0))
    slack = 1.0 + cnt[:, None] * 2.0 ** -52
    ok = (a2 == 0.0) | (np.abs(f) + a2 * slack < half_gap)
    ok &= np.isfinite(r)
    for i, c in zip(*np.nonzero(~ok)):
        arcs = slice(starts[i], starts[i] + cnt[i])
        r[i, c] = math.fsum(values[col_indices[arcs], c] * weights[arcs])
    return r


def _csr_graph(n: int, row_offsets: np.ndarray, col_indices: np.ndarray,
               weights: np.ndarray) -> SparseGraph:
    """Freeze compressed-row arrays into a graph."""
    row_offsets = np.asarray(row_offsets, dtype=np.int64)
    col_indices = np.asarray(col_indices, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    _freeze(row_offsets, col_indices, weights)
    return SparseGraph(n, row_offsets, col_indices, weights)


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


def empty_graph(n: int) -> SparseGraph:
    return _csr_graph(n, np.zeros(n + 1, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


def from_arcs(n: int, arcs: np.ndarray, weights: np.ndarray | None = None) -> SparseGraph:
    """Build a graph from a directed arc list; duplicate arcs are rejected."""
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    if arcs.size and (arcs.min() < 0 or arcs.max() >= n):
        raise ValidationError(f"arc endpoint out of range (n={n})")
    if weights is None:
        weights = np.ones(arcs.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != arcs.shape[0]:
            raise ValidationError("weights length must match arc count")
    order = np.lexsort((arcs[:, 1], arcs[:, 0]))
    arcs, weights = arcs[order], weights[order]
    if arcs.shape[0] > 1:
        dup = (np.diff(arcs[:, 0]) == 0) & (np.diff(arcs[:, 1]) == 0)
        if dup.any():
            u, v = arcs[1:][dup][0]
            raise ValidationError(f"duplicate arc ({u}, {v})")
    counts = np.bincount(arcs[:, 0], minlength=n)
    return _csr_graph(n, _offsets(counts), arcs[:, 1].copy(), weights)


def adjacency_graph(n: int, arcs: np.ndarray) -> SparseGraph:
    """Structural adjacency (unit weights) from symmetrized arcs."""
    return from_arcs(n, arcs)


def _normalized_rows(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt(np.einsum("nd,nd->n", features, features))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return features / safe[:, None], zero


def _pairwise_sims(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum (no BLAS dispatch) keeps each dot product bit-identical no matter
    # where the row sits, so relabeling nodes cannot perturb similarities
    return np.einsum("id,jd->ij", a, b, optimize=False)


def _block_rows(width: int) -> int:
    """Rows per chunk so that a (rows, width) float64 block and its int64
    partition indices together stay within ``_CHUNK_TARGET`` elements."""
    return max(1, _CHUNK_TARGET // (2 * max(width, 1)))


def _top_k(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k largest entries: higher similarity first, ties to the
    smaller column.

    ``sims`` is a 2-D block with -inf at excluded positions; it is negated in
    place.  Returns (columns, similarities), both (rows, k), with columns in
    exactly the order of ``np.argsort(-sims, axis=1, kind="stable")[:, :k]``.
    """
    np.negative(sims, out=sims)
    if k == 0:
        return np.empty((sims.shape[0], 0), dtype=np.int64), np.empty((sims.shape[0], 0))
    top = np.argpartition(sims, k - 1, axis=1)[:, :k].copy()
    kth = np.take_along_axis(sims, top[:, k - 1:k], axis=1)
    # a row whose k-th value repeats outside the chosen k has a tie across
    # the boundary, and argpartition may have picked the larger index
    tied = np.count_nonzero(sims <= kth, axis=1) > k
    top.sort(axis=1)
    order = np.argsort(np.take_along_axis(sims, top, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    if tied.any():
        top[tied] = np.argsort(sims[tied], axis=1, kind="stable")[:, :k]
    return top, -np.take_along_axis(sims, top, axis=1)


def _top_k_blocks(queries: np.ndarray, base: np.ndarray, k: int,
                  self_cols: np.ndarray | None = None):
    """Yield (start, stop, columns, similarities) per chunk of query rows:
    each row's k most similar ``base`` rows under the ``_top_k`` contract.

    Both inputs hold unit (or zero) rows, so the dot products are cosine
    similarities.  ``self_cols[i]``, when given, is a column dropped from
    query row i (the row itself in a self-join).
    """
    step = _block_rows(base.shape[0])
    for start in range(0, queries.shape[0], step):
        stop = min(start + step, queries.shape[0])
        sims = _pairwise_sims(queries[start:stop], base)
        if self_cols is not None:
            sims[np.arange(stop - start), self_cols[start:stop]] = -np.inf
        yield (start, stop, *_top_k(sims, k))


def _self_join_order(normed: np.ndarray, depth: int) -> np.ndarray:
    """(n, depth) array: row i lists its ``depth`` most similar other rows of
    ``normed`` under the ``_top_k`` contract (higher similarity first, ties
    to the smaller index), computed in ``_CHUNK_TARGET`` blocks."""
    n = normed.shape[0]
    order = np.empty((n, depth), dtype=np.int64)
    for start, stop, cols, _ in _top_k_blocks(normed, normed, depth, np.arange(n)):
        order[start:stop] = cols
    return order


def _sampled_blocks(normed: np.ndarray, k: int, m: int, seed: int):
    """Like ``_top_k_blocks`` over the other n-1 rows, but each row i scores
    only a uniform M-subset of them, drawn from ``default_rng([seed, i])``."""
    n, d = normed.shape
    step = max(1, _SAMPLED_GATHER // max(m * d, 1))
    pools = np.empty((min(step, n), m), dtype=np.int64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        for i in range(start, stop):
            rng = np.random.default_rng([seed & 0xFFFFFFFF, i])
            pool = rng.choice(n - 1, size=m, replace=False)
            pool.sort()
            pool[pool >= i] += 1
            pools[i - start] = pool
        block = pools[:stop - start]
        # one einsum per chunk; each dot product stays bit-identical to a
        # per-row _pairwise_sims of the same pool
        sims = np.einsum("ijd,ikd->ij", normed[block], normed[start:stop, None, :],
                         optimize=False)
        # pools are sorted, so ties to the smaller position are ties to the
        # smaller node index
        pos, vals = _top_k(sims, k)
        yield start, stop, np.take_along_axis(block, pos, axis=1), vals


def build_knn_graph(features: np.ndarray, cfg: KnnConfig) -> SparseGraph:
    """Directed graph of each node's k most cosine-similar peers.

    Arc weights are the similarities; arcs at or below ``min_similarity`` are
    dropped, so zero-norm feature rows end up with no arcs (a warning reports
    how many).  Ties go to the smaller node index.  Deterministic given
    (features, cfg.seed).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValidationError("features must be 2-D")
    n = features.shape[0]
    if cfg.k >= n:
        raise ValidationError(f"k={cfg.k} must be < n={n}")
    if cfg.sample_size is None and n > EXACT_MODE_MAX_N and not cfg.force_exact:
        raise ValidationError(
            f"n={n} exceeds exact-mode limit {EXACT_MODE_MAX_N}; "
            "set sample_size (or force_exact)"
        )
    if cfg.sample_size is not None and cfg.sample_size > n:
        raise ValidationError(f"sample_size={cfg.sample_size} exceeds n={n}")
    if cfg.k == 0 or n == 0:
        return empty_graph(n)

    normed, zero_rows = _normalized_rows(features)
    if zero_rows.any():
        warnings.warn(
            f"{int(zero_rows.sum())} zero-norm feature row(s) get no neighbors",
            stacklevel=2,
        )
    if cfg.sample_size is None:
        blocks = _top_k_blocks(normed, normed, cfg.k, np.arange(n))
    else:
        blocks = _sampled_blocks(normed, cfg.k, min(cfg.sample_size, n - 1), cfg.seed)

    counts = np.zeros(n, dtype=np.int64)
    row_cols, row_weights = [], []
    for start, stop, cols, vals in blocks:
        by_col = np.argsort(cols, axis=1)
        cols = np.take_along_axis(cols, by_col, axis=1)
        vals = np.take_along_axis(vals, by_col, axis=1)
        keep = vals > cfg.min_similarity
        counts[start:stop] = np.count_nonzero(keep, axis=1)
        row_cols.append(cols[keep])
        row_weights.append(vals[keep])
    return _csr_graph(n, _offsets(counts), np.concatenate(row_cols),
                      np.concatenate(row_weights))


def save_knn_cache(g: SparseGraph, path, feature_hash: bytes, cfg: KnnConfig) -> None:
    """Sidecar cache keyed by feature-file hash and build parameters; the
    file is replaced atomically, so a failed write keeps the old cache."""
    if len(feature_hash) != 32:
        raise ValidationError("feature_hash must be a 32-byte sha256 digest")
    with atomic_open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack(
            "<IQIIqd", g.n, g.nnz, cfg.k, cfg.sample_size or 0,
            cfg.seed, cfg.min_similarity,
        ))
        fh.write(feature_hash)
        fh.write(g.row_offsets.astype("<u8").tobytes())
        fh.write(g.col_indices.astype("<u4").tobytes())
        fh.write(g.weights.astype("<f8").tobytes())


def load_knn_cache(path, feature_hash: bytes, cfg: KnnConfig) -> SparseGraph:
    """Load a cached graph; rejects caches built with a different key."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such cache file: {path}")
    raw = path.read_bytes()
    header = struct.calcsize("<IQIIqd")
    if len(raw) < 4 + header + 32 or raw[:4] != _CACHE_MAGIC:
        raise ValidationError(f"{path}: not a k-NN cache file")
    n, nnz, k, m, seed, min_sim = struct.unpack("<IQIIqd", raw[4:4 + header])
    stored_hash = raw[4 + header:4 + header + 32]
    key = (k, m or 0, seed, min_sim)
    want = (cfg.k, cfg.sample_size or 0, cfg.seed, cfg.min_similarity)
    if stored_hash != feature_hash or key != want:
        raise ValidationError(f"{path}: cache key mismatch (stale cache?)")
    off = 4 + header + 32
    expected = off + (n + 1) * 8 + nnz * 4 + nnz * 8
    if len(raw) != expected:
        raise ValidationError(
            f"{path}: cache file is {len(raw)} bytes, expected {expected} "
            f"for n={n}, nnz={nnz} (truncated or corrupt file)"
        )
    ro = np.frombuffer(raw, dtype="<u8", count=n + 1, offset=off).astype(np.int64)
    off += (n + 1) * 8
    ci = np.frombuffer(raw, dtype="<u4", count=nnz, offset=off).astype(np.int64)
    off += nnz * 4
    w = np.frombuffer(raw, dtype="<f8", count=nnz, offset=off).astype(np.float64)
    try:
        return _csr_graph(int(n), ro, ci, w)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
