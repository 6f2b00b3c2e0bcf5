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
within ``_CHUNK_TARGET`` elements together (32 MB of float64 and int64);
sampled mode's candidate gather stays within ``_SAMPLED_GATHER`` elements
(4 MB).
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .matrixio import atomic_open

EXACT_MODE_MAX_N = 50_000
_CHUNK_TARGET = 1 << 22  # elements per similarity block
# elements of sampled mode's (rows, M, d) candidate gather; its per-row draws
# dominate, so larger chunks gain no speed, only memory
_SAMPLED_GATHER = 1 << 19
_CACHE_MAGIC = b"SNPG"


@dataclass(frozen=True)
class SparseGraph:
    """Compressed-row adjacency with weighted arcs.

    ``degrees[i]`` is the sum of row i's weights (exact, via ``math.fsum``).
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray

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


def _csr_graph(n: int, row_offsets: np.ndarray, col_indices: np.ndarray,
               weights: np.ndarray) -> SparseGraph:
    """Freeze compressed-row arrays into a graph; ``degrees`` are per-row
    ``math.fsum`` of the weights."""
    row_offsets = np.asarray(row_offsets, dtype=np.int64)
    col_indices = np.asarray(col_indices, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    degrees = np.zeros(n, dtype=np.float64)
    bounds = row_offsets.tolist()
    for i in np.flatnonzero(np.diff(row_offsets) > 0).tolist():
        degrees[i] = math.fsum(weights[bounds[i]:bounds[i + 1]])
    _freeze(row_offsets, col_indices, weights, degrees)
    return SparseGraph(n, row_offsets, col_indices, weights, degrees)


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


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """x.y / (|x||y|); 0 when either vector has zero norm."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValidationError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    nx = math.sqrt(float(np.dot(x, x)))
    ny = math.sqrt(float(np.dot(y, y)))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


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


def _top_k_blocks(queries: np.ndarray, base: np.ndarray, k: int, exclude_self: bool):
    """Yield (start, stop, columns, similarities) per chunk of query rows:
    each row's k most similar ``base`` rows under the ``_top_k`` contract.

    Both inputs hold unit (or zero) rows, so the dot products are cosine
    similarities.  ``exclude_self`` drops column i from query row i.
    """
    step = _block_rows(base.shape[0])
    for start in range(0, queries.shape[0], step):
        stop = min(start + step, queries.shape[0])
        sims = _pairwise_sims(queries[start:stop], base)
        if exclude_self:
            rows = np.arange(start, stop)
            sims[rows - start, rows] = -np.inf
        yield (start, stop, *_top_k(sims, k))


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
        blocks = _top_k_blocks(normed, normed, cfg.k, exclude_self=True)
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


def row_normalize(g: SparseGraph) -> SparseGraph:
    """Rescale each nonempty row to sum to 1; empty rows stay empty."""
    new_weights = g.weights.copy()
    degrees = np.zeros(g.n, dtype=np.float64)
    for i in range(g.n):
        lo, hi = g.row_offsets[i], g.row_offsets[i + 1]
        if hi == lo:
            continue
        deg = math.fsum(g.weights[lo:hi])
        if deg <= 0.0:
            raise ValidationError(
                f"row {i} has nonpositive degree {deg}; row normalization needs "
                "nonnegative weights (min_similarity >= 0)"
            )
        new_weights[lo:hi] = g.weights[lo:hi] / deg
        degrees[i] = math.fsum(new_weights[lo:hi])
    _freeze(new_weights, degrees)
    return SparseGraph(g.n, g.row_offsets, g.col_indices, new_weights, degrees)


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
