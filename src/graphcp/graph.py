"""Sparse adjacency and cosine-similarity k-NN graph construction.

Graphs are stored in compressed-row form with per-arc weights (1.0 for
structural adjacency, cosine similarity for k-NN arcs).  Column indices are
kept sorted within each row, which makes duplicate detection and deterministic
iteration trivial.  Built graphs are immutable and safe to share across
threads.

The k-NN builder has two modes:

* exact: every other node is a candidate; O(n^2 d) via row-chunked float32
  BLAS matrix products that screen each row down to the few candidates near
  its k-th similarity, which alone are scored exactly (``_top_k_blocks``);
  the mode without ``sample_size``, for n <= 50,000 only;
* sampled: each node scores a seed-keyed uniform sample of M candidates,
  O(n M d).  Node i's sample is the first M distinct values of its draw
  sequence ``floor(u(seed, i, j) * (n - 1))``, j = 0, 1, 2, ..., shifted past
  i, where u is the counter hash of ``scores`` (or, for M > (n - 1) / 2, the
  complement of the first n - 1 - M); every row of a chunk is drawn at once
  (``_sample_pools``).  With M = n - 1 the sampled candidate set is all
  other nodes and the result equals exact mode.

One list stage, ``_knn_lists``, gives every row's k neighbors in either
mode: ``build_knn_graph`` turns its lists into arcs, and image mode
(``propagate._image_neighbors``) reads its exact lists as they are.  Both
modes pick neighbors with one batched top-k kernel (``_top_k``): per row of
a similarity block, the k largest entries, higher similarity first and ties
to the smaller index, in exactly the order of the first k of a stable
``argsort`` of the negated row.  A block at
most 2k wide is sorted whole by that argsort; in a wider one, one
``argpartition`` finds each row's k-th value, and only rows with a tie
across that boundary fall back to the stable sort.  Every similarity the
kernel selects from is computed by one einsum whose bits do not depend on
where a row sits (``_pairwise_sims``, and ``_gathered_sims`` in
``_candidate_top_k``, which scores both the screen's candidates and the
sampled pools); the BLAS screen of ``_top_k_blocks`` only decides, under a
rounding-error certificate, which entries to score that way.  Row chunks
are sized so that a float32 screen block stays within half of
``_CHUNK_TARGET`` elements (2 MB); candidate gathers stay within
``_SAMPLED_GATHER`` elements (4 MB).

Row sums over arcs (a graph's degrees, and the neighbor sums behind
``propagate.weighted_row_means``) come from one exact-sum kernel,
``_exact_row_sums``: vectorized TwoSum accumulation over all rows at once,
a certificate per entry and a ``math.fsum`` fallback, so every sum equals
``math.fsum`` of the row bit for bit, whatever the order of its arcs.  Each
block of rows writes every pass into (rows, C) buffers allocated once, and
the running sums swap between two of them instead of being copied back.
Unit weights (the structural adjacency) skip the multiply by 1.0, and a
unit-weight graph's degrees are its arc counts, which is exactly what
``math.fsum`` gives for m ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .matrixio import _check_int, _plain_float, validate_matrix
from .scores import _counter_uniform

EXACT_MODE_MAX_N = 50_000
# elements per similarity block; 1 << 22 ran no faster, and processes that
# repeat exact k-NN or image-mode runs at n = 4000-5000 peaked about 20 MB
# higher in resident memory
_CHUNK_TARGET = 1 << 20
# elements of sampled mode's (rows, M, d) candidate gather; from 1 << 17 to
# 1 << 21 the build ran equally fast at n = 10000 and 50000 (M = 200, d = 8),
# so the chunk is kept small for memory.  It also bounds the (rows, at most
# 4k + _RESCORE_SLACK, d) gather of the candidates that _top_k_blocks scores
_SAMPLED_GATHER = 1 << 19
# a row of _top_k_blocks whose screen passes more than 4k + _RESCORE_SLACK
# candidates is scored in full instead
_RESCORE_SLACK = 64
# draws per row beyond the mean needed for a pool (see _sample_pools)
_DRAW_SLACK = 16
# elements of each (rows, C) buffer of _exact_row_sums (8 buffers, 1 MB).
# One neighbor_means over both graphs of a planted bundle (K = 8, k = 20,
# M = 200) on 2 Xeon vCPUs, medians of 11: 2^12, 2^13, 2^14, 2^15, 2^16 took
# 44, 34, 32, 36, 39 ms at n = 10000 and 18.5, 15.6, 15.7, 14.8, 15.6 ms at
# n = 5000; at n = 50000 (medians of 5) 2^12 to 2^15 took 203, 185, 160,
# 166 ms
_SUM_BLOCK = 1 << 14
# _screen_bound groups each screen row into max(4k, _SCREEN_GROUPS) strided
# columns (each column its own group when the row is no wider).  More groups
# mean shorter inner loops in the max-reduce and a tighter bound.
# exact _knn_lists on planted bundles (K = 8, d = 8, seed 7) on 2 Xeon vCPUs,
# medians of 25 interleaved rounds, two runs: 4k, 64, 128, 256, 512 groups
# took 54/47, 35/30, 29/28, 33/28, 31/30 ms at n = 4000, k = 5 and 66/62,
# 66/61, 62/57, 60/55, 63/62 ms at n = 5000, k = 20
_SCREEN_GROUPS = 256
# _top_k sorts a block at most this many times k wide whole: one stable
# argsort beats partition + sort + argsort + tie check there
_NARROW_TOP_K = 2
# from_arcs orders arcs by the int64 key u * n + v, so n * n must fit
_MAX_ARC_KEY_N = math.isqrt(np.iinfo(np.int64).max)
# a squared row norm outside this range has underflowed or overflowed
_NORMAL_MIN, _NORMAL_MAX = np.finfo(np.float64).tiny, np.finfo(np.float64).max


@dataclass(frozen=True)
class SparseGraph:
    """Compressed-row adjacency with weighted arcs.

    ``degrees[i]``, derived on construction, is the sum of row i's weights,
    correctly rounded: bit-equal to ``math.fsum`` of the row.  When every
    weight is 1.0 it is the row's arc count; otherwise it is computed for
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
        if (w == 1.0).all():
            # m unit weights sum to m exactly, as math.fsum does
            degrees = np.diff(ro).astype(np.float64)
        else:
            # arc a reads value row a: each term is the weight itself
            degrees = _exact_row_sums(ro, np.arange(w.shape[0]), None, w[:, None])[:, 0]
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

    def __post_init__(self):
        _check_int(self.k, f"k={self.k}", 0)
        _check_int(self.seed, f"seed={self.seed}")
        object.__setattr__(self, "min_similarity", _plain_float(self.min_similarity))
        if math.isnan(self.min_similarity):
            raise ValidationError("min_similarity must not be NaN")
        if self.sample_size is not None:
            _check_int(self.sample_size, f"sample_size={self.sample_size}")
            if self.sample_size < 10 * self.k:
                raise ValidationError(f"sample_size={self.sample_size} too small: "
                                      f"need >= 10*k = {10 * self.k}")
            # numpy integers lack int methods the sampled build uses
            object.__setattr__(self, "sample_size", int(self.sample_size))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "seed", int(self.seed))


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark ``arrays`` read-only and return them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _two_sum(a: np.ndarray, b: np.ndarray, hi: np.ndarray, lo: np.ndarray,
             bb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's error-free addition into buffers: ``hi = fl(a + b)`` and
    ``a + b = hi + lo`` exactly, for finite inputs whose sum does not
    overflow.  ``bb`` is scratch; ``hi``, ``lo`` and ``bb`` are distinct and
    alias neither input."""
    np.add(a, b, out=hi)
    np.subtract(hi, a, out=bb)
    np.subtract(hi, bb, out=lo)
    np.subtract(a, lo, out=lo)
    np.subtract(b, bb, out=bb)
    lo += bb
    return hi, lo


def _exact_row_sums(row_offsets: np.ndarray, col_indices: np.ndarray,
                    weights: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """(n, C) array whose entry (i, c) is ``math.fsum`` of the products
    ``values[col_indices[a], c] * weights[a]`` over row i's arcs a
    (``weights`` None: unit weights).

    Rows are visited by arc count, descending: step j adds arc j of every row
    that has one, as one (rows, C) block, to a running sum ``s`` with
    TwoSum; a second TwoSum folds the exact errors into ``e`` and ``a2``
    collects the magnitudes of that second TwoSum's errors (the Sum2 scheme
    of Ogita, Rump and Oishi with a second error level).  The exact sum is
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
    +0.0 (a row of -0.0 terms too), as ``math.fsum`` returns: every sum
    starts at +0.0, and ``e``, which starts there too, is never -0.0, so
    ``r = s + e`` is +0.0 wherever ``s`` is a zero.

    When every weight is 1.0 the products are the gathered values
    themselves, so the multiply is skipped; that is exact, since x * 1.0 is
    x.  Rows are processed in blocks whose (rows, C) buffers hold
    ``_SUM_BLOCK`` elements each (``_block_sums``).
    """
    n, num_cols = row_offsets.shape[0] - 1, values.shape[1]
    if weights is not None and (weights == 1.0).all():
        weights = None
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
                weights: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """``_exact_row_sums`` of the rows whose arcs start at ``starts``, with
    ``cnt`` (nonincreasing, first one positive) arcs each.

    Every elementwise pass writes through ``out=`` into (rows, C) buffers
    allocated once per block: the terms are gathered by ``np.take`` into
    ``t`` and multiplied by their weights in place, both TwoSums write into
    the buffers, and ``t`` takes the second TwoSum's error.  Each step writes
    its new ``s`` and ``e`` into a second pair of buffers, and the pairs swap
    instead of being copied back.  A step touches only the rows that still
    have an arc, so rows that have run out are copied once into the other
    pair, which then holds every finished row whichever pair is current.
    Step 0 adds the first terms to the +0.0 start, where TwoSum's error is
    exactly 0, so it makes that one addition and leaves ``e`` and ``a2`` at
    zero.
    """
    shape = (starts.shape[0], values.shape[1])
    s, s_next, e, e_next, a2 = (np.zeros(shape) for _ in range(5))
    t, lo, bb = (np.empty(shape) for _ in range(3))
    # the m rows with an arc at position j come first, as cnt is nonincreasing
    active = np.searchsorted(-cnt, -np.arange(cnt[0]), side="left").tolist()
    for j, m in enumerate(active):
        arcs = starts[:m] + j
        tm = np.take(values, np.take(col_indices, arcs), axis=0, out=t[:m])
        if weights is not None:
            tm *= np.take(weights, arcs)[:, None]
        if j == 0:
            np.add(s[:m], tm, out=s[:m])
            continue
        # rows m.. ran out of arcs after step j - 1, and live in s and e
        done = active[j - 1]
        if m < done:
            s_next[m:done] = s[m:done]
            e_next[m:done] = e[m:done]
        _, err = _two_sum(s[:m], tm, s_next[:m], lo[:m], bb[:m])
        _, err = _two_sum(e[:m], err, e_next[:m], tm, bb[:m])
        a2[:m] += np.abs(err, out=err)
        s, s_next, e, e_next = s_next, s, e_next, e
    # the spare pair holds only copies now, so it takes r and f
    r, f = _two_sum(s, e, s_next, e_next, bb)
    mag = np.abs(r)
    half_gap = 0.5 * (mag - np.nextafter(mag, 0.0))
    slack = 1.0 + cnt[:, None] * 2.0 ** -52
    ok = (a2 == 0.0) | (np.abs(f) + a2 * slack < half_gap)
    ok &= np.isfinite(r)
    for i, c in zip(*np.nonzero(~ok)):
        arcs = slice(starts[i], starts[i] + cnt[i])
        terms = values[col_indices[arcs], c]
        r[i, c] = math.fsum(terms if weights is None else terms * weights[arcs])
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
    """Build a graph from a directed arc list; duplicate arcs are rejected.

    Arcs are ordered by the key ``u * n + v``; a list already in strictly
    increasing key order (as ``matrixio.symmetrize_edges`` returns it) is
    taken as it is, any other by a stable argsort of the keys."""
    if n > _MAX_ARC_KEY_N:
        raise ValidationError(f"n={n} too large: arc keys u*n + v must fit in int64")
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    if arcs.size and (arcs.min() < 0 or arcs.max() >= n):
        raise ValidationError(f"arc endpoint out of range (n={n})")
    if weights is None:
        weights = np.ones(arcs.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != arcs.shape[0]:
            raise ValidationError("weights length must match arc count")
    keys = arcs[:, 0] * n + arcs[:, 1]
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        arcs, weights, keys = arcs[order], weights[order], keys[order]
        # duplicates are equal neighbouring keys
        dup = keys[1:] == keys[:-1]
        if dup.any():
            u, v = arcs[1:][dup][0]
            raise ValidationError(f"duplicate arc ({u}, {v})")
    counts = np.bincount(arcs[:, 0], minlength=n)
    return _csr_graph(n, _offsets(counts), arcs[:, 1].copy(), weights)


def adjacency_graph(n: int, arcs: np.ndarray) -> SparseGraph:
    """Structural adjacency (unit weights) from symmetrized arcs."""
    return from_arcs(n, arcs)


def _normalized_rows(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unit rows, mask of all-zero rows): each row divided by its norm, and
    all-zero rows left zero.  A row whose squared norm leaves the normal
    range (it underflowed or overflowed) is first scaled by a power of two,
    which is exact, so that its largest entry lies in [0.5, 1); every other
    row keeps the bits of a plain division by its norm."""
    sq = np.einsum("nd,nd->n", features, features)
    off = ~((sq >= _NORMAL_MIN) & (sq <= _NORMAL_MAX))
    if off.any():
        rows = features[off]
        _, exp = np.frexp(np.max(np.abs(rows), axis=1, initial=0.0))
        rows = np.ldexp(rows, -exp[:, None])
        features = features.copy()
        features[off] = rows
        sq[off] = np.einsum("nd,nd->n", rows, rows)
    zero = sq == 0.0
    return features / np.sqrt(np.where(zero, 1.0, sq))[:, None], zero


def _pairwise_sims(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum (no BLAS dispatch) keeps each dot product bit-identical no matter
    # where the row sits, so relabeling nodes cannot perturb similarities.
    # Every similarity that reaches a graph or a neighbor list has these
    # bits: _top_k_blocks screens with BLAS but rescores its candidates with
    # _gathered_sims, and scores here only the rows its screen cannot certify
    return np.einsum("id,jd->ij", a, b, optimize=False)


def _gathered_sims(queries: np.ndarray, base: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """(rows, m) array: the similarity of query row i with each base row
    ``cols[i]``, by one einsum whose dot products have the bits of
    ``_pairwise_sims`` (np.take gathers the rows several times faster than
    fancy indexing)."""
    return np.einsum("ijd,ikd->ij", np.take(base, cols, axis=0),
                     queries[:, None, :], optimize=False)


def _candidate_top_k(queries: np.ndarray, base: np.ndarray, cand: np.ndarray,
                     k: int, counts: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``_top_k`` of query row i over the base rows ``cand[i]`` (ascending, so
    ties go to the smaller column; entries past ``counts[i]`` are padding),
    scored by ``_gathered_sims``: (columns, similarities), both (rows, k)."""
    sims = _gathered_sims(queries, base, cand)
    if counts is not None:
        sims[np.arange(cand.shape[1]) >= counts[:, None]] = -np.inf
    pos, vals = _top_k(sims, k)
    return np.take_along_axis(cand, pos, axis=1), vals


def _block_rows(width: int) -> int:
    """Rows per chunk so that a (rows, width) float32 screen stays within
    half of ``_CHUNK_TARGET`` elements (2 MB)."""
    return max(1, _CHUNK_TARGET // (2 * max(width, 1)))


def _top_k(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k largest entries: higher similarity first, ties to the
    smaller column.

    ``sims`` is a 2-D block with -inf at excluded positions; it is negated in
    place.  Returns (columns, similarities), both (rows, k), with columns in
    exactly the order of ``np.argsort(-sims, axis=1, kind="stable")[:, :k]``.

    A block at most ``_NARROW_TOP_K * k`` wide (as the candidates that
    ``_top_k_blocks`` rescores mostly are) is selected by exactly that
    stable argsort.  A wider one goes through one ``argpartition`` at k - 1,
    and only rows with a tie across the k-th value fall back to the stable
    argsort.
    """
    np.negative(sims, out=sims)
    if k == 0:
        return np.empty((sims.shape[0], 0), dtype=np.int64), np.empty((sims.shape[0], 0))
    if sims.shape[1] <= _NARROW_TOP_K * k:
        top = np.argsort(sims, axis=1, kind="stable")[:, :k]
        return top, -np.take_along_axis(sims, top, axis=1)
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


def _top_k_blocks(normed: np.ndarray, k: int):
    """Yield (start, stop, columns, similarities) per chunk of rows: each
    row's k most similar other rows of ``normed`` under the ``_top_k``
    contract, the row's own column dropped.

    ``normed`` holds unit (or zero) rows, so the dot products are cosine
    similarities.  Each chunk of rows is screened with one BLAS product,
    and only the screen's candidates are scored with the einsum arithmetic
    of ``_pairwise_sims``:

    * screen: ``q @ normed.T`` is computed in float32, from a float32 copy
      of ``normed`` made once per call, into a reused float32 buffer, with
      -inf at each row's own column.  Each row's bound L, the k-th largest
      maximum of max(4k, ``_SCREEN_GROUPS``) strided column groups
      (``_screen_bound``), is at most its k-th largest screen value S.  The
      candidates are the entries at or above ``L - margin``,
      ``margin = 8 (d + 2) u`` with u = 2^-24, a superset of those at or
      above ``S - margin``.  For unit rows a and b, rounding each entry to
      float32 moves the real dot product by at most
      ``(2u + u^2) |a| |b|``, float32 accumulation in any order (BLAS
      blocking and fused multiply-adds included) adds at most
      ``gamma_d |a| |b|`` with ``gamma_d = d u / (1 - d u)`` (Higham,
      Accuracy and Stability of Numerical Algorithms, section 3.1), and the
      einsum is within ``d 2^-53`` of the real product.  So for
      ``d u <= 1/4`` the screen and the einsum differ by at most
      ``eps <= 2 (d + 2) u``; entries that underflow in float32 add at most
      about ``d 2^-149``, far inside that.  Fewer than k entries have an
      einsum value above the exact k-th value E, so S <= E + eps, and every
      entry with an einsum value of at least E (the exact top k and every
      entry tied with E) screens at least E - eps >= S - 2 eps: the margin
      covers 2 eps twice over.  ``L - margin`` is taken in float64 (its
      rounding, at most 2^-53, lies far inside that slack) and rounded down
      to float32 (``_float32_below``), so the float32 comparison gives back
      none of the margin;
    * rescore: each row's candidates, in ascending column order, are scored
      (the bits of ``_pairwise_sims``) and selected by ``_candidate_top_k``;
      ascending columns keep ties to the smaller column;
    * fallback: a row whose bound or largest screen value is not finite
      (a NaN in the row; a -inf bound would let its own column in), or
      that passes more than ``4k + _RESCORE_SLACK`` candidates (a zero-norm
      row ties every column at 0), is scored in full by ``_pairwise_sims``
      and ``_top_k``.

    Memory: the float32 copy of ``normed``, the screen and its candidate
    mask are allocated once per call, and the screen holds half of
    ``_CHUNK_TARGET`` elements (2 MB); a chunk's
    (rows, candidates, d) gather stays within ``_SAMPLED_GATHER`` elements.
    Rows that fall back add one block and its partition indices for their
    chunk.  Besides the reused buffers, a yield holds only the chunk's
    (rows, k) results.
    """
    n, d = normed.shape
    cap = 4 * k + _RESCORE_SLACK
    step = min(_block_rows(n), max(1, _SAMPLED_GATHER // max(1, min(cap, n) * d)))
    normed32 = normed.astype(np.float32)
    screen_buf = np.empty((min(step, n), n), dtype=np.float32)
    mask_buf = np.empty(screen_buf.shape, dtype=bool)
    margin = 8 * (d + 2) * 2.0 ** -24
    for start in range(0, n, step):
        stop = min(start + step, n)
        q, screen, mask = (normed[start:stop], screen_buf[:stop - start],
                           mask_buf[:stop - start])
        np.matmul(normed32[start:stop], normed32.T, out=screen)
        screen[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        bound, top = _screen_bound(screen, k)
        np.greater_equal(screen, _float32_below(bound.astype(np.float64) - margin)[:, None],
                         out=mask)
        cand, counts, ok = _screen_candidates(mask, np.isfinite(bound) & np.isfinite(top),
                                              k, cap)
        cols, vals = _candidate_top_k(q, normed, cand, k, counts)
        fallback = np.flatnonzero(~ok)
        if fallback.size:
            full = _pairwise_sims(q[fallback], normed)
            full[np.arange(fallback.size), start + fallback] = -np.inf
            cols[fallback], vals[fallback] = _top_k(full, k)
        yield start, stop, cols, vals


def _screen_bound(screen: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(bound, top) of each row of a (rows, n_b) screen: ``bound`` is the
    k-th largest of the maxima of
    ``ng = min(n_b, max(4 max(k, 1), _SCREEN_GROUPS))`` disjoint column
    groups, and ``top`` the row's largest value.

    Groups are strided (column j is in group j mod ng, so the n_b mod ng
    leftover columns join the first groups), which makes each maximum one
    SIMD pass over the screen.  The k groups whose maxima reach ``bound``
    give k distinct entries at or above it, so ``bound`` is at most the
    row's k-th largest value, and equal to it when ng = n_b.  A NaN in the
    row carries through its group's maximum into ``top``."""
    rows, n_b = screen.shape
    ng = min(n_b, max(4 * max(k, 1), _SCREEN_GROUPS))
    w = n_b // ng
    groups = screen[:, :w * ng].reshape(rows, w, ng).max(axis=1)
    rest = n_b - w * ng
    np.maximum(groups[:, :rest], screen[:, w * ng:], out=groups[:, :rest])
    # k = 0 selects nothing; position ng - 1 keeps the partition in range;
    # the partition puts NaN on top
    at = ng - max(k, 1)
    groups.partition(at, axis=1)
    return groups[:, at], groups[:, at:].max(axis=1)


def _float32_below(x: np.ndarray) -> np.ndarray:
    """Float32 array of the largest float32 at or below each entry of the
    float64 array ``x`` (NaN and infinities kept), so that a float32 ``v``
    satisfies ``v >= result`` exactly when ``v >= x``."""
    y = x.astype(np.float32)
    return np.where(y > x, np.nextafter(y, np.float32(-np.inf)), y)


def _screen_candidates(mask: np.ndarray, finite: np.ndarray, k: int, cap: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cand, counts, ok) of a chunk's screen ``mask``: row i is ``ok`` when
    its screen is ``finite`` and passes at most ``cap`` candidates; then
    ``cand[i, :counts[i]]`` lists them in ascending column order.  Rows that
    are not ok have no candidates (they are scored in full), and ``cand`` is
    at least k wide."""
    rows, n_b = mask.shape
    # row-major flat indices give each row's candidate columns ascending,
    # and row i's run of them starts where i * n_b would be inserted
    flat = np.flatnonzero(mask)
    starts = np.searchsorted(flat, np.arange(rows + 1) * n_b)
    counts = np.diff(starts)
    ok = finite & (counts <= cap)
    r, c = np.divmod(flat, n_b)
    at = np.arange(flat.size) - starts[r]
    if not ok.all():
        keep = ok[r]
        r, c, at = r[keep], c[keep], at[keep]
        counts[~ok] = 0
    cand = np.zeros((rows, max(k, int(counts.max()))), dtype=np.int64)
    cand[r, at] = c
    return cand, counts, ok


def _distinct_draws(seed: int, rows: np.ndarray, span: int, count: int,
                    draws: int) -> np.ndarray:
    """(len(rows), count) array whose row r holds, in ascending order, the
    first ``count`` distinct values of row ``rows[r]``'s draw sequence
    ``floor(u(seed, row, j) * span)``, j = 0, 1, 2, ..., with u the counter
    hash ``scores._counter_uniform``.  Requires count <= span and
    count <= draws.

    Each row's first ``draws`` draws are taken at once: one sort of the keys
    ``value << b | position`` (2^b >= draws) puts equal values together in
    draw order, the first occurrence of each value is marked, and one
    ``np.partition`` of their positions finds the count-th earliest; the
    first occurrences up to it, read in key order, are the answer, already
    sorted.  A row with fewer than ``count`` distinct values among its draws
    is redone on twice as many, so the result depends on neither ``draws``
    nor which rows are drawn together.
    """
    out = np.empty((rows.shape[0], count), dtype=np.int64)
    todo = np.arange(rows.shape[0])
    while count and todo.size:
        bits = (draws - 1).bit_length()
        pos = np.arange(draws, dtype=np.int64)
        # u * span >= 0, so the cast to int64 is the floor
        keys = (_counter_uniform(seed, rows[todo], pos) * span).astype(np.int64)
        keys <<= bits
        keys |= pos
        keys.sort(axis=1)
        values = keys >> bits
        first = np.empty(keys.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
        # a repeated value sits past every position, so it never ranks among
        # the count earliest first occurrences; in a row with fewer than
        # count of them, the count-th earliest is that sentinel
        pos = np.where(first, keys & (1 << bits) - 1, draws)
        last = np.partition(pos, count - 1, axis=1)[:, count - 1:count]
        full = last[:, 0] < draws
        out[todo[full]] = values[(pos <= last) & full[:, None]].reshape(-1, count)
        todo = todo[~full]
        draws *= 2
    return out


def _sample_pools(seed: int, rows: np.ndarray, n: int, m: int) -> np.ndarray:
    """(len(rows), m) array: row i's candidate pool, a uniform m-subset of
    the other n - 1 nodes, sorted ascending.

    The pool is the first m distinct values of row i's draw sequence over
    [0, n - 1) (``_distinct_draws``), each value v >= i shifted to v + 1 to
    skip i.  When m > (n - 1) / 2 the sequence picks the n - 1 - m excluded
    values instead, so a row costs O(n) draws at most; m = n - 1 takes every
    other node.
    """
    span = n - 1
    count = m if 2 * m <= span else span - m
    # while count <= span / 2, a row needs fewer than count**2 / span draws
    # beyond count on average; _DRAW_SLACK covers the spread
    drawn = _distinct_draws(seed, rows, span, count,
                            count + count * count // span + _DRAW_SLACK)
    if count == m:
        pools = drawn
    else:
        keep = np.ones((rows.shape[0], span), dtype=bool)
        keep[np.arange(rows.shape[0])[:, None], drawn] = False
        pools = np.nonzero(keep)[1].reshape(-1, m)
    pools += pools >= rows[:, None]
    return pools


def _sampled_blocks(normed: np.ndarray, k: int, m: int, seed: int):
    """Like ``_top_k_blocks`` over the other n-1 rows, but each row i scores
    only its candidate pool of M nodes (``_sample_pools``)."""
    n, d = normed.shape
    step = max(1, _SAMPLED_GATHER // max(m * d, 1))
    for start in range(0, n, step):
        stop = min(start + step, n)
        pools = _sample_pools(seed, np.arange(start, stop), n, m)
        yield start, stop, *_candidate_top_k(normed[start:stop], normed, pools, k)


def _knn_lists(normed: np.ndarray, k: int, sample_size: int | None = None,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(columns, similarities), both (n, k): row i's k most similar other
    rows of ``normed`` in ``_top_k`` order, from the exact screen
    (``_top_k_blocks``) or, given ``sample_size``, from seed-keyed pools of
    min(sample_size, n - 1) rows (``_sampled_blocks``)."""
    n = normed.shape[0]
    blocks = (_top_k_blocks(normed, k) if sample_size is None
              else _sampled_blocks(normed, k, min(sample_size, n - 1), seed))
    cols, sims = np.empty((n, k), dtype=np.int64), np.empty((n, k))
    for start, stop, c, s in blocks:
        cols[start:stop], sims[start:stop] = c, s
    return cols, sims


def build_knn_graph(features: np.ndarray, cfg: KnnConfig) -> SparseGraph:
    """Directed graph of each node's k most cosine-similar peers.

    Arc weights are the similarities; arcs at or below ``min_similarity`` are
    dropped, and zero-norm feature rows get no arcs of their own whatever
    ``min_similarity`` is (a warning reports how many).  Non-finite features
    are rejected, naming the row and column.  Ties go to the smaller node
    index.  Deterministic given (features,
    cfg.seed).
    """
    features = validate_matrix(features, "features")
    n = features.shape[0]
    if cfg.k >= n:
        raise ValidationError(f"k={cfg.k} must be < n={n}")
    if cfg.sample_size is None and n > EXACT_MODE_MAX_N:
        raise ValidationError(
            f"n={n} exceeds exact-mode limit {EXACT_MODE_MAX_N}; set sample_size"
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
    cols, sims = _knn_lists(normed, cfg.k, cfg.sample_size, cfg.seed)
    by_col = np.argsort(cols, axis=1)
    cols = np.take_along_axis(cols, by_col, axis=1)
    sims = np.take_along_axis(sims, by_col, axis=1)
    # a zero-norm row ties every column at 0: it keeps no arcs, even when
    # min_similarity < 0 would admit them
    keep = (sims > cfg.min_similarity) & ~zero_rows[:, None]
    return _csr_graph(n, _offsets(np.count_nonzero(keep, axis=1)), cols[keep],
                      sims[keep])
