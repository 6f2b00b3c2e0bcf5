"""Base non-conformity scores from predicted probabilities.

The adaptive score for a (node, class) pair accumulates the probability mass
strictly above the candidate class and adds a randomized share of the class's
own mass:

    s(x, y) = sum_i p_i * 1[p_i > p_y] + xi * p_y,   xi in [0, 1].

Ties contribute nothing to the accumulated mass (the inequality is strict).
The rank-regularized variant adds ``lambda_reg * max(0, rank(y) - k_reg)``
with 1-based ranks by descending probability, ties broken by class index.

``xi`` is a pure function of (seed, node id, class): a counter-style 64-bit
mix (splitmix-like) keyed by exactly those values.  Scores are therefore a
deterministic function of (P, seed), and relabeling nodes while carrying
their ids along permutes score rows exactly.  The same counter hash
(``_counter_uniform``) draws the sampled k-NN candidate pools in ``graph``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrixio import _check_int, _plain_float, validate_probabilities

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHUNK_TARGET = 1 << 22


@dataclass(frozen=True)
class XiPolicy:
    """How the randomized own-mass share xi is drawn.

    ``uniform`` keys a hash by (seed, node id, class); ``fixed`` uses
    ``fixed_value`` everywhere (handy for exact hand-checks).
    """

    mode: str = "uniform"
    fixed_value: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("uniform", "fixed"):
            raise ValidationError(f"unknown xi mode: {self.mode!r}")
        if not (0.0 <= self.fixed_value <= 1.0):
            raise ValidationError("fixed_value must lie in [0, 1]")
        _check_int(self.seed, f"seed={self.seed}")
        object.__setattr__(self, "seed", int(self.seed))

    def matrix(self, node_ids: np.ndarray, num_classes: int) -> np.ndarray:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if self.mode == "fixed":
            return np.full((node_ids.shape[0], num_classes), self.fixed_value)
        return _counter_uniform(self.seed, node_ids, np.arange(num_classes))


@dataclass(frozen=True)
class RapsParams:
    k_reg: int
    lambda_reg: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_reg", _plain_float(self.lambda_reg))
        # NaN fails both; an infinite lambda_reg gives NaN penalties (inf * 0)
        if not self.k_reg >= 1:
            raise ValidationError("k_reg must be >= 1")
        _check_int(self.k_reg, f"k_reg={self.k_reg}")
        object.__setattr__(self, "k_reg", int(self.k_reg))
        if not 0 <= self.lambda_reg < np.inf:
            raise ValidationError("lambda_reg must be finite and >= 0")


@dataclass(frozen=True)
class ScoreMatrix:
    """N x K score values plus provenance (method tag and xi policy)."""

    values: np.ndarray
    method: str
    xi: XiPolicy

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValidationError("score values must be 2-D")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of the uint64 array ``x``, in place."""
    t = np.empty_like(x)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        x ^= np.right_shift(x, np.uint64(shift), out=t)
        x *= np.uint64(mult)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def _mix_int(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _counter_uniform(seed: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(len(rows), len(cols)) array of u(seed, r, c) in [0, 1): the top 53
    bits of a splitmix-style mix of the counter (seed, r, c), so each entry
    depends on its own (seed, r, c) only."""
    base = np.uint64(_mix_int(seed ^ _GOLDEN))
    rid = rows.astype(np.uint64)[:, None] * np.uint64(_MIX1)
    cid = cols.astype(np.uint64)[None, :] * np.uint64(_MIX2)
    h = _mix(_mix(base ^ rid) ^ cid)
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= 2.0 ** -53
    return u


def _default_ids(P: np.ndarray, node_ids) -> np.ndarray:
    if node_ids is None:
        return np.arange(P.shape[0], dtype=np.int64)
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.shape[0] != P.shape[0]:
        raise ValidationError("node_ids length must match probability rows")
    return node_ids


def _mass_above(P: np.ndarray) -> np.ndarray:
    """mass_above[i, y] = sum_k P[i, k] where P[i, k] > P[i, y]."""
    n, k = P.shape
    out = np.empty_like(P)
    chunk = max(1, _CHUNK_TARGET // max(k * k, 1))
    for start in range(0, n, chunk):
        block = P[start:start + chunk]
        gt = block[:, :, None] > block[:, None, :]
        out[start:start + chunk] = np.einsum("nk,nky->ny", block, gt)
    return out


def _aps_from_mass(mass: np.ndarray, P: np.ndarray, xi: XiPolicy,
                   node_ids=None) -> ScoreMatrix:
    """The one adaptive-score formula, ``mass + xi * P``, for validated
    probabilities ``P`` and ``mass = _mass_above(P)``.  The mass depends on
    ``P`` alone, so a run that draws a new xi per trial computes it once."""
    ids = _default_ids(P, node_ids)
    values = mass + xi.matrix(ids, P.shape[1]) * P
    values.setflags(write=False)
    return ScoreMatrix(values, "aps", xi)


def aps_scores(P: np.ndarray, xi: XiPolicy, node_ids=None) -> ScoreMatrix:
    """Adaptive scores for every (node, class) pair; entries lie in [0, 1].

    ``_aps_from_mass`` of the validated ``P`` and its ``_mass_above``."""
    P = validate_probabilities(P)
    return _aps_from_mass(_mass_above(P), P, xi, node_ids)


def probability_ranks(P: np.ndarray) -> np.ndarray:
    """1-based rank of each class by descending probability (stable ties)."""
    order = np.argsort(-P, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(1, P.shape[1] + 1), P.shape), axis=1
    )
    return ranks


def raps_penalty(ranks: np.ndarray, rp: RapsParams) -> np.ndarray:
    return rp.lambda_reg * np.maximum(0, ranks - rp.k_reg)
