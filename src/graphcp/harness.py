"""Experiment orchestration: repeated conformal trials over random splits,
hyperparameter tuning, the same-label oracle sweep, the graph-free image
mode, and a synthetic planted-partition generator for desk-scale checks.

Protocol per trial: sample 20 train + 20 valid nodes per class, pool the
rest, split the pool into calibration and test (one setting, ``calib_size``:
a fixed count, or None for min(1000, pool // 2)).  Methods with
hyperparameters split their calibration set in half - one half tunes on a
grid (calibrate on half of it, measure Size on the rest, ties broken by
higher singleton-hit then smaller total weight), the other half feeds the
final conformal calibration.  Tuning therefore never sees the final
calibration half or the test set.  Every random cut - calibration/test,
tuning/final and the tuning halves, in every runner - is drawn by one
function, ``_split_pool``.
``run_experiment`` is the only caller of the tuners (``_tune_snaps``,
``_tune_raps``), so the weights a trial picks depend on the run's seed and
the trial's index alone.
The grid is scored as one batch, with one conformal rank per tuning call.
Both (lam, mu) halves go through one certified float32 BLAS screen
(``_snaps_grid_sets``).  Its inputs fold each node's missing-neighbor mass
into the neighbor columns, so one weight row ``[1, lam, mu]`` per grid
point mixes every row: one matrix product of the first half's true-label
columns gives each grid point's screened threshold, one per class column
gives the second half's scores, and a proven error margin around each
threshold bounds what the screen decides.  The plain formula
(``propagate._formula``, the one behind ``combine_scores``) decides the
entries inside it, against the exact threshold of their grid point.  So
every count, and the chosen point - same key, first in grid order on a full
tie - is the one a point-by-point search with the final mix would pick,
whatever the numpy or BLAS build or its thread count.

Every runner, and the ``image`` CLI command, measures a trial through one
evaluator, ``_evaluate_trial``: calibrate -> predict sets -> coverage, Size,
singleton hit and SSCV.

Everything is driven by integer seeds: per-trial generators are derived from
(seed, stage, model split, conformal split), and trials run one after
another in (model split, conformal split) order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import (_check_alpha, _order_statistic, calibrate,
                        conformal_rank, predict_sets)
from .errors import ValidationError
from .graph import (
    KnnConfig,
    _float32_below,
    _freeze,
    adjacency_graph,
    build_knn_graph,
    empty_graph,
)
from .matrixio import (
    DatasetBundle,
    _check_int,
    _plain_float,
    make_bundle,
    validate_labels,
    validate_matrix,
    validate_probabilities,
)
from .metrics import MetricSummary, _measure
from .propagate import (
    NeighborMeans,
    SnapsParams,
    _check_image_k_eta,
    _formula,
    _image_mix,
    _image_neighbors,
    _oracle_mix,
    _same_label_prefixes,
    combine_scores,
    neighbor_means,
)
from .report import TrialReport, TrialResult, make_report
from .scores import (
    RapsParams,
    ScoreMatrix,
    XiPolicy,
    _aps_from_mass,
    _mass_above,
    probability_ranks,
    raps_penalty,
)

_MASK32 = 0xFFFFFFFF
METHODS = ("aps", "raps", "daps", "snaps")
BASES = ("aps", "raps")
RAPS_LAMBDA_GRID = (0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
RAPS_MAX_KREG = 8
TRAIN_PER_CLASS = 20
VALID_PER_CLASS = 20


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float = 0.05
    method: str = "snaps"
    base: str = "aps"
    knn: KnnConfig = field(default_factory=lambda: KnnConfig(k=20))
    grid_step: float = 0.05
    n_model_splits: int = 10
    n_conformal_splits: int = 100
    calib_size: int | None = None  # None: min(1000, pool // 2)
    seed: int = 0
    params: SnapsParams | None = None      # forced aggregation weights, skips tuning
    raps_params: RapsParams | None = None  # forced regularization, skips tuning

    def __post_init__(self):
        object.__setattr__(self, "alpha", _plain_float(self.alpha))
        object.__setattr__(self, "grid_step", _plain_float(self.grid_step))
        _check_alpha(self.alpha)
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.base not in BASES:
            raise ValidationError(f"unknown base score {self.base!r}")
        _grid_steps(self.grid_step)
        for name in ("n_model_splits", "n_conformal_splits", "seed"):
            _check_int(getattr(self, name), f"{name}={getattr(self, name)}")
        if self.n_model_splits < 1 or self.n_conformal_splits < 1:
            raise ValidationError("split/trial counts must be >= 1")
        if self.calib_size is not None:
            _check_int(self.calib_size, f"calib_size={self.calib_size}")
            if self.calib_size < 1:
                raise ValidationError("fixed calibration size must be >= 1")
        if self.method == "daps" and self.params is not None and self.params.lam != 0.0:
            raise ValidationError("daps admits only the mu weight (lam must be 0)")
        # forced weights no trial would read are an error, not a silent no-op
        aggregated = self.method in ("daps", "snaps")
        if self.params is not None and not aggregated:
            raise ValidationError(f"method {self.method!r} does not aggregate; "
                                  "params (lambda, mu) apply to daps and snaps")
        if self.raps_params is not None and not (
                self.method == "raps" or (aggregated and self.base == "raps")):
            raise ValidationError("raps_params apply only to method raps or to "
                                  "daps/snaps over base raps")
        # method raps over base raps is raps itself; aps over raps would not be
        if self.method == "aps" and self.base != "aps":
            raise ValidationError(f"method 'aps' does not aggregate; base "
                                  f"{self.base!r} applies to daps and snaps")


def _grid_steps(grid_step: float) -> int:
    if not 0 < grid_step <= 1:  # NaN fails it too
        raise ValidationError("grid_step must lie in (0, 1]")
    steps = round(1.0 / grid_step)
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ValidationError(f"grid_step={grid_step} must divide 1 evenly")
    return steps


def snaps_param_grid(grid_step: float, mu_only: bool = False) -> list[SnapsParams]:
    """All (lam, mu) grid points with lam + mu <= 1 (231 for step 0.05)."""
    steps = _grid_steps(grid_step)
    vals = [round(i * grid_step, 12) for i in range(steps + 1)]
    if mu_only:
        return [SnapsParams(0.0, v) for v in vals]
    return [SnapsParams(vals[i], vals[j])
            for i in range(steps + 1) for j in range(steps + 1 - i)]


def _derive_seed(*keys: int) -> int:
    state = np.random.SeedSequence([k & _MASK32 for k in keys]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def _pool_size(labels: np.ndarray, num_classes: int) -> int:
    """The node count ``_sample_train_valid`` leaves in the pool; a class
    too small for the per-class split rule is rejected."""
    need = TRAIN_PER_CLASS + VALID_PER_CLASS
    for c, count in enumerate(np.bincount(labels, minlength=num_classes)):
        if count < need:
            raise ValidationError(f"class {c} has {count} nodes; the per-class "
                                  f"split rule needs >= {need}")
    return labels.shape[0] - need * num_classes


def _sample_train_valid(labels: np.ndarray, num_classes: int, rng) -> tuple:
    _pool_size(labels, num_classes)  # rejects a class too small to split
    train_parts, valid_parts = [], []
    for c in range(num_classes):
        perm = rng.permutation(np.flatnonzero(labels == c))
        train_parts.append(perm[:TRAIN_PER_CLASS])
        valid_parts.append(perm[TRAIN_PER_CLASS:TRAIN_PER_CLASS + VALID_PER_CLASS])
    train = np.sort(np.concatenate(train_parts))
    valid = np.sort(np.concatenate(valid_parts))
    held = np.concatenate([train, valid])
    pool = np.setdiff1d(np.arange(labels.shape[0]), held)
    return train, valid, pool


def _cut_size(n: int, calib_size: int | None) -> int:
    """How many of ``n`` nodes ``_split_pool`` puts in the first part:
    ``calib_size``, or min(1000, n // 2) when None.  A cut that leaves
    either part empty is rejected."""
    if n < 2:
        raise ValidationError(f"cannot split {n} node(s) into two nonempty "
                              "parts; a split needs at least 2")
    if calib_size is not None:
        _check_int(calib_size, f"calibration size {calib_size}")
    c = min(1000, n // 2) if calib_size is None else calib_size
    if not 1 <= c < n:
        raise ValidationError(f"calibration size {c} must lie in [1, {n - 1}] "
                              f"to leave test nodes in a pool of {n}")
    return c


def _split_pool(ids: np.ndarray, calib_size: int | None,
                rng) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` permuted by ``rng`` and cut after ``_cut_size`` of them, each
    part sorted: the one way a node set is cut into calibration and test, or
    into tuning halves."""
    c = _cut_size(ids.shape[0], calib_size)
    perm = rng.permutation(ids)
    return np.sort(perm[:c]), np.sort(perm[c:])


# ---------------------------------------------------------------------------
# hyperparameter tuning

def _grid_size_sh(in_set, num_points, labels_eval,
                  num_classes) -> tuple[np.ndarray, np.ndarray]:
    """Size and singleton-hit counts of ``num_points`` grid points at once.

    ``in_set(c, out)`` is the evaluation half's membership test: it writes
    into the bool (G, rows) ``out`` whether each row's class c is in its set
    at each grid point, and returns ``out``.  ``labels_eval`` must be sorted
    (``_label_grouped_halves`` orders the half so): the rows of class c are
    then one slice, and their true-label hits are copied out of the class
    pass of c.  Returns counts over the rows, which order the grid points
    exactly as the Size and singleton-hit means would.
    """
    shape = (num_points, labels_eval.shape[0])
    hit = np.empty(shape, dtype=bool)
    true_hit = np.empty(shape, dtype=bool)
    bounds = np.searchsorted(labels_eval, np.arange(num_classes + 1)).tolist()
    # a row's size is at most num_classes
    sizes = np.zeros(shape, dtype=np.min_scalar_type(num_classes))
    for c in range(num_classes):
        sizes += in_set(c, hit)
        true_hit[:, bounds[c]:bounds[c + 1]] = hit[:, bounds[c]:bounds[c + 1]]
    true_hit &= sizes == 1
    # row sums in the smallest type that holds them run at about 3 times
    # the speed of int64 ones
    size = sizes.sum(axis=1, dtype=np.min_scalar_type(num_classes * shape[1]))
    sh = true_hit.sum(axis=1, dtype=np.min_scalar_type(shape[1]))
    return size.astype(np.int64), sh.astype(np.int64)


def _folded(v, knn, adj, has_knn, has_adj) -> np.ndarray:
    """The screen's inputs ``[v, knn - has_knn*v, adj - has_adj*v]`` on a
    new second-to-last axis: the weight row ``[1, lam, mu]`` mixes them as
    ``_formula`` mixes ``v``, ``knn`` and ``adj`` (``_snaps_grid_sets``)."""
    return np.stack([v, knn - has_knn * v, adj - has_adj * v], axis=-2)


def _screen_margin(q: np.ndarray, scale: float) -> np.ndarray:
    """Half-width of the band around each screened threshold ``q`` (G,)
    inside which ``_snaps_grid_sets`` rescores an entry; ``scale`` bounds
    every ``sum_i |w_i x_i|`` of the mix.  0 at an infinite threshold, which
    every finite score meets; +inf everywhere else when a float32 screen
    could overflow."""
    margin = (2.0 ** -20 * (scale + np.abs(q)) + 2.0 ** -119 if scale < 2.0 ** 120
              else np.inf)
    return np.where(np.isfinite(q), margin, 0.0)


def _rescored(lam, mu, has_knn, has_adj, x, q) -> np.ndarray:
    """Membership of the entries the screen leaves undecided, by the plain
    formula (``propagate._formula``) on per-entry weights, neighbor flags
    and unfolded inputs ``x`` ``[v, knn_mean, adj_mean]``, against ``q``."""
    return _formula(lam, mu, has_knn, has_adj, *x) <= q


def _exact_thresholds(lam, mu, has_knn, has_adj, x, rank: int) -> np.ndarray:
    """The exact thresholds of G' grid points: the ``rank``-th smallest
    plain-formula score (``propagate._formula``) of each point's weights
    ``lam``/``mu`` (G', 1) on the calibration rows' flags and unfolded
    true-label inputs ``x`` (3, rows), as ``calibrate`` takes it."""
    return _order_statistic(_formula(lam, mu, has_knn, has_adj, *x), rank)


def _snaps_grid_sets(values, nm: NeighborMeans, labels, lam, mu, a, b, rank):
    """The tuning grid of ``combine_scores`` at every grid point of the 1-D
    weights ``lam``/``mu``: each point calibrates on the true labels of
    rows ``a`` at conformal rank ``rank``, and the returned membership test
    of ``_grid_size_sh`` says whether it puts each class of each row of
    ``b`` (its columns, in order) in the row's set.  A certified float32
    BLAS screen mixes both halves; the plain formula decides what it leaves
    open.

    * Fold: with flags h, h' in {0, 1}, the mix ``(1 - lam h - mu h') v +
      lam k + mu d`` of a score v and its neighbor means k, d is ``v + lam
      (k - h v) + mu (d - h' v)``, so one weight row ``w = [1, lam, mu]``
      mixes every row of the folded inputs ``x = [v, k - h v, d - h' v]``
      (``_folded``: float64 subtractions, ``h v`` being exact).
    * Screen: the calibration half's true-label inputs, and each class
      column of the evaluation half's, are mixed by one float32 product of
      float32 copies of w and x: a value b per entry.  ``S = scale`` is the
      largest ``1 + lam + mu`` times the largest folded ``|x|`` of either
      half, so every ``sum_i |w_i x_i| <= S``.  With u = 2^-24, rounding w
      and x to float32 moves each product by at most ``(2u + u^2) |w_i
      x_i|``, and a float32 3-term dot product in any order, with fused
      multiply-adds or not, adds at most ``gamma_3 = 3u / (1 - 3u)`` times
      the sum of their magnitudes (Higham, Accuracy and Stability of
      Numerical Algorithms, section 3.1).  Against the plain formula f,
      float64 adds three terms: the fold's rounding, at most ``2^-53 (lam
      |x_1| + mu |x_2|) <= 2^-53 S``; the formula's rounded ego weight,
      within about 2^-52 of the real one, so about 2^-52 S on ``ego v``;
      and its own rounding, at most ``3 * 2^-53 (1 + 2^-50)`` times ``|ego
      v| + lam |k| + mu |d| <= 2S`` (``|k| <= |x_1| + |v|``, likewise d).
      So ``|b - f| <= E < 5.1 u S + 2^-122``: the float64 terms stay under
      2^-49 S, far inside the 0.1 u S of slack, and the absolute term
      covers float32 subnormals, flushed to zero or not.
    * Thresholds: the screened threshold q~ is the float32 order statistic
      of the calibration half's b at ``rank``; an order statistic moves by
      at most the largest move of its entries, so q~ lies within E of the
      exact threshold q, the order statistic of f.  An evaluation entry
      with ``b < q~ - 2E`` therefore has ``f < q`` (in the set), and one
      with ``b > q~ + 2E`` has ``f > q`` (out of it).  The margin ``2^-20 (S
      + |q~|) + 2^-119`` (``_screen_margin``) exceeds ``2E < 10.2 * 2^-24 S
      + 2^-121`` by more than the float64 rounding of S and of ``q~ -+
      margin``, and the float32 bounds are rounded outward
      (``graph._float32_below``).  Every folded ``|x|`` is at most S, so for
      ``S < 2^120`` no float32 value overflows.  A rank past the half gives
      q = +inf exactly, with margin 0.
    * Rescore: the entries inside the band are compared by ``_rescored``,
      on their unfolded inputs, with the exact threshold of their grid point
      (``_exact_thresholds``), computed once for each grid point that needs
      it.  ``S >= 2^120``, a fold that overflows included, makes the margin
      +inf: every entry is rescored.

    Each membership is therefore the plain formula's against the threshold
    ``calibrate`` would take, whatever the BLAS build or its thread count.
    """
    parts = (values, nm.knn_mean, nm.adj_mean)
    la = labels[a]
    xa = [part[a, la] for part in parts]
    flags_a = (nm.has_knn[a], nm.has_adj[a])
    folded_a = _folded(*xa, *flags_a)
    folded_b = _folded(*(np.take(part, b, axis=0).T for part in parts),
                       nm.has_knn[b], nm.has_adj[b])
    scale = (1.0 + lam + mu).max() * max(np.abs(folded_a).max(),
                                         np.abs(folded_b).max())
    w32 = np.stack([np.ones_like(lam), lam, mu], axis=1).astype(np.float32)
    shape = (lam.shape[0], b.shape[0])
    exact = np.full(shape[0], np.nan)  # filled as grid points need them

    def exact_q(g):
        todo = np.unique(g[np.isnan(exact[g])])
        if todo.size:
            exact[todo] = _exact_thresholds(lam[todo, None], mu[todo, None],
                                            *flags_a, xa, rank)
        return exact[g]

    if scale < 2.0 ** 120:
        q = _order_statistic(np.matmul(w32, folded_a.astype(np.float32)),
                             rank).astype(np.float64)
    else:
        q = exact_q(np.arange(shape[0]))
    margin = _screen_margin(q, scale)
    # bounds copied into every column: a compare with them runs at about 2.5
    # times the speed of one with a (G, 1) broadcast
    below = np.repeat(_float32_below(q - margin)[:, None], shape[1], axis=1)
    above = np.repeat(-_float32_below(-(q + margin))[:, None], shape[1], axis=1)
    x32 = folded_b.astype(np.float32)
    mixed = np.empty(shape, dtype=np.float32)
    beyond = np.empty(shape, dtype=bool)

    def in_set(c, out):
        np.matmul(w32, x32[c], out=mixed)
        np.less(mixed, below, out=out)
        np.greater(mixed, above, out=beyond)
        if np.count_nonzero(out) + np.count_nonzero(beyond) < out.size:
            g, r = np.nonzero(~(out | beyond))
            rows = b[r]
            out[g, r] = _rescored(lam[g], mu[g], nm.has_knn[rows], nm.has_adj[rows],
                                  [part[rows, c] for part in parts], exact_q(g))
        return out

    return in_set


@functools.lru_cache(maxsize=8)
def _snaps_grid(grid_step: float, mu_only: bool):
    """``snaps_param_grid`` as a tuple with its read-only 1-D ``lam`` and
    ``mu`` weights, built once per (grid_step, mu_only)."""
    grid = tuple(snaps_param_grid(grid_step, mu_only=mu_only))
    return (grid, *_freeze(np.array([p.lam for p in grid]),
                           np.array([p.mu for p in grid])))


@functools.lru_cache(maxsize=8)
def _raps_grid(max_k_reg: int):
    """The RAPS grid (k_reg in 1..max_k_reg, lam in ``RAPS_LAMBDA_GRID``) as
    a tuple with its read-only (G, 1) ``k_reg`` and ``lam`` columns."""
    grid = tuple(RapsParams(k_reg, lam) for k_reg in range(1, max_k_reg + 1)
                 for lam in RAPS_LAMBDA_GRID)
    return (grid, *_freeze(np.array([[p.k_reg] for p in grid]),
                           np.array([[p.lambda_reg] for p in grid])))


def _label_grouped_halves(tune_idx, labels, rng) -> tuple[np.ndarray, np.ndarray]:
    """The tuning halves that ``rng`` draws from ``tune_idx``, the second
    one ordered by label (stably), as ``_grid_size_sh`` wants it; counts
    over a half do not depend on the order of its rows."""
    a, b = _split_pool(tune_idx, tune_idx.shape[0] // 2, rng)
    return a, b[np.argsort(labels[b], kind="stable")]


def _tune_snaps(values, nm, labels, tune_idx, alpha, grid_step, rng,
                mu_only=False) -> SnapsParams:
    """The (lam, mu) grid point, or with ``mu_only`` the (0, mu) point of
    daps, that tunes best on ``tune_idx`` for the base ``values`` and their
    neighbor means ``nm``; ``rng`` draws the half split."""
    a, b = _label_grouped_halves(tune_idx, labels, rng)
    grid, lam, mu = _snaps_grid(grid_step, mu_only)
    in_set = _snaps_grid_sets(values, nm, labels, lam, mu, a, b,
                              conformal_rank(a.shape[0], alpha))
    size, sh = _grid_size_sh(in_set, len(grid), labels[b], values.shape[1])
    return grid[np.lexsort((mu, lam, lam + mu, -sh, size))[0]]


def _tune_raps(aps_values, ranks, labels, tune_idx, alpha, rng,
               num_classes) -> RapsParams:
    """The (k_reg, lambda_reg) grid point that tunes best on ``tune_idx`` for
    APS ``aps_values`` and ``probability_ranks`` ``ranks``; ``rng`` draws the
    half split.  The scores ``v + lam * max(0, r - k_reg)`` are exact: each
    threshold is the order statistic of the first half's true-label scores,
    and the second half is compared with it one class row at a time."""
    a, b = _label_grouped_halves(tune_idx, labels, rng)
    grid, k_reg, lam = _raps_grid(min(num_classes, RAPS_MAX_KREG))
    la = labels[a]
    q = _order_statistic(aps_values[a, la] + lam * np.maximum(0, ranks[a, la] - k_reg),
                         conformal_rank(a.shape[0], alpha))
    full = np.repeat(q[:, None], b.shape[0], axis=1)  # as in _snaps_grid_sets
    v, r = aps_values[b].T.copy(), ranks[b].T.copy()

    def in_set(c, out):
        return np.less_equal(v[c] + lam * np.maximum(0, r[c] - k_reg), full, out=out)

    size, sh = _grid_size_sh(in_set, len(grid), labels[b], num_classes)
    return grid[np.lexsort((k_reg[:, 0], lam[:, 0], -sh, size))[0]]


# ---------------------------------------------------------------------------
# experiment runners

def _evaluate_trial(scores, labels: np.ndarray, calib: np.ndarray,
                    test: np.ndarray, alpha: float, model_split: int,
                    conformal_split: int, params: dict) -> TrialResult:
    """The one trial evaluator: calibrate on ``calib``, predict the sets of
    ``test``, then measure coverage, Size, singleton hit and SSCV.

    ``labels`` holds a label per score row, or only the leading calibration
    labels when the test rows are unlabeled; the summary then has Size
    alone."""
    threshold = calibrate(scores, labels, calib, alpha)
    sets = predict_sets(scores, threshold, test)
    if labels.shape[0] <= test.max():
        summary = MetricSummary(coverage=None, size=float(sets.sizes().mean()),
                                sh=None, sscv=None, n_eval=int(test.shape[0]))
    else:
        summary = _measure(sets, labels, None, alpha)
    return TrialResult(model_split, conformal_split, summary, params)


def _linear_nm(nm_a: NeighborMeans, nm_b: NeighborMeans, coeff: float) -> NeighborMeans:
    return NeighborMeans(
        knn_mean=nm_a.knn_mean + coeff * nm_b.knn_mean,
        adj_mean=nm_a.adj_mean + coeff * nm_b.adj_mean,
        has_knn=nm_a.has_knn, has_adj=nm_a.has_adj,
    )


def _int_or_none(value) -> int | None:
    """``value`` as a Python int (JSON has no numpy integers), None kept."""
    return None if value is None else int(value)


def _config_dict(cfg: ExperimentConfig, bundle: DatasetBundle) -> dict:
    return {
        "dataset": {"name": bundle.name, "n": bundle.n,
                    "num_classes": bundle.num_classes},
        "alpha": cfg.alpha,
        "method": cfg.method,
        # every raps trial scores RAPS, whatever base the config names
        "base": "raps" if cfg.method == "raps" else cfg.base,
        "knn": {"k": cfg.knn.k, "sample_size": cfg.knn.sample_size,
                "seed": cfg.knn.seed, "min_similarity": cfg.knn.min_similarity},
        "grid_step": cfg.grid_step,
        "n_model_splits": int(cfg.n_model_splits),
        "n_conformal_splits": int(cfg.n_conformal_splits),
        "calib_size": _int_or_none(cfg.calib_size),
        "seed": int(cfg.seed),
        "params": cfg.params.as_dict() if cfg.params is not None else None,
        "raps_params": ({"k_reg": cfg.raps_params.k_reg,
                         "lambda_reg": cfg.raps_params.lambda_reg}
                        if cfg.raps_params is not None else None),
    }


def run_experiment(bundle: DatasetBundle, cfg: ExperimentConfig) -> TrialReport:
    """Repeated-split conformal evaluation of one method on one bundle.

    Each trial calibrates on ``cfg.calib_size`` pool nodes (None:
    min(1000, pool // 2)), half of them when the method tunes; sizes no
    trial could split are rejected before any graph is built.
    Deterministic given (bundle, cfg): all randomness flows from cfg.seed and
    cfg.knn.seed.  Trials run one after another, conformal splits inside
    model splits, and the report lists them in that order.
    """
    labels = bundle.labels
    num_classes = bundle.num_classes
    aggregated = cfg.method in ("daps", "snaps")
    base_is_raps = cfg.method == "raps" or (aggregated and cfg.base == "raps")
    need_raps_tune = base_is_raps and cfg.raps_params is None
    need_agg_tune = aggregated and cfg.params is None
    # the cuts every trial makes: pool, then calibration set and tuning half
    c = _cut_size(_pool_size(labels, num_classes), cfg.calib_size)
    if need_raps_tune or need_agg_tune:
        half = _cut_size(c, c // 2)
        _cut_size(half, half // 2)
    adj = adjacency_graph(bundle.n, bundle.edges)
    knn = (build_knn_graph(bundle.features, cfg.knn)
           if cfg.method == "snaps" else empty_graph(bundle.n))
    trials: list[TrialResult] = []
    # the APS mass and the ranks depend on the probabilities alone
    P = validate_probabilities(bundle.probabilities)
    mass = _mass_above(P)
    ranks = probability_ranks(P) if base_is_raps else None
    # the rank penalty's neighbor means depend on the ranks and the graphs
    # alone, one per k_reg in use: fixed RAPS parameters use one k_reg;
    # tuning may pick any
    nm_relu: dict[int, NeighborMeans] = {}
    if aggregated and base_is_raps:
        k_regs = (range(1, min(num_classes, RAPS_MAX_KREG) + 1)
                  if cfg.raps_params is None else [cfg.raps_params.k_reg])
        for k_reg in k_regs:
            pen = np.maximum(0, ranks - k_reg).astype(np.float64)
            nm_relu[k_reg] = neighbor_means(pen, knn, adj)

    for ms in range(cfg.n_model_splits):
        xi = XiPolicy("uniform", seed=_derive_seed(cfg.seed, 0xA1, ms))
        base_aps = _aps_from_mass(mass, P, xi)
        split_rng = np.random.default_rng([cfg.seed & _MASK32, 0xB2, ms])
        train, valid, pool = _sample_train_valid(labels, num_classes, split_rng)
        nm_aps = neighbor_means(base_aps.values, knn, adj) if aggregated else None
        for cs in range(cfg.n_conformal_splits):
            rng_split = np.random.default_rng([cfg.seed & _MASK32, 0xC3, ms, cs])
            calib, test = _split_pool(pool, cfg.calib_size, rng_split)
            rng_tune = np.random.default_rng([cfg.seed & _MASK32, 0xD4, ms, cs])
            tune_idx, cal_idx = None, calib
            if need_raps_tune or need_agg_tune:
                tune_idx, cal_idx = _split_pool(calib, calib.shape[0] // 2, rng_tune)
            params: dict = {}
            rp = cfg.raps_params
            if base_is_raps:
                if need_raps_tune:
                    rp = _tune_raps(base_aps.values, ranks, labels, tune_idx,
                                    cfg.alpha, rng_tune, num_classes)
                params["k_reg"] = rp.k_reg
                params["lambda_reg"] = rp.lambda_reg
                base_values = base_aps.values + raps_penalty(ranks, rp)
            else:
                base_values = base_aps.values
            if aggregated:
                nm = nm_aps
                if base_is_raps:
                    nm = _linear_nm(nm_aps, nm_relu[rp.k_reg], rp.lambda_reg)
                if need_agg_tune:
                    p = _tune_snaps(base_values, nm, labels, tune_idx, cfg.alpha,
                                    cfg.grid_step, rng_tune,
                                    mu_only=(cfg.method == "daps"))
                else:
                    p = cfg.params
                params.update(p.as_dict())
                final_values = combine_scores(base_values, nm, p.lam, p.mu)
            else:
                final_values = base_values
            trials.append(_evaluate_trial(final_values, labels, cal_idx, test,
                                          cfg.alpha, ms, cs, params))

    return make_report(_config_dict(cfg, bundle), trials)


def run_oracle_experiment(bundle: DatasetBundle, alpha: float = 0.05,
                          m_sweep=(0, 1, 2, 4, 8, 16, 32), w: float = 0.5,
                          n_trials: int = 20,
                          calib_size: int | None = None,
                          seed: int = 0) -> list[TrialReport]:
    """Same-label aggregation sweep: one report per m, trials aligned across
    the sweep (same split and xi per trial index) for paired comparisons.
    Each trial calibrates on ``calib_size`` of all the nodes (None:
    min(1000, n // 2)) and tests on the rest.  An empty sweep, a repeated,
    negative or non-integer m, a calibration size outside [1, n) and an
    ``n_trials`` that is not an integer >= 1 are rejected, and so are a
    non-integer seed and an alpha outside (0, 1), before any trial."""
    alpha, w = _plain_float(alpha), _plain_float(w)
    _check_alpha(alpha)
    if not 0.0 <= w <= 1.0:
        raise ValidationError("w must lie in [0, 1]")
    _check_int(n_trials, f"n_trials={n_trials}", 1)
    _check_int(seed, f"seed={seed}")
    for m in m_sweep:
        _check_int(m, f"m_sweep holds {m!r}; each m")
    m_sweep = [int(m) for m in m_sweep]
    if not m_sweep:
        raise ValidationError("m_sweep is empty")
    repeated = [m for i, m in enumerate(m_sweep) if m in m_sweep[:i]]
    if repeated:
        raise ValidationError(f"m_sweep repeats m={repeated[0]}; each m gets "
                              "one report")
    negative = [m for m in m_sweep if m < 0]
    if negative:
        raise ValidationError(f"m_sweep holds m={negative[0]}; each m must be >= 0")
    labels = bundle.labels
    all_nodes = np.arange(bundle.n)
    by_m: dict[int, list[TrialResult]] = {m: [] for m in m_sweep}
    P = validate_probabilities(bundle.probabilities)
    mass = _mass_above(P)
    for t in range(n_trials):
        xi = XiPolicy("uniform", seed=_derive_seed(seed, 0x11, t))
        base = _aps_from_mass(mass, P, xi)
        rng = np.random.default_rng([seed & _MASK32, 0x22, t])
        calib, test = _split_pool(all_nodes, calib_size, rng)
        # one draw at the largest m serves every m: a smaller m's peers are
        # a prefix of it
        sel, counts = _same_label_prefixes(labels, max(m_sweep),
                                           _derive_seed(seed, 0x33, t))
        for m in m_sweep:
            corrected = _oracle_mix(base, sel, counts, m, w)
            by_m[m].append(_evaluate_trial(corrected, labels, calib, test,
                                           alpha, 0, t, {"m": m, "w": w}))
    reports = []
    for m in m_sweep:
        config = {
            "mode": "oracle",
            "dataset": {"name": bundle.name, "n": bundle.n,
                        "num_classes": bundle.num_classes},
            "alpha": alpha, "m": m, "w": w, "n_trials": int(n_trials),
            "calib_size": _int_or_none(calib_size), "seed": int(seed),
        }
        reports.append(make_report(config, by_m[m]))
    return reports


def _image_trial(P: np.ndarray, mass: np.ndarray, labels: np.ndarray, c: int,
                 k: int, eta: float, alpha: float, seed: int, t: int,
                 nbrs: np.ndarray | None, zero: np.ndarray | None) -> TrialResult:
    """Trial ``t`` of ``run_image_experiment``: draw its split and xi, add
    the xi share to the run's APS ``mass``, mix every row with its pool
    neighbors ``nbrs`` (none at ``eta = 0``) and evaluate."""
    rng = np.random.default_rng([seed & _MASK32, 0xE5, t])
    calib, test = _split_pool(np.arange(P.shape[0]), c, rng)
    xi = XiPolicy("uniform", seed=_derive_seed(seed, 0xF6, t))
    values = _aps_from_mass(mass, P, xi).values
    if eta > 0.0:
        values = _image_mix(values, values, nbrs, eta, zero)
    return _evaluate_trial(values, labels, calib, test, alpha, 0, t,
                           {"k": int(k), "eta": eta})


def run_image_experiment(probabilities, features, labels, *, alpha: float = 0.1,
                         k: int = 5, eta: float = 0.5, n_trials: int = 10,
                         calib_size: int | None = None,
                         seed: int = 0, name: str = "image") -> TrialReport:
    """Graph-free mode: per trial, split the pool into calibration/test,
    correct every row with the mean scores of its k most similar other pool
    rows (``propagate.image_snaps``), then calibrate and evaluate.
    ``eta=0`` reduces to the plain adaptive score.

    The neighbor lists read no label and do not depend on the split, so
    they are the pool's exact k-NN lists (``propagate._image_neighbors``),
    computed once per run before any split is drawn.  The probabilities are
    validated, and their APS mass (``scores._mass_above``) computed, once
    per run; a trial adds its own xi share and mixes all rows through
    ``propagate._image_mix``.  The report is bit-identical to scoring every
    trial from scratch with ``image_snaps``.
    Non-finite features, probability rows that do not sum to 1, labels
    that are not integers in [0, K), a calibration size outside [1, n), eta outside [0, 1]
    and k outside [1, n - 1] are rejected, and so are non-integer counts
    and seeds, ``n_trials < 1`` and an alpha outside (0, 1)."""
    _check_int(n_trials, f"n_trials={n_trials}", 1)
    _check_int(seed, f"seed={seed}")
    alpha, eta = _plain_float(alpha), _plain_float(eta)
    P = validate_matrix(probabilities, "probabilities")
    feats = validate_matrix(features, "features")
    labels = np.asarray(labels)
    n = P.shape[0]
    if feats.shape[0] != n or labels.shape[0] != n:
        raise ValidationError("probabilities/features/labels row counts disagree")
    labels = validate_labels(labels, P.shape[1])
    c = _cut_size(n, n // 2 if calib_size is None else calib_size)
    _check_image_k_eta(k, eta, n)
    _check_alpha(alpha)
    validate_probabilities(P)
    nbrs, zero = _image_neighbors(feats, k) if eta > 0.0 else (None, None)
    mass = _mass_above(P)
    trials = [_image_trial(P, mass, labels, c, k, eta, alpha, seed, t, nbrs, zero)
              for t in range(n_trials)]
    config = {
        "mode": "image", "dataset": {"name": name, "n": n,
                                     "num_classes": int(P.shape[1])},
        "alpha": alpha, "k": int(k), "eta": eta, "n_trials": int(n_trials),
        "calib_size": int(c), "seed": int(seed),
    }
    return make_report(config, trials)


# ---------------------------------------------------------------------------
# synthetic data

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


def edge_homophily(bundle: DatasetBundle) -> float:
    """Fraction of arcs joining same-label endpoints (NaN when edgeless)."""
    if bundle.edges.shape[0] == 0:
        return math.nan
    same = bundle.labels[bundle.edges[:, 0]] == bundle.labels[bundle.edges[:, 1]]
    return float(same.mean())
