import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphcp as g
from graphcp import harness
from graphcp.cli import main
from graphcp.errors import ValidationError
from graphcp.harness import _split_pool, snaps_param_grid

from conftest import image_scores_reference, image_trial_reference

XI = g.XiPolicy("fixed", 1.0)


def _balanced_labels(per_class, k):
    return np.repeat(np.arange(k), per_class)


def _draw_splits(labels, num_classes, cfg, seed):
    rng = np.random.default_rng(seed)
    train, valid, pool = harness._sample_train_valid(labels, num_classes, rng)
    return (train, valid) + _split_pool(pool, cfg.calib_size, rng)


def test_sample_splits_default_rule_arithmetic():
    labels = _balanced_labels(100, 3)
    cfg = g.ExperimentConfig(method="aps")
    train, valid, calib, test = _draw_splits(labels, 3, cfg, seed=0)
    assert train.shape[0] == 60
    assert valid.shape[0] == 60
    assert calib.shape[0] == 90  # min(1000, 180 // 2)
    assert test.shape[0] == 90
    merged = np.concatenate([train, valid, calib, test])
    assert np.array_equal(np.sort(merged), np.arange(300))


def test_sample_splits_fixed_rule():
    labels = _balanced_labels(100, 3)
    cfg = g.ExperimentConfig(method="aps", calib_size=50)
    _, _, calib, test = _draw_splits(labels, 3, cfg, seed=1)
    assert calib.shape[0] == 50
    assert test.shape[0] == 130


@pytest.mark.parametrize("calib_size, n_test", [(None, 120), (200, 40)])
def test_calibration_size_sets_every_trial_split(small_bundle, calib_size, n_test):
    # 400 nodes and 4 classes leave a pool of 240 after the train/valid draws
    cfg = g.ExperimentConfig(method="aps", calib_size=calib_size,
                             n_model_splits=2, n_conformal_splits=3)
    report = g.run_experiment(small_bundle, cfg)
    assert {t.metrics.n_eval for t in report.trials} == {n_test}
    assert report.config["calib_size"] == calib_size


@pytest.mark.parametrize("calib_size, n_test", [(None, 200), (150, 250)])
def test_oracle_calibration_size_sets_every_trial_split(small_bundle, calib_size,
                                                         n_test):
    reports = g.run_oracle_experiment(small_bundle, alpha=0.1, m_sweep=(0, 2),
                                      n_trials=3, calib_size=calib_size)
    for report in reports:
        assert {t.metrics.n_eval for t in report.trials} == {n_test}
        assert report.config["calib_size"] == calib_size


def test_sample_splits_small_class_names_the_class():
    labels = np.concatenate([np.zeros(50, dtype=int), np.ones(30, dtype=int)])
    cfg = g.ExperimentConfig(method="aps")
    with pytest.raises(ValidationError, match="class 1"):
        _draw_splits(labels, 2, cfg, seed=0)


def test_pool_exhausted():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        _split_pool(np.arange(10), 10, rng)


def test_param_grid_counts():
    assert len(snaps_param_grid(0.05)) == 231
    grid = snaps_param_grid(0.5)
    pairs = {(p.lam, p.mu) for p in grid}
    assert pairs == {(0, 0), (0, 0.5), (0, 1.0), (0.5, 0), (0.5, 0.5), (1.0, 0)}
    assert len(snaps_param_grid(0.05, mu_only=True)) == 21


def test_grid_step_must_divide_one():
    with pytest.raises(ValidationError, match="divide 1"):
        snaps_param_grid(0.3)
    with pytest.raises(ValidationError):
        g.ExperimentConfig(grid_step=0.3)


def test_tuner_finds_identity_when_neighbors_are_noise():
    rng = np.random.default_rng(0)
    n, k = 200, 4
    labels = rng.integers(0, k, size=n)
    # ego scores perfectly separate the true label; neighbor means are pure noise
    values = np.full((n, k), 0.9)
    values[np.arange(n), labels] = 0.05
    noise_rows = rng.integers(0, n, size=(n, 2))
    arcs = sorted({(i, int(j)) for i in range(n) for j in noise_rows[i] if int(j) != i})
    noisy = g.from_arcs(n, np.array(arcs))
    params = harness._tune_snaps(values, g.neighbor_means(values, noisy, noisy),
                                 labels, np.arange(n), 0.1, 0.25,
                                 np.random.default_rng(3))
    assert (params.lam, params.mu) == (0.0, 0.0)


def test_tuner_prefers_informative_neighbors():
    rng = np.random.default_rng(1)
    n, k = 300, 3
    labels = rng.integers(0, k, size=n)
    values = rng.uniform(size=(n, k))
    values[np.arange(n), labels] *= 0.5  # weak signal
    # structural neighbors all share the ego label -> aggregation denoises
    arcs = []
    for c in range(k):
        members = np.flatnonzero(labels == c)
        for pos, i in enumerate(members):
            for j in (members[(pos + 1) % len(members)], members[(pos + 2) % len(members)]):
                if i != j:
                    arcs.append((int(i), int(j)))
    adj = g.from_arcs(n, np.array(sorted(set(arcs))))
    nm = g.neighbor_means(values, g.empty_graph(n), adj)
    params = harness._tune_snaps(values, nm, labels, np.arange(n), 0.1, 0.1,
                                 np.random.default_rng(5), mu_only=True)
    assert params.lam == 0.0
    assert params.mu > 0.0


def test_tuning_ignores_labels_outside_tuning_set(small_bundle):
    xi = g.XiPolicy("uniform", seed=7)
    scores = g.aps_scores(small_bundle.probabilities, xi)
    knn = g.build_knn_graph(small_bundle.features, g.KnnConfig(k=5))
    adj = g.adjacency_graph(small_bundle.n, small_bundle.edges)
    nm = g.neighbor_means(scores.values, knn, adj)
    tune_idx = np.arange(0, small_bundle.n, 3)
    clean = harness._tune_snaps(scores.values, nm, small_bundle.labels, tune_idx,
                                0.1, 0.25, np.random.default_rng(11))
    poisoned_labels = small_bundle.labels.copy()
    outside = np.setdiff1d(np.arange(small_bundle.n), tune_idx)
    poisoned_labels[outside] = (poisoned_labels[outside] + 1) % small_bundle.num_classes
    poisoned = harness._tune_snaps(scores.values, nm, poisoned_labels, tune_idx,
                                   0.1, 0.25, np.random.default_rng(11))
    assert (clean.lam, clean.mu) == (poisoned.lam, poisoned.mu)


# Point-by-point grid search: the reference the batched tuner must match.

def _ref_size_sh(values_cal, labels_cal, values_eval, labels_eval, alpha):
    n = labels_cal.shape[0]
    rank = g.conformal_rank(n, alpha)
    if rank > n:
        q = math.inf
    else:
        true_scores = values_cal[np.arange(n), labels_cal]
        q = float(np.partition(true_scores, rank - 1)[rank - 1])
    mask = values_eval <= q
    sizes = mask.sum(axis=1)
    covered = mask[np.arange(labels_eval.shape[0]), labels_eval]
    return float(sizes.mean()), float((covered & (sizes == 1)).mean())


def _ref_combine_rows(values, nm, lam, mu, rows):
    ego = 1.0 - lam * nm.has_knn[rows] - mu * nm.has_adj[rows]
    return (ego[:, None] * values[rows]
            + lam * nm.knn_mean[rows] + mu * nm.adj_mean[rows])


def _ref_tune_snaps(values, nm, labels, tune_idx, alpha, grid_step, rng,
                    mu_only=False):
    a, b = _split_pool(tune_idx, tune_idx.shape[0] // 2, rng)
    la, lb = labels[a], labels[b]
    best, best_key = None, None
    for p in snaps_param_grid(grid_step, mu_only=mu_only):
        va = _ref_combine_rows(values, nm, p.lam, p.mu, a)
        vb = _ref_combine_rows(values, nm, p.lam, p.mu, b)
        size, sh_val = _ref_size_sh(va, la, vb, lb, alpha)
        key = (size, -sh_val, p.lam + p.mu, p.lam, p.mu)
        if best_key is None or key < best_key:
            best, best_key = p, key
    return best


def _ref_tune_raps(aps_values, ranks, labels, tune_idx, alpha, rng, num_classes):
    a, b = _split_pool(tune_idx, tune_idx.shape[0] // 2, rng)
    la, lb = labels[a], labels[b]
    ra, rb = ranks[a], ranks[b]
    va_base, vb_base = aps_values[a], aps_values[b]
    best, best_key = None, None
    for k_reg in range(1, min(num_classes, harness.RAPS_MAX_KREG) + 1):
        pa = np.maximum(0, ra - k_reg)
        pb = np.maximum(0, rb - k_reg)
        for lam in harness.RAPS_LAMBDA_GRID:
            size, sh_val = _ref_size_sh(va_base + lam * pa, la,
                                        vb_base + lam * pb, lb, alpha)
            key = (size, -sh_val, lam, k_reg)
            if best_key is None or key < best_key:
                best, best_key = g.RapsParams(k_reg, lam), key
    return best


def _draw_matrix(data, n, k, cells):
    return np.array(data.draw(st.lists(cells, min_size=n * k, max_size=n * k)),
                    dtype=np.float64).reshape(n, k)


# few distinct score values, so Size and singleton-hit ties are common
_CELLS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_ALPHAS = st.sampled_from([0.05, 0.1, 0.2, 0.5])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=60),
       st.integers(min_value=2, max_value=5), _ALPHAS,
       st.sampled_from([0.05, 0.25, 0.5, 1.0]), st.booleans(),
       st.integers(min_value=0, max_value=2 ** 31))
@example(data=None, n=2, k=2, alpha=0.05, grid_step=0.25, mu_only=False, seed=0)
def test_batched_snaps_tuner_matches_scalar_grid(data, n, k, alpha, grid_step,
                                                 mu_only, seed):
    if data is None:  # fixed example: rank > n on a 1-node half, q = +inf
        values = np.array([[0.0, 0.5], [0.5, 0.0]])
        nm = g.NeighborMeans(values[::-1].copy(), values.copy(),
                             np.ones(2), np.array([1.0, 0.0]))
        labels = np.array([0, 1])
    else:
        values = _draw_matrix(data, n, k, _CELLS)
        nm = g.NeighborMeans(
            _draw_matrix(data, n, k, _CELLS), _draw_matrix(data, n, k, _CELLS),
            _draw_matrix(data, n, 1, st.sampled_from([0.0, 1.0]))[:, 0],
            _draw_matrix(data, n, 1, st.sampled_from([0.0, 1.0]))[:, 0])
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1),
                                             min_size=n, max_size=n)))
    tune_idx = np.arange(labels.shape[0])
    args = (values, nm, labels, tune_idx, alpha, grid_step)
    got = harness._tune_snaps(*args, np.random.default_rng(seed), mu_only=mu_only)
    want = _ref_tune_snaps(*args, np.random.default_rng(seed), mu_only=mu_only)
    assert (got.lam, got.mu) == (want.lam, want.mu)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=60),
       st.integers(min_value=2, max_value=10), _ALPHAS,
       st.integers(min_value=0, max_value=2 ** 31))
@example(data=None, n=3, k=3, alpha=0.05, seed=0)
def test_batched_raps_tuner_matches_scalar_grid(data, n, k, alpha, seed):
    if data is None:  # fixed example: rank > n on a 1-node half, q = +inf
        values = np.full((n, k), 0.5)
        probs = np.full((n, k), 1.0 / k)
        labels = np.arange(n) % k
    else:
        values = _draw_matrix(data, n, k, _CELLS)
        probs = _draw_matrix(data, n, k, _CELLS)
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1),
                                             min_size=n, max_size=n)))
    ranks = g.probability_ranks(probs)
    args = (values, ranks, labels, np.arange(n), alpha)
    got = harness._tune_raps(*args, np.random.default_rng(seed), k)
    want = _ref_tune_raps(*args, np.random.default_rng(seed), k)
    assert got == want


def _draw_nm(data, n, k):
    flags = st.sampled_from([0.0, 1.0])
    return g.NeighborMeans(_draw_matrix(data, n, k, _CELLS),
                           _draw_matrix(data, n, k, _CELLS),
                           _draw_matrix(data, n, 1, flags)[:, 0],
                           _draw_matrix(data, n, 1, flags)[:, 0])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=6), st.booleans())
def test_grid_scores_are_combine_scores_at_every_grid_point(data, n, k, mu_only):
    # the tuning grid gives every grid point the sets of the final mix: the
    # evaluation rows' memberships under combine_scores at the threshold
    # calibrate would take from the calibration rows; the two sets of rows
    # may share rows, so that entries tie with their threshold
    values, nm = _draw_matrix(data, n, k, _CELLS), _draw_nm(data, n, k)
    rows = st.sets(st.integers(0, n - 1), min_size=1)
    a, b = (np.array(sorted(data.draw(rows))) for _ in range(2))
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                         max_size=n)))
    rank = data.draw(st.integers(1, a.shape[0] + 1))
    _, lam, mu = harness._snaps_grid(0.05, mu_only)
    in_set = harness._snaps_grid_sets(values, nm, labels, lam, mu, a, b, rank)
    columns = [in_set(c, np.empty((lam.shape[0], b.shape[0]), dtype=bool))
               for c in range(k)]
    for i, (l, m) in enumerate(zip(lam, mu)):
        mixed = g.combine_scores(values, nm, l, m)
        true_scores = np.sort(mixed[a, labels[a]])
        q = true_scores[rank - 1] if rank <= a.shape[0] else math.inf
        for c, column in enumerate(columns):
            assert column[i].tolist() == (mixed[b, c] <= q).tolist()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=5), _ALPHAS)
def test_grid_counts_take_true_label_hits_from_the_class_passes(data, n, k, alpha):
    # each evaluation row's true-label hit is read from the class pass of its
    # label, the rows of a class being one slice of the label-sorted half
    values = _draw_matrix(data, 2 * n, k, _CELLS)
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=2 * n,
                                         max_size=2 * n)))
    flags = _draw_matrix(data, 2 * n, 1, st.sampled_from([0.0, 1.0]))[:, 0]
    nm = g.NeighborMeans(values[::-1].copy(), values, flags, flags[::-1].copy())
    _, lam, mu = harness._snaps_grid(0.25, False)
    a, b = np.arange(n), n + np.argsort(labels[n:], kind="stable")
    in_set = harness._snaps_grid_sets(values, nm, labels, lam, mu, a, b,
                                      g.conformal_rank(n, alpha))
    size, sh = harness._grid_size_sh(in_set, lam.shape[0], labels[b], k)
    for i, (l, m) in enumerate(zip(lam, mu)):
        mixed = g.combine_scores(values, nm, l, m)
        want = _ref_size_sh(mixed[a], labels[a], mixed[b], labels[b], alpha)
        assert (round(want[0] * n), round(want[1] * n)) == (size[i], sh[i])


@pytest.mark.parametrize("k", [256, 300])
def test_grid_sizes_count_past_255_classes(k):
    # all scores equal, so every label of every row is in every grid set:
    # Size is k per row, which a uint8 counter would wrap
    n = 8
    values = np.full((n, k), 0.5)
    nm = g.NeighborMeans(values, values, np.ones(n), np.ones(n))
    labels = np.arange(n) % k
    _, lam, mu = harness._snaps_grid(0.05, False)
    b = np.arange(1, n, 2)  # labels 1, 3, 5, 7: sorted
    in_set = harness._snaps_grid_sets(values, nm, labels, lam, mu, np.arange(0, n, 2),
                                      b, g.conformal_rank(n // 2, 0.5))
    size, sh = harness._grid_size_sh(in_set, lam.shape[0], labels[b], k)
    assert size.tolist() == [k * b.shape[0]] * lam.shape[0]
    assert sh.tolist() == [0] * lam.shape[0]
    rng = np.random.default_rng(0)
    picked = harness._tune_snaps(values, nm, labels, np.arange(n), 0.5, 0.05, rng)
    assert (picked.lam, picked.mu) == (0.0, 0.0)


def _screened_counts(data, n, k, alpha, grid_step, margin, monkeypatch):
    """Grid counts of ``_grid_size_sh`` through the screen with
    ``_screen_margin`` patched to ``margin``, the reference counts of
    ``combine_scores`` at every grid point, how many entries the screen
    left to ``_rescored``, the mixed values and thresholds, and the exact
    thresholds ``_exact_thresholds`` returned."""
    values, nm = _draw_matrix(data, 2 * n, k, _CELLS), _draw_nm(data, 2 * n, k)
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=2 * n,
                                         max_size=2 * n)))
    rescored, exact = [], []
    real_rescored, real_exact = harness._rescored, harness._exact_thresholds

    def exact_spy(*args):
        q = real_exact(*args)
        exact.extend(q.tolist())
        return q

    monkeypatch.setattr(harness, "_screen_margin", margin)
    monkeypatch.setattr(harness, "_rescored", lambda *args: rescored.append(
        args[-1].shape[0]) or real_rescored(*args))
    monkeypatch.setattr(harness, "_exact_thresholds", exact_spy)
    _, lam, mu = harness._snaps_grid(grid_step, False)
    a, b = np.arange(n), n + np.argsort(labels[n:], kind="stable")
    rank = g.conformal_rank(n, alpha)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite threshold
        in_set = harness._snaps_grid_sets(values, nm, labels, lam, mu, a, b, rank)
        size, sh = harness._grid_size_sh(in_set, lam.shape[0], labels[b], k)
    mixed, q, want = [], [], []
    for l, m in zip(lam, mu):
        mix = g.combine_scores(values, nm, l, m)
        ref = _ref_size_sh(mix[a], labels[a], mix[b], labels[b], alpha)
        want.append((round(ref[0] * n), round(ref[1] * n)))
        true_scores = np.sort(mix[a, labels[a]])
        q.append(true_scores[rank - 1] if rank <= n else math.inf)
        mixed.append(mix[b])
    return (list(zip(size.tolist(), sh.tolist())), want, sum(rescored), mixed, q,
            exact)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=5), _ALPHAS)
def test_screen_rescoring_every_entry_gives_the_formula_counts(data, n, k, alpha):
    # an infinite margin sends every entry of every class pass through the
    # plain formula, against every grid point's exact threshold, and the
    # counts stay those of combine_scores
    with pytest.MonkeyPatch.context() as mp:
        got, want, rescored, mixed, q, exact = _screened_counts(
            data, n, k, alpha, 0.05,
            lambda q, scale: np.full(q.shape, math.inf), mp)
    assert got == want
    assert rescored == len(mixed) * n * k
    assert sorted(exact) == sorted(q)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=5), _ALPHAS)
def test_zero_width_screen_rescores_every_entry_on_its_threshold(data, n, k, alpha):
    # quarter weights on quarter values mix exactly in any order, so the BLAS
    # value of an entry is its formula value and the screened threshold the
    # exact one; a zero-width band is the threshold itself, and the screen
    # must decide none of the entries on it.  Each grid point with such an
    # entry gets its exact threshold computed once, and no other does
    with pytest.MonkeyPatch.context() as mp:
        got, want, rescored, mixed, q, exact = _screened_counts(
            data, n, k, alpha, 0.25, lambda q, scale: np.zeros(q.shape), mp)
    assert got == want
    assert rescored == sum(int(np.count_nonzero(m == t)) for m, t in zip(mixed, q))
    assert sorted(exact) == sorted(t for m, t in zip(mixed, q) if (m == t).any())


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=40),
       st.integers(min_value=2, max_value=5), _ALPHAS, st.booleans(),
       st.integers(min_value=0, max_value=2 ** 31))
def test_screen_off_by_its_error_bound_tunes_the_same(data, n, k, alpha, mu_only, seed):
    # every screen entry moved by +-E, the bound _snaps_grid_sets proves
    # between a float32 BLAS product and the plain formula: the calibration
    # half's entries, so its screened thresholds, and the evaluation half's.
    # The margin must absorb both, and the tuner still picks the point of
    # the scalar reference
    values, nm = _draw_matrix(data, n, k, _CELLS), _draw_nm(data, n, k)
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                         max_size=n)))
    signs, real = np.random.default_rng(seed), np.matmul

    def shifted(w, x, out=None):
        out = real(w, x, out=out)
        bound = 5.1 * 2.0 ** -24 * np.abs(w).sum(axis=1).max() * np.abs(x).max()
        out += np.float32(bound) * signs.choice(np.float32([-1.0, 1.0]), out.shape)
        return out

    args = (values, nm, labels, np.arange(n), alpha, 0.05)
    want = _ref_tune_snaps(*args, np.random.default_rng(seed), mu_only=mu_only)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", shifted)
        got = harness._tune_snaps(*args, np.random.default_rng(seed), mu_only=mu_only)
    assert (got.lam, got.mu) == (want.lam, want.mu)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=30),
       st.integers(min_value=2, max_value=4), _ALPHAS,
       st.sampled_from([2.0 ** 125, 2.0 ** 1023]),
       st.integers(min_value=0, max_value=2 ** 31))
def test_screen_past_the_float32_range_rescores_every_entry(data, n, k, alpha, factor,
                                                           seed):
    # S >= 2^120 gives the screen an infinite margin, and at 2^1023 the fold
    # knn - has_knn*v of opposite-signed inputs overflows float64: every
    # entry goes to the plain formula, and the tuner still picks the point
    # of the scalar reference
    values, nm = _draw_matrix(data, n, k, _CELLS), _draw_nm(data, n, k)
    nm = g.NeighborMeans(-factor * nm.knn_mean, factor * nm.adj_mean, nm.has_knn,
                         nm.has_adj)
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                         max_size=n)))
    args = (factor * values, nm, labels, np.arange(n), alpha, 0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _ref_tune_snaps(*args, np.random.default_rng(seed))
        got = harness._tune_snaps(*args, np.random.default_rng(seed))
    assert (got.lam, got.mu) == (want.lam, want.mu)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["snaps", "daps", "raps"]))
def test_tuners_pick_the_first_grid_point_with_the_smallest_key(data, method):
    # Size/singleton-hit counts drawn from {0, 1, 2}, so most grid points tie
    # on them and the weight tie-breaks decide.
    if method == "raps":
        grid = [g.RapsParams(k, lam) for k in range(1, 4)
                for lam in harness.RAPS_LAMBDA_GRID]
        tie_key = [(p.lambda_reg, p.k_reg) for p in grid]
    else:
        grid = snaps_param_grid(0.25, mu_only=method == "daps")
        tie_key = [(p.lam + p.mu, p.lam, p.mu) for p in grid]
    counts = st.lists(st.integers(0, 2), min_size=len(grid), max_size=len(grid))
    size, sh = np.array(data.draw(counts)), np.array(data.draw(counts))
    want = grid[min(range(len(grid)),
                    key=lambda i: (size[i], -sh[i]) + tie_key[i])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_grid_size_sh", lambda *args: (size, sh))
        labels = np.zeros(4, dtype=np.int64)
        values = np.zeros((4, 3))
        if method == "raps":
            got = harness._tune_raps(values, np.ones((4, 3), dtype=np.int64),
                                     labels, np.arange(4), 0.1,
                                     np.random.default_rng(0), 3)
        else:
            nm = g.NeighborMeans(values, values, np.ones(4), np.ones(4))
            got = harness._tune_snaps(values, nm, labels, np.arange(4), 0.1, 0.25,
                                      np.random.default_rng(0),
                                      mu_only=method == "daps")
    assert got == want


@pytest.mark.parametrize("method", ["snaps", "daps", "raps"])
def test_tuning_ranks_once_per_call(small_bundle, monkeypatch, method):
    calls = []

    def counting_rank(n, alpha):
        calls.append(n)
        return g.conformal_rank(n, alpha)

    monkeypatch.setattr(harness, "conformal_rank", counting_rank)
    scores = g.aps_scores(small_bundle.probabilities, g.XiPolicy("uniform", seed=4))
    tune_idx = np.arange(0, small_bundle.n, 2)
    rng = np.random.default_rng(2)
    if method == "raps":
        harness._tune_raps(scores.values, g.probability_ranks(small_bundle.probabilities),
                           small_bundle.labels, tune_idx, 0.1, rng,
                           small_bundle.num_classes)
    else:
        adj = g.adjacency_graph(small_bundle.n, small_bundle.edges)
        knn = (g.build_knn_graph(small_bundle.features, g.KnnConfig(k=5))
               if method == "snaps" else g.empty_graph(small_bundle.n))
        harness._tune_snaps(scores.values, g.neighbor_means(scores.values, knn, adj),
                            small_bundle.labels, tune_idx, 0.1, 0.05, rng,
                            mu_only=method == "daps")
    assert calls == [100]  # one rank for the whole grid, on the 100-node half


def test_raps_tuning_returns_params(small_bundle):
    xi = g.XiPolicy("uniform", seed=2)
    scores = g.aps_scores(small_bundle.probabilities, xi)
    rp = harness._tune_raps(scores.values, g.probability_ranks(small_bundle.probabilities),
                            small_bundle.labels, np.arange(0, small_bundle.n, 2),
                            0.1, np.random.default_rng(1), small_bundle.num_classes)
    assert isinstance(rp, g.RapsParams)


def test_run_experiment_deterministic(small_bundle):
    cfg = g.ExperimentConfig(alpha=0.1, method="snaps", n_model_splits=2,
                             n_conformal_splits=3, seed=17,
                             knn=g.KnnConfig(k=5), grid_step=0.25)
    r1 = g.run_experiment(small_bundle, cfg)
    r2 = g.run_experiment(small_bundle, cfg)
    assert g.reports_equal(r1, r2)


def test_run_experiment_lists_trials_in_split_order(small_bundle):
    cfg = g.ExperimentConfig(alpha=0.1, method="daps", n_model_splits=2,
                             n_conformal_splits=3, seed=23, grid_step=0.25)
    report = g.run_experiment(small_bundle, cfg)
    assert [(t.model_split, t.conformal_split) for t in report.trials] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def _spy_graph_builds(monkeypatch):
    calls = []
    for name in ("build_knn_graph", "adjacency_graph"):
        monkeypatch.setattr(harness, name, lambda *args, _name=name: calls.append(_name))
    return calls


# small_bundle leaves a pool of 400 - 40 * 4 = 240 nodes
@pytest.mark.parametrize("method, calib_size, message", [
    ("aps", 240, "calibration size 240 must lie in [1, 239] to leave test "
                 "nodes in a pool of 240"),
    ("snaps", 240, "calibration size 240 must lie in [1, 239] to leave test "
                   "nodes in a pool of 240"),
    # a tuned method halves 2 calibration nodes into 1 to tune on, then that 1
    ("daps", 1, "cannot split 1 node(s) into two nonempty parts; a split needs "
                "at least 2"),
    ("raps", 2, "cannot split 1 node(s) into two nonempty parts; a split needs "
                "at least 2"),
    ("snaps", 3, "cannot split 1 node(s) into two nonempty parts; a split needs "
                 "at least 2"),
])
def test_run_experiment_rejects_calibration_sizes_before_building_graphs(
        small_bundle, monkeypatch, method, calib_size, message):
    calls = _spy_graph_builds(monkeypatch)
    cfg = g.ExperimentConfig(alpha=0.1, method=method, calib_size=calib_size,
                             n_model_splits=1, n_conformal_splits=1)
    with pytest.raises(ValidationError) as err:
        g.run_experiment(small_bundle, cfg)
    assert str(err.value) == message
    assert calls == []


def test_run_experiment_rejects_a_short_class_before_building_graphs(
        small_bundle, monkeypatch):
    labels = small_bundle.labels.copy()
    labels[np.flatnonzero(labels == 2)[39:]] = 0
    bundle = dataclasses.replace(small_bundle, labels=labels)
    calls = _spy_graph_builds(monkeypatch)
    with pytest.raises(ValidationError) as err:
        g.run_experiment(bundle, g.ExperimentConfig(method="snaps"))
    assert str(err.value) == "class 2 has 39 nodes; the per-class split rule needs >= 40"
    assert calls == []


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_runners_reject_alpha_before_any_neighbor_work(small_bundle, monkeypatch,
                                                       alpha):
    calls = []
    monkeypatch.setattr(harness, "_image_neighbors", lambda *a: calls.append(a))
    monkeypatch.setattr(harness, "_same_label_prefixes", lambda *a: calls.append(a))
    message = re.escape(f"alpha={alpha} must lie in (0, 1)")
    with pytest.raises(ValidationError, match=message):
        g.ExperimentConfig(alpha=alpha)
    # at eta > 0 a run builds its pool order
    with pytest.raises(ValidationError, match=message):
        g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                               small_bundle.labels, alpha=alpha, k=3,
                               n_trials=5, calib_size=200)
    with pytest.raises(ValidationError, match=message):
        g.run_oracle_experiment(small_bundle, alpha=alpha, m_sweep=(0, 2),
                                n_trials=2)
    assert calls == []


def test_reduction_chain_matches_base(small_bundle):
    base_cfg = g.ExperimentConfig(alpha=0.1, method="aps", n_model_splits=1,
                                  n_conformal_splits=4, seed=31)
    snaps_cfg = g.ExperimentConfig(alpha=0.1, method="snaps", n_model_splits=1,
                                   n_conformal_splits=4, seed=31,
                                   knn=g.KnnConfig(k=4),
                                   params=g.SnapsParams(0.0, 0.0))
    r_base = g.run_experiment(small_bundle, base_cfg)
    r_snaps = g.run_experiment(small_bundle, snaps_cfg)
    assert g.reports_equal(r_base, r_snaps, ignore_config=True, ignore_params=True)


def test_reduction_snaps_mu_only_matches_daps(small_bundle):
    daps_cfg = g.ExperimentConfig(alpha=0.1, method="daps", n_model_splits=1,
                                  n_conformal_splits=4, seed=37,
                                  params=g.SnapsParams(0.0, 0.4))
    snaps_cfg = g.ExperimentConfig(alpha=0.1, method="snaps", n_model_splits=1,
                                   n_conformal_splits=4, seed=37,
                                   knn=g.KnnConfig(k=4),
                                   params=g.SnapsParams(0.0, 0.4))
    r_daps = g.run_experiment(small_bundle, daps_cfg)
    r_snaps = g.run_experiment(small_bundle, snaps_cfg)
    assert g.reports_equal(r_daps, r_snaps, ignore_config=True)


def test_snaps_on_regularized_base_runs_tuned(small_bundle):
    cfg = g.ExperimentConfig(alpha=0.1, method="snaps", base="raps",
                             n_model_splits=1, n_conformal_splits=3, seed=47,
                             knn=g.KnnConfig(k=4), grid_step=0.5)
    report = g.run_experiment(small_bundle, cfg)
    assert len(report.trials) == 3
    for trial in report.trials:
        assert {"k_reg", "lambda_reg", "lambda", "mu"} <= set(trial.params)
    assert 0.8 <= report.aggregate["coverage"]["mean"] <= 1.0


@pytest.mark.parametrize("raps_params, one_split", [
    (g.RapsParams(2, 0.01), 2),   # ego scores + the one fixed k_reg
    (g.RapsParams(6, 0.01), 2),   # a fixed k_reg above K=4: a zero penalty
    (None, 1 + 4),                # ego scores + every k_reg 1..min(K, 8), K=4
])
def test_raps_base_aggregates_only_the_k_reg_it_can_use(small_bundle, monkeypatch,
                                                        raps_params, one_split):
    calls = []

    def counting_means(values, knn, adj):
        calls.append(values)
        return g.neighbor_means(values, knn, adj)

    cfg = g.ExperimentConfig(alpha=0.1, method="snaps", base="raps",
                             n_model_splits=2, n_conformal_splits=2, seed=47,
                             knn=g.KnnConfig(k=4), params=g.SnapsParams(0.2, 0.3),
                             raps_params=raps_params)
    monkeypatch.setattr(harness, "neighbor_means", counting_means)
    g.run_experiment(small_bundle, cfg)
    # the penalties' means are computed once per run, so a second model
    # split adds only its APS scores' means
    assert len(calls) == one_split + 1


def test_daps_config_rejects_nonzero_lambda():
    with pytest.raises(ValidationError, match="mu weight"):
        g.ExperimentConfig(method="daps", params=g.SnapsParams(0.2, 0.3))


@pytest.mark.parametrize("method", ["aps", "raps"])
def test_config_rejects_weights_for_a_method_that_does_not_aggregate(method):
    with pytest.raises(ValidationError, match=f"method '{method}' does not aggregate"):
        g.ExperimentConfig(method=method, params=g.SnapsParams(0.4, 0.2))


@pytest.mark.parametrize("method, base", [("aps", "aps"), ("aps", "raps"),
                                          ("daps", "aps"), ("snaps", "aps")])
def test_config_rejects_raps_params_no_trial_uses(method, base):
    with pytest.raises(ValidationError, match="raps_params apply only"):
        g.ExperimentConfig(method=method, base=base, raps_params=g.RapsParams(2, 0.1))


def test_config_rejects_a_base_the_method_ignores():
    with pytest.raises(ValidationError,
                       match="method 'aps' does not aggregate; base 'raps'"):
        g.ExperimentConfig(method="aps", base="raps")
    # method raps scores with its own base, so naming it is consistent
    assert g.ExperimentConfig(method="raps", base="raps").base == "raps"


def test_raps_report_records_the_base_its_trials_score(small_bundle):
    # every raps trial scores RAPS, so both configs describe one run
    reports = [g.run_experiment(small_bundle, g.ExperimentConfig(
        alpha=0.1, method="raps", base=base, n_model_splits=1,
        n_conformal_splits=2, seed=9)) for base in ("aps", "raps")]
    assert reports[0].config["base"] == "raps"
    assert g.reports_equal(*reports)


def test_synthetic_limit_case_pure_homophily():
    bundle = g.generate_synthetic(n=300, num_classes=3, dim=4, homophily=1.0,
                                  class_sep=1.0, noise=0.0, seed=5)
    assert g.edge_homophily(bundle) == 1.0
    rows = np.sort(bundle.probabilities, axis=1)
    assert np.allclose(rows[:, -1], 1.0, atol=1e-6)
    assert np.allclose(rows[:, :-1], 0.0, atol=1e-6)


def test_synthetic_hits_homophily_target():
    for target in (0.3, 0.8):
        bundle = g.generate_synthetic(n=2000, num_classes=4, dim=6,
                                      homophily=target, class_sep=1.0,
                                      noise=1.0, seed=9)
        assert abs(g.edge_homophily(bundle) - target) <= 0.05


def test_synthetic_balanced_labels():
    bundle = g.generate_synthetic(n=201, num_classes=2, dim=3, homophily=0.5,
                                  class_sep=1.0, noise=1.0, seed=2)
    counts = np.bincount(bundle.labels)
    assert abs(counts[0] - 201 / 2) <= 1 and abs(counts[1] - 201 / 2) <= 1


def test_synthetic_validation():
    with pytest.raises(ValidationError, match="too small"):
        g.generate_synthetic(n=50, num_classes=3, dim=4, homophily=0.5,
                             class_sep=1.0, noise=1.0, seed=0)
    with pytest.raises(ValidationError, match="infeasible"):
        g.generate_synthetic(n=120, num_classes=3, dim=4, homophily=1.0,
                             class_sep=1.0, noise=1.0, seed=0, avg_degree=100.0)


_SYNTH = dict(n=400, num_classes=4, dim=4, homophily=0.8, class_sep=1.0,
              noise=1.0, seed=0)


@pytest.mark.parametrize("override, message", [
    ({"avg_degree": math.nan}, "avg_degree must be >= 0"),
    ({"class_sep": math.nan}, "class_sep, noise and avg_degree"),
    ({"noise": math.nan}, "class_sep, noise and avg_degree"),
    ({"homophily": math.nan}, r"homophily must lie in \[0, 1\]"),
    ({"n": 400.5}, "n=400.5 must be an integer"),
    ({"num_classes": 4.0}, "num_classes=4.0 must be an integer"),
    ({"dim": True}, "dim=True must be an integer"),
    ({"seed": 1.5}, "seed=1.5 must be an integer"),
])
def test_synthetic_rejects_nan_ranges_and_non_integer_counts(override, message):
    with pytest.raises(ValidationError, match=message):
        g.generate_synthetic(**{**_SYNTH, **override})


def test_synthetic_accepts_numpy_integer_counts():
    want = g.generate_synthetic(**_SYNTH)
    got = g.generate_synthetic(**{**_SYNTH, "n": np.int64(400),
                                  "num_classes": np.int32(4), "dim": np.int64(4)})
    assert got.edges.tobytes() == want.edges.tobytes()
    assert got.features.tobytes() == want.features.tobytes()


@pytest.mark.parametrize("calib_size", [True, 2.0, "10"])
def test_config_rejects_non_integer_calibration_size(calib_size):
    with pytest.raises(ValidationError, match="calib_size=.* must be an integer"):
        g.ExperimentConfig(calib_size=calib_size)


@pytest.mark.parametrize("run", [
    lambda b, seed: g.run_experiment(b, g.ExperimentConfig(method="aps", seed=seed)),
    lambda b, seed: g.run_oracle_experiment(b, n_trials=1, seed=seed),
    lambda b, seed: g.run_image_experiment(b.probabilities, b.features, b.labels,
                                           n_trials=1, seed=seed),
    lambda b, seed: g.KnnConfig(k=5, seed=seed),
])
@pytest.mark.parametrize("seed", [1.5, True])
def test_runners_reject_non_integer_seeds(small_bundle, run, seed):
    with pytest.raises(ValidationError, match=f"seed={seed} must be an integer"):
        run(small_bundle, seed)


def _report_bytes(report, path):
    g.write_report(report, path)
    return path.read_bytes()


def test_runner_reports_store_numpy_integer_counts_as_ints(small_bundle, tmp_path):
    b = small_bundle
    pairs = [
        (lambda i: g.run_image_experiment(b.probabilities, b.features, b.labels,
                                          k=i(2), n_trials=i(2), calib_size=i(100),
                                          seed=i(3))),
        (lambda i: g.run_oracle_experiment(b, n_trials=i(2), m_sweep=(0, i(2)),
                                           calib_size=i(150), seed=i(4))[1]),
        (lambda i: g.run_experiment(b, g.ExperimentConfig(
            method="snaps", base="raps", n_model_splits=i(1), n_conformal_splits=i(2),
            calib_size=i(120), seed=i(5), grid_step=0.25,
            knn=g.KnnConfig(k=i(5), sample_size=i(50), seed=i(6)),
            raps_params=g.RapsParams(i(2), 0.1)))),
    ]
    for run in pairs:
        want = _report_bytes(run(int), tmp_path / "python.json")
        assert _report_bytes(run(np.int64), tmp_path / "numpy.json") == want


def test_runner_reports_store_numpy_float_scalars_as_their_decimals(small_bundle, tmp_path):
    # a numpy float in a config is read as the decimal it prints, the one
    # conformal_rank reads from alpha; np.float32 crashed write_report
    b = small_bundle
    runs = [
        (lambda f: g.run_image_experiment(b.probabilities, b.features, b.labels,
                                          alpha=f(0.1), k=2, eta=f(0.3), n_trials=2,
                                          calib_size=100, seed=3)),
        (lambda f: g.run_oracle_experiment(b, alpha=f(0.1), w=f(0.3), n_trials=2,
                                           m_sweep=(0, 2), calib_size=150, seed=4)[1]),
        (lambda f: g.run_experiment(b, g.ExperimentConfig(
            alpha=f(0.1), method="snaps", base="raps", n_model_splits=1,
            n_conformal_splits=2, calib_size=120, seed=5, grid_step=f(0.25),
            knn=g.KnnConfig(k=5, sample_size=50, seed=6, min_similarity=f(0.1)),
            raps_params=g.RapsParams(2, f(0.1))))),
        (lambda f: g.run_experiment(b, g.ExperimentConfig(
            alpha=f(0.1), method="daps", n_model_splits=1, n_conformal_splits=2,
            seed=7, params=g.SnapsParams(0.0, f(0.3))))),
    ]
    for run in runs:
        want = _report_bytes(run(float), tmp_path / "python.json")
        for numpy_float in (np.float32, np.float64):
            assert _report_bytes(run(numpy_float), tmp_path / "numpy.json") == want


def _spearman(xs, ys):
    def rank(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r

    rx, ry = rank(np.asarray(xs, dtype=float)), rank(np.asarray(ys, dtype=float))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))


def test_oracle_size_trend_anticorrelates_with_m(small_bundle):
    m_sweep = (0, 1, 2, 4, 8)
    reports = g.run_oracle_experiment(small_bundle, alpha=0.1, m_sweep=m_sweep,
                                      w=0.5, n_trials=30, seed=43)
    sizes = [r.aggregate["size"]["mean"] for r in reports]
    # a perfectly monotone sequence over 5 sweep points has exact permutation
    # p-value 1/5! < 0.01
    assert _spearman(m_sweep, sizes) == pytest.approx(-1.0)


def test_oracle_experiment_m_zero_equals_base(small_bundle):
    reports = g.run_oracle_experiment(small_bundle, alpha=0.1, m_sweep=(0, 2),
                                      w=0.5, n_trials=3, seed=41)
    assert len(reports) == 2
    base = reports[0]
    # m = 0 must reproduce plain adaptive scores trial by trial
    cfg = base.config
    assert cfg["m"] == 0
    for trial in base.trials:
        assert trial.params["m"] == 0
    agg0 = base.aggregate["size"]["mean"]
    agg2 = reports[1].aggregate["size"]["mean"]
    assert agg2 <= agg0 + 1e-9


@pytest.mark.parametrize("kw, message", [
    ({"m_sweep": (0, 2), "n_trials": 0}, "n_trials=0 must be >= 1"),
    ({"m_sweep": (0, 2), "n_trials": -2}, "n_trials=-2 must be >= 1"),
    ({"m_sweep": (), "n_trials": 3}, "m_sweep is empty"),
    ({"m_sweep": (1, 1), "n_trials": 3}, "m_sweep repeats m=1"),
    ({"m_sweep": (0, 4, 2, 4), "n_trials": 3}, "m_sweep repeats m=4"),
    ({"m_sweep": (1.7,), "n_trials": 3}, "m_sweep holds 1.7; each m must be an integer"),
    ({"m_sweep": (0, 2.0), "n_trials": 3}, "m_sweep holds 2.0"),
])
def test_oracle_experiment_rejects_bad_sweeps_and_trial_counts(small_bundle, kw,
                                                               message):
    with pytest.raises(ValidationError, match=message):
        g.run_oracle_experiment(small_bundle, alpha=0.1, **kw)


def test_oracle_experiment_rejects_a_negative_m_before_any_trial(small_bundle,
                                                                  monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "_same_label_prefixes", lambda *a: calls.append(a))
    with pytest.raises(ValidationError, match="m_sweep holds m=-1; each m must be >= 0"):
        g.run_oracle_experiment(small_bundle, alpha=0.1, m_sweep=(0, 2, -1),
                                n_trials=2)
    assert calls == []


@pytest.mark.parametrize("n_trials", [0, -1])
def test_image_experiment_rejects_trial_counts_below_one(small_bundle, n_trials):
    with pytest.raises(ValidationError, match=f"n_trials={n_trials} must be >= 1"):
        g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                               small_bundle.labels, k=3, n_trials=n_trials,
                               calib_size=100)


def test_image_experiment_eta_zero_matches_plain_scores(small_bundle):
    shared = dict(alpha=0.1, k=3, n_trials=3, calib_size=120, seed=51)
    base = g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                                  small_bundle.labels, eta=0.0, **shared)
    again = g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                                   small_bundle.labels, eta=0.0, **shared)
    assert g.reports_equal(base, again)
    corrected = g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                                       small_bundle.labels, eta=0.5, **shared)
    assert not g.reports_equal(base, corrected, ignore_config=True, ignore_params=True)


def test_coverage_band_smoke(small_bundle):
    cfg = g.ExperimentConfig(alpha=0.1, method="aps", n_model_splits=1,
                             n_conformal_splits=60, seed=61)
    report = g.run_experiment(small_bundle, cfg)
    cov = report.aggregate["coverage"]["mean"]
    # loose module-level band; the acceptance suite pins the tight one
    assert 0.86 <= cov <= 0.94


def test_config_validation():
    with pytest.raises(ValidationError):
        g.ExperimentConfig(alpha=0.0)
    with pytest.raises(ValidationError):
        g.ExperimentConfig(method="thr")
    with pytest.raises(ValidationError):
        g.ExperimentConfig(n_conformal_splits=0)


def image_experiment_reference(P, feats, labels, *, alpha, k, eta, n_trials,
                               calib_size, seed):
    """Image mode scoring every trial from scratch: each trial's split and
    xi, then the public ``image_snaps`` over the whole pool
    (``image_trial_reference``)."""
    n = P.shape[0]
    trials = []
    for t in range(n_trials):
        rng = np.random.default_rng([seed & harness._MASK32, 0xE5, t])
        perm = rng.permutation(n)
        calib = np.sort(perm[:calib_size])
        test = np.sort(perm[calib_size:])
        xi = g.XiPolicy("uniform", seed=harness._derive_seed(seed, 0xF6, t))
        summary = image_trial_reference(P, feats, labels, calib, test, xi,
                                        alpha=alpha, k=k, eta=eta)
        trials.append(g.TrialResult(0, t, summary, {"k": k, "eta": eta}))
    return trials


@pytest.mark.parametrize("k, n_trials, calib_size, rounded", [
    (1, 5, 100, False),   # one neighbor per row
    (1, 8, 60, True),     # rounded features: heavy ties and zero-norm rows
    (5, 8, 60, True),
    (4, 45, 10, False),   # many trials of a small calibration set
    (12, 3, 10, False),   # k past the calibration size: bounded by the pool
])
def test_image_pool_order_matches_per_trial_scoring(small_bundle, monkeypatch, k,
                                                    n_trials, calib_size, rounded):
    # the run's one pool order (each row's k most similar other rows) gives
    # every trial the scores of image_snaps over the whole pool, to the bit
    feats = np.round(small_bundle.features) if rounded else small_bundle.features
    P, labels = small_bundle.probabilities, small_bundle.labels
    scored = []
    real = harness._evaluate_trial
    monkeypatch.setattr(harness, "_evaluate_trial",
                        lambda scores, *a: scored.append(scores) or real(scores, *a))
    shared = dict(alpha=0.1, k=k, eta=0.5, n_trials=n_trials,
                  calib_size=calib_size, seed=71)
    report = g.run_image_experiment(P, feats, labels, **shared)
    ref = image_experiment_reference(P, feats, labels, **shared)
    assert g.reports_equal(report, g.make_report(report.config, ref))
    for t, scores in enumerate(scored):
        xi = g.XiPolicy("uniform", seed=harness._derive_seed(71, 0xF6, t))
        want = g.image_snaps(g.aps_scores(P, xi), feats, k, 0.5).values
        assert np.array_equal(scores.view(np.int64), want.view(np.int64))


def test_image_pool_order_is_built_once_per_run(small_bundle, monkeypatch):
    built = []
    real = harness._image_neighbors
    monkeypatch.setattr(harness, "_image_neighbors",
                        lambda feats, k: built.append(k) or real(feats, k))
    P, feats, labels = (small_bundle.probabilities, small_bundle.features,
                        small_bundle.labels)
    # at depth k, whatever the trial count; eta = 0 looks up no neighbor
    for n_trials, eta, expect in ((1, 0.5, [3]), (4, 0.5, [3]), (4, 0.0, [])):
        built.clear()
        g.run_image_experiment(P, feats, labels, k=3, eta=eta, n_trials=n_trials,
                               calib_size=100, seed=72)
        assert built == expect


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pool_scores_match_image_snaps_bit_for_bit(data):
    n = data.draw(st.integers(2, 30), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    # a coarse grid gives duplicated rows (ties at the k-th neighbor) and
    # zero-norm rows
    cells = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                               min_size=n * d, max_size=n * d), label="feats")
    feats = np.array(cells).reshape(n, d)
    k = data.draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.uniform(size=(n, data.draw(st.integers(1, 3), label="K")))
    eta = data.draw(st.sampled_from([0.0, 0.6, 1.0]), label="eta")
    # chunks of one row up to all of them
    rows = data.draw(st.integers(1, n), label="rows_per_chunk")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(g.graph, "_CHUNK_TARGET", 2 * n * rows)
        out = g.image_snaps(g.ScoreMatrix(values, "aps", XI), feats, k, eta).values
    ref = image_scores_reference(values, feats, k=k, eta=eta)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


def test_pool_neighbors_are_prefixes_of_the_full_order():
    # a row's k neighbors are the first k of its full similarity order
    rng = np.random.default_rng(15)
    normed = g.graph._normalized_rows(rng.normal(size=(12, 3)))[0]
    full = g.graph._knn_lists(normed, 11)[0]
    for k in range(1, 12):
        assert np.array_equal(g.graph._knn_lists(normed, k)[0], full[:, :k])


@pytest.mark.parametrize("depth", [256, 300])
def test_pool_order_matches_stable_argsort_past_column_255(depth):
    # 700 rows in 40 directions: every row has about 17 exact twins, so
    # ties straddle the depth, which lies past column 255
    rng = np.random.default_rng(depth)
    feats = rng.normal(size=(40, 4))[rng.integers(0, 40, size=700)]
    feats[::97] = 0.0
    normed = g.graph._normalized_rows(feats)[0]
    sims = g.graph._pairwise_sims(normed, normed)
    np.fill_diagonal(sims, -np.inf)
    want = np.argsort(-sims, axis=1, kind="stable")[:, :depth]
    assert np.array_equal(g.graph._knn_lists(normed, depth)[0], want)


def test_image_experiment_at_k_equal_c_matches_per_trial_scoring(small_bundle):
    P, feats, labels = (small_bundle.probabilities, small_bundle.features,
                        small_bundle.labels)
    # every row averages k = c other pool rows, calibration rows included
    shared = dict(alpha=0.1, k=10, eta=0.5, n_trials=45, calib_size=10, seed=73)
    report = g.run_image_experiment(P, feats, labels, **shared)
    ref = image_experiment_reference(P, feats, labels, **shared)
    assert g.reports_equal(report, g.make_report(report.config, ref))


def test_image_mode_keeps_small_calibration_sets_exchangeable():
    # every row is scored by the same function of the whole pool, so the
    # corrected scores cover as often as plain APS (eta = 0) on the same
    # splits and xi; a correction that treated calibration and test rows
    # differently read +0.021 (se 0.0017) here
    diffs = []
    for seed in range(100, 112):
        b = g.generate_synthetic(n=400, num_classes=4, dim=4, homophily=0.8,
                                 class_sep=1.0, noise=1.0, seed=seed)
        shared = dict(alpha=0.1, k=5, n_trials=300, calib_size=10, seed=seed)
        cov = [[t.metrics.coverage for t in g.run_image_experiment(
                    b.probabilities, b.features, b.labels, eta=eta, **shared).trials]
               for eta in (1.0, 0.0)]
        diffs.append(np.mean(np.subtract(*cov)))
    assert abs(np.mean(diffs)) <= 0.01, diffs


def test_image_experiment_rejects_non_finite_features(small_bundle):
    feats = small_bundle.features.copy()
    feats[3, 1] = np.nan
    with pytest.raises(ValidationError, match="features: non-finite value at row 3, col 1"):
        g.run_image_experiment(small_bundle.probabilities, feats, small_bundle.labels,
                               k=3, n_trials=2, calib_size=100)


def test_image_and_oracle_runners_reject_a_calibration_size_alike(small_bundle):
    # both cut all n nodes of the bundle, through the same check
    with pytest.raises(ValidationError) as image_err:
        g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                               small_bundle.labels, k=3, n_trials=2,
                               calib_size=small_bundle.n)
    with pytest.raises(ValidationError) as oracle_err:
        g.run_oracle_experiment(small_bundle, alpha=0.1, m_sweep=(0, 2), n_trials=2,
                                calib_size=small_bundle.n)
    assert str(image_err.value) == str(oracle_err.value) == (
        "calibration size 400 must lie in [1, 399] to leave test nodes in a "
        "pool of 400")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_image_experiment_accepts_one_row_calibration(small_bundle):
    # the lone calibration row averages its k most similar pool rows like
    # any other row; rank ceil(0.9 * 2) = 2 exceeds one calibration score,
    # so the threshold saturates and every test set holds all 4 labels
    P, feats, labels = (small_bundle.probabilities, small_bundle.features,
                        small_bundle.labels)
    shared = dict(alpha=0.1, k=3, eta=0.5, n_trials=2, calib_size=1, seed=74)
    report = g.run_image_experiment(P, feats, labels, **shared)
    ref = image_experiment_reference(P, feats, labels, **shared)
    assert g.reports_equal(report, g.make_report(report.config, ref))
    for t in report.trials:
        assert (t.metrics.coverage, t.metrics.size, t.metrics.n_eval) == (1.0, 4.0, 399)
    scores = g.image_snaps(g.aps_scores(P, XI), feats, 3, 0.5)
    threshold = g.calibrate(scores, labels, np.array([5]), 0.1)
    assert threshold.saturated
    assert g.predict_sets(scores, threshold, np.arange(6, 400)).mask.all()


@pytest.mark.parametrize("k, eta, message", [
    (0, 0.5, r"k=0 must lie in \[1, 399\]"),
    (3, 1.5, r"eta must lie in \[0, 1\]"),
    (3, -0.5, r"eta must lie in \[0, 1\]"),
    (400, 0.5, r"k=400 must lie in \[1, 399\]"),
])
def test_image_experiment_rejects_bad_k_and_eta_with_a_pool_order(
        small_bundle, monkeypatch, k, eta, message):
    # k is bounded by the pool of 400 rows, and the arguments are checked
    # before the pool order is built
    calls = []
    monkeypatch.setattr(harness, "_image_neighbors", lambda *a: calls.append(a))
    with pytest.raises(ValidationError, match=message):
        g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                               small_bundle.labels, k=k, eta=eta, n_trials=45,
                               calib_size=10)
    assert calls == []


def test_image_experiment_rejects_out_of_range_labels(small_bundle):
    labels = small_bundle.labels.copy()
    labels[7] = 9
    with pytest.raises(ValidationError, match=r"label 9 at row 7 out of range \[0, 4\)"):
        g.run_image_experiment(small_bundle.probabilities, small_bundle.features, labels,
                               k=3, n_trials=2, calib_size=100)
    labels[7] = -1
    with pytest.raises(ValidationError, match="label -1 at row 7"):
        g.run_image_experiment(small_bundle.probabilities, small_bundle.features, labels,
                               k=3, n_trials=2, calib_size=100)


@pytest.mark.parametrize("bad, shown", [(2.7, "2.7"), (math.nan, "nan")])
def test_image_experiment_rejects_non_integer_labels(small_bundle, bad, shown):
    labels = small_bundle.labels.astype(np.float64)
    labels[7] = bad
    with pytest.raises(ValidationError) as exc:
        g.run_image_experiment(small_bundle.probabilities, small_bundle.features, labels,
                               k=3, n_trials=2, calib_size=100)
    assert str(exc.value) == f"label {shown} at row 7 is not an integer"


def test_image_experiment_rejects_labels_that_are_not_one_dimensional(small_bundle):
    # a 0-d label array raised IndexError at labels.shape[0]
    with pytest.raises(ValidationError) as exc:
        g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                               np.int64(0), k=3, n_trials=2, calib_size=100)
    assert str(exc.value) == "labels must be 1-D, got shape ()"


def _seam_trials(bundle, which, tmp_path):
    """The trials of one run of ``which``, in the order it calls the trial
    seam."""
    P, feats, labels = bundle.probabilities, bundle.features, bundle.labels
    if which == "experiment":
        cfg = g.ExperimentConfig(method="snaps", knn=g.KnnConfig(k=5), n_model_splits=2,
                                 n_conformal_splits=2, seed=4)
        return g.run_experiment(bundle, cfg).trials
    if which == "oracle":
        reports = g.run_oracle_experiment(bundle, m_sweep=(0, 2), n_trials=2,
                                          calib_size=100, seed=4)
        return [r.trials[t] for t in range(2) for r in reports]
    if which == "image":
        return g.run_image_experiment(P, feats, labels, k=3, n_trials=3, calib_size=100,
                                      seed=4).trials
    # graphcp image on the bundle cut in half, with or without test labels
    out, half = tmp_path / "image.json", bundle.n // 2
    argv = ["image", "--k", "3", "--seed", "4", "--out", str(out)]
    for side, rows in (("calib", slice(None, half)), ("test", slice(half, None))):
        for flag, mat in (("probs", P), ("feats", feats)):
            path = tmp_path / f"{flag}-{side}.snpm"
            g.write_matrix(mat[rows], path)
            argv += [f"--{flag}-{side}", str(path)]
        if side == "calib" or which == "cli-labeled":
            path = tmp_path / f"labels-{side}.txt"
            path.write_text("".join(f"{y}\n" for y in labels[rows].tolist()))
            argv += [f"--labels-{side}", str(path)]
    assert main(argv) == 0
    return g.read_report(out).trials


@pytest.mark.parametrize("which", ["experiment", "oracle", "image", "cli-labeled",
                                   "cli-unlabeled"])
def test_the_trial_seam_hands_back_the_sets_its_trial_measures(small_bundle, tmp_path,
                                                                monkeypatch, which):
    # every runner and graphcp image: the sets hold the trial's test nodes,
    # their threshold is calibrate's, and they measure to the report's trial
    seen, real = [], harness._evaluate_trial
    monkeypatch.setattr(harness, "_evaluate_trial",
                        lambda *a: seen.append((a, real(*a))) or seen[-1][1])
    trials = _seam_trials(small_bundle, which, tmp_path)
    assert len(seen) == len(trials) > 0
    for ((scores, labels, calib, test, alpha), (sets, summary)), trial in zip(seen, trials):
        assert np.array_equal(sets.eval_idx, test)
        want = g.calibrate(scores, labels, calib, alpha)
        got = sets.threshold
        assert (got.q_hat, got.alpha, got.n_calib) == (want.q_hat, want.alpha, want.n_calib)
        assert np.array_equal(got.calib_idx, want.calib_idx)
        assert summary == trial.metrics
        if which == "cli-unlabeled":
            assert trial.metrics.coverage is None
            assert trial.metrics.size == sets.sizes().mean()
        else:
            assert g.metrics._measure(sets, labels, None, alpha) == trial.metrics


def test_a_labeled_trial_counts_its_sets_once(small_bundle, monkeypatch):
    sizes_calls = []
    real = g.PredictionSets.sizes
    monkeypatch.setattr(g.PredictionSets, "sizes",
                        lambda self: sizes_calls.append(1) or real(self))
    g.run_image_experiment(small_bundle.probabilities, small_bundle.features,
                           small_bundle.labels, k=3, n_trials=3, calib_size=100, seed=5)
    assert len(sizes_calls) == 3
