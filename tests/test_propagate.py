import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import graphcp as g
from graphcp.errors import ValidationError

XI = g.XiPolicy("fixed", 1.0)


def _score(values):
    return g.ScoreMatrix(np.asarray(values, dtype=float), "aps", XI)


def _random_graph(n, rng, avg_deg=3.0, weighted=False):
    pairs = set()
    target = int(avg_deg * n)
    while len(pairs) < target:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((int(u), int(v)))
    arcs = np.array(sorted(pairs))
    weights = rng.uniform(0.1, 1.0, size=arcs.shape[0]) if weighted else None
    return g.from_arcs(n, arcs, weights)


def dense_mix_oracle(values, knn, adj, lam, mu):
    """Dense evaluation of the row-normalized matrix form, with the same
    missing-neighbor fallback."""
    n, _ = values.shape

    def dense_norm(graph):
        A = np.zeros((n, n))
        for i in range(n):
            cols, w = graph.row(i)
            A[i, cols] = w
        deg = A.sum(axis=1)
        has = deg > 0
        A[has] /= deg[has, None]
        return A, has.astype(float)

    As, has_s = dense_norm(knn)
    A, has_a = dense_norm(adj)
    ego = 1.0 - lam * has_s - mu * has_a
    return ego[:, None] * values + lam * (As @ values) + mu * (A @ values)


def test_snaps_identity_when_weights_zero():
    rng = np.random.default_rng(0)
    S = _score(rng.uniform(size=(20, 4)))
    knn = _random_graph(20, rng, weighted=True)
    adj = _random_graph(20, rng)
    out = g.snaps_scores(S, knn, adj, g.SnapsParams(0.0, 0.0))
    assert np.array_equal(out.values, S.values)
    assert out.method == "snaps"


def test_snaps_hand_example():
    # ego 0.4, similarity-neighbor mean 0.8, structural mean 0.2
    S = _score([[0.4], [0.8], [0.2]])
    knn = g.from_arcs(3, [(0, 1)], [0.7])
    adj = g.from_arcs(3, [(0, 2)])
    out = g.snaps_scores(S, knn, adj, g.SnapsParams(0.25, 0.25))
    assert out.values[0, 0] == pytest.approx(0.45)


def test_isolated_node_falls_back_to_own_score():
    S = _score([[0.3], [0.9]])
    empty = g.empty_graph(2)
    out = g.snaps_scores(S, empty, empty, g.SnapsParams(0.4, 0.4))
    assert np.array_equal(out.values, S.values)


def test_daps_hand_example():
    S = _score([[0.4], [0.2], [0.6]])
    adj = g.from_arcs(3, [(0, 1), (0, 2)])
    out = g.snaps_scores(S, g.empty_graph(3), adj, g.SnapsParams(0.0, 0.5))
    assert out.values[0, 0] == pytest.approx(0.4)


def test_daps_mu_zero_identity():
    rng = np.random.default_rng(1)
    S = _score(rng.uniform(size=(10, 3)))
    adj = _random_graph(10, rng)
    out = g.snaps_scores(S, g.empty_graph(10), adj, g.SnapsParams(0.0, 0.0))
    assert np.array_equal(out.values, S.values)


def test_daps_equals_snaps_lambda_zero_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(5, 40))
        S = _score(rng.uniform(size=(n, 4)))
        knn = _random_graph(n, rng, weighted=True)
        adj = _random_graph(n, rng)
        p = g.SnapsParams(0.0, float(rng.uniform(0, 1)))
        a = g.snaps_scores(S, g.empty_graph(n), adj, p).values
        b = g.snaps_scores(S, knn, adj, p).values
        assert np.array_equal(a, b)


def test_matrix_form_equivalence_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(5, 100))
        S = _score(rng.uniform(size=(n, 5)))
        knn = _random_graph(n, rng, weighted=True)
        adj = _random_graph(n, rng)
        lam, mu = rng.uniform(0, 0.5, size=2)
        ours = g.snaps_scores(S, knn, adj, g.SnapsParams(float(lam), float(mu))).values
        oracle = dense_mix_oracle(S.values, knn, adj, lam, mu)
        assert np.abs(ours - oracle).max() < 1e-9


def _formula_mix(values, nm, lam, mu):
    """The mix as the plain elementwise formula, evaluated left to right."""
    ego = 1.0 - lam * nm.has_knn - mu * nm.has_adj
    return ego[:, None] * values + lam * nm.knn_mean + mu * nm.adj_mean


_GRID = [(p.lam, p.mu) for p in g.snaps_param_grid(0.05)]
# grid points whose ego weight 1 - lam - mu rounds to +-2**-54 or so, such
# as (0.7, 0.3) and (0.8, 0.2)
_TINY_EGO = [(lam, mu) for lam, mu in _GRID if 0.0 < abs(1.0 - lam - mu) < 1e-15]
_PAIRS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
_MIX_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -1.0, 1.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def _mix_inputs(data, n, k):
    def matrix():
        return data.draw(arrays(np.float64, (n, k), elements=_MIX_CELLS))

    pairs = np.array(data.draw(st.lists(st.sampled_from(_PAIRS), min_size=n,
                                        max_size=n))).reshape(n, 2)
    nm = g.NeighborMeans(matrix(), matrix(), pairs[:, 0].copy(), pairs[:, 1].copy())
    return matrix(), nm


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=12),
       st.one_of(st.just(1), st.integers(min_value=1, max_value=17)),
       st.one_of(st.sampled_from(_TINY_EGO), st.sampled_from(_GRID)))
def test_mix_kernel_equals_the_elementwise_formula_bit_for_bit(data, n, k, weights):
    # combine_scores rounds each product and adds them left to right, then
    # adds +0.0: every entry equals the formula's bits, except that a -0.0
    # sum reads +0.0.  Widths 1-17 reach the SIMD loop tails.
    lam, mu = weights
    values, nm = _mix_inputs(data, n, k)
    got = g.combine_scores(values, nm, lam, mu)
    assert got.tobytes() == (_formula_mix(values, nm, lam, mu) + 0.0).tobytes()
    # position independence: a row mixed alone equals it mixed in the block
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    row = slice(i, i + 1)
    alone = g.combine_scores(values[row], g.NeighborMeans(
        nm.knn_mean[row], nm.adj_mean[row], nm.has_knn[row], nm.has_adj[row]),
        lam, mu)
    assert alone.tobytes() == got[row].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_weighted_row_means_bit_exact_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    # uneven degrees: most rows get a few arcs, about one in ten dozens
    degree = rng.integers(0, 4, size=n)
    hubs = rng.random(n) < 0.1
    degree[hubs] = rng.integers(20, 60, size=int(hubs.sum()))
    degree = np.minimum(degree, n - 1)
    arcs = np.array([(i, j) for i in range(n)
                     for j in rng.choice(np.delete(np.arange(n), i), degree[i],
                                         replace=False)], dtype=np.int64).reshape(-1, 2)
    weights = rng.uniform(0.05, 1.0, size=arcs.shape[0])
    # magnitudes far apart, so the order of a row's terms would show in a
    # plain floating-point sum
    values = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-8, 9, size=(n, 4))
    perm = rng.permutation(n)
    moved = np.empty_like(values)
    moved[perm] = values
    means, has = g.weighted_row_means(g.from_arcs(n, arcs, weights), values)
    pmeans, phas = g.weighted_row_means(g.from_arcs(n, perm[arcs], weights), moved)
    assert np.array_equal(pmeans[perm].view(np.int64), means.view(np.int64))
    assert np.array_equal(phas[perm], has)


def test_weighted_row_means_names_first_nonpositive_degree():
    graph = g.from_arcs(4, [(0, 1), (1, 2), (3, 0), (3, 2)], [0.5, -0.5, 1.0, -2.0])
    with pytest.raises(ValidationError, match="row 1 has nonpositive degree -0.5"):
        g.weighted_row_means(graph, np.ones((4, 2)))


def test_convexity_bounds():
    rng = np.random.default_rng(4)
    S = _score(rng.uniform(size=(30, 4)))
    knn = _random_graph(30, rng, weighted=True)
    adj = _random_graph(30, rng)
    out = g.snaps_scores(S, knn, adj, g.SnapsParams(0.3, 0.4)).values
    assert out.min() >= S.values.min() - 1e-9
    assert out.max() <= S.values.max() + 1e-9
    assert (out >= -1e-9).all() and (out <= 1 + 1e-9).all()


def test_linearity():
    rng = np.random.default_rng(5)
    n = 25
    A = rng.uniform(size=(n, 3))
    B = rng.uniform(size=(n, 3))
    knn = _random_graph(n, rng, weighted=True)
    adj = _random_graph(n, rng)
    p = g.SnapsParams(0.2, 0.3)
    lhs = g.snaps_scores(_score(2.0 * A + 3.0 * B), knn, adj, p).values
    rhs = (2.0 * g.snaps_scores(_score(A), knn, adj, p).values
           + 3.0 * g.snaps_scores(_score(B), knn, adj, p).values)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_weight_sum_validation():
    with pytest.raises(ValidationError, match="exceeds 1"):
        g.SnapsParams(0.7, 0.4)
    with pytest.raises(ValidationError):
        g.SnapsParams(-0.1, 0.2)
    with pytest.raises(ValidationError, match="mu"):
        g.SnapsParams(0.0, 1.5)


def test_row_count_mismatch():
    S = _score(np.zeros((4, 2)) + 0.5)
    with pytest.raises(ValidationError, match="mismatch"):
        g.snaps_scores(S, g.empty_graph(3), g.empty_graph(4), g.SnapsParams(0.1, 0.1))


# --- same-label oracle aggregation -----------------------------------------

@pytest.mark.parametrize("labels, message", [
    ([0, 1.5, 0, 1], "label 1.5 at row 1 is not an integer"),
    ([0, 1, math.nan, 1], "label nan at row 2 is not an integer"),
    ([0, 1, 0, 5], "label 5 at row 3 out of range [0, 3)"),
    ([0, -1, 0, 1], "label -1 at row 1 out of range [0, 3)"),
])
def test_oracle_aggregate_rejects_labels_that_name_no_class(labels, message):
    # a cast to int64 would group node 1 with class 1; label 5 names no class
    S = _score(np.random.default_rng(4).uniform(size=(4, 3)))
    with pytest.raises(ValidationError) as exc:
        g.oracle_aggregate(S, np.array(labels), 1, 0.5, 1)
    assert str(exc.value) == message


def test_oracle_aggregate_reads_whole_float_labels_as_integers():
    S = _score(np.random.default_rng(4).uniform(size=(6, 3)))
    labels = np.array([0, 1, 2, 0, 1, 2])
    want = g.oracle_aggregate(S, labels, 1, 0.5, 7).values
    assert np.array_equal(g.oracle_aggregate(S, labels.astype(float), 1, 0.5, 7).values,
                          want)


def test_oracle_aggregate_m_zero_identity():
    rng = np.random.default_rng(6)
    S = _score(rng.uniform(size=(12, 3)))
    labels = rng.integers(0, 3, size=12)
    out = g.oracle_aggregate(S, labels, 0, 0.5, seed=1)
    assert np.array_equal(out.values, S.values)


def test_oracle_aggregate_two_node_class_averages():
    S = _score([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    labels = np.array([0, 0, 1])
    out = g.oracle_aggregate(S, labels, 1, 0.5, seed=0)
    avg = (S.values[0] + S.values[1]) / 2
    assert np.allclose(out.values[0], avg)
    assert np.allclose(out.values[1], avg)
    assert np.allclose(out.values[2], S.values[2])  # singleton class untouched


def test_oracle_aggregate_full_class_mean_excluding_self():
    rng = np.random.default_rng(7)
    S = _score(rng.uniform(size=(9, 4)))
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
    out = g.oracle_aggregate(S, labels, m=8, w=1.0, seed=3)
    for i in range(9):
        members = np.flatnonzero(labels == labels[i])
        others = members[members != i]
        assert np.allclose(out.values[i], S.values[others].mean(axis=0))


def test_oracle_aggregate_draws_without_replacement():
    rng = np.random.default_rng(8)
    labels = np.repeat(np.arange(3), 20)
    S = _score(rng.uniform(size=(60, 2)))
    sel, counts = g.propagate._same_label_prefixes(labels, 10, seed=4)
    for i in range(60):
        chosen = sel[i, :counts[i]]
        assert len(set(chosen.tolist())) == counts[i]
        assert i not in chosen
        assert (labels[chosen] == labels[i]).all()


def test_oracle_aggregate_nested_selection_prefixes():
    labels = np.repeat(np.arange(2), 15)
    sel4, _ = g.propagate._same_label_prefixes(labels, 4, seed=9)
    sel8, _ = g.propagate._same_label_prefixes(labels, 8, seed=9)
    assert np.array_equal(sel8[:, :4], sel4)


def test_oracle_mix_of_one_draw_at_the_largest_m_equals_oracle_aggregate():
    rng = np.random.default_rng(10)
    # a 3-node class (2 peers each, fewer than m for m > 2), a singleton and
    # a 20-node class, shuffled
    labels = rng.permutation(np.repeat([0, 1, 2], [3, 1, 20]))
    S = _score(rng.uniform(size=(labels.shape[0], 4)))
    sel, counts = g.propagate._same_label_prefixes(labels, 8, seed=5)
    for m in range(9):
        want = g.oracle_aggregate(S, labels, m, 0.5, seed=5).values
        got = g.propagate._oracle_mix(S, sel, counts, m, 0.5).values
        assert got.tobytes() == want.tobytes()


def _two_branch_oracle(values, labels, m, w, seed):
    """The oracle mix written out: rows with m peers mix through one
    (rows, m, K) gather's ``.mean(axis=1)``, rows of smaller classes one at a
    time through ``.mean(axis=0)``."""
    out = values.copy()
    if m == 0:
        return out
    sel, counts = g.propagate._same_label_prefixes(labels, m, seed)
    full = np.flatnonzero(counts == m)
    if full.size:
        mean = values[sel[full, :m]].mean(axis=1)
        out[full] = (1.0 - w) * values[full] + w * mean
    for i in np.flatnonzero((counts < m) & (counts > 0)):
        mean = values[sel[i, :counts[i]]].mean(axis=0)
        out[i] = (1.0 - w) * values[i] + w * mean
    return out


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=130), st.sampled_from([0.0, 0.3, 1.0]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_oracle_aggregate_equals_the_two_branch_mix_bit_for_bit(data, k, m, w, seed):
    # class sizes from singletons to past m + 1, so rows have no peers, fewer
    # than m or exactly m; K = 1 sums each mean pairwise past 8 peers.  The
    # labels are classes of the K score columns, so there are at most K
    sizes = data.draw(st.lists(st.one_of(st.just(1), st.integers(1, m + 2),
                                         st.integers(1, 140)),
                               min_size=1, max_size=min(k, 5)))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    labels = labels[np.random.default_rng(seed).permutation(labels.shape[0])]
    values = data.draw(arrays(np.float64, (labels.shape[0], k), elements=_MIX_CELLS))
    got = g.oracle_aggregate(_score(values), labels, m, w, seed).values
    assert got.tobytes() == _two_branch_oracle(values, labels, m, w, seed).tobytes()


# --- graph-free (image) correction ------------------------------------------

def test_image_snaps_eta_zero_identity(monkeypatch):
    rng = np.random.default_rng(9)
    S = _score(rng.uniform(size=(8, 3)))
    # eta = 0 looks up no neighbor
    monkeypatch.setattr(g.propagate, "_image_neighbors", None)
    out = g.image_snaps(S, rng.normal(size=(8, 4)), k=3, eta=0.0)
    assert np.array_equal(out.values, S.values)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_image_neighbors_are_the_arcs_of_the_knn_graph(k):
    # image mode and the k-NN graph read one list stage: with no similarity
    # floor, each row with features lists exactly its graph arcs, most
    # similar first.  Duplicated rows tie at 1, zero rows tie every column
    rng = np.random.default_rng(40 + k)
    feats = rng.normal(size=(12, 3))[rng.integers(0, 12, size=60)]
    feats[::11] = 0.0
    nbrs, zero = g.propagate._image_neighbors(feats, k)
    assert np.array_equal(zero, ~feats.any(axis=1))
    with pytest.warns(UserWarning, match="6 zero-norm feature row"):
        graph = g.build_knn_graph(feats, g.KnnConfig(k=k, min_similarity=-np.inf))
    for i in range(feats.shape[0]):
        cols, weights = graph.row(i)
        if zero[i]:
            assert cols.size == 0
            continue
        assert np.array_equal(np.sort(nbrs[i]), cols)
        assert (np.diff(weights[np.searchsorted(cols, nbrs[i])]) <= 0).all()


def test_image_snaps_full_pool_eta_one_gives_calib_mean():
    # k = n - 1: every row becomes the mean of all the other rows
    rng = np.random.default_rng(10)
    S = _score(rng.uniform(size=(7, 3)))
    out = g.image_snaps(S, rng.normal(size=(7, 4)), k=6, eta=1.0)
    for i in range(7):
        assert np.allclose(out.values[i], np.delete(S.values, i, axis=0).mean(axis=0))


def test_image_snaps_exclude_self():
    # every row has an exact twin; at k = 1 a row takes its twin, never
    # itself, though both have similarity 1
    rng = np.random.default_rng(11)
    S = _score(rng.uniform(size=(6, 2)))
    feats = rng.normal(size=(3, 3))[[0, 1, 2, 2, 0, 1]]
    out = g.image_snaps(S, feats, k=1, eta=1.0)
    assert np.array_equal(out.values, S.values[[4, 5, 3, 2, 0, 1]])


def _cosine(x, y):
    """x.y / (|x||y|); 0 when either vector has zero norm."""
    nx, ny = math.sqrt(float(np.dot(x, x))), math.sqrt(float(np.dot(y, y)))
    return 0.0 if nx == 0.0 or ny == 0.0 else float(np.dot(x, y) / (nx * ny))


def image_snaps_reference(S, feats, k, eta):
    """Brute force: per row, rank the other rows by (cosine desc, index asc)
    and mix with the plain mean of the first k; zero-norm rows stay."""
    out = S.values.copy()
    for i, x in enumerate(feats):
        if not np.any(x):
            continue
        ranked = sorted((-_cosine(x, y), j) for j, y in enumerate(feats) if j != i)
        nbrs = [j for _, j in ranked[:k]]
        out[i] = (1 - eta) * S.values[i] + eta * S.values[nbrs].mean(axis=0)
    return out


@pytest.mark.parametrize("zero_rows", [False, True])
def test_image_snaps_duplicate_calibration_rows_tie_to_smaller_index(zero_rows):
    rng = np.random.default_rng(14)
    # 5 distinct directions, each repeated 4 times at scattered indices, so
    # the k-th neighbor is tied with later duplicates; zero-norm rows tie
    # every row at similarity 0
    feats = rng.normal(size=(5, 3))[rng.permutation(np.repeat(np.arange(5), 4))]
    if zero_rows:
        feats[[3, 11, 12]] = 0.0
    S = _score(rng.uniform(size=(20, 3)))
    for k in (1, 2, 3, 6, 19):
        out = g.image_snaps(S, feats, k=k, eta=0.7)
        ref = image_snaps_reference(S, feats, k, 0.7)
        assert np.allclose(out.values, ref, rtol=0, atol=1e-12)


def test_image_snaps_zero_norm_rows_fall_back():
    rng = np.random.default_rng(12)
    S = _score(rng.uniform(size=(8, 2)))
    feats = rng.normal(size=(8, 4))
    feats[1] = 0.0
    out = g.image_snaps(S, feats, k=2, eta=0.8)
    assert np.array_equal(out.values[1], S.values[1])
    assert not np.array_equal(out.values[0], S.values[0])


def test_image_snaps_k_bounds():
    rng = np.random.default_rng(13)
    S, feats = _score(rng.uniform(size=(4, 2))), rng.normal(size=(4, 2))
    for k in (0, 4):
        with pytest.raises(ValidationError, match=rf"k={k} must lie in \[1, 3\]"):
            g.image_snaps(S, feats, k=k, eta=0.5)
    assert g.image_snaps(S, feats, k=3, eta=0.5).values.shape == (4, 2)


@pytest.mark.parametrize("side", ["eval", "calib"])
def test_image_snaps_rejects_non_finite_features(side):
    # the pool stacks calibration rows over evaluation rows, as the image
    # command does, and the error names the row of the pool
    rng = np.random.default_rng(16)
    S = _score(rng.uniform(size=(8, 2)))
    feats_calib, feats_eval = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    (feats_eval if side == "eval" else feats_calib)[2, 1] = np.nan
    row = 6 if side == "eval" else 2
    with pytest.raises(ValidationError, match=f"features: non-finite value at row {row}, col 1"):
        g.image_snaps(S, np.concatenate([feats_calib, feats_eval]), k=2, eta=0.5)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_image_snaps_is_permutation_equivariant_bit_for_bit(data):
    n = data.draw(st.integers(2, 40), label="n")
    d = data.draw(st.integers(2, 5), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    feats = rng.normal(size=(n, d))
    feats[rng.permutation(n)[:data.draw(st.integers(0, 3), label="zero_rows")]] = 0.0
    k = data.draw(st.integers(1, n - 1), label="k")
    # tie-free: each row with features has k + 1 distinct leading
    # similarities, so its neighbors and their order do not hang on indices
    normed, zero = g.graph._normalized_rows(feats)
    sims = g.graph._pairwise_sims(normed, normed)
    np.fill_diagonal(sims, -np.inf)
    lead = -np.sort(-sims, axis=1)[~zero, :k + 1]
    assume((np.diff(lead, axis=1) < 0).all())
    S = _score(rng.uniform(size=(n, data.draw(st.integers(1, 4), label="K"))))
    eta = data.draw(st.sampled_from([0.3, 0.5, 1.0]), label="eta")
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    out = g.image_snaps(S, feats, k, eta).values
    moved = g.image_snaps(_score(S.values[perm]), feats[perm], k, eta).values
    assert np.array_equal(moved.view(np.int64), out[perm].view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_image_mix_has_the_bits_of_the_gathered_mean(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    k = data.draw(st.integers(1, 40), label="k")
    num_cols = data.draw(st.integers(1, 20), label="K")
    n_rows, n_values = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 50))
    # magnitudes over 12 decades and signed zeros, so the order of the
    # additions and the starting zero both show in the bits
    values = rng.random((n_values, num_cols)) * 10.0 ** rng.integers(
        -6, 7, size=(n_values, num_cols))
    values[rng.random(values.shape) < 0.1] = -0.0
    v = rng.random((n_rows, num_cols))
    nbrs = rng.integers(0, n_values, size=(n_rows, k))
    keep = rng.random(n_rows) < 0.2
    eta = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]), label="eta")
    want = (1.0 - eta) * v + eta * np.take(values, nbrs, axis=0).mean(axis=1)
    want[keep] = v[keep]
    got = g.propagate._image_mix(v, values, nbrs, eta, keep)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
