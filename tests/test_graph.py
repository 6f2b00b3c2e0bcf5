import math
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcp as g
from graphcp.errors import ValidationError


def _cosine(x, y):
    """x.y / (|x||y|); 0 when either vector has zero norm."""
    nx, ny = math.sqrt(float(np.dot(x, x))), math.sqrt(float(np.dot(y, y)))
    return 0.0 if nx == 0.0 or ny == 0.0 else float(np.dot(x, y) / (nx * ny))


def brute_force_knn(features, k, min_similarity=0.0):
    """O(n^2) reference: per node, top-k by (similarity desc, index asc)."""
    n = features.shape[0]
    rows = []
    for i in range(n):
        cands = []
        for j in range(n):
            if j == i:
                continue
            sim = _cosine(features[i], features[j])
            if sim > min_similarity:
                cands.append((-sim, j))
        cands.sort()
        chosen = sorted((j, -negsim) for negsim, j in cands[:k])
        rows.append(chosen)
    return rows


def argsort_knn(features, k, min_similarity=0.0, sample_size=None, seed=0):
    """Per-row reference with the same similarities as build_knn_graph: a
    stable argsort of each row's negated similarities (ties to the smaller
    index)."""
    normed, _ = g.graph._normalized_rows(np.asarray(features, dtype=np.float64))
    n = normed.shape[0]
    rows = []
    for i in range(n):
        if sample_size is None:
            cand = np.arange(n)
        else:
            rng = np.random.default_rng([seed & 0xFFFFFFFF, i])
            cand = np.sort(rng.choice(n - 1, size=min(sample_size, n - 1), replace=False))
            cand[cand >= i] += 1
        sims = g.graph._pairwise_sims(normed[cand], normed[i:i + 1])[:, 0]
        sims[cand == i] = -np.inf
        order = np.argsort(-sims, kind="stable")[:k]
        order = order[sims[order] > min_similarity]
        rows.append(sorted(zip(cand[order].tolist(), sims[order].tolist())))
    return rows


def assert_same_graph(a, b):
    for name in ("row_offsets", "col_indices", "weights", "degrees"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def graph_rows(graph):
    return [sorted(zip(map(int, graph.row(i)[0]), graph.row(i)[1]))
            for i in range(graph.n)]


def test_knn_three_node_example():
    feats = np.array([[1, 0], [1, 0.01], [0, 1]], dtype=float)
    graph = g.build_knn_graph(feats, g.KnnConfig(k=1))
    arcs = {(i, int(graph.row(i)[0][0])) for i in range(3)}
    assert arcs == {(0, 1), (1, 0), (2, 1)}


def test_knn_k_zero_gives_empty_graph():
    feats = np.random.default_rng(0).normal(size=(5, 3))
    graph = g.build_knn_graph(feats, g.KnnConfig(k=0))
    assert graph.nnz == 0
    assert np.all(graph.degrees == 0)


def test_knn_duplicate_rows_weight_one():
    feats = np.array([[2.0, 1.0], [2.0, 1.0]])
    graph = g.build_knn_graph(feats, g.KnnConfig(k=1))
    for i in range(2):
        cols, w = graph.row(i)
        assert int(cols[0]) == 1 - i
        assert w[0] == pytest.approx(1.0, abs=1e-12)


def test_knn_matches_bruteforce_on_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, min(n - 1, 6) + 1))
        feats = rng.normal(size=(n, d))
        graph = g.build_knn_graph(feats, g.KnnConfig(k=k))
        expected = brute_force_knn(feats, k)
        actual = graph_rows(graph)
        for exp_row, act_row in zip(expected, actual):
            assert [j for j, _ in exp_row] == [j for j, _ in act_row]
            for (_, se), (_, sa) in zip(exp_row, act_row):
                assert sa == pytest.approx(se, abs=1e-6)


def test_sampled_full_pool_equals_exact():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(40, 5))
    exact = g.build_knn_graph(feats, g.KnnConfig(k=3))
    sampled = g.build_knn_graph(feats, g.KnnConfig(k=3, sample_size=39, seed=5))
    assert np.array_equal(exact.row_offsets, sampled.row_offsets)
    assert np.array_equal(exact.col_indices, sampled.col_indices)
    assert np.array_equal(exact.weights, sampled.weights)


def test_sampled_mode_deterministic():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(60, 4))
    cfg = g.KnnConfig(k=2, sample_size=30, seed=11)
    g1 = g.build_knn_graph(feats, cfg)
    g2 = g.build_knn_graph(feats, cfg)
    assert np.array_equal(g1.col_indices, g2.col_indices)
    assert np.array_equal(g1.weights, g2.weights)
    g3 = g.build_knn_graph(feats, g.KnnConfig(k=2, sample_size=30, seed=12))
    assert not (np.array_equal(g1.col_indices, g3.col_indices)
                and np.array_equal(g1.weights, g3.weights))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_k_matches_stable_argsort_with_heavy_ties(data):
    rows = data.draw(st.integers(min_value=1, max_value=6))
    width = data.draw(st.integers(min_value=1, max_value=30))
    k = data.draw(st.integers(min_value=1, max_value=width))
    cells = st.one_of(st.integers(min_value=-2, max_value=2).map(float),
                      st.just(-np.inf))
    sims = np.array(data.draw(st.lists(cells, min_size=rows * width,
                                       max_size=rows * width))).reshape(rows, width)
    expected = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    cols, vals = g.graph._top_k(sims.copy(), k)
    assert np.array_equal(cols, expected)
    assert np.array_equal(vals, np.take_along_axis(sims, expected, axis=1))


@pytest.mark.parametrize("sample_size", [None, 40])
def test_knn_chunk_boundaries_bit_exact(monkeypatch, sample_size):
    rng = np.random.default_rng(21)
    n, k, d = 60, 4, 3
    # rows drawn from 6 distinct directions: every row's k-th similarity is
    # shared by several candidates
    feats = rng.normal(size=(6, d))[rng.integers(0, 6, size=n)]
    cfg = g.KnnConfig(k=k, sample_size=sample_size, seed=9)
    whole = g.build_knn_graph(feats, cfg)
    # n = one chunk plus one row, and a one-row chunk per step
    for rows_per_chunk in (n - 1, 7, 1):
        if sample_size is None:
            monkeypatch.setattr(g.graph, "_CHUNK_TARGET", 2 * n * rows_per_chunk)
        else:
            monkeypatch.setattr(g.graph, "_SAMPLED_GATHER", sample_size * d * rows_per_chunk)
        assert_same_graph(g.build_knn_graph(feats, cfg), whole)
    expected = argsort_knn(feats, k, sample_size=sample_size, seed=9)
    assert graph_rows(whole) == expected


def test_knn_just_above_one_chunk_matches_argsort_reference():
    rng = np.random.default_rng(22)
    # the smallest n that needs a second chunk of rows
    n = next(m for m in range(2, 1 << 12) if g.graph._block_rows(m) < m)
    feats = rng.normal(size=(n, 4))
    feats[n - 1] = feats[0]  # a duplicate across the chunk boundary
    feats[n - 2] = feats[3]
    graph = g.build_knn_graph(feats, g.KnnConfig(k=5))
    assert graph_rows(graph) == argsort_knn(feats, 5)


def test_knn_rejects_k_ge_n():
    feats = np.zeros((3, 2))
    with pytest.raises(ValidationError, match="k=3"):
        g.build_knn_graph(feats, g.KnnConfig(k=3))


def test_sample_size_must_dominate_k():
    with pytest.raises(ValidationError, match="sample_size"):
        g.KnnConfig(k=5, sample_size=20)


def test_sample_size_cannot_exceed_n():
    feats = np.zeros((5, 2))
    with pytest.raises(ValidationError, match="exceeds n"):
        g.build_knn_graph(feats, g.KnnConfig(k=0, sample_size=10))


def test_exact_mode_size_guard():
    feats = np.zeros((g.graph.EXACT_MODE_MAX_N + 1, 1))
    with pytest.raises(ValidationError, match="exact-mode limit"):
        g.build_knn_graph(feats, g.KnnConfig(k=1))


def test_zero_norm_rows_warn_and_stay_isolated():
    feats = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.1]])
    with pytest.warns(UserWarning, match="zero-norm"):
        graph = g.build_knn_graph(feats, g.KnnConfig(k=1))
    assert graph.row(1)[0].shape[0] == 0
    assert graph.row(0)[0].shape[0] == 1


def test_degrees_match_row_sums(small_bundle):
    graph = g.adjacency_graph(small_bundle.n, small_bundle.edges)
    for i in range(0, graph.n, 37):
        assert graph.degrees[i] == pytest.approx(math.fsum(graph.row(i)[1]))


def _fsum_rows(row_offsets, col_indices, weights, values):
    out = np.zeros((row_offsets.shape[0] - 1, values.shape[1]))
    for i in range(out.shape[0]):
        arcs = slice(row_offsets[i], row_offsets[i + 1])
        for c in range(values.shape[1]):
            out[i, c] = math.fsum(values[col_indices[arcs], c] * weights[arcs])
    return out


def _row_terms(rng, size, num_cols, families, cancel):
    """One row's (size, num_cols) terms, each from one of ``families``:
    0, small integers and multiples of 2^-53 (sums hit half-ulp ties);
    1, signed zeros; 2, magnitudes 1e-300..1e300.  ``cancel`` makes the
    second half of the row the negated first half."""
    shape = (size, num_cols)
    grid = np.where(rng.random(shape) < 0.3, rng.integers(-3, 4, shape),
                    rng.integers(-2 ** 12, 2 ** 12, shape) * 2.0 ** -53)
    zeros = rng.choice([0.0, -0.0], shape)
    wide = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    terms = np.choose(rng.choice(sorted(families), shape), [grid, zeros, wide])
    if cancel:
        half = size // 2
        terms[half:2 * half] = -terms[:half]
    return rng.permutation(terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_row_sums_equal_fsum_bit_for_bit(data):
    lengths = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 7, 38, 41]),
                                 min_size=1, max_size=12))
    num_cols = data.draw(st.integers(min_value=1, max_value=3))
    families = data.draw(st.sets(st.sampled_from([0, 1, 2]), min_size=1))
    cancel = data.draw(st.booleans())
    unit_weights = data.draw(st.booleans())
    block = data.draw(st.sampled_from([1, 5, g.graph._SUM_BLOCK]))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    row_offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    # every arc reads its own value row, so the terms are exactly as drawn
    values = np.concatenate([np.empty((0, num_cols))]
                            + [_row_terms(rng, m, num_cols, families, cancel)
                               for m in lengths])
    cols = np.arange(values.shape[0])
    weights = (np.ones(cols.shape[0]) if unit_weights
               else rng.uniform(0.5, 2.0, cols.shape[0]))
    with mock.patch.object(g.graph, "_SUM_BLOCK", block):
        got = g.graph._exact_row_sums(row_offsets, cols, weights, values)
    want = _fsum_rows(row_offsets, cols, weights, values)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_exact_row_sums_fall_back_to_fsum_only_where_uncertified(monkeypatch):
    rows = [
        # s + e rounds to 1, and the 2^-106 left in a2 pushes the exact sum
        # past the half-ulp tie: not certifiable, fsum rounds up
        [1.0, 2.0 ** -53, 2.0 ** -106],
        # an exact half-ulp tie, certified by a2 == 0: round half to even
        [1.0, 2.0 ** -53],
        [0.25, 0.5, 1.0 / 3.0],
    ]
    values = np.concatenate(rows)[:, None]
    row_offsets = np.array([0, 3, 5, 8])
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: calls.append(len(terms)) or fsum(terms))
    got = g.graph._exact_row_sums(row_offsets, np.arange(8), np.ones(8), values)
    assert calls == [3]
    assert got[:, 0].tolist() == [1.0 + 2.0 ** -52, 1.0, fsum(rows[2])]


def test_duplicate_arcs_rejected():
    with pytest.raises(ValidationError, match="duplicate arc"):
        g.from_arcs(3, [(0, 1), (0, 1)])


def test_knn_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(30, 4))
    feat_file = tmp_path / "x.snpm"
    g.write_matrix(feats, feat_file)
    loaded = g.load_matrix(feat_file)
    cfg = g.KnnConfig(k=3, seed=2)
    graph = g.build_knn_graph(loaded, cfg)
    digest = g.matrixio.file_sha256(feat_file)
    cache = tmp_path / "knn.snpg"
    g.save_knn_cache(graph, cache, digest, cfg)
    back = g.load_knn_cache(cache, digest, cfg)
    assert np.array_equal(back.row_offsets, graph.row_offsets)
    assert np.array_equal(back.col_indices, graph.col_indices)
    assert np.array_equal(back.weights, graph.weights)
    with pytest.raises(ValidationError, match="mismatch"):
        g.load_knn_cache(cache, digest, g.KnnConfig(k=4, seed=2))
    with pytest.raises(ValidationError, match="mismatch"):
        g.load_knn_cache(cache, b"\x00" * 32, cfg)


def _cache_file(tmp_path):
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(30, 4))
    cfg = g.KnnConfig(k=3, seed=2)
    digest = b"\x01" * 32
    cache = tmp_path / "knn.snpg"
    g.save_knn_cache(g.build_knn_graph(feats, cfg), cache, digest, cfg)
    return cache, digest, cfg


@pytest.mark.parametrize("where", ["offsets", "columns", "weights", "trailing"])
def test_knn_cache_wrong_length_is_validation_error(tmp_path, where):
    cache, digest, cfg = _cache_file(tmp_path)
    raw = cache.read_bytes()
    header = 4 + struct.calcsize("<IQIIqd") + 32
    n, nnz = 30, 30 * 3
    cut = {
        "offsets": header + 8 * (n + 1) // 2,
        "columns": header + 8 * (n + 1) + 4 * nnz // 2,
        "weights": len(raw) - 17,
    }
    assert len(raw) == header + 8 * (n + 1) + 12 * nnz
    cache.write_bytes(raw + b"\x00" * 3 if where == "trailing" else raw[:cut[where]])
    with pytest.raises(ValidationError, match="knn.snpg.*bytes, expected"):
        g.load_knn_cache(cache, digest, cfg)


def test_failed_cache_write_keeps_previous_cache(tmp_path):
    cache, digest, cfg = _cache_file(tmp_path)
    before = cache.read_bytes()

    class BrokenWeights:
        def astype(self, dtype):
            raise OSError(28, "No space left on device")

    graph = g.build_knn_graph(np.random.default_rng(9).normal(size=(30, 4)), cfg)
    half_written = SimpleNamespace(n=graph.n, nnz=graph.nnz,
                                   row_offsets=graph.row_offsets,
                                   col_indices=graph.col_indices,
                                   weights=BrokenWeights())
    with pytest.raises(OSError, match="No space"):
        g.save_knn_cache(half_written, cache, digest, cfg)
    assert cache.read_bytes() == before
    assert list(tmp_path.iterdir()) == [cache]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corrupt_knn_cache_is_validation_error_naming_the_file(tmp_path_factory, data):
    cache, digest, cfg = _cache_file(tmp_path_factory.mktemp("cache"))
    raw = cache.read_bytes()
    kind = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if kind == "truncate":
        bad = raw[:data.draw(st.integers(min_value=0, max_value=len(raw) - 1))]
    elif kind == "flip":
        bit = data.draw(st.integers(min_value=0, max_value=8 * len(raw) - 1))
        bad = bytearray(raw)
        bad[bit // 8] ^= 1 << (bit % 8)
    else:
        bad = raw + data.draw(st.binary(min_size=1, max_size=64))
    cache.write_bytes(bytes(bad))
    try:
        g.load_knn_cache(cache, digest, cfg)
    except ValidationError as exc:
        assert str(cache) in str(exc)
    else:
        # a flipped weight or column bit can still leave a valid graph
        assert kind == "flip"
