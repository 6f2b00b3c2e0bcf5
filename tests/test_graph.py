import itertools
import math
import tracemalloc
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


_MASK64 = (1 << 64) - 1


def draw_sequence(seed, i, span):
    """Row i's draws floor(u(seed, i, j) * span), j = 0, 1, 2, ..., with the
    counter hash written out one draw at a time in Python integers."""
    base = g.scores._mix_int(seed ^ g.scores._GOLDEN)
    row = g.scores._mix_int(base ^ (i * g.scores._MIX1 & _MASK64))
    for j in itertools.count():
        h = g.scores._mix_int(row ^ (j * g.scores._MIX2 & _MASK64))
        yield math.floor((h >> 11) * 2.0 ** -53 * span)


def first_distinct(seed, i, span, count):
    """The first ``count`` distinct values of row i's draw sequence, in draw
    order."""
    seen = {}
    for value in draw_sequence(seed, i, span):
        if len(seen) == count:
            break
        seen.setdefault(value, None)
    return list(seen)


def reference_pool(seed, i, n, m):
    """Row i's sampled candidate pool: the first m distinct draws over the
    other n - 1 nodes (or all but the first n - 1 - m when m > (n - 1) / 2),
    shifted past i and sorted."""
    span = n - 1
    if 2 * m <= span:
        values = first_distinct(seed, i, span, m)
    else:
        values = set(range(span)) - set(first_distinct(seed, i, span, span - m))
    return sorted(v + (v >= i) for v in values)


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
            cand = np.array(reference_pool(seed, i, n, min(sample_size, n - 1)))
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sampled_pools_match_scalar_draw_walk(data):
    n = data.draw(st.integers(min_value=2, max_value=60))
    span = n - 1
    # both sides of the complement switch at m = span / 2, and m = n - 1
    m = data.draw(st.one_of(st.integers(min_value=1, max_value=span),
                            st.sampled_from([max(1, span // 2), span // 2 + 1, span])))
    seed = data.draw(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1))
    rows_per_chunk = data.draw(st.integers(min_value=1, max_value=n))
    slack = data.draw(st.sampled_from([0, 1, 16, 100]))
    d = 2
    normed, _ = g.graph._normalized_rows(
        np.random.default_rng(0).normal(size=(n, d)))
    with mock.patch.object(g.graph, "_SAMPLED_GATHER", m * d * rows_per_chunk), \
            mock.patch.object(g.graph, "_DRAW_SLACK", slack):
        # k = m keeps every pool member, in similarity order
        blocks = list(g.graph._sampled_blocks(normed, m, m, seed))
    assert [start for start, *_ in blocks] == list(range(0, n, rows_per_chunk))
    for start, stop, cols, _ in blocks:
        for i in range(start, stop):
            assert sorted(cols[i - start].tolist()) == reference_pool(seed, i, n, m)


@pytest.mark.parametrize("m", [20, 60])
def test_sampled_pools_are_uniform(m):
    """Each of the 99 other nodes enters a pool with probability m / 99;
    over R pools its count is Binomial(R, m / 99), so the standardized sum
    of squares is about chi-square with 98 df (99.9 % quantile 148.2)."""
    n, span = 100, 99
    counts = np.zeros(span)
    for seed in range(20):
        pools = g.graph._sample_pools(seed, np.arange(n), n, m)
        np.add.at(counts, pools - (pools > np.arange(n)[:, None]), 1)
    trials, p = 20 * n, m / span
    chi2 = float((((counts - trials * p) ** 2) / (trials * p * (1 - p))).sum())
    assert chi2 < 148.2


def test_row_short_of_distinct_draws_extends_its_own_sequence():
    seed, span, m = 3, 999, 20
    # a row whose first m draws repeat a value needs more than m draws
    short = next(i for i in itertools.count()
                 if len(set(itertools.islice(draw_sequence(seed, i, span), m))) < m)
    rows = np.array([short + 1, short, short + 2])
    expected = [sorted(first_distinct(seed, int(i), span, m)) for i in rows]
    for draws in (m, m + 1, 4 * m):
        got = g.graph._distinct_draws(seed, rows, span, m, draws)
        assert got.tolist() == expected


def int64_distinct_draws(seed, rows, span, count, draws):
    """_distinct_draws one row at a time with int64 keys ``value << bits |
    position`` in every round."""
    out = []
    for row in rows:
        d = draws
        while True:
            bits = (d - 1).bit_length()
            pos = np.arange(d, dtype=np.int64)
            u = g.scores._counter_uniform(seed, np.array([row]), pos)[0]
            keys = np.sort((u * span).astype(np.int64) << bits | pos)
            values = keys >> bits
            first = np.concatenate([[True], values[1:] != values[:-1]])
            if first.sum() >= count:
                earliest = np.argsort(keys[first] & (1 << bits) - 1)[:count]
                out.append(np.sort(values[first][earliest]))
                break
            d *= 2
    return np.array(out).reshape(len(rows), count)


# draws = 512 makes 9-bit positions: span << 9 lies just below 2^31 - 1 at
# the first span and just above it at the second; far above it at the third
@pytest.mark.parametrize("span, dtypes", [((2 ** 31 - 1) >> 9, [np.int32, np.int64]),
                                          (((2 ** 31 - 1) >> 9) + 1, [np.int64, np.int64]),
                                          (2 ** 40, [np.int64])])
def test_distinct_draws_keys_switch_to_int64_where_int32_cannot_hold_them(
        monkeypatch, span, dtypes):
    seed, draws = 5, 512
    # a row whose 512 draws repeat a value (about 3 % of rows at the first
    # two spans, none at the third) is redone on 1024 draws, with 10-bit
    # positions, which no longer fit int32 keys at the first span
    values = np.sort((g.scores._counter_uniform(seed, np.arange(100), np.arange(draws))
                      * span).astype(np.int64), axis=1)
    repeats = np.flatnonzero((values[:, 1:] == values[:, :-1]).any(axis=1))
    rows = np.concatenate([repeats[:1], [100, 101, 102]])
    real = g.scores._counter_uniform
    key_dtypes = []

    def spy(seed, rows, cols):
        key_dtypes.append(cols.dtype)  # the positions have the keys' dtype
        return real(seed, rows, cols)

    monkeypatch.setattr(g.graph, "_counter_uniform", spy)
    got = g.graph._distinct_draws(seed, rows, span, draws, draws)
    assert key_dtypes == dtypes
    assert got.dtype == np.int64
    assert np.array_equal(got, int64_distinct_draws(seed, rows, span, draws, draws))


def reference_sampled_graph(features, k, m, seed, min_similarity):
    """The sampled graph without its screen: every member of row i's pool
    scored by _candidate_top_k, its arcs kept as build_knn_graph keeps them."""
    normed, zero = g.graph._normalized_rows(features)
    n = normed.shape[0]
    pools = g.graph._sample_pools(seed, np.arange(n), n, m)
    cols, sims = g.graph._candidate_top_k(normed, normed, pools, k)
    keep = (sims > min_similarity) & ~zero[:, None]
    arcs = np.stack([np.repeat(np.arange(n), k).reshape(n, k)[keep], cols[keep]], axis=1)
    return g.graph.from_arcs(n, arcs, sims[keep])


@pytest.mark.filterwarnings("ignore:.*zero-norm")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_screened_pools_match_full_pool_scoring_bit_for_bit(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # pools of at most 256 members are one column per screen group; wider
    # ones group several columns, and most take the complement draw
    wide = data.draw(st.booleans(), label="wide")
    n = data.draw(st.integers(258, 400) if wide else st.integers(11, 257), label="n")
    m = data.draw(st.integers(257, n - 1) if wide else st.integers(10, n - 1), label="m")
    k = data.draw(st.integers(1, min(m // 10, 8)), label="k")
    d = data.draw(st.integers(1, 16), label="d")
    kind = data.draw(st.sampled_from(["rounded", "palette", "normal"]), label="kind")
    # rounded cells and palette rows (duplicates) tie at the k-th value
    if kind == "rounded":
        feats = np.round(rng.normal(size=(n, d)))
    elif kind == "palette":
        palette = rng.normal(size=(int(rng.integers(1, 6)), d))
        feats = palette[rng.integers(0, palette.shape[0], size=n)]
    else:
        feats = rng.normal(size=(n, d))
    feats[rng.random(n) < 0.1] = 0.0
    min_similarity = data.draw(st.sampled_from([0.0, -2.0]), label="min_similarity")
    seed = data.draw(st.integers(0, 2**32 - 1), label="pool_seed")
    want = reference_sampled_graph(feats, k, m, seed, min_similarity)
    rows = data.draw(st.integers(1, n), label="rows_per_chunk")
    # from "every row falls back" to "no row passes too many candidates"
    cap = data.draw(st.integers(0, m + 1), label="cap")
    with mock.patch.object(g.graph, "_SAMPLED_GATHER", m * d * rows), \
            mock.patch.object(g.graph, "_RESCORE_SLACK", cap - 4 * k):
        got = g.build_knn_graph(feats, g.KnnConfig(k=k, sample_size=m, seed=seed,
                                                   min_similarity=min_similarity))
    assert_same_graph(got, want)


def test_screened_pools_fall_back_to_the_whole_pool_for_rows_over_the_cap(monkeypatch):
    rng = np.random.default_rng(34)
    k, m = 2, 300
    spread = np.zeros((200, 4))
    spread[:, :3] = rng.normal(size=(200, 3))
    same = np.zeros((200, 4))
    same[:, 3] = 1.0  # orthogonal to the spread rows
    feats = np.concatenate([spread, same, np.zeros((3, 4))])
    order = rng.permutation(feats.shape[0])
    feats = feats[order]
    n = feats.shape[0]
    normed = g.graph._normalized_rows(feats)[0]
    pools = g.graph._sample_pools(7, np.arange(n), n, m)
    # a duplicate's pool holds about 150 twins (sim 1) and a zero row's
    # screen ties every member at 0: both pass more than the cap
    # 4k + 64 = 72; a spread row passes about k
    uncertified = np.flatnonzero(order >= 200)
    real = g.graph._candidate_top_k
    whole_pools = []

    def spy(queries, base, cand, k, counts=None):
        if counts is None:  # the fallback scores whole pools
            whole_pools.append((queries, cand))
        return real(queries, base, cand, k, counts)

    monkeypatch.setattr(g.graph, "_candidate_top_k", spy)
    want = reference_sampled_graph(feats, k, m, 7, 0.0)
    monkeypatch.setattr(g.graph, "_SAMPLED_GATHER", m * 4 * 50)
    for slack, expected in ((g.graph._RESCORE_SLACK, uncertified),
                            (-10 ** 9, np.arange(n)),       # every row over the cap
                            (10 ** 9, np.arange(0))):       # no row over it
        monkeypatch.setattr(g.graph, "_RESCORE_SLACK", slack)
        whole_pools.clear()
        with pytest.warns(UserWarning, match="zero-norm"):
            got = g.build_knn_graph(feats, g.KnnConfig(k=k, sample_size=m, seed=7))
        assert_same_graph(got, want)
        queries = np.concatenate([q for q, _ in whole_pools] or [np.empty((0, 4))])
        cand = np.concatenate([c for _, c in whole_pools] or [np.empty((0, m), np.int64)])
        assert np.array_equal(queries, normed[expected])
        assert np.array_equal(cand, pools[expected])


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


def reference_top_k_blocks(normed, k):
    """The kernel without its screen, as reference: every similarity from
    _pairwise_sims, each row's own column dropped, every row selected by
    _top_k."""
    sims = g.graph._pairwise_sims(normed, normed)
    np.fill_diagonal(sims, -np.inf)
    return g.graph._top_k(sims, k)


def screened_top_k(normed, k):
    """_top_k_blocks' chunks joined into (rows, k) columns and similarities."""
    cols = np.empty((normed.shape[0], k), dtype=np.int64)
    vals = np.empty((normed.shape[0], k))
    for start, stop, c, v in g.graph._top_k_blocks(normed, k):
        cols[start:stop], vals[start:stop] = c, v
    return cols, vals


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _screen_features(rng, kind, n, d):
    """(n, d) features: ``grid`` cells from a small value grid (ties, zero
    rows), ``palette`` rows from a few grid rows (duplicates), ``normal``
    cells; some rows zeroed, each row scaled by 10^-170..10^150 (below about
    10^-154 the squared norm underflows, and the row is rescaled by a power
    of two before it is normalized)."""
    grid = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    if kind == "grid":
        feats = rng.choice(grid, size=(n, d))
    elif kind == "palette":
        palette = rng.choice(grid, size=(int(rng.integers(1, 5)), d))
        feats = palette[rng.integers(0, palette.shape[0], size=n)]
    else:
        feats = rng.normal(size=(n, d))
    feats[rng.random(n) < 0.1] = 0.0
    return feats * 10.0 ** rng.integers(-170, 151, size=(n, 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_screened_top_k_blocks_match_full_scoring_bit_for_bit(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(["grid", "palette", "normal"]), label="kind")
    # up to 40 rows with any k, where the screen's groups are mostly single
    # columns, or up to 300 with k <= 10: groups of several columns, and
    # usually n mod ng leftover columns, once the group floor is patched
    # below n
    wide = data.draw(st.booleans(), label="wide")
    n = data.draw(st.integers(41, 300) if wide else st.integers(2, 40), label="n")
    d = data.draw(st.integers(1, 64), label="d")
    normed = g.graph._normalized_rows(_screen_features(rng, kind, n, d))[0]
    k = data.draw(st.integers(1, min(n - 1, 10) if wide else n - 1), label="k")
    if data.draw(st.booleans(), label="nan"):
        # a NaN row (build_knn_graph rejects NaN features, but the kernel
        # does not rely on that) makes the screen non-finite; the last row
        # is a leftover column of the screen's groups when n mod ng > 0
        normed[data.draw(st.sampled_from([0, n - 1]), label="nan_row"), 0] = np.nan
    want = reference_top_k_blocks(normed, k)
    # chunks of 1 to n rows, and a cap from "every row falls back" to "no
    # row passes too many candidates"
    rows = data.draw(st.integers(1, n), label="rows_per_chunk")
    cap = data.draw(st.integers(0, n + 1), label="cap")
    groups = data.draw(st.sampled_from([1, 16, g.graph._SCREEN_GROUPS]), label="groups")
    with mock.patch.object(g.graph, "_CHUNK_TARGET", 2 * n * rows), \
            mock.patch.object(g.graph, "_RESCORE_SLACK", cap - 4 * k), \
            mock.patch.object(g.graph, "_SCREEN_GROUPS", groups):
        assert_same_bits(screened_top_k(normed, k), want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_screen_bound_never_exceeds_the_kth_screen_value(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n_b = data.draw(st.integers(1, 300), label="n_b")
    k = data.draw(st.integers(0, min(n_b, 40)), label="k")
    rows = data.draw(st.integers(1, 6), label="rows")
    # few distinct values give ties within and across groups; -inf stands
    # for dropped columns
    palette = np.array([-np.inf, -1.0, -0.25, 0.0, 0.5, 0.5000000000000001, 1.0])
    if data.draw(st.booleans(), label="ties"):
        screen = rng.choice(palette, size=(rows, n_b))
    else:
        screen = rng.uniform(-1.0, 1.0, size=(rows, n_b))
    # a floor of 1 leaves 4k groups; 16 and the real floor give more
    groups = data.draw(st.sampled_from([1, 16, g.graph._SCREEN_GROUPS]), label="groups")
    with mock.patch.object(g.graph, "_SCREEN_GROUPS", groups):
        bound, top = g.graph._screen_bound(screen.copy(), k)
    kth = np.sort(screen, axis=1)[:, n_b - max(k, 1)]
    assert (bound <= kth).all()
    assert np.array_equal(top, screen.max(axis=1))
    if max(4 * max(k, 1), groups) >= n_b:  # one column per group: the bound is exact
        assert np.array_equal(bound, kth)


def test_screen_bound_carries_nan_from_a_leftover_column():
    # k = 3 takes the floor's ng groups of 2 columns; the 5 columns past
    # 2 ng fold into groups 0..4
    ng = max(12, g.graph._SCREEN_GROUPS)
    screen = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 2 * ng + 5))
    screen[1, 2 * ng + 3] = np.nan
    bound, top = g.graph._screen_bound(screen, 3)
    assert np.isnan(top[1]) and np.isfinite(top[[0, 2]]).all()
    assert np.isfinite(bound[[0, 2]]).all()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gathered_sims_have_the_bits_of_pairwise_sims(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    d = data.draw(st.integers(1, 64), label="d")
    n_q, n_b = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 40))
    queries = g.graph._normalized_rows(rng.normal(size=(n_q, d)))[0]
    base = g.graph._normalized_rows(rng.normal(size=(n_b, d)))[0]
    cols = rng.integers(0, n_b, size=(n_q, data.draw(st.integers(1, 50))))
    want = np.take_along_axis(g.graph._pairwise_sims(queries, base), cols, axis=1)
    got = g.graph._gathered_sims(queries, base, cols)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_screen_off_by_a_dot_products_rounding_bound_selects_the_same(monkeypatch):
    rng = np.random.default_rng(31)
    n, d, k = 300, 6, 7
    # 12 directions: each row's k-th similarity is 1, shared by about 24
    # duplicates, which shifts of either sign reorder in the screen
    feats = rng.normal(size=(12, d))[rng.integers(0, 12, size=n)]
    normed = g.graph._normalized_rows(feats)[0]
    want = reference_top_k_blocks(normed, k)
    # a float32 dot product of unit rows, inputs rounded to float32, is
    # within about (d + 2) 2^-24 of the real one; the screen must tolerate
    # that on top of its own rounding
    shift = (d + 2) * 2.0 ** -24 * rng.choice([-1.0, 1.0], size=(n, n))
    real = np.matmul

    def shifted(a, b, out):
        real(a, b, out=out)
        out += shift[:out.shape[0], :out.shape[1]]
        return out

    monkeypatch.setattr(np, "matmul", shifted)
    assert_same_bits(screened_top_k(normed, k), want)


def test_screen_orders_similarities_closer_than_float32_resolution():
    rng = np.random.default_rng(33)
    n, d, k = 300, 8, 6
    # 8 unit directions whose first d - 1 entries sit halfway between two
    # float32 values, each copied 30 times with every entry perturbed by
    # about 1e-9, and 60 free rows.  The perturbation picks each entry's
    # float32 rounding at random, so the float32 screen orders the copies at
    # random, while their similarities, to a free row or to a twin, differ
    # below float32 resolution (about 6e-8 near 1) and are decided in float64
    base = g.graph._normalized_rows(rng.normal(size=(8, d)))[0]
    low = base[:, :-1].astype(np.float32)
    base[:, :-1] = (low.astype(np.float64)
                    + np.nextafter(low, np.float32(np.inf)).astype(np.float64)) / 2
    base[:, -1] = np.sqrt(1.0 - (base[:, :-1] ** 2).sum(axis=1))
    copies = base[np.repeat(np.arange(8), 30)]
    feats = np.concatenate([copies + 1e-9 * rng.normal(size=copies.shape),
                            rng.normal(size=(60, d))])
    normed = g.graph._normalized_rows(feats[rng.permutation(n)])[0]
    assert_same_bits(screened_top_k(normed, k), reference_top_k_blocks(normed, k))


def test_screen_falls_back_exactly_for_rows_it_cannot_certify(monkeypatch):
    rng = np.random.default_rng(32)
    k = 5
    spread = np.zeros((200, 4))
    spread[:, :3] = rng.normal(size=(200, 3))
    same = np.zeros((100, 4))
    same[:, 3] = 1.0  # orthogonal to the spread rows
    feats = np.concatenate([spread, same, np.zeros((3, 4))])
    order = rng.permutation(feats.shape[0])
    normed = g.graph._normalized_rows(feats[order])[0]
    n = normed.shape[0]
    want = reference_top_k_blocks(normed, k)
    # each duplicate passes its 99 twins (sim 1) and each zero row every
    # column (sim 0): more than the cap 4k + 64 = 84; a spread row passes
    # about k
    uncertified = np.flatnonzero(order >= 200)
    monkeypatch.setattr(g.graph, "_CHUNK_TARGET", 2 * n * 7)
    real = g.graph._pairwise_sims
    scored = []

    def spy(a, b):
        scored.append(a)
        return real(a, b)

    monkeypatch.setattr(g.graph, "_pairwise_sims", spy)
    for slack, expected in ((g.graph._RESCORE_SLACK, uncertified),
                            (-10 ** 9, np.arange(n)),       # every row over the cap
                            (10 ** 9, np.arange(0))):       # no row over it
        monkeypatch.setattr(g.graph, "_RESCORE_SLACK", slack)
        scored.clear()
        assert_same_bits(screened_top_k(normed, k), want)
        got = np.concatenate(scored) if scored else np.empty((0, 4))
        assert np.array_equal(got, normed[expected])


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


def test_zero_norm_row_gets_no_arcs_under_a_negative_min_similarity():
    # every similarity of the zero row is 0 > -1; it still keeps no arcs,
    # so neighbor_means sees a row without neighbors, not one of degree 0
    feats = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
    with pytest.warns(UserWarning, match="zero-norm"):
        graph = g.build_knn_graph(feats, g.KnnConfig(k=2, min_similarity=-1))
    cols, weights = graph.row(1)
    assert cols.shape[0] == 0 and weights.shape[0] == 0
    assert [graph.row(i)[0].shape[0] for i in (0, 2, 3)] == [2, 2, 2]
    values = np.arange(8.0).reshape(4, 2)
    nm = g.neighbor_means(values, graph, g.empty_graph(4))
    assert nm.has_knn.tolist() == [1.0, 0.0, 1.0, 1.0]
    assert nm.knn_mean[1].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_rejects_non_finite_features(bad):
    feats = np.array([[bad, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="features: non-finite value at row 0, col 0"):
        g.build_knn_graph(feats, g.KnnConfig(k=2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", [1e200, 1e-200], ids=["overflow", "underflow"])
def test_knn_row_whose_squared_norm_leaves_the_normal_range_gets_its_neighbors(row):
    # 1e200**2 overflows and 1e-200**2 underflows; the row is still [1, 1]'s
    # direction, with cosine 1 to node 3 and 1/sqrt(2) to nodes 1 and 2
    feats = np.array([[row, row], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    graph = g.build_knn_graph(feats, g.KnnConfig(k=2))
    cols, weights = graph.row(0)
    assert cols.tolist() == [1, 3]
    assert weights == pytest.approx([math.sqrt(0.5), 1.0], rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [2.0 ** 700, 2.0 ** -700], ids=["overflow", "underflow"])
def test_rows_scaled_by_a_power_of_two_keep_their_graph_bit_for_bit(scale):
    feats = np.random.default_rng(11).normal(size=(12, 3))
    want = g.build_knn_graph(feats, g.KnnConfig(k=3))
    scaled = feats.copy()
    scaled[[0, 5]] *= scale
    got = g.build_knn_graph(scaled, g.KnnConfig(k=3))
    for name in ("row_offsets", "col_indices", "weights", "degrees"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_degrees_match_row_sums(small_bundle):
    # unit weights (degrees are arc counts) and similarity weights, exact
    # and sampled, each equal to math.fsum of its row bit for bit
    graphs = [g.adjacency_graph(small_bundle.n, small_bundle.edges),
              # unit weights but one
              g.from_arcs(3, [(0, 1), (0, 2), (1, 0), (2, 0)], [1.0, 1.0, 0.1, 1.0])]
    graphs += [g.build_knn_graph(small_bundle.features, g.KnnConfig(k=7, sample_size=m, seed=5))
               for m in (None, 70)]
    for graph in graphs:
        want = np.array([math.fsum(graph.row(i)[1]) for i in range(graph.n)])
        assert np.array_equal(graph.degrees.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("unit", [True, False])
def test_exact_row_sums_carry_finished_rows_across_buffer_swaps(unit):
    # rows of 2, 0, 5, 1 and 4 arcs in one block: rows that run out of arcs
    # early must keep their s and e while later steps swap the buffers.  The
    # 2- and 4-arc rows finish in the pair that the 5-arc row does not end
    # in, and the other pair holds an earlier s or e of theirs
    tie, tiny = 2.0 ** -53, 2.0 ** -80
    rows = [
        [[tie, -0.0], [1.0, -0.0]],                   # a half-ulp tie; -0.0s
        [],
        [[tie, 1.0], [1.0, -tie], [tie, tie], [tie, -0.0], [-1.0, -tie]],
        [[-0.0, -0.0]],                               # all -0.0: sums to +0.0
        # e is a tie after 4 terms and past it after 3: e decides
        [[1.0, -1.0], [tie, -tie], [tiny, -tiny], [-tiny, tiny]],
    ]
    values = np.array([term for row in rows for term in row])
    row_offsets = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
    weights = np.ones(values.shape[0])
    if not unit:
        weights[[1, 6]] = 2.0, 0.5   # the first weights stay 1.0
    with mock.patch.object(g.graph, "_SUM_BLOCK", len(rows) * values.shape[1]):
        got = g.graph._exact_row_sums(row_offsets, np.arange(values.shape[0]),
                                      weights, values)
    want = _fsum_rows(row_offsets, np.arange(values.shape[0]), weights, values)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[3].view(np.int64).tolist() == [0, 0]


def test_duplicate_arcs_rejected():
    with pytest.raises(ValidationError, match="duplicate arc"):
        g.from_arcs(3, [(0, 1), (0, 1)])


def test_from_arcs_rejects_n_whose_arc_keys_overflow():
    n = g.graph._MAX_ARC_KEY_N
    assert n * n <= np.iinfo(np.int64).max < (n + 1) * (n + 1)
    with pytest.raises(ValidationError, match="too large"):
        g.from_arcs(n + 1, np.empty((0, 2), dtype=np.int64))


def lexsort_from_arcs(n, arcs, weights):
    """The lexsort construction from_arcs had before its key order, as
    reference: (row offsets, columns, weights), or the duplicate message."""
    order = np.lexsort((arcs[:, 1], arcs[:, 0]))
    arcs, weights = arcs[order], weights[order]
    if arcs.shape[0] > 1:
        dup = (np.diff(arcs[:, 0]) == 0) & (np.diff(arcs[:, 1]) == 0)
        if dup.any():
            u, v = arcs[1:][dup][0]
            return f"duplicate arc ({u}, {v})"
    counts = np.bincount(arcs[:, 0], minlength=n)
    return np.concatenate([[0], np.cumsum(counts)]), arcs[:, 1], weights


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_arcs_matches_the_lexsort_construction(data):
    n = data.draw(st.integers(1, 12), label="n")
    node = st.integers(0, n - 1)
    drawn = data.draw(st.lists(st.tuples(node, node), max_size=40), label="arcs")
    kind = data.draw(st.sampled_from(["sorted", "shuffled", "duplicated"]), label="kind")
    arcs = sorted(set(drawn))
    if kind != "sorted":
        arcs = data.draw(st.permutations(arcs), label="order")
    if kind == "duplicated" and arcs:
        arcs.insert(data.draw(st.integers(0, len(arcs)), label="at"),
                    data.draw(st.sampled_from(arcs), label="twin"))
    arcs = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    # distinct weights show that each weight follows its arc
    weights = np.arange(arcs.shape[0]) + 0.5
    want = lexsort_from_arcs(n, arcs, weights)
    if isinstance(want, str):
        with pytest.raises(ValidationError) as err:
            g.from_arcs(n, arcs, weights)
        assert str(err.value) == want
        return
    graph = g.from_arcs(n, arcs, weights)
    for got, expected in zip((graph.row_offsets, graph.col_indices, graph.weights), want):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_from_arcs_of_no_arcs_matches_the_lexsort_construction():
    arcs = np.empty((0, 2), dtype=np.int64)
    graph = g.from_arcs(4, arcs)
    offsets, cols, weights = lexsort_from_arcs(4, arcs, np.ones(0))
    assert np.array_equal(graph.row_offsets, offsets)
    assert graph.col_indices.shape == graph.weights.shape == (0,)


def interior_rule(row_offsets, col_indices):
    """The strict-increase check SparseGraph made before its bool form, as
    reference: pairs of neighbouring arcs are compared unless the second
    one starts a row."""
    interior = np.ones(col_indices.size, dtype=bool)
    starts = row_offsets[1:-1]
    interior[starts[starts < col_indices.size]] = False
    pick = interior[1:]
    return bool((col_indices[1:][pick] > col_indices[:-1][pick]).all())


def _accepts(n, row_offsets, col_indices):
    try:
        g.SparseGraph(n, row_offsets, col_indices, np.full(col_indices.size, 0.5))
    except ValidationError as err:
        assert "strictly increasing column indices" in str(err)
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_strict_increase_check_matches_the_interior_rule(data):
    n = data.draw(st.integers(1, 6), label="n")
    # empty rows anywhere: row starts at 0, repeated, and at nnz
    counts = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n), label="counts")
    row_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    cols = [data.draw(st.lists(st.integers(0, n - 1), min_size=c, max_size=c), label="row")
            for c in counts]
    if data.draw(st.booleans(), label="sorted"):
        cols = [sorted(row) for row in cols]
    col_indices = np.array([c for row in cols for c in row], dtype=np.int64)
    assert _accepts(n, row_offsets, col_indices) == interior_rule(row_offsets, col_indices)


@pytest.mark.parametrize("counts, cols, ok", [
    ([0, 0, 2], [0, 1], True),             # row starts at 0, twice
    ([2, 0, 0], [0, 1], True),             # row starts at nnz, twice
    ([2, 2, 0], [0, 1, 1, 2], True),       # a column repeated across a row start
    ([2, 2, 0], [1, 0, 0, 1], False),
    ([0, 1, 3], [2, 0, 1, 1], False),      # a duplicate inside the last row
    ([3, 0, 1], [0, 2, 2, 0], False),
    ([1, 1, 1], [2, 1, 0], True),          # decreasing only across row starts
], ids=["starts-at-0", "starts-at-nnz", "across-start", "first-row", "last-row",
        "before-an-empty-row", "falling-starts"])
def test_strict_increase_check_cases(counts, cols, ok):
    row_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    col_indices = np.array(cols, dtype=np.int64)
    assert interior_rule(row_offsets, col_indices) == ok
    assert _accepts(3, row_offsets, col_indices) == ok


_WEIGHT = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 2.0 ** -53]),
                    st.floats(allow_nan=False, allow_infinity=False, width=64))


def _outcome(fn):
    """(bits, None) of fn()'s float64 result, or (None, error type)."""
    try:
        return fn().view(np.int64).tolist(), None
    except (ValueError, OverflowError) as err:
        return None, type(err)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_degrees_through_unit_values_equal_fsum_bit_for_bit(data):
    # the degree kernel's terms are 1.0 * w, gathered through the columns;
    # NaN, infinite and -0.0 weights included (math.fsum raises on inf - inf
    # and on overflow, and so must the kernel)
    n = data.draw(st.integers(1, 5), label="n")
    counts = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n), label="counts")
    nnz = sum(counts)
    row_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    col_indices = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=nnz,
                                              max_size=nnz), label="cols"), dtype=np.int64)
    weights = np.array(data.draw(st.lists(_WEIGHT, min_size=nnz, max_size=nnz),
                                 label="weights"), dtype=np.float64)

    def fsums():
        return np.array([math.fsum(weights[row_offsets[i]:row_offsets[i + 1]])
                         for i in range(n)])

    got = _outcome(lambda: g.graph._exact_row_sums(row_offsets, col_indices, weights,
                                                   np.ones((n, 1)))[:, 0])
    assert got == _outcome(fsums)
    # the form the degrees had before: arc a reads value row a
    assert got == _outcome(lambda: g.graph._exact_row_sums(
        row_offsets, np.arange(nnz), None, weights[:, None])[:, 0])


def _owned_bytes(graph):
    """Bytes the graph's arrays hold; a broadcast view holds none."""
    arrays = (graph.row_offsets, graph.col_indices, graph.weights, graph.degrees)
    return sum(a.nbytes for a in arrays if 0 not in a.strides)


@pytest.mark.parametrize("n", [10_000, 40_000])
def test_graph_builds_use_the_graph_plus_bounded_scratch(n):
    # scratch is the traced peak above what a build has to hold: the graph
    # it returns and, for a k-NN build, the (n, k) neighbor lists (16 bytes
    # an arc, the graph's own arrays while every arc is kept) and the unit
    # rows behind the screen (float64 and float32, 12 bytes a feature).  It
    # is about 4.8 and 4.4 MB for the k-NN build at n = 10000 and 40000,
    # about 5.0 MB for both when min_similarity drops all but 1 % of the
    # arcs, and under 1.4 MB for the adjacency.  At n = 40000 a whole-graph
    # temporary beside the neighbor lists (one int64 (n, k) array is 6.4 MB)
    # or beside the arcs (one m-long float64 array is 3 MB) passes the
    # bound, and a graph that dropped arcs but kept the lists' buffers holds
    # more than its arrays
    bundle = g.generate_synthetic(n=n, num_classes=8, dim=8, homophily=0.8,
                                  class_sep=2.0, noise=1.0, seed=1)
    k, d = 20, bundle.features.shape[1]

    def knn(min_similarity):
        cfg = g.KnnConfig(k=k, sample_size=200, seed=1, min_similarity=min_similarity)
        return lambda: g.build_knn_graph(bundle.features, cfg)

    held = n * k * 16, n * d * 12  # neighbor lists, unit rows
    builds = {"knn": (knn(0.0), held, 6),
              "knn dropping arcs": (knn(0.95), held, 6),
              "adjacency": (lambda: g.adjacency_graph(bundle.n, bundle.edges), (0, 0), 2)}
    graphs = {}
    for name, (build, (lists, unit_rows), bound_mb) in builds.items():
        build()  # first calls load what they use
        tracemalloc.start()
        try:
            graphs[name] = build()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - max(retained, lists) - unit_rows < bound_mb * 2 ** 20, name
        assert retained <= _owned_bytes(graphs[name]) + 2 ** 16, name
    assert graphs["knn"].col_indices.size == n * k
    assert graphs["knn dropping arcs"].col_indices.size < n * k // 50
    unit = graphs["adjacency"].weights
    assert not unit.strides[0]  # unit weights: a read-only view
    assert not unit.flags.writeable


def test_top_k_sorts_blocks_up_to_2k_wide_whole(monkeypatch):
    partitioned = []
    real = np.argpartition
    monkeypatch.setattr(g.graph.np, "argpartition",
                        lambda a, *args, **kw: partitioned.append(a.shape) or real(a, *args, **kw))
    rng = np.random.default_rng(8)
    k = 4
    assert g.graph._NARROW_TOP_K == 2
    for width, wide in ((1, False), (2 * k, False), (2 * k + 1, True), (5 * k, True)):
        sims = rng.integers(-2, 3, size=(5, width)).astype(float)
        partitioned.clear()
        cols, vals = g.graph._top_k(sims.copy(), min(k, width))
        expected = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        assert np.array_equal(cols, expected)
        assert np.array_equal(vals, np.take_along_axis(sims, expected, axis=1))
        assert bool(partitioned) == wide
