import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcp as g
from graphcp.errors import ValidationError
from graphcp.scores import raps_penalty

XI1 = g.XiPolicy("fixed", 1.0)
XI0 = g.XiPolicy("fixed", 0.0)


def _raps(P, xi, rp):
    """The rank-regularized score as runs build it: APS plus the rank
    penalty."""
    return g.aps_scores(P, xi).values + raps_penalty(g.probability_ranks(P), rp)


def aps_loop_oracle(P, xi_vals):
    """Literal per-element evaluation of the adaptive score."""
    n, k = P.shape
    out = np.zeros((n, k))
    for i in range(n):
        for y in range(k):
            mass = sum(P[i, j] for j in range(k) if P[i, j] > P[i, y])
            out[i, y] = mass + xi_vals[i, y] * P[i, y]
    return out


def test_aps_hand_rows():
    P = np.array([[0.5, 0.3, 0.2]])
    assert np.allclose(g.aps_scores(P, XI1).values, [[0.5, 0.8, 1.0]])
    assert np.allclose(g.aps_scores(P, XI0).values, [[0.0, 0.5, 0.8]])


def test_aps_uniform_row_tie_semantics():
    P = np.array([[1 / 3, 1 / 3, 1 / 3]])
    # strict inequality: ties contribute nothing, every score is xi * 1/3
    assert np.allclose(g.aps_scores(P, XI1).values, [[1 / 3, 1 / 3, 1 / 3]])


def test_raps_hand_row():
    P = np.array([[0.5, 0.3, 0.2]])
    rp = g.RapsParams(k_reg=1, lambda_reg=0.1)
    assert np.allclose(_raps(P, XI1, rp), [[0.5, 0.9, 1.2]])


def test_raps_zero_penalty_equals_aps():
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(5), size=20)
    xi = g.XiPolicy("uniform", seed=3)
    a = g.aps_scores(P, xi).values
    assert np.array_equal(_raps(P, xi, g.RapsParams(1, 0.0)), a)
    # rank never exceeds K, so k_reg = K also collapses to the base score
    assert np.array_equal(_raps(P, xi, g.RapsParams(5, 0.7)), a)


def test_raps_dominates_aps():
    rng = np.random.default_rng(1)
    P = rng.dirichlet(np.ones(6), size=30)
    xi = g.XiPolicy("uniform", seed=9)
    a = g.aps_scores(P, xi).values
    r = _raps(P, xi, g.RapsParams(2, 0.3))
    assert (r >= a - 1e-15).all()


def test_raps_rank_ties_break_by_class_index():
    P = np.array([[0.4, 0.4, 0.2]])
    ranks = g.probability_ranks(P)
    assert list(ranks[0]) == [1, 2, 3]


def test_aps_matches_loop_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, k = int(rng.integers(1, 12)), int(rng.integers(2, 7))
        P = rng.dirichlet(np.ones(k), size=n)
        xi = g.XiPolicy("uniform", seed=int(rng.integers(0, 1 << 30)))
        xi_vals = xi.matrix(np.arange(n), k)
        assert np.allclose(g.aps_scores(P, xi).values, aps_loop_oracle(P, xi_vals),
                           atol=1e-12)


def test_aps_handles_probability_ties_like_oracle():
    P = np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.4, 0.1, 0.1]])
    xi = g.XiPolicy("fixed", 0.5)
    xi_vals = xi.matrix(np.arange(2), 4)
    assert np.allclose(g.aps_scores(P, xi).values, aps_loop_oracle(P, xi_vals))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=0, max_value=2 ** 31))
def test_aps_range_property(k, data_seed, xi_seed):
    P = np.random.default_rng(data_seed).dirichlet(np.ones(k), size=8)
    values = g.aps_scores(P, g.XiPolicy("uniform", seed=xi_seed)).values
    assert (values >= 0).all() and (values <= 1 + 1e-12).all()


def test_aps_sorted_by_descending_probability_nondecreasing():
    rng = np.random.default_rng(11)
    P = rng.dirichlet(np.ones(6), size=40)
    values = g.aps_scores(P, XI1).values
    order = np.argsort(-P, axis=1, kind="stable")
    sorted_scores = np.take_along_axis(values, order, axis=1)
    assert (np.diff(sorted_scores, axis=1) >= -1e-12).all()


def test_permutation_equivariance_with_keyed_xi():
    rng = np.random.default_rng(13)
    P = rng.dirichlet(np.ones(4), size=25)
    xi = g.XiPolicy("uniform", seed=21)
    base = g.aps_scores(P, xi).values
    perm = rng.permutation(25)
    permuted = g.aps_scores(P[perm], xi, node_ids=perm).values
    assert np.array_equal(permuted, base[perm])


def test_xi_is_pure_function_of_key():
    xi = g.XiPolicy("uniform", seed=5)
    a = xi.matrix(np.array([3, 9]), 4)
    b = xi.matrix(np.array([9, 3]), 4)
    assert np.array_equal(a[0], b[1]) and np.array_equal(a[1], b[0])
    assert not np.array_equal(a, g.XiPolicy("uniform", seed=6).matrix(np.array([3, 9]), 4))
    assert (a >= 0).all() and (a < 1).all()


def test_bad_probability_rows_rejected():
    with pytest.raises(ValidationError, match="sums to"):
        g.aps_scores(np.array([[0.5, 0.4]]), XI1)
    with pytest.raises(ValidationError):
        g.aps_scores(np.array([[0.5, np.nan]]), XI1)


def test_xi_policy_validation():
    with pytest.raises(ValidationError):
        g.XiPolicy("fixed", 1.5)
    with pytest.raises(ValidationError):
        g.XiPolicy("gaussian")
    with pytest.raises(ValidationError):
        g.RapsParams(0, 0.1)
    with pytest.raises(ValidationError):
        g.RapsParams(1, -0.1)
