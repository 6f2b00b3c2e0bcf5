import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcp as g
from graphcp.errors import ValidationError
from graphcp.metrics import SSCV_STRATA

from conftest import make_sets


def evaluate_oracle(mask, labels):
    """Naive per-node loop."""
    n = mask.shape[0]
    cov = sz = sh = 0
    for i in range(n):
        in_set = bool(mask[i, labels[i]])
        size_i = int(mask[i].sum())
        cov += in_set
        sz += size_i
        sh += in_set and size_i == 1
    return cov / n, sz / n, sh / n


def sscv_oracle(mask, labels, alpha):
    n, k = mask.shape
    worst = None
    for lo, hi in SSCV_STRATA:
        if lo > k:
            continue
        hi = min(hi, k)
        members = [i for i in range(n) if lo <= mask[i].sum() <= hi]
        if not members:
            continue
        cov = sum(bool(mask[i, labels[i]]) for i in members) / len(members)
        dev = abs(cov - (1 - alpha))
        worst = dev if worst is None else max(worst, dev)
    return worst


def test_hand_example():
    mask = np.array([
        [1, 0, 0],
        [1, 1, 0],
        [0, 0, 1],
    ], dtype=bool)
    labels = np.array([0, 1, 0])
    summary = g.evaluate(make_sets(mask), labels)
    assert summary.coverage == pytest.approx(2 / 3)
    assert summary.size == pytest.approx(4 / 3)
    assert summary.sh == pytest.approx(1 / 3)
    assert summary.n_eval == 3


def test_full_sets_saturate():
    mask = np.ones((5, 4), dtype=bool)
    labels = np.array([0, 1, 2, 3, 0])
    summary = g.evaluate(make_sets(mask), labels)
    assert summary.coverage == 1.0
    assert summary.size == 4.0
    assert summary.sh == 0.0


def test_empty_sets():
    mask = np.zeros((4, 3), dtype=bool)
    summary = g.evaluate(make_sets(mask), np.zeros(4, dtype=int))
    assert (summary.coverage, summary.size, summary.sh) == (0.0, 0.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=2 ** 31))
def test_evaluate_matches_naive_loop(n, k, seed):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(n, k)) < 0.5
    labels = rng.integers(0, k, size=n)
    summary = g.evaluate(make_sets(mask), labels)
    cov, sz, sh = evaluate_oracle(mask, labels)
    assert summary.coverage == pytest.approx(cov)
    assert summary.size == pytest.approx(sz)
    assert summary.sh == pytest.approx(sh)
    assert summary.sh <= summary.coverage + 1e-12
    assert 0 <= summary.size <= k


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_sscv_rejects_alpha_outside_the_unit_interval(alpha):
    mask = np.ones((4, 2), dtype=bool)
    with pytest.raises(ValidationError, match=re.escape(f"alpha={alpha} must lie in (0, 1)")):
        g.sscv(make_sets(mask), np.zeros(4, dtype=int), alpha=alpha)


def test_sscv_two_strata_hand_value():
    # sizes 0-1 with coverage 0.95 (20 nodes), sizes 2-3 with coverage 0.85 (20 nodes)
    mask = np.zeros((40, 4), dtype=bool)
    labels = np.zeros(40, dtype=int)
    mask[:19, 0] = True          # 19 covered singletons, node 19 gets an empty set
    mask[20:, 1] = True
    mask[20:, 2] = True          # sets {1, 2}
    labels[20:37] = 1            # 17 of 20 covered
    value = g.sscv(make_sets(mask), labels, alpha=0.1)
    assert value == pytest.approx(max(abs(0.95 - 0.9), abs(0.85 - 0.9)))
    assert value == pytest.approx(0.05)


def test_sscv_perfect_coverage_zero():
    # single populated stratum with coverage exactly 1 - alpha
    mask = np.zeros((10, 3), dtype=bool)
    mask[:, 0] = True
    labels = np.zeros(10, dtype=int)
    labels[9] = 1  # 9/10 covered singletons at alpha = 0.1
    value = g.sscv(make_sets(mask), labels, alpha=0.1)
    assert value == pytest.approx(0.0)


def test_sscv_single_stratum_full_coverage():
    mask = np.zeros((12, 3), dtype=bool)
    mask[:, 1] = True
    labels = np.ones(12, dtype=int)
    value = g.sscv(make_sets(mask), labels, alpha=0.1)
    assert value == pytest.approx(0.1)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=80), st.integers(min_value=2, max_value=12),
       st.sampled_from([0.05, 0.1, 0.2]), st.integers(min_value=0, max_value=2 ** 31))
def test_sscv_matches_naive_loop(n, k, alpha, seed):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(n, k)) < rng.uniform(0.1, 0.9)
    labels = rng.integers(0, k, size=n)
    assert g.sscv(make_sets(mask), labels, alpha=alpha) == pytest.approx(
        sscv_oracle(mask, labels, alpha)
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=80), st.integers(min_value=2, max_value=12),
       st.sampled_from([0.05, 0.1, 0.2]), st.integers(min_value=0, max_value=2 ** 31))
def test_one_counting_pass_gives_every_metric(n, k, alpha, seed):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(n, k)) < rng.uniform(0.1, 0.9)
    labels = rng.integers(0, k, size=n)
    sets = make_sets(mask)
    summary = g.metrics._measure(sets, labels, None, alpha)
    assert summary == replace(g.evaluate(sets, labels), sscv=g.sscv(sets, labels, alpha=alpha))
    cov, sz, sh = evaluate_oracle(mask, labels)
    assert (summary.coverage, summary.size, summary.sh, summary.sscv) == pytest.approx(
        (cov, sz, sh, sscv_oracle(mask, labels, alpha)))


def test_sscv_invariant_to_node_order():
    rng = np.random.default_rng(5)
    mask = rng.uniform(size=(50, 5)) < 0.4
    labels = rng.integers(0, 5, size=50)
    base = g.sscv(make_sets(mask), labels, alpha=0.1)
    perm = rng.permutation(50)
    shuffled = g.sscv(make_sets(mask[perm]), labels[perm], alpha=0.1)
    assert shuffled == pytest.approx(base)


def test_empty_eval_rejected():
    mask = np.zeros((0, 3), dtype=bool)
    with pytest.raises(ValidationError, match="empty"):
        g.evaluate(make_sets(mask), np.zeros(0, dtype=int))


def _direct_metrics(mask, labels, alpha):
    """Coverage, Size, singleton hit and SSCV as numpy means over the rows."""
    true_in = mask[np.arange(mask.shape[0]), labels]
    sizes = mask.sum(axis=1)
    worst = None
    for lo, hi in SSCV_STRATA:
        members = (sizes >= lo) & (sizes <= min(hi, mask.shape[1]))
        if lo > mask.shape[1] or not members.any():
            continue
        dev = abs(float(true_in[members].mean()) - (1.0 - alpha))
        worst = dev if worst is None else max(worst, dev)
    return (float(true_in.mean()), float(sizes.mean()),
            float((true_in & (sizes == 1)).mean()), worst)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=300),
       st.sampled_from([0.0, 0.01, 0.3, 0.9, 1.0]),
       st.sampled_from([0.05, 0.1, 0.2]), st.integers(min_value=0, max_value=2 ** 31))
def test_size_histogram_metrics_are_the_row_means_bit_for_bit(n, k, density, alpha, seed):
    # the histogram counts give the bits of the per-row means, for set
    # sizes past 255 and with strata left empty (all-empty or all-full sets)
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(n, k)) < density
    labels = rng.integers(0, k, size=n)
    summary = g.metrics._measure(make_sets(mask), labels, None, alpha)
    got = (summary.coverage, summary.size, summary.sh, summary.sscv)
    assert got == _direct_metrics(mask, labels, alpha)


def test_labels_outside_the_sets_are_rejected():
    sets = make_sets(np.ones((3, 4), dtype=bool))
    for bad in (4, -1):
        with pytest.raises(ValidationError, match=f"label {bad} out of range"):
            g.evaluate(sets, np.array([0, bad, 1]))


@pytest.mark.parametrize("metric", [g.evaluate, g.sscv])
@pytest.mark.parametrize("label, shown", [(2.7, "2.7"), (np.nan, "nan")])
def test_labels_that_are_not_integers_are_rejected(metric, label, shown):
    # a cast to int64 would count 2.7 as class 2; only the evaluated rows'
    # labels are read
    mask = np.eye(4, dtype=bool)[:3]
    sets = replace(make_sets(mask), eval_idx=np.array([0, 1, 3]))
    with pytest.raises(ValidationError) as exc:
        metric(sets, np.array([0, 1, 0.0, label]))
    assert str(exc.value) == f"evaluation node 3 has label {shown} that is not an integer"
    got = metric(sets, np.array([0, 1, label, 2.0]))
    assert got == metric(sets, np.array([0, 1, 0, 2]))
