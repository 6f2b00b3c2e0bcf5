import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcp as g
from graphcp.errors import ValidationError

XI = g.XiPolicy("fixed", 1.0)


def calibrate_oracle(true_scores, alpha):
    """Sort-and-index reference with exact decimal rank arithmetic."""
    n = len(true_scores)
    level = (n + 1) * (1 - Fraction(str(alpha)))
    rank = int(math.ceil(level))
    if rank > n:
        return math.inf
    return sorted(true_scores)[rank - 1]


def _single_class_scores(values):
    # one class per node, score of (i, 0) given directly
    return np.asarray(values, dtype=float).reshape(-1, 1)


def test_calibrate_nine_scores():
    scores = _single_class_scores([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    labels = np.zeros(9, dtype=int)
    th = g.calibrate(scores, labels, np.arange(9), alpha=0.1)
    assert th.q_hat == pytest.approx(0.9)
    assert th.n_calib == 9


def test_calibrate_small_n_saturates():
    scores = _single_class_scores([0.1, 0.2, 0.3, 0.4])
    th = g.calibrate(scores, np.zeros(4, dtype=int), np.arange(4), alpha=0.05)
    assert math.isinf(th.q_hat)


def test_calibrate_single_score_threshold_depends_on_alpha():
    scores = _single_class_scores([0.42])
    labels = np.zeros(1, dtype=int)
    # ceil(2 * (1 - alpha)) = 2 > 1 for alpha < 0.5 -> saturation
    th = g.calibrate(scores, labels, np.arange(1), alpha=0.49)
    assert math.isinf(th.q_hat)
    # alpha >= 0.5 -> rank 1 -> the single score
    th2 = g.calibrate(scores, labels, np.arange(1), alpha=0.5)
    assert th2.q_hat == pytest.approx(0.42)
    th3 = g.calibrate(scores, labels, np.arange(1), alpha=0.7)
    assert th3.q_hat == pytest.approx(0.42)


def test_calibrate_float_rank_arithmetic_is_exact():
    # (1 - 0.1) * 10 must be treated as exactly 9, never rounded up to 10
    assert g.conformal_rank(9, 0.1) == 9
    assert g.conformal_rank(4, 0.05) == 5
    assert g.conformal_rank(19, 0.05) == 19
    assert g.conformal_rank(99, 0.1) == 90


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.25, 0.5, 0.9]),
    st.integers(min_value=0, max_value=2 ** 31),
    st.booleans(),
)
def test_calibrate_matches_oracle(n, alpha, seed, heavy_ties):
    rng = np.random.default_rng(seed)
    if heavy_ties:
        values = rng.choice([0.1, 0.2, 0.5, 0.5, 0.9], size=n)
    else:
        values = rng.uniform(size=n)
    th = g.calibrate(_single_class_scores(values), np.zeros(n, dtype=int),
                     np.arange(n), alpha)
    expected = calibrate_oracle(values.tolist(), alpha)
    if math.isinf(expected):
        assert math.isinf(th.q_hat)
    else:
        assert th.q_hat == expected


def test_predict_sets_hand_example():
    values = np.array([[0.5, 0.8, 1.0], [0.1, 0.2, 0.3]])
    th = g.CalibratedThreshold(q_hat=0.8, alpha=0.1, n_calib=9,
                               calib_idx=np.array([1]))
    sets = g.predict_sets(values, th, np.array([0]))
    assert list(sets.mask[0]) == [True, True, False]


def test_predict_sets_saturated_threshold_gives_full_sets():
    values = np.random.default_rng(0).uniform(size=(4, 5))
    th = g.CalibratedThreshold(q_hat=math.inf, alpha=0.05, n_calib=2,
                               calib_idx=np.array([3]))
    sets = g.predict_sets(values, th, np.array([0, 1, 2]))
    assert sets.mask.all()
    assert list(sets.sizes()) == [5, 5, 5]


def test_predict_sets_can_be_empty():
    values = np.array([[0.5, 0.8, 1.0]])
    th = g.CalibratedThreshold(q_hat=0.4, alpha=0.05, n_calib=3,
                               calib_idx=np.array([], dtype=int))
    # dodge the empty-calib guard by giving the threshold a disjoint index
    th = g.CalibratedThreshold(q_hat=0.4, alpha=0.05, n_calib=3,
                               calib_idx=np.array([0], dtype=int) + 100)
    values = np.vstack([values] + [values] * 100)
    sets = g.predict_sets(values, th, np.array([0]))
    assert sets.sizes()[0] == 0


def test_predict_rejects_overlap_with_calibration():
    values = np.random.default_rng(1).uniform(size=(10, 3))
    labels = np.zeros(10, dtype=int)
    th = g.calibrate(values, labels, np.arange(5), alpha=0.2)
    with pytest.raises(ValidationError, match="overlaps"):
        g.predict_sets(values, th, np.array([4, 7]))


def test_overlap_error_names_the_smallest_shared_node():
    values = np.random.default_rng(1).uniform(size=(10, 3))
    th = g.calibrate(values, np.zeros(10, dtype=int), np.array([9, 2, 6, 3]), alpha=0.2)
    with pytest.raises(ValidationError, match=r"\(e\.g\. node 3\)$"):
        g.predict_sets(values, th, np.array([8, 6, 0, 3, 9]))


def test_calibrate_validation():
    values = np.zeros((3, 2))
    with pytest.raises(ValidationError, match="empty"):
        g.calibrate(values, np.zeros(3, dtype=int), np.array([], dtype=int), 0.1)
    with pytest.raises(ValidationError, match="alpha"):
        g.calibrate(values, np.zeros(3, dtype=int), np.arange(3), 1.5)


@pytest.mark.parametrize("label", [-1, 2])
def test_calibrate_rejects_a_calibration_label_outside_the_classes(label):
    # a negative label would index from the last class, one >= K past it
    values = np.random.default_rng(3).uniform(size=(4, 2))
    labels = np.array([0, 1, label, 0])
    with pytest.raises(ValidationError) as exc:
        g.calibrate(values, labels, np.array([3, 2, 0]), 0.1)
    assert str(exc.value) == f"calibration node 2 has label {label} outside [0, 2)"
    # labels of nodes outside the calibration set are not read
    g.calibrate(values, labels, np.array([3, 1, 0]), 0.1)


@pytest.mark.parametrize("label, shown", [(2.7, "2.7"), (0.5, "0.5"), (math.nan, "nan")])
def test_calibrate_rejects_a_calibration_label_that_is_not_an_integer(label, shown):
    # a cast to int64 would calibrate node 2 on class 2 (or 0), or raise numpy's
    # ValueError at NaN
    values = np.random.default_rng(3).uniform(size=(4, 3))
    labels = np.array([0, 1, label, 0])
    with pytest.raises(ValidationError) as exc:
        g.calibrate(values, labels, np.array([0, 1, 2, 3]), 0.5)
    assert str(exc.value) == f"calibration node 2 has label {shown} that is not an integer"
    # a whole float label calibrates as its integer; unread labels are not checked
    labels[2] = 2.0
    assert g.calibrate(values, labels, np.arange(4), 0.5).q_hat == \
        g.calibrate(values, np.array([0, 1, 2, 0]), np.arange(4), 0.5).q_hat
    labels[1] = label
    g.calibrate(values, labels, np.array([0, 2, 3]), 0.5)


def test_monotonicity_in_alpha():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, k = 60, 4
        values = rng.uniform(size=(n, k))
        labels = rng.integers(0, k, size=n)
        calib, evalset = np.arange(40), np.arange(40, 60)
        th_strict = g.calibrate(values, labels, calib, alpha=0.10)
        th_loose = g.calibrate(values, labels, calib, alpha=0.05)
        assert th_loose.q_hat >= th_strict.q_hat
        loose = g.predict_sets(values, th_loose, evalset).mask
        strict = g.predict_sets(values, th_strict, evalset).mask
        assert (loose | strict == loose).all()  # strict sets nest inside loose


def test_calibrate_accepts_score_matrix(small_bundle):
    xi = g.XiPolicy("uniform", seed=0)
    scores = g.aps_scores(small_bundle.probabilities, xi)
    th = g.calibrate(scores, small_bundle.labels, np.arange(100), alpha=0.1)
    assert 0.0 < th.q_hat <= 1.0
