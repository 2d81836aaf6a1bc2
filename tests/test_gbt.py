import numpy as np
import pytest

from debris_ews import GbtParams, InputError, fit_gbt
from debris_ews.linear import sigmoid


def staged_decision_scores(model, X):
    """Decision score after 0, 1, ..., n_trees stages; shape (n_trees+1, rows)."""
    out = np.empty((len(model.trees) + 1, np.asarray(X).shape[0]))
    out[0] = model.base_log_odds
    for t, tree in enumerate(model.trees):
        out[t + 1] = out[t] + model.params.learning_rate * tree.predict_value(X)
    return out


def _step_data(rng, n=120):
    x = rng.uniform(-1, 1, size=n)
    y = (x > 0.2).astype(int)
    return x.reshape(-1, 1), y


def test_zero_rounds_is_prior():
    rng = np.random.default_rng(0)
    X, y = _step_data(rng)
    model = fit_gbt(X, y, params=GbtParams(n_trees=0))
    prior = y.mean()
    np.testing.assert_allclose(model.predict_proba(X), prior, rtol=1e-12)


def test_zero_learning_rate_stays_at_prior():
    rng = np.random.default_rng(1)
    X, y = _step_data(rng)
    model = fit_gbt(X, y, params=GbtParams(n_trees=20, learning_rate=0.0))
    np.testing.assert_allclose(model.predict_proba(X), y.mean(), rtol=1e-12)


def test_training_log_loss_strictly_decreases_per_round():
    rng = np.random.default_rng(2)
    X, y = _step_data(rng)
    model = fit_gbt(X, y, params=GbtParams(n_trees=50, learning_rate=0.3, max_depth=1))
    staged = staged_decision_scores(model, X)
    losses = []
    for s in staged:
        p = sigmoid(s)
        losses.append(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())
    diffs = np.diff(losses)
    assert (diffs < 0).all(), f"non-decreasing step at rounds {np.flatnonzero(diffs >= 0)}"


def test_tiny_learning_rate_stays_near_prior():
    rng = np.random.default_rng(3)
    X, y = _step_data(rng)
    model = fit_gbt(X, y, params=GbtParams(n_trees=10, learning_rate=1e-6))
    assert np.abs(model.predict_proba(X) - y.mean()).max() < 1e-4


def test_gbt_learns_step_function():
    rng = np.random.default_rng(4)
    X, y = _step_data(rng, n=300)
    model = fit_gbt(X, y, params=GbtParams(n_trees=60, learning_rate=0.3, max_depth=2))
    pred = model.predict_proba(X) >= 0.5
    assert (pred == y).mean() > 0.97


def test_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    a = fit_gbt(X, y, params=GbtParams(n_trees=8))
    b = fit_gbt(X, y, params=GbtParams(n_trees=8))
    for ta, tb in zip(a.trees, b.trees):
        np.testing.assert_array_equal(ta.threshold, tb.threshold)
        np.testing.assert_array_equal(ta.value, tb.value)


def test_single_class_training_is_clipped_not_crashing():
    X = np.random.default_rng(6).normal(size=(20, 2))
    model = fit_gbt(X, np.zeros(20, dtype=int), params=GbtParams(n_trees=3))
    assert (model.predict_proba(X) < 1e-6).all()


def test_param_validation():
    with pytest.raises(InputError):
        GbtParams(learning_rate=-0.1)
    with pytest.raises(InputError):
        GbtParams(n_trees=-1)
    with pytest.raises(InputError):
        GbtParams(leaf_l2=-1.0)
