import numpy as np
import pytest

from debris_ews import InputError, LinearModel, LogisticParams, fit_logistic
from debris_ews import linear
from debris_ews.cli import main
from debris_ews.linear import logistic_loss, sigmoid

from conftest import cli_argv


def test_sigmoid_stability_and_values():
    z = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    s = sigmoid(z)
    assert np.isfinite(s).all()
    assert s[2] == 0.5
    assert s[0] == pytest.approx(0.0, abs=1e-12) and s[4] == pytest.approx(1.0, abs=1e-12)


def test_zero_model_predicts_half():
    model = LinearModel(np.zeros(3), 0.0, LogisticParams())
    assert model.predict_proba(np.random.default_rng(0).normal(size=(5, 3))).tolist() == [0.5] * 5


def test_balanced_symmetric_data_keeps_zero_bias():
    rng = np.random.default_rng(1)
    Xp = rng.normal(loc=1.0, size=(60, 2))
    X = np.vstack([Xp, -Xp])
    y = np.concatenate([np.ones(60, dtype=int), np.zeros(60, dtype=int)])
    model = fit_logistic(X, y)
    assert abs(model.bias) < 1e-4


def test_separable_1d_with_l2_reaches_full_accuracy():
    x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
    y = (x > 0).astype(int)
    model = fit_logistic(x.reshape(-1, 1), y, params=LogisticParams(penalty="l2", l2=0.1))
    assert np.isfinite(model.weights).all()
    pred = model.predict_proba(x.reshape(-1, 1)) >= 0.5
    assert (pred == y).all()
    # small grid search over weight values confirms the optimum is interior
    losses = {
        w: logistic_loss(np.array([w]), model.bias, x.reshape(-1, 1), y.astype(float), np.ones(40), 0.1)
        for w in (model.weights[0] * 0.5, model.weights[0], model.weights[0] * 2.0)
    }
    assert losses[model.weights[0]] == min(losses.values())


def test_the_fit_is_a_stationary_point_of_the_loss():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    sw = rng.uniform(0.5, 2.0, size=30)
    model = fit_logistic(X, y, sample_weight=sw, params=LogisticParams(penalty="l2", l2=0.7))
    assert model.converged
    theta = np.r_[model.weights, model.bias]

    def loss(t):
        return logistic_loss(t[:3], t[3], X, y.astype(float), sw, 0.7)

    eps = 1e-6
    fd = [(loss(theta + eps * e) - loss(theta - eps * e)) / (2 * eps) for e in np.eye(4)]
    assert np.abs(fd).max() < 1e-6


def test_separable_data_without_a_penalty_stops_at_finite_weights():
    x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
    model = fit_logistic(x.reshape(-1, 1), (x > 0).astype(int))
    assert model.converged and np.isfinite(model.weights).all() and model.weights[0] > 10


def test_the_stop_does_not_depend_on_the_scale_of_features_or_weights():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(400, 3))
    y = (rng.random(400) < sigmoid(X @ [1.5, -2.0, 0.5] - 1.0)).astype(int)
    sw = rng.uniform(0.5, 2.0, size=400)
    base = fit_logistic(X, y, sample_weight=sw)
    wide = fit_logistic(1000.0 * X, y, sample_weight=sw)
    heavy = fit_logistic(X, y, sample_weight=1e6 * sw)
    assert base.converged and wide.converged and heavy.converged
    np.testing.assert_allclose(wide.predict_proba(1000.0 * X), base.predict_proba(X), rtol=0, atol=1e-6)
    np.testing.assert_allclose(heavy.predict_proba(X), base.predict_proba(X), rtol=0, atol=1e-6)


def test_a_golden_corpus_fit_takes_few_newton_steps(golden, tmp_path, monkeypatch):
    shapes = []
    real = linear.logistic_loss

    def counted(weights, bias, X, *rest):
        shapes.append(X.shape)
        return real(weights, bias, X, *rest)

    monkeypatch.setattr(linear, "logistic_loss", counted)
    assert main(cli_argv("train", golden, tmp_path) + ["--model", "logistic", "--hours", "48"]) == 0
    assert set(shapes) == {(1905, 48)} and len(shapes) <= 50


def test_duplicate_and_all_zero_columns_keep_the_fit_finite():
    rng = np.random.default_rng(7)
    x = rng.normal(size=200)
    y = (rng.random(200) < sigmoid(2.0 * x)).astype(int)
    model = fit_logistic(np.c_[x, x, np.zeros(200)], y)
    single = fit_logistic(x.reshape(-1, 1), y)
    assert model.converged and np.isfinite(model.weights).all()
    np.testing.assert_allclose(model.predict_proba(np.c_[x, x, np.zeros(200)]), single.predict_proba(x[:, None]),
                               atol=1e-6)


def test_features_whose_squares_overflow_are_an_input_error():
    X = np.array([[1e200], [-1e200], [5e199], [-3e199]])
    with pytest.raises(InputError, match="^feature values too large for a logistic fit: its Hessian overflows$"):
        fit_logistic(X, [1, 0, 0, 1])


def test_weight_scaling_with_matching_l2_rescale():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 2))
    y = (X[:, 0] + 0.2 * rng.normal(size=80) > 0).astype(int)
    sw = rng.uniform(0.5, 2.0, size=80)
    a = fit_logistic(X, y, sample_weight=sw)
    b = fit_logistic(X, y, sample_weight=4.0 * sw)
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-4)
    assert a.bias == pytest.approx(b.bias, abs=1e-4)


def test_training_weight_shifts_decision_rate():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 2))
    y = (rng.random(300) < sigmoid(2.0 * (X[:, 0] - 1.2))).astype(int)
    params = LogisticParams(penalty="l2", l2=1.0)
    lo = fit_logistic(X, y, params=params, training_weight=1.0)
    hi = fit_logistic(X, y, params=params, training_weight=50.0)
    assert (hi.predict_proba(X) >= 0.5).sum() > (lo.predict_proba(X) >= 0.5).sum()


def test_params_validation():
    with pytest.raises(InputError):
        LogisticParams(penalty="l1")
    with pytest.raises(InputError):
        LogisticParams(penalty="l2", l2=0.0)
    with pytest.raises(InputError):
        LogisticParams(penalty="none", l2=1.0)
    for field, bad in (("tol", 0.0), ("tol", -1e-6), ("max_iter", 0), ("max_iter", -1)):
        with pytest.raises(InputError, match=f"^{field} must be"):
            LogisticParams(**{field: bad})
