import inspect
import json

import numpy as np
import pytest

import debris_ews.gbt as gbt
from debris_ews import DecisionTree, GbtParams, InputError, fit_gbt
from debris_ews.gbt import _PRIOR_CLIP, grow_gbt
from debris_ews.linear import sigmoid
from debris_ews.modelio import model_to_doc
from debris_ews.trees import NODE_ARRAYS, _dry_rows, _rank_codes, check_rows, check_training_inputs

from oracles import compacting_leaves, copying_grow_gbt, dry_group_set, grouped_grow_gbt
from test_forest import DRY_SETS, GROUPED, _dry_heavy
from test_trees import _assert_same_nodes, _gain_leaf, _reference_gain, _reference_grow


def staged_decision_scores(model, X):
    """Decision score after 0, 1, ..., n_trees stages, each tree walked by the
    compacting reference walk; shape (n_trees+1, rows)."""
    out = np.empty((len(model.trees) + 1, np.asarray(X).shape[0]))
    out[0] = model.base_log_odds
    for t, tree in enumerate(model.trees):
        out[t + 1] = out[t] + model.params.learning_rate * tree.value[compacting_leaves(tree, X)]
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


@pytest.mark.parametrize("bad, message", [
    ([[np.nan, 1.0, 0.0]], "feature matrix contains NaN or infinite values"),
    ([[np.nan, 1.0]], "feature matrix contains NaN or infinite values"),
    ([[0.5, 1.0]], "expected 3 features, got 2"),
    (np.zeros((0, 3)), "feature matrix must be non-empty 2-D, got shape (0, 3)"),
])
def test_zero_stage_model_checks_the_matrix_as_one_stage_does(bad, message):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(int)
    for n_trees in (0, 1):
        model = fit_gbt(X, y, params=GbtParams(n_trees=n_trees))
        assert len(model.trees) == n_trees
        with pytest.raises(InputError) as err:
            model.predict_proba(bad)
        assert str(err.value) == message


def test_stage_sums_are_the_decision_score_bit_for_bit():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 5)).round(1)
    X[rng.random(X.shape) < 0.6] = 0.0
    y = (X[:, 0] - X[:, 3] + 0.5 * rng.normal(size=400) > 0.3).astype(int)
    model = fit_gbt(X, y, params=GbtParams(n_trees=12, learning_rate=0.3, max_depth=7))
    X_test = np.r_[X[:50], rng.normal(size=(150, 5)).round(1)]
    staged = staged_decision_scores(model, X_test)
    assert staged[-1].tobytes() == model.decision_score(X_test).tobytes()
    assert sigmoid(staged[-1]).tobytes() == model.predict_proba(X_test).tobytes()


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


@pytest.mark.parametrize("training_weight", [1.0, 2.5])
@pytest.mark.parametrize("wide", [False, True], ids=["uint16", "uint32"])
def test_gbt_on_rows_of_a_wider_coding_equals_fit_on_the_rows(training_weight, wide):
    # cv codes its whole matrix once and boosts each fold on the fold's rows; with
    # wide, only the whole matrix has > 65,536 distinct values in a column
    rng = np.random.default_rng(8)
    n = 70_000 if wide else 400
    X = rng.normal(size=(n, 4)).round(1)
    y = (X[:, 0] + X[:, 1] + rng.normal(size=n) > 1.5).astype(int)
    X[rng.random(X.shape) < 0.5] = 0.0
    if wide:
        X[:, 0] = rng.permutation(n) / 7.0
    rows = np.sort(rng.choice(n, size=300, replace=False))
    Xc, yc, w = check_training_inputs(X, y, None, training_weight)
    codes, values = _rank_codes(Xc)
    assert codes.dtype == (np.uint32 if wide else np.uint16)
    params = GbtParams(n_trees=4, learning_rate=0.3, max_depth=5, min_samples_leaf=2)
    grown = grow_gbt(codes, values, yc, w, rows, params, training_weight)
    fit = fit_gbt(X[rows], y[rows], params=params, training_weight=training_weight)
    assert json.dumps(model_to_doc(grown)) == json.dumps(model_to_doc(fit))


# Dry rows (0 in every feature) ride each boosting stage as one group when each label's
# dry rows weigh the same: the fit is that of dry_group_set's compressed set, whose
# representatives weigh their label's dry count and count as its rows toward
# min_samples_leaf. Any other set boosts as the copying grower, which never groups.

def _model_bytes(model):
    return json.dumps(model_to_doc(model))


GROUPED_SETS = [s for s in DRY_SETS if s[0] in GROUPED]


def _fit_rows(n):
    """Every row, and a strict subset of the rows, as cv passes one."""
    return np.arange(n), np.sort(np.random.default_rng(51).choice(n, size=n * 2 // 3, replace=False))


@pytest.mark.parametrize("training_weight", [1.0, 2.5])
@pytest.mark.parametrize("name, X, y", GROUPED_SETS, ids=[s[0] for s in GROUPED_SETS])
def test_grouped_stages_boost_the_compressed_set(name, X, y, training_weight):
    Xc, yc, w = check_training_inputs(X, y, None, training_weight)
    codes, values = _rank_codes(Xc)
    for rows in _fit_rows(X.shape[0]):
        assert dry_group_set(X, yc, rows)[0].size < rows.size
        for depth in (None, 3):
            params = GbtParams(n_trees=4, learning_rate=0.3, max_depth=depth, min_samples_leaf=1)
            args = (codes, values, yc, w, rows, params, training_weight)
            assert _model_bytes(grow_gbt(*args)) == _model_bytes(grouped_grow_gbt(X, *args)), depth


def _reference_grouped_fit(X, y, w, rows, params):
    """(base log-odds, each stage's node lists) of a grouped fit, each stage grown by
    test_trees' per-feature reference on the compressed set, in which a representative
    counts as its label's dry rows toward min_samples_leaf."""
    root, sizes = dry_group_set(X, y, rows)
    X, y, w = X[root], y[root], w[root] * sizes
    prior = min(max(float(np.dot(w, y) / w.sum()), _PRIOR_CLIP), 1.0 - _PRIOR_CLIP)
    base = float(np.log(prior / (1.0 - prior)))
    tree_params, lam = params.tree_params(), params.leaf_l2
    score = np.full(root.size, base)
    stages = []
    for _ in range(params.n_trees):
        p = sigmoid(score)
        g, h = w * (p - y), w * p * (1.0 - p)
        nodes = _reference_grow(
            X, _gain_leaf(g, h, lam),
            lambda r, f: _reference_gain(X, g, h, lam, tree_params.min_samples_leaf, r, f, sizes), tree_params,
            sizes=sizes)
        tree = DecisionTree(*(np.asarray(c, dtype=dt) for c, dt in zip(nodes, NODE_ARRAYS.values())), X.shape[1])
        score = score + params.learning_rate * tree.value[compacting_leaves(tree, X)]
        stages.append(nodes)
    return base, stages


@pytest.mark.parametrize("training_weight", [1.0, 2.5])
@pytest.mark.parametrize("name, X, y", GROUPED_SETS, ids=[s[0] for s in GROUPED_SETS])
def test_grouped_stages_with_min_samples_leaf_match_the_per_feature_reference(name, X, y, training_weight):
    # a leaf of 40 rows holds most of a set's dry group, or none of it: a grower that
    # counted the representatives as one row each would stop short
    Xc, yc, w = check_training_inputs(X, y, None, training_weight)
    codes, values = _rank_codes(Xc)
    for rows in _fit_rows(X.shape[0]):
        for min_leaf in (2, 5, 40):
            params = GbtParams(n_trees=3, learning_rate=0.3, max_depth=None, min_samples_leaf=min_leaf)
            model = grow_gbt(codes, values, yc, w, rows, params, training_weight)
            base, stages = _reference_grouped_fit(X, yc, w, rows, params)
            assert model.base_log_odds == base and len(model.trees) == len(stages)
            for tree, nodes in zip(model.trees, stages):
                _assert_same_nodes(tree, nodes)


def _ungrouped_sets():
    """(name, X, y, sample_weight) of sets whose dry rows do not group."""
    sets = [(name, X, y, None) for name, X, y in DRY_SETS if name not in GROUPED]
    X, y = _dry_heavy(np.random.default_rng(52), 300)
    sets.append(("uneven dry weights", X, y.astype(int), np.where(np.arange(300) % 4 == 0, 2.0, 1.0)))
    return sets


UNGROUPED_SETS = _ungrouped_sets()


@pytest.mark.parametrize("name, X, y, sample_weight", UNGROUPED_SETS, ids=[s[0] for s in UNGROUPED_SETS])
def test_sets_without_a_group_boost_as_the_copying_grower(name, X, y, sample_weight):
    Xc, yc, w = check_training_inputs(X, y, sample_weight, 2.5)
    codes, values = _rank_codes(Xc)
    assert _dry_rows(codes, values).any() == (name == "uneven dry weights")
    for rows in _fit_rows(X.shape[0]):
        root, group, _ = gbt._dry_group(codes, values, yc, w, rows)
        assert root is rows and group == (0, 0)
        for min_leaf in (1, 3):
            params = GbtParams(n_trees=4, learning_rate=0.3, max_depth=6, min_samples_leaf=min_leaf)
            args = (codes, values, yc, w, rows, params, 2.5)
            assert _model_bytes(grow_gbt(*args)) == _model_bytes(copying_grow_gbt(*args))


def test_every_dry_row_reaches_its_representatives_leaf_in_every_stage(monkeypatch):
    # a stage moves only its root's scores; each dry row must score as its
    # representative, so the leaf the grower gives a representative is every dry row's
    rng = np.random.default_rng(53)
    X, y = _dry_heavy(rng, 400, m=6)
    dry = (X == 0.0).all(axis=1)
    grow, signature = gbt._grow, inspect.signature(gbt._grow)
    fills = []

    def spy(*args, **kwargs):
        tree = grow(*args, **kwargs)
        bound = signature.bind(*args, **kwargs).arguments
        fills.append((bound["rows"], bound["leaf"].take(bound["rows"])))
        return tree

    monkeypatch.setattr(gbt, "_grow", spy)
    model = fit_gbt(X, y, params=GbtParams(n_trees=6, learning_rate=0.3, max_depth=None, min_samples_leaf=2))
    assert len(fills) == len(model.trees)
    Xr = check_rows(X, X.shape[1])
    for tree, (root, filled) in zip(model.trees, fills):
        leaves = tree.leaves(Xr)
        np.testing.assert_array_equal(filled, leaves[root])
        reps = root[dry[root]]
        assert reps.size == 2 and tree.n_leaves > 2
        assert (leaves[dry] == leaves[reps[0]]).all()
