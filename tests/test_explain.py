from fractions import Fraction
from math import factorial, lcm

import numpy as np
import pytest

from debris_ews import (
    ForestModel,
    ForestParams,
    InputError,
    TreeParams,
    fit_forest,
    fit_tree,
    permutation_ranking,
    subsample_background,
    tree_shap_batch,
)
import debris_ews.explain as explain
from debris_ews.explain import _weight_table, mean_abs_ranking, write_attribution_csv
from debris_ews.trees import DecisionTree

from oracles import brute_shap, one_tree_forest, per_leaf_boxes, per_leaf_tree_shap_batch, tree_shap


def _stump(feature, threshold, left_value, right_value, n_features):
    return DecisionTree(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, np.nan, np.nan]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, left_value, right_value]),
        n_features=n_features,
    )


def test_constant_model_all_zero():
    tree = fit_tree(np.ones((6, 3)), np.ones(6, dtype=int))
    x = np.zeros(3)
    Z = np.random.default_rng(0).normal(size=(8, 3))
    att = tree_shap(one_tree_forest(tree), x, Z)
    assert att.values.tolist() == [0.0, 0.0, 0.0]
    assert att.base == 1.0
    assert att.total == 1.0


def test_depth_one_stump_two_player_shapley():
    stump = _stump(0, 0.0, left_value=0.2, right_value=0.9, n_features=3)
    Z = np.array([[1.0, 5.0, 5.0]])  # background goes right
    x = np.array([-1.0, 0.0, 0.0])  # x goes left
    att = tree_shap(one_tree_forest(stump), x, Z)
    assert att.base == pytest.approx(0.9)
    assert att.values[0] == pytest.approx(0.2 - 0.9)
    assert att.values[1] == att.values[2] == 0.0
    assert att.total == pytest.approx(0.2)


def test_matches_brute_force_on_random_forests():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n_feat = int(rng.integers(2, 6))
        n = int(rng.integers(20, 60))
        X = rng.normal(size=(n, n_feat))
        y = (X @ rng.normal(size=n_feat) + 0.3 * rng.normal(size=n) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        model = fit_forest(
            X,
            y,
            ForestParams(n_trees=int(rng.integers(1, 5)), max_depth=int(rng.integers(1, 5))),
            seed=trial,
        )
        Z = X[: int(rng.integers(1, 17))]
        x = X[int(rng.integers(0, n))]
        fast = tree_shap(model, x, Z)
        slow = brute_shap(model, x, Z)
        np.testing.assert_allclose(fast.values, slow.values, atol=1e-9)
        assert fast.base == pytest.approx(slow.base, abs=1e-12)
        pred = model.predict_proba(x.reshape(1, -1))[0]
        assert fast.total == pytest.approx(pred, abs=1e-9)


def test_additivity_of_disjoint_stumps():
    s0 = _stump(0, 0.0, 0.1, 0.5, n_features=2)
    s1 = _stump(1, 0.0, 0.0, 0.8, n_features=2)
    from debris_ews import ForestModel

    forest = ForestModel((s0, s1), ForestParams(n_trees=2), seed=0, training_weight=1.0, n_features=2)
    Z = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    x = np.array([-1.0, 1.0])
    att = tree_shap(forest, x, Z)
    att0 = tree_shap(one_tree_forest(s0), x, Z)
    att1 = tree_shap(one_tree_forest(s1), x, Z)
    np.testing.assert_allclose(att.values, (att0.values + att1.values) / 2.0, atol=1e-12)
    assert att.base == pytest.approx((att0.base + att1.base) / 2.0)


def test_identical_x_and_background_row_gives_zero():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = (X[:, 0] > 0).astype(int)
    model = fit_forest(X, y, ForestParams(n_trees=3, max_depth=3), seed=1)
    x = X[7]
    att = brute_shap(model, x, x.reshape(1, -1))
    np.testing.assert_allclose(att.values, 0.0, atol=1e-12)
    att2 = tree_shap(model, x, x.reshape(1, -1))
    np.testing.assert_allclose(att2.values, 0.0, atol=1e-12)


def test_symmetry_of_interchangeable_features():
    # two features used symmetrically; symmetric x and background
    t0 = _stump(0, 0.0, 0.2, 0.8, n_features=2)
    t1 = _stump(1, 0.0, 0.2, 0.8, n_features=2)
    from debris_ews import ForestModel

    forest = ForestModel((t0, t1), ForestParams(n_trees=2), seed=0, training_weight=1.0, n_features=2)
    Z = np.array([[1.0, 1.0], [-1.0, -1.0]])
    x = np.array([-0.5, -0.5])
    att = tree_shap(forest, x, Z)
    assert att.values[0] == pytest.approx(att.values[1], abs=1e-12)


def test_dummy_feature_gets_zero():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    y = (X[:, 1] > 0).astype(int)
    # feature 3 is irrelevant; trees never split on it (check then assert phi=0)
    model = fit_forest(X, y, ForestParams(n_trees=4, max_depth=3, max_features=2), seed=5)
    used = set()
    for t in model.trees:
        used |= set(t.feature[t.feature >= 0].tolist())
    target = next(f for f in range(4) if f not in used) if used != {0, 1, 2, 3} else None
    Z = X[:10]
    att = tree_shap(model, X[0], Z)
    if target is not None:
        assert att.values[target] == 0.0
    # local accuracy regardless
    assert att.total == pytest.approx(model.predict_proba(X[:1])[0], abs=1e-9)


def test_batch_matches_single_rows():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + X[:, 2] > 0).astype(int)
    model = fit_forest(X, y, ForestParams(n_trees=3, max_depth=4), seed=2)
    Z = X[:8]
    rows = X[:5]
    values, base = tree_shap_batch(model, rows, Z)
    for i in range(5):
        single = tree_shap(model, rows[i], Z)
        np.testing.assert_allclose(values[i], single.values, atol=1e-12)
        assert base == pytest.approx(single.base)


def test_brute_rejects_many_features():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 16))
    y = (X[:, 0] > 0).astype(int)
    model = fit_forest(X, y, ForestParams(n_trees=1, max_depth=2), seed=1)
    with pytest.raises(InputError):
        brute_shap(model, X[0], X[:4])


def test_importance_single_feature_model_ranks_it_first():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(120, 4))
    y = (X[:, 2] > 0.3).astype(int)
    model = fit_forest(X, y, ForestParams(n_trees=5, max_depth=3, max_features=4), seed=3)
    shap = mean_abs_ranking(tree_shap_batch(model, X, subsample_background(X, seed=0))[0])
    for method, ranking in (("mean_abs_shap", shap), ("permutation", permutation_ranking(model, X, y, seed=0))):
        assert ranking[0][0] == 2, (method, ranking)


def test_permutation_importance_of_unused_feature_is_zero():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(int)
    tree = fit_tree(X, y, params=TreeParams(max_depth=1))
    assert set(tree.feature[tree.feature >= 0].tolist()) == {0}
    ranking = dict(permutation_ranking(one_tree_forest(tree), X, y, seed=1))
    assert ranking[1] == pytest.approx(0.0, abs=1e-12)
    assert ranking[2] == pytest.approx(0.0, abs=1e-12)


def test_importance_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] - X[:, 1] > 0).astype(int)
    model = fit_forest(X, y, ForestParams(n_trees=3, max_depth=3), seed=2)
    r1 = permutation_ranking(model, X, y, seed=5)
    r2 = permutation_ranking(model, X, y, seed=5)
    assert r1 == r2


def test_most_recent_hour_ranks_high_on_planted_corpus():
    # the generator's hazard has an explicit current-rain term, so the newest
    # hourly feature must land in the top 3 by mean |attribution|
    import debris_ews as d

    corpus = d.generate_corpus(d.SynthConfig(stations=8, weeks_per_station=12, seed=5))
    windows = d.build_corpus_windows(corpus.series, corpus.debris_events)
    train_w, test_w = d.split_windows(windows, 0.15, seed=5)
    spec = d.FeatureSpec(hourly_hours=6)
    train = d.build_examples(train_w, spec)
    test = d.build_examples(test_w, spec)
    model = d.fit_forest(train.X, train.y, d.ForestParams(n_trees=10, max_depth=6), seed=5)
    bg = subsample_background(train.X, max_rows=32, seed=5)
    ranking = mean_abs_ranking(tree_shap_batch(model, test.X, bg)[0])
    assert 0 in [f for f, _ in ranking[:3]]


def test_subsample_background_seeded():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(1000, 2))
    a = subsample_background(X, max_rows=64, seed=1)
    b = subsample_background(X, max_rows=64, seed=1)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (64, 2)
    small = subsample_background(X[:10], max_rows=64, seed=1)
    assert small.shape == (10, 2)


def test_attribution_csv(tmp_path):
    X = np.array([[1.0, 2.0]])
    vals = np.array([[0.1, -0.2]])
    write_attribution_csv(tmp_path / "shap.csv", ["r0"], ["hourly_0", "ear"], X, vals)
    lines = (tmp_path / "shap.csv").read_text().splitlines()
    assert lines[0] == "row_id,feature_name,feature_value,shap_value"
    assert len(lines) == 3


# The per-row interpreter that the per-leaf matrix form replaced, kept as the
# reference: each leaf keeps its path's threshold checks per feature and adds
# one row's contributions at a time.


def _reference_tree_shap_batch(model, X, background):
    trees = model.trees
    Z = np.asarray(background, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    size = max(t.depth() for t in trees) + 1
    pw = np.array([[float(Fraction(factorial(p) * factorial(q), factorial(p + q + 1))) for q in range(size + 1)]
                   for p in range(size + 1)])
    B = Z.shape[0]
    values = np.zeros((X.shape[0], trees[0].n_features))
    base = 0.0
    for tree in trees:
        leaves = []
        stack = [(0, {})]  # (node, {feature: (threshold checks, background rows meeting them)})
        while stack:
            node, cons = stack.pop()
            f = int(tree.feature[node])
            if f < 0:
                if cons:
                    leaves.append((float(tree.value[node]), [(g, c, z) for g, (c, z) in cons.items()]))
                continue
            thr = float(tree.threshold[node])
            z_left = Z[:, f] < thr
            prev = cons.get(f)
            for go_left, child in ((False, int(tree.right[node])), (True, int(tree.left[node]))):
                z_ok = z_left if go_left else ~z_left
                checks = [(thr, go_left)]
                if prev is not None:
                    checks = prev[0] + checks
                    z_ok = prev[1] & z_ok
                stack.append((child, {**cons, f: (checks, z_ok)}))
        for i, x in enumerate(X):
            phi = values[i]
            for value, features in leaves:
                if value == 0.0:
                    continue
                a = np.zeros(B, dtype=np.int64)
                b = np.zeros(B, dtype=np.int64)
                dead = np.zeros(B, dtype=bool)
                x_oks = []
                for feat, checks, z_ok in features:
                    x_ok = all((x[feat] < thr) == go_left for thr, go_left in checks)
                    x_oks.append(x_ok)
                    if x_ok:
                        a += ~z_ok
                    else:
                        b += z_ok
                        dead |= ~z_ok
                alive = ~dead
                for (feat, checks, z_ok), x_ok in zip(features, x_oks):
                    rows = (~z_ok if x_ok else z_ok) & alive
                    if rows.any() and x_ok:
                        phi[feat] += value * pw[a[rows] - 1, b[rows]].sum() / B
                    elif rows.any():
                        phi[feat] -= value * pw[a[rows], b[rows] - 1].sum() / B
        base += float(tree.predict_value(Z).mean())
    return values / len(trees), base / len(trees)


@pytest.mark.parametrize("depth", [15, 8])
def test_matches_reference_on_wide_deep_forests(depth):
    rng = np.random.default_rng(depth)
    X = rng.gamma(0.4, 3.0, size=(3000, 48)) * (rng.random((3000, 48)) < 0.4)  # mostly zeros, as rainfall
    X[:, 7] = np.round(X[:, 7])  # a feature with heavy ties
    y = (X[:, :6].sum(1) + rng.normal(0.0, 2.0, 3000) > 3.0).astype(int)
    model = fit_forest(X, y, ForestParams(n_trees=3, max_depth=depth, min_samples_leaf=2), seed=depth)
    assert max(t.depth() for t in model.trees) == depth
    rows, Z = X[rng.choice(3000, 25, replace=False)], subsample_background(X, 48, seed=1)
    values, base = tree_shap_batch(model, rows, Z)
    ref_values, ref_base = _reference_tree_shap_batch(model, rows, Z)
    np.testing.assert_allclose(values, ref_values, rtol=0, atol=1e-15)
    assert base == ref_base
    np.testing.assert_allclose(values.sum(1) + base, model.predict_proba(rows), rtol=0, atol=1e-12)


def _one_feature_zigzag_tree():
    """x0 < 5, then x0 >= 2, then x0 < 4 on one path, so its leaves below see
    x0 in [2, 4); a split on x1 sits under it."""
    return DecisionTree(
        feature=np.array([0, 0, -1, -1, 0, 1, -1, -1, -1], dtype=np.int32),
        threshold=np.array([5.0, 2.0, np.nan, np.nan, 4.0, 0.0, np.nan, np.nan, np.nan]),
        left=np.array([1, 3, -1, -1, 5, 7, -1, -1, -1], dtype=np.int32),
        right=np.array([2, 4, -1, -1, 6, 8, -1, -1, -1], dtype=np.int32),
        value=np.array([0.0, 0.0, 0.9, 0.1, 0.0, 0.0, 0.3, 0.7, 0.2]),
        n_features=3,
    )


def _redundant_splits_tree():
    """x0 < 3 then x0 < 6, and x0 >= 3 then x0 >= 1: the second split of each
    pair cannot widen the interval the first one set."""
    return DecisionTree(
        feature=np.array([0, 0, 0, -1, -1, -1, 1, -1, -1], dtype=np.int32),
        threshold=np.array([3.0, 6.0, 1.0, np.nan, np.nan, np.nan, 0.0, np.nan, np.nan]),
        left=np.array([1, 3, 5, -1, -1, -1, 7, -1, -1], dtype=np.int32),
        right=np.array([2, 4, 6, -1, -1, -1, 8, -1, -1], dtype=np.int32),
        value=np.array([0.0, 0.0, 0.0, 0.2, 0.8, 0.5, 0.0, 0.1, 0.9]),
        n_features=3,
    )


@pytest.mark.parametrize("tree", [_one_feature_zigzag_tree(), _redundant_splits_tree()], ids=["zigzag", "redundant"])
def test_feature_split_several_times_on_one_path(tree):
    grid = np.array([(x0, x1, 0.0) for x0 in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0) for x1 in (-1.0, 0.0, 1.0)])
    forest = one_tree_forest(tree)
    values, base = tree_shap_batch(forest, grid, grid)  # rows and background on every threshold
    ref_values, ref_base = _reference_tree_shap_batch(forest, grid, grid)
    np.testing.assert_allclose(values, ref_values, rtol=0, atol=1e-15)
    assert base == ref_base
    for i, x in enumerate(grid):
        np.testing.assert_allclose(values[i], brute_shap(forest, x, grid).values, rtol=0, atol=1e-15)
    np.testing.assert_allclose(values.sum(1) + base, tree.predict_value(grid), rtol=0, atol=1e-15)
    assert (values[:, 2] == 0.0).all() and np.abs(values[:, :2]).max() > 0.1


def test_sums_do_not_depend_on_order():
    # the weights are integers, so no product depends on the order of its terms
    rng = np.random.default_rng(11)
    X = rng.normal(size=(400, 10))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
    model = fit_forest(X, y, ForestParams(n_trees=4, max_depth=10), seed=3)
    Z = X[:50]
    values, _ = tree_shap_batch(model, X[:30], Z)
    np.testing.assert_array_equal(values, tree_shap_batch(model, X[:30], Z[::-1])[0])
    np.testing.assert_array_equal(values[7], tree_shap(model, X[7], Z).values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_and_background_are_rejected(bad):
    forest = one_tree_forest(_one_feature_zigzag_tree())
    X = np.zeros((4, 3))
    X[2, 0] = bad
    with pytest.raises(InputError, match="NaN or infinite"):
        tree_shap_batch(forest, X, np.zeros((3, 3)))
    with pytest.raises(InputError, match="NaN or infinite"):
        tree_shap_batch(forest, np.zeros((3, 3)), X)


def test_a_model_that_is_not_a_forest_is_rejected():
    tree = _one_feature_zigzag_tree()
    with pytest.raises(InputError, match="forest models only, got DecisionTree"):
        tree_shap_batch(tree, np.zeros((2, 3)), np.zeros((3, 3)))


def test_weight_table_is_exact():
    for depth in (0, 1, 2, 7, 15, 30, 40):
        w, scale = _weight_table(depth)
        assert scale == lcm(*range(1, depth + 1)) < 2**53
        for p in range(depth):
            for q in range(depth - p):
                assert w[p + 1, q + 1] == scale * Fraction(factorial(p) * factorial(q), factorial(p + q + 1))
        assert not w[0].any() and not w[:, 0].any()
    w, scale = _weight_table(41)  # lcm(1..41) > 2^53: the weights are rounded
    assert scale == 2**53 and w[1, 2] == 2**52 and w[2, 2] == float(Fraction(2**53, 6))


# The leaf-chunked kernel against the per-leaf form it replaced: the same bits.


def _same_as_per_leaf(model, X, Z) -> tuple[np.ndarray, float]:
    values, base = tree_shap_batch(model, X, Z)
    ref_values, ref_base = per_leaf_tree_shap_batch(model, X, Z)
    assert values.tobytes() == ref_values.tobytes() and base == ref_base
    return values, base


def _rain_like_forest(seed, n_trees=4, max_depth=9, features=24):
    rng = np.random.default_rng(seed)
    X = rng.gamma(0.4, 3.0, size=(1500, features)) * (rng.random((1500, features)) < 0.4)
    X[:, 3] = np.round(X[:, 3])  # ties
    y = (X[:, :5].sum(1) + rng.normal(0.0, 2.0, 1500) > 3.0).astype(int)
    params = ForestParams(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=3)
    return fit_forest(X, y, params, seed=seed), X, rng


def _box_widths(model):
    return {len(feats) for tree in model.trees for _, feats, _, _ in per_leaf_boxes(tree)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_kernel_is_bit_identical_on_forests_of_mixed_box_widths(seed):
    model, X, rng = _rain_like_forest(seed)
    assert len(_box_widths(model)) >= 4
    rows = X[rng.choice(len(X), 40, replace=False)]
    for Z in (subsample_background(X, 64, seed=seed), X[:7]):
        values, base = _same_as_per_leaf(model, rows, Z)
        np.testing.assert_allclose(values.sum(1) + base, model.predict_proba(rows), rtol=0, atol=1e-12)


@pytest.mark.parametrize("leaves", [1, 3, 10])
def test_chunk_edges_inside_a_tree_do_not_change_the_bits(monkeypatch, leaves):
    model, X, rng = _rain_like_forest(5, n_trees=3)
    rows, Z = X[rng.choice(len(X), 9, replace=False)], X[-13:]
    assert min(t.n_leaves for t in model.trees) > 3 * leaves  # each tree spans several chunks
    monkeypatch.setattr(explain, "_CHUNK_ELEMENTS", leaves * len(rows) * len(Z))
    assert explain._CHUNK_ELEMENTS < model.trees[0].n_nodes * model.trees[0].n_features  # one tree a group
    _same_as_per_leaf(model, rows, Z)


def test_box_sets_of_several_code_words_do_not_change_the_bits(monkeypatch):
    model, X, rng = _rain_like_forest(7)
    rows, Z = X[rng.choice(len(X), 20, replace=False)], X[-30:]
    expected, _ = _same_as_per_leaf(model, rows, Z)
    monkeypatch.setattr(explain, "_CODE_BITS", 2)  # boxes of 3+ features take several words
    assert max(_box_widths(model)) > 2 * explain._CODE_BITS
    np.testing.assert_array_equal(_same_as_per_leaf(model, rows, Z)[0], expected)


def test_root_only_and_zero_value_trees_add_nothing():
    root_only = DecisionTree(np.array([-1], dtype=np.int32), np.array([np.nan]), np.array([-1], dtype=np.int32),
                             np.array([-1], dtype=np.int32), np.array([0.4]), 3)
    zero_left = _stump(1, 0.5, left_value=0.0, right_value=0.6, n_features=3)
    all_zero = _stump(2, 0.0, left_value=0.0, right_value=0.0, n_features=3)
    trees = (root_only, zero_left, all_zero, _one_feature_zigzag_tree())
    forest = ForestModel(trees, ForestParams(n_trees=len(trees)), 0, 1.0, 3)
    rng = np.random.default_rng(3)
    X, Z = rng.uniform(-1.0, 6.0, size=(11, 3)), rng.uniform(-1.0, 6.0, size=(5, 3))
    values, base = _same_as_per_leaf(forest, X, Z)
    assert (values[:, 2] == 0.0).all()  # only all_zero splits on x2
    np.testing.assert_array_equal(_same_as_per_leaf(one_tree_forest(root_only), X, Z)[0], np.zeros_like(X))
    np.testing.assert_allclose(values.sum(1) + base, forest.predict_proba(X), rtol=0, atol=1e-15)


def test_one_background_row_and_rows_with_no_live_pair():
    forest = one_tree_forest(_one_feature_zigzag_tree())
    z = np.array([[0.5, 1.0, 0.0]])  # x0 < 2: z leaves every leaf box below x0 >= 2 on x0
    X = np.array([[0.0, 1.0, 0.0], [1.5, -1.0, 0.0], [3.0, -1.0, 0.0], [5.5, 1.0, 0.0]])
    # the first two rows leave those boxes on x0 too, so no pair (x, z) reaches them
    values, _ = _same_as_per_leaf(forest, X, z)
    np.testing.assert_array_equal(values[:2], 0.0)
    assert np.abs(values[2:]).max() > 0.1
    assert _same_as_per_leaf(forest, X[:0], z)[0].shape == (0, 3)
    model, data, rng = _rain_like_forest(9)
    _same_as_per_leaf(model, data[rng.choice(len(data), 25, replace=False)], data[:1])
