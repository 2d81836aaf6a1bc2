import numpy as np
import pytest

import debris_ews.trees as trees
from debris_ews import DecisionTree, ForestParams, InputError, TreeParams, fit_forest, fit_gbt, fit_logistic, fit_tree
from debris_ews._common import derived_rng
from debris_ews.trees import _GainCriterion, _GiniCriterion, _counting_weights, _grow, _rank_codes, fit_gradient_tree


def _rand_data(rng, n=80, m=4):
    X = rng.normal(size=(n, m))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
    return X, y


def test_pure_positive_single_leaf():
    X = np.ones((10, 2))
    tree = fit_tree(X, np.ones(10, dtype=int))
    assert tree.n_nodes == 1
    assert tree.value[0] == 1.0
    assert tree.predict_value(np.zeros((3, 2))).tolist() == [1.0, 1.0, 1.0]


def test_separable_one_feature_perfect_fit():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = np.sort(rng.normal(size=40))
        y = (x > x[20]).astype(int)
        X = x.reshape(-1, 1)
        tree = fit_tree(X, y)
        # brute-force check of perfect separation on the training data
        assert (tree.predict_value(X) == y).all()


def test_input_validation():
    with pytest.raises(InputError):
        fit_tree(np.empty((0, 2)), np.array([]))
    with pytest.raises(InputError):
        fit_tree(np.array([[np.nan, 1.0]]), np.array([1]))
    with pytest.raises(InputError):
        fit_tree(np.ones((3, 1)), np.array([0, 1, 2]))
    with pytest.raises(InputError):
        fit_tree(np.ones((2, 1)), np.array([0, 1]), sample_weight=np.array([1.0, 0.0]))


def test_max_depth_and_min_samples_leaf():
    rng = np.random.default_rng(1)
    X, y = _rand_data(rng, n=200)
    for depth in (0, 1, 2, 5):
        tree = fit_tree(X, y, params=TreeParams(max_depth=depth))
        assert tree.depth() <= depth
    tree = fit_tree(X, y, params=TreeParams(min_samples_leaf=17))
    # raw row counts per leaf respect the bound: verify by routing rows
    leaf_of = _leaf_assignment(tree, X)
    _, counts = np.unique(leaf_of, return_counts=True)
    assert counts.min() >= 17


def _leaf_assignment(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    idx = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        active = np.flatnonzero(tree.feature[idx] >= 0)
        if active.size == 0:
            return idx
        cur = idx[active]
        go_left = X[active, tree.feature[cur]] < tree.threshold[cur]
        idx[active] = np.where(go_left, tree.left[cur], tree.right[cur])


def test_weight_scaling_invariance():
    # powers of two keep float arithmetic exact, so structure must be identical
    rng = np.random.default_rng(2)
    for trial in range(25):
        X, y = _rand_data(rng, n=120, m=5)
        w = rng.uniform(0.5, 3.0, size=120)
        base = fit_tree(X, y, sample_weight=w, params=TreeParams(max_depth=6))
        for c in (0.25, 4.0, 1024.0):
            scaled = fit_tree(X, y, sample_weight=c * w, params=TreeParams(max_depth=6))
            np.testing.assert_array_equal(base.feature, scaled.feature)
            np.testing.assert_array_equal(base.threshold, scaled.threshold)
            np.testing.assert_allclose(base.value, scaled.value, rtol=1e-12)
            np.testing.assert_allclose(scaled.weight, c * base.weight, rtol=1e-12)


def test_feature_scaling_leaves_predictions_unchanged():
    rng = np.random.default_rng(3)
    for trial in range(25):
        X, y = _rand_data(rng, n=100, m=4)
        X_test = rng.normal(size=(40, 4))
        tree = fit_tree(X, y, params=TreeParams(max_depth=8))
        c = 2.0 ** rng.integers(-3, 6)
        Xs = X.copy()
        Xs[:, 1] *= c
        Xt = X_test.copy()
        Xt[:, 1] *= c
        scaled = fit_tree(Xs, y, params=TreeParams(max_depth=8))
        np.testing.assert_array_equal(tree.predict_value(X_test), scaled.predict_value(Xt))


def test_tie_break_lowest_feature_index():
    # duplicated feature column: splits must always cite the first copy
    rng = np.random.default_rng(4)
    x = rng.normal(size=60)
    y = (x > 0).astype(int)
    X = np.column_stack([x, x, x])
    tree = fit_tree(X, y)
    used = set(tree.feature[tree.feature >= 0].tolist())
    assert used == {0}


def test_leaf_fraction_uses_weights():
    X = np.array([[0.0], [0.0], [0.0]])
    y = np.array([1, 0, 0])
    tree = fit_tree(X, y, sample_weight=np.array([2.0, 1.0, 1.0]))
    assert tree.n_nodes == 1
    assert tree.value[0] == pytest.approx(0.5)
    assert tree.weight[0] == pytest.approx(4.0)


def test_deterministic_feature_subsampling_needs_seed():
    rng = np.random.default_rng(5)
    X, y = _rand_data(rng, n=50, m=6)
    with pytest.raises(InputError):
        fit_tree(X, y, params=TreeParams(max_features=2))
    t1 = fit_tree(X, y, params=TreeParams(max_features=2), seed=7)
    t2 = fit_tree(X, y, params=TreeParams(max_features=2), seed=7)
    np.testing.assert_array_equal(t1.feature, t2.feature)
    np.testing.assert_array_equal(t1.threshold, t2.threshold)


def test_split_candidates_are_midpoints():
    X = np.array([[1.0], [3.0], [10.0], [20.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(X, y)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(6.5)  # midpoint of 3 and 10


# --- the exact rank-coded scan against the per-feature float scan ------------
#
# _reference_gini / _reference_gain scan one feature at a time: a stable float
# argsort, a gather and a cumsum per feature. The rank-coded scan must pick the
# same (feature, threshold) and grow the same node arrays bit for bit, on its
# sort path and on its counting path.


def _path_check(monkeypatch, sort_only: bool):
    """A check that the calls of trees._best_split took the scan paths `chosen`. With
    sort_only the counting scan is switched off, and every call must sort."""
    if sort_only:
        monkeypatch.setattr(trees, "_counting_weights", lambda y, w: None)
    ran = set()
    scan = trees._best_split

    def spy(criterion, *args):
        ran.add("sort" if criterion.counts is None else "counting")
        return scan(criterion, *args)

    def check(chosen: set[str]) -> None:
        assert ran == ({"sort"} if sort_only else chosen)

    monkeypatch.setattr(trees, "_best_split", spy)
    return check


@pytest.fixture
def scan_paths(monkeypatch):
    return _path_check(monkeypatch, sort_only=False)


def _reference_gini(X, y, w, min_leaf, rows, features):
    nr = rows.size
    wv = w[rows]
    pv = (w * y)[rows]
    W = float(wv.sum())
    P = float(pv.sum())
    parent = P * (W - P) / W
    best_score = parent * (1.0 - 1e-12)
    best = None
    for f in features:
        vals = X[rows, f]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        cw = np.cumsum(wv[order])[:-1]
        cp = np.cumsum(pv[order])[:-1]
        ok = v[1:] > v[:-1]
        if min_leaf > 1:
            k = np.arange(1, nr)
            ok &= (k >= min_leaf) & (nr - k >= min_leaf)
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            continue
        wl = cw[idx]
        pl = cp[idx]
        wr = W - wl
        pr = P - pl
        score = pl * (wl - pl) / wl + pr * (wr - pr) / wr
        j = int(np.argmin(score))
        if score[j] < best_score:
            best_score = float(score[j])
            i = int(idx[j])
            thr = 0.5 * (v[i] + v[i + 1])
            if thr <= v[i]:
                thr = float(v[i + 1])
            best = (int(f), float(thr))
    return best


def _reference_gain(X, g, h, lam, min_leaf, rows, features):
    nr = rows.size
    gv = g[rows]
    hv = h[rows]
    G = float(gv.sum())
    H = float(hv.sum())
    parent = G * G / (H + lam)
    best_gain = 1e-12 * max(1.0, abs(parent))
    best = None
    for f in features:
        vals = X[rows, f]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        cg = np.cumsum(gv[order])[:-1]
        ch = np.cumsum(hv[order])[:-1]
        ok = v[1:] > v[:-1]
        if min_leaf > 1:
            k = np.arange(1, nr)
            ok &= (k >= min_leaf) & (nr - k >= min_leaf)
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            continue
        gl = cg[idx]
        hl = ch[idx]
        gain = gl * gl / (hl + lam) + (G - gl) ** 2 / (H - hl + lam) - parent
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            best_gain = float(gain[j])
            i = int(idx[j])
            thr = 0.5 * (v[i] + v[i + 1])
            if thr <= v[i]:
                thr = float(v[i + 1])
            best = (int(f), float(thr))
    return best


def _reference_grow(X, criterion, split, params, rng=None):
    """Depth-first, left subtree first, rows partitioned on the float values."""
    n, m = X.shape
    m_try = m if params.max_features is None else params.max_features
    max_depth = np.inf if params.max_depth is None else params.max_depth
    nodes = ([], [], [], [], [], [])  # feature, threshold, left, right, value, weight

    def new_node():
        for column, blank in zip(nodes, (-1, np.nan, -1, -1, 0.0, 0.0)):
            column.append(blank)
        return len(nodes[0]) - 1

    def grow(slot, rows, depth):
        nodes[4][slot], nodes[5][slot] = criterion.leaf(rows)
        if depth >= max_depth or rows.size < 2 * params.min_samples_leaf or criterion.is_pure(rows):
            return
        feats = np.arange(m) if m_try == m else np.sort(rng.choice(m, size=m_try, replace=False))
        best = split(rows, feats)
        if best is None:
            return
        f, thr = best
        go_left = X[rows, f] < thr
        l_slot, r_slot = new_node(), new_node()
        nodes[0][slot], nodes[1][slot], nodes[2][slot], nodes[3][slot] = f, thr, l_slot, r_slot
        grow(l_slot, rows[go_left], depth + 1)
        grow(r_slot, rows[~go_left], depth + 1)

    grow(new_node(), np.arange(n), 0)
    return nodes


def _assert_same_nodes(tree, nodes):
    for name, column in zip(("feature", "threshold", "left", "right", "value", "weight"), nodes):
        np.testing.assert_array_equal(getattr(tree, name), np.asarray(column), err_msg=name)


def _hard_matrix(rng, n, m=7):
    """90%-zero columns with heavy ties, negatives and -0.0, a constant column and
    a column of adjacent floats whose midpoints round down."""
    X = rng.normal(size=(n, m)).round(1)
    X[rng.random((n, m)) < 0.9] = 0.0
    X[:, 1] = np.where(X[:, 1] == 0.0, -0.0, -np.abs(X[:, 1]))
    X[:, 2] = 3.0
    X[:, 3] = rng.choice([1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)], size=n)
    return X


def _hard_labels(rng, X):
    return (X[:, 0] - X[:, 1] + 0.3 * (X[:, 3] > 1.0) + 0.3 * rng.normal(size=X.shape[0]) > 0.2).astype(int)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scan_matches_reference_on_random_nodes(scan_paths):
    rng = np.random.default_rng(10)
    for trial in range(40):
        n = int(rng.integers(20, 400))
        X = _hard_matrix(rng, n)
        y = _hard_labels(rng, X).astype(float)
        w = rng.uniform(0.5, 3.0, size=n) if trial % 2 else np.ones(n)
        g, h = rng.normal(size=n), rng.uniform(0.05, 1.0, size=n)
        h[rng.random(n) < 0.3] = 0.0  # with leaf_l2=0, zero hessians give inf gains,
        g[(h == 0.0) & (rng.random(n) < 0.5)] = 0.0  # and NaN ones that rule a feature out
        codes, values = _rank_codes(X)
        for min_leaf in (1, 3):
            rows = np.sort(rng.choice(n, size=int(rng.integers(2 * min_leaf, n + 1)), replace=False))
            feats = np.sort(rng.choice(X.shape[1], size=int(rng.integers(1, X.shape[1] + 1)), replace=False))
            got = trees._best_split(_GiniCriterion(y, w), codes, values, rows, feats, min_leaf)
            assert (got and got[:2]) == _reference_gini(X, y, w, min_leaf, rows, feats)
            for lam in (1.0, 0.0):
                if h[rows].sum() + lam == 0.0:
                    continue
                got = trees._best_split(_GainCriterion(g, h, lam), codes, values, rows, feats, min_leaf)
                assert (got and got[:2]) == _reference_gain(X, g, h, lam, min_leaf, rows, feats)
    scan_paths({"sort", "counting"})


def test_trees_match_reference_grower(scan_paths):
    rng = np.random.default_rng(11)
    for trial in range(6):
        n = 600
        X = _hard_matrix(rng, n)
        y = _hard_labels(rng, X)
        w = rng.uniform(0.5, 3.0, size=n) if trial % 2 else np.where(y == 1, 7.0, 3.0)
        params = TreeParams(max_depth=None if trial % 2 else 8, min_samples_leaf=1 + 2 * (trial % 3))
        tree = fit_tree(X, y, sample_weight=w, params=params)
        crit = _GiniCriterion(y.astype(float), w)
        _assert_same_nodes(tree, _reference_grow(
            X, crit, lambda rows, f: _reference_gini(X, y.astype(float), w, params.min_samples_leaf, rows, f), params))

        g, h = rng.normal(size=n), rng.uniform(0.05, 1.0, size=n)
        tree = fit_gradient_tree(X, g, h, params, leaf_l2=0.5)
        crit = _GainCriterion(g, h, 0.5)
        _assert_same_nodes(tree, _reference_grow(
            X, crit, lambda rows, f: _reference_gain(X, g, h, 0.5, params.min_samples_leaf, rows, f), params))
    scan_paths({"sort", "counting"})


def test_seeded_forest_matches_reference_grower(scan_paths):
    rng = np.random.default_rng(12)
    X = _hard_matrix(rng, 500)
    y = _hard_labels(rng, X)
    w = np.where(y == 1, 2.0, 1.0)  # training_weight 2 on the positives
    params = ForestParams(n_trees=3, max_depth=10, min_samples_leaf=2, max_features=3)
    forest = fit_forest(X, y, params, training_weight=2.0, seed=9)
    for t, tree in enumerate(forest.trees):
        trng = derived_rng(9, 4, t)
        rows = trng.integers(0, X.shape[0], size=X.shape[0])
        Xt, yt, wt = X[rows], y[rows].astype(float), w[rows]
        nodes = _reference_grow(Xt, _GiniCriterion(yt, wt),
                                lambda r, f: _reference_gini(Xt, yt, wt, 2, r, f), params.tree_params(7), trng)
        _assert_same_nodes(tree, nodes)
    scan_paths({"counting"})


def test_scan_blocks_keep_first_feature_on_ties(monkeypatch):
    # duplicated columns land in different element-budget blocks: the earlier
    # block's copy must win, as the lowest feature index does in one pass
    monkeypatch.setattr(trees, "_BLOCK_ELEMENTS", 150)
    rng = np.random.default_rng(13)
    X = _hard_matrix(rng, 120)
    X = np.column_stack([X, X[:, ::-1]])
    y = _hard_labels(rng, X)
    tree = fit_tree(X, y, params=TreeParams(max_depth=6))
    crit = _GiniCriterion(y.astype(float), np.ones(120))
    _assert_same_nodes(tree, _reference_grow(
        X, crit, lambda rows, f: _reference_gini(X, y.astype(float), np.ones(120), 1, rows, f), TreeParams(max_depth=6)))


def test_wide_codes_and_several_blocks_match_reference(scan_paths):
    # > 65,536 distinct values in column 0 need uint32 codes; 70,000 rows x 16
    # features exceed one element-budget block at the root
    rng = np.random.default_rng(14)
    n, m = 70_000, 16
    assert n * m > trees._BLOCK_ELEMENTS
    X = _hard_matrix(rng, n, m)
    X[:, 0] = rng.permutation(n) / 7.0
    y = _hard_labels(rng, X)
    assert _rank_codes(X)[0].dtype == np.uint32
    assert _rank_codes(X[:, 1:])[0].dtype == np.uint16
    negatives, _ = _rank_codes(-1.0 - np.arange(1 << 16).reshape(-1, 1))  # 65,536 values, no zero
    assert negatives.dtype == np.uint16 and negatives[0, 0] == (1 << 16) - 1 and negatives[0, -1] == 0
    params = TreeParams(max_depth=2, min_samples_leaf=5)
    tree = fit_tree(X, y, params=params)
    w = np.ones(n)
    crit = _GiniCriterion(y.astype(float), w)
    _assert_same_nodes(tree, _reference_grow(
        X, crit, lambda rows, f: _reference_gini(X, y.astype(float), w, 5, rows, f), params))
    scan_paths({"counting"})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("test", [
    test_scan_matches_reference_on_random_nodes, test_trees_match_reference_grower,
    test_seeded_forest_matches_reference_grower, test_wide_codes_and_several_blocks_match_reference,
], ids=lambda test: test.__name__)
def test_sort_scan_alone_matches_reference(monkeypatch, test):
    test(_path_check(monkeypatch, sort_only=True))


@pytest.mark.parametrize("sort_only", [False, True], ids=["chosen", "sort_only"])
@pytest.mark.parametrize("a1, a0, per_row, counting", [
    (7.0, 3.0, False, True),
    (1000.0, 1.0, False, True),
    (0.1, 1.0, False, False),
    (1.0, 1.0, True, False),
    (2.0 ** 50, 1.0, False, False),
], ids=["class weights 3 and 7", "training weight 1000", "training weight 0.1", "per-row integer weights",
        "sums past 2**53"])
def test_scan_paths_by_weights_match_reference(monkeypatch, a1, a0, per_row, counting, sort_only):
    # a1 / a0 weigh the positive / negative rows; per_row multiplies them by integers 1-3
    scan_paths = _path_check(monkeypatch, sort_only)
    rng = np.random.default_rng(15)
    n = 600
    X = _hard_matrix(rng, n)
    y = _hard_labels(rng, X).astype(float)
    w = np.where(y == 1, a1, a0)
    if per_row:
        w *= rng.integers(1, 4, size=n)
    assert (_counting_weights(y, w) is not None) == counting
    params = TreeParams(max_depth=10, min_samples_leaf=2)
    tree = fit_tree(X, y, sample_weight=w, params=params)
    _assert_same_nodes(tree, _reference_grow(
        X, _GiniCriterion(y, w), lambda rows, f: _reference_gini(X, y, w, 2, rows, f), params))
    scan_paths({"counting" if counting else "sort"})


@pytest.mark.parametrize("sort_only", [False, True], ids=["chosen", "sort_only"])
@pytest.mark.parametrize("label", [0.0, 1.0])
def test_counting_scan_of_one_class(monkeypatch, label, sort_only):
    scan_paths = _path_check(monkeypatch, sort_only)
    # a node, or a whole training set, of one class has no impurity to remove
    rng = np.random.default_rng(16)
    X = _hard_matrix(rng, 200)
    y = _hard_labels(rng, X).astype(float)
    codes, values = _rank_codes(X)
    feats = np.arange(X.shape[1])
    rows = np.flatnonzero(y == label)
    w = np.where(y == 1, 7.0, 3.0)
    assert trees._best_split(_GiniCriterion(y, w), codes, values, rows, feats, 1) is None
    assert _reference_gini(X, y, w, 1, rows, feats) is None
    y = np.full(200, label)
    w = np.where(y == 1, 7.0, 3.0)
    assert _counting_weights(y, w)[:2] == ((0.0, 7.0) if label else (3.0, 0.0))
    assert trees._best_split(_GiniCriterion(y, w), codes, values, np.arange(200), feats, 1) is None
    scan_paths({"counting"})


def test_grower_leaves_are_where_predict_routes_rows():
    # fit_gbt updates its scores from the grower's leaves instead of predict_value
    rng = np.random.default_rng(17)
    X = _hard_matrix(rng, 600)
    y = _hard_labels(rng, X).astype(float)
    g, h = rng.normal(size=600), rng.uniform(0.05, 1.0, size=600)
    assert (X == 0.0).any() and np.signbit(X[X == 0.0]).any()  # rows with -0.0
    for criterion in (_GiniCriterion(y, np.ones(600)), _GainCriterion(g, h, 1.0)):
        tree, leaf = _grow(criterion, *_rank_codes(X), TreeParams(max_depth=12), None)
        np.testing.assert_array_equal(leaf, _leaf_assignment(tree, X))
        np.testing.assert_array_equal(tree.value[leaf], tree.predict_value(X))
        split = tree.feature >= 0
        assert (X[:, tree.feature[split]] == tree.threshold[split]).any()  # rows at a threshold


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf gains of zero-hessian children
def test_zero_hessian_nodes_become_zero_leaves():
    # Rows of a saturated sigmoid have hessian exactly 0; with leaf_l2=0 a node of
    # only such rows has no Newton step, so it stays a leaf that moves no score.
    X = np.c_[np.repeat([0.0, 1.0], 10), np.arange(20.0)]
    g = np.r_[np.full(10, 0.7), np.linspace(-1.0, 1.0, 10)]
    h = np.r_[np.zeros(10), np.full(10, 0.25)]
    tree = fit_gradient_tree(X, g, h, TreeParams(max_depth=4), leaf_l2=0.0)
    assert tree.feature[0] == 0 and np.isfinite(tree.value).all()
    pred = tree.predict_value(X)
    assert (pred[:10] == 0.0).all() and (pred[10:] != 0.0).any()
    root_only = fit_gradient_tree(X, g, np.zeros(20), leaf_l2=0.0)
    assert root_only.n_nodes == 1 and root_only.value[0] == 0.0


def test_training_weight_scales_positive_rows():
    X = np.arange(8.0).reshape(4, 2)
    _, y, w = trees.check_training_inputs(X, [0, 1, 1, 0], [1.0, 2.0, 0.5, 3.0], 10.0)
    assert y.tolist() == [0.0, 1.0, 1.0, 0.0] and w.tolist() == [1.0, 20.0, 5.0, 3.0]


@pytest.mark.parametrize("training_weight", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("fit", [fit_forest, fit_gbt, fit_logistic], ids=lambda f: f.__name__)
def test_every_fitter_rejects_a_bad_training_weight(fit, training_weight):
    X, y = _rand_data(np.random.default_rng(5), n=20)
    with pytest.raises(InputError, match=r"^training_weight must be finite and > 0$"):
        fit(X, y, training_weight=training_weight)
