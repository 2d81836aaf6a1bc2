import numpy as np
import pytest

import debris_ews.trees as trees
from debris_ews import (DecisionTree, ForestParams, GbtParams, InputError, TreeParams, fit_forest, fit_gbt,
                        fit_logistic, fit_tree)
from debris_ews._common import derived_rng
from debris_ews.modelio import load_model, save_model
from debris_ews.trees import _GainCriterion, _GiniCriterion, _counting_weights, _grow, _rank_codes, check_rows

from oracles import compacting_leaves


def fit_gradient_tree(X, grad, hess, params=TreeParams(), leaf_l2=1.0):
    """One boosting stage on its own: the regression tree fit_gbt grows on gradient/hessian sums."""
    X, grad, hess = (np.asarray(a, dtype=np.float64) for a in (X, grad, hess))
    return _grow(_GainCriterion(grad, hess, leaf_l2), *_rank_codes(X), np.arange(X.shape[0]), params, None)


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
    leaf_of = compacting_leaves(tree, X)
    _, counts = np.unique(leaf_of, return_counts=True)
    assert counts.min() >= 17


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


def _scan(criterion, codes, values, rows, features, min_leaf):
    """trees._best_split on a node, looked up at call time so that _path_check sees it."""
    return trees._best_split(criterion, criterion.node(rows), codes, values, rows, features, min_leaf)


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


def _reference_gain(X, g, h, lam, min_leaf, rows, features, sizes=None):
    """sizes, by row of X, counts the rows each stands for toward min_leaf (1 by default)."""
    sizes = np.ones(X.shape[0]) if sizes is None else sizes
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
            k = np.cumsum(sizes[rows][order])[:-1]
            ok &= (k >= min_leaf) & (sizes[rows].sum() - k >= min_leaf)
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


def _gini_leaf(y, w):
    """Leaf value and purity of a weighted-Gini node, from its own row sums."""
    def leaf(rows):
        return float((w * y)[rows].sum() / w[rows].sum()), bool(y[rows].max() == y[rows].min())
    return leaf


def _gain_leaf(g, h, lam):
    """Leaf value and purity of a boosting node; no curvature gives a zero leaf."""
    def leaf(rows):
        H = float(h[rows].sum())
        if H + lam == 0:
            return 0.0, True
        return float(-g[rows].sum() / (H + lam)), False
    return leaf


def _reference_grow(X, leaf, split, params, rng=None, sizes=None):
    """Depth-first, left subtree first, rows partitioned on the float values; leaf(rows)
    gives a node's (value, pure). sizes, by row of X, counts the rows each stands for
    toward min_samples_leaf (1 by default)."""
    n, m = X.shape
    sizes = np.ones(n) if sizes is None else sizes
    m_try = m if params.max_features is None else params.max_features
    max_depth = np.inf if params.max_depth is None else params.max_depth
    nodes = ([], [], [], [], [])  # feature, threshold, left, right, value

    def new_node():
        for column, blank in zip(nodes, (-1, np.nan, -1, -1, 0.0)):
            column.append(blank)
        return len(nodes[0]) - 1

    def grow(slot, rows, depth):
        nodes[4][slot], pure = leaf(rows)
        if depth >= max_depth or sizes[rows].sum() < 2 * params.min_samples_leaf or pure:
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
    for name, column in zip(("feature", "threshold", "left", "right", "value"), nodes):
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
            got = _scan(_GiniCriterion(y, w), codes, values, rows, feats, min_leaf)
            assert (got and got[:2]) == _reference_gini(X, y, w, min_leaf, rows, feats)
            for lam in (1.0, 0.0):
                if h[rows].sum() + lam == 0.0:
                    continue
                got = _scan(_GainCriterion(g, h, lam), codes, values, rows, feats, min_leaf)
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
        leaf = _gini_leaf(y.astype(float), w)
        _assert_same_nodes(tree, _reference_grow(
            X, leaf, lambda rows, f: _reference_gini(X, y.astype(float), w, params.min_samples_leaf, rows, f), params))

        g, h = rng.normal(size=n), rng.uniform(0.05, 1.0, size=n)
        tree = fit_gradient_tree(X, g, h, params, leaf_l2=0.5)
        _assert_same_nodes(tree, _reference_grow(
            X, _gain_leaf(g, h, 0.5), lambda rows, f: _reference_gain(X, g, h, 0.5, params.min_samples_leaf, rows, f),
            params))
    scan_paths({"sort", "counting"})


def _check_seeded_forest(training_weight):
    """Each bootstrap tree of a seeded forest against the reference grower on its resample."""
    rng = np.random.default_rng(12)
    X = _hard_matrix(rng, 500)
    y = _hard_labels(rng, X)
    w = np.where(y == 1, training_weight, 1.0)
    params = ForestParams(n_trees=3, max_depth=10, min_samples_leaf=2, max_features=3)
    forest = fit_forest(X, y, params, training_weight=training_weight, seed=9)
    for t, tree in enumerate(forest.trees):
        trng = derived_rng(9, 4, t)
        rows = trng.integers(0, X.shape[0], size=X.shape[0])
        Xt, yt, wt = X[rows], y[rows].astype(float), w[rows]
        nodes = _reference_grow(Xt, _gini_leaf(yt, wt),
                                lambda r, f: _reference_gini(Xt, yt, wt, 2, r, f), params.tree_params(7), trng)
        _assert_same_nodes(tree, nodes)


def test_seeded_forest_matches_reference_grower(scan_paths):
    _check_seeded_forest(2.0)
    scan_paths({"counting"})


def test_fractional_weight_forest_matches_reference_grower(scan_paths):
    # training weight 2.5 takes the sort scan, over bootstrap resamples with repeated rows
    _check_seeded_forest(2.5)
    scan_paths({"sort"})


def test_scan_blocks_keep_first_feature_on_ties(monkeypatch):
    # duplicated columns land in different element-budget blocks: the earlier
    # block's copy must win, as the lowest feature index does in one pass
    monkeypatch.setattr(trees, "_BLOCK_ELEMENTS", 150)
    rng = np.random.default_rng(13)
    X = _hard_matrix(rng, 120)
    X = np.column_stack([X, X[:, ::-1]])
    y = _hard_labels(rng, X)
    tree = fit_tree(X, y, params=TreeParams(max_depth=6))
    w = np.ones(120)
    _assert_same_nodes(tree, _reference_grow(
        X, _gini_leaf(y.astype(float), w), lambda rows, f: _reference_gini(X, y.astype(float), w, 1, rows, f),
        TreeParams(max_depth=6)))


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
    _assert_same_nodes(tree, _reference_grow(
        X, _gini_leaf(y.astype(float), w), lambda rows, f: _reference_gini(X, y.astype(float), w, 5, rows, f), params))
    scan_paths({"counting"})


def _reference_rank_codes(X):
    """Per-column np.unique over the whole column; adding 0.0 turns -0.0 into the 0.0
    that _rank_codes keeps for the zeros."""
    uniques = [np.unique(col + 0.0, return_inverse=True) for col in np.asarray(X, dtype=np.float64).T]
    dtype = np.uint32 if any(v.size > 1 << 16 for v, _ in uniques) else np.uint16
    return np.array([inv for _, inv in uniques], dtype=dtype).reshape(X.shape[::-1]), [v for v, _ in uniques]


def _rank_code_cases():
    rng = np.random.default_rng(19)
    hard = _hard_matrix(rng, 300, m=7)
    mixed = np.array([[-0.0, 2.0, 0.0, -1.5, 0.0, 0.0], [0.0, -3.0, 0.0, 4.0, 0.0, -0.0],
                      [-0.0, 2.0, 0.0, 7.0, 0.0, 0.0], [1.0, -3.0, 0.0, -1.5, -0.0, -0.0]])
    wide = np.zeros((70_000, 3))
    wide[:, 0] = rng.permutation(70_000) - 30_000.5  # > 65,536 distinct values, negatives, no zero
    wide[::3, 1] = -rng.permutation(70_000)[::3] / 3.0
    return {
        "hard": hard,
        "signed zeros, an all-zero column, a column with no zero": mixed,
        "one row": hard[:1],
        "one row, no zero": np.array([[-2.0, 5.0, 0.5]]),
        "fortran": np.asfortranarray(hard),
        "column slice": hard[:, ::2],
        "row slice": hard[::-3, 1:],
        "wide": wide,
        "wide, no column past 65,536": wide[:, 1:],
    }


@pytest.mark.parametrize("case", list(_rank_code_cases()))
def test_rank_codes_match_a_unique_over_each_whole_column(case):
    X = _rank_code_cases()[case]
    codes, values = _rank_codes(X)
    ref_codes, ref_values = _reference_rank_codes(X)
    assert codes.dtype == ref_codes.dtype and codes.flags.c_contiguous
    np.testing.assert_array_equal(codes, ref_codes)
    assert len(values) == len(ref_values)
    for v, ref in zip(values, ref_values):
        assert v.view(np.uint64).tolist() == ref.view(np.uint64).tolist()  # +0.0 for every zero


@pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
def test_packed_sort_keys_around_65536_rows_match_reference(monkeypatch, n):
    # uint16 codes up to 65,535: a root of 65,536 rows packs code << 16 | position
    # into uint32 keys up to 2**32 - 1, and one more row needs uint64 keys
    scan_paths = _path_check(monkeypatch, sort_only=True)
    rng = np.random.default_rng(18)
    X = _hard_matrix(rng, n, 4)
    X[:, 0] = rng.permutation(n) % (1 << 16) / 7.0
    assert _rank_codes(X)[0].dtype == np.uint16 and _rank_codes(X)[0].max() == (1 << 16) - 1
    y = _hard_labels(rng, X).astype(float)
    w = np.where(y == 1, 2.5, 1.0)
    params = TreeParams(max_depth=2, min_samples_leaf=5)
    _assert_same_nodes(fit_tree(X, y, sample_weight=w, params=params), _reference_grow(
        X, _gini_leaf(y, w), lambda rows, f: _reference_gini(X, y, w, 5, rows, f), params))
    g, h = rng.normal(size=n), rng.uniform(0.05, 1.0, size=n)
    _assert_same_nodes(fit_gradient_tree(X, g, h, params), _reference_grow(
        X, _gain_leaf(g, h, 1.0), lambda rows, f: _reference_gain(X, g, h, 1.0, 5, rows, f), params))
    scan_paths({"sort"})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("test", [
    test_scan_matches_reference_on_random_nodes, test_trees_match_reference_grower,
    test_seeded_forest_matches_reference_grower, test_fractional_weight_forest_matches_reference_grower,
    test_wide_codes_and_several_blocks_match_reference,
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
        X, _gini_leaf(y, w), lambda rows, f: _reference_gini(X, y, w, 2, rows, f), params))
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
    assert _scan(_GiniCriterion(y, w), codes, values, rows, feats, 1) is None
    assert _reference_gini(X, y, w, 1, rows, feats) is None
    y = np.full(200, label)
    w = np.where(y == 1, 7.0, 3.0)
    assert _counting_weights(y, w)[:2] == ((0.0, 7.0) if label else (3.0, 0.0))
    assert _scan(_GiniCriterion(y, w), codes, values, np.arange(200), feats, 1) is None
    scan_paths({"counting"})


def test_grower_leaves_are_where_predict_routes_rows():
    # fit_gbt updates its scores from the grower's leaves instead of predict_value
    rng = np.random.default_rng(17)
    X = _hard_matrix(rng, 600)
    y = _hard_labels(rng, X).astype(float)
    g, h = rng.normal(size=600), rng.uniform(0.05, 1.0, size=600)
    assert (X == 0.0).any() and np.signbit(X[X == 0.0]).any()  # rows with -0.0
    for criterion in (_GiniCriterion(y, np.ones(600)), _GainCriterion(g, h, 1.0)):
        leaf = np.full(600, -1, dtype=np.intp)
        tree = _grow(criterion, *_rank_codes(X), np.arange(600), TreeParams(max_depth=12), None, leaf=leaf)
        np.testing.assert_array_equal(leaf, compacting_leaves(tree, X))
        np.testing.assert_array_equal(leaf, tree.leaves(X))
        np.testing.assert_array_equal(tree.value[leaf], tree.predict_value(X))
        split = tree.feature >= 0
        assert (X[:, tree.feature[split]] == tree.threshold[split]).any()  # rows at a threshold


def _random_tree(rng, X, depth):
    """A tree of at most depth levels whose leaves lie at mixed depths, numbered as
    the grower numbers its nodes; a threshold is a value of its feature's column
    (so rows sit exactly at it) or a zero of either sign."""
    nodes = []  # [feature, threshold, left, right]

    def grow(level):
        i = len(nodes)
        nodes.append([-1, np.nan, -1, -1])
        if level < depth and (level == 0 or rng.random() < 0.75):
            f = int(rng.integers(X.shape[1]))
            thr = rng.choice(np.r_[X[:, f], 0.0, -0.0])
            nodes[i][:2] = f, thr
            nodes[i][2] = grow(level + 1)
            nodes[i][3] = grow(level + 1)
        return i

    grow(0)
    feature, threshold, left, right = (np.array(c) for c in zip(*nodes))
    n = feature.size
    return DecisionTree(feature.astype(np.int32), threshold.astype(np.float64), left.astype(np.int32),
                        right.astype(np.int32), rng.normal(size=n), X.shape[1])


def _assert_walks_agree(tree, X):
    """leaves() and predict_value on X give the compacting walk's leaves and their values, bit for bit."""
    expected = compacting_leaves(tree, X)
    np.testing.assert_array_equal(tree.leaves(check_rows(X, tree.n_features)), expected)
    value = tree.predict_value(X)
    assert value.tobytes() == tree.value[expected].tobytes()


def test_level_walk_matches_the_compacting_walk_on_random_trees():
    rng = np.random.default_rng(30)
    X = _hard_matrix(rng, 300)
    depths = set()
    for trial in range(60):
        tree = _random_tree(rng, X, depth=int(rng.integers(0, 13)))
        depths.add(tree.depth())
        _assert_walks_agree(tree, X)
        _assert_walks_agree(tree, X[7:8])  # a single row
        split = tree.feature >= 0
        assert not split.any() or (X[:, tree.feature[split]] == tree.threshold[split]).any()
    assert 0 in depths and len(depths) > 8  # root-only trees and a spread of depths


def test_rows_at_a_threshold_go_right_whatever_the_sign_of_zero():
    X = np.array([[-0.0], [0.0], [-5e-324], [5e-324], [-1.5], [1.5]])
    for thr in (0.0, -0.0):
        stump = DecisionTree(np.array([0, -1, -1], dtype=np.int32), np.array([thr, np.nan, np.nan]),
                             np.array([1, -1, -1], dtype=np.int32), np.array([2, -1, -1], dtype=np.int32),
                             np.array([0.0, 0.25, 0.75]), 1)
        assert stump.leaves(check_rows(X, 1)).tolist() == [2, 2, 1, 2, 1, 2]
        _assert_walks_agree(stump, X)
    at = np.array([[1.5], [np.nextafter(1.5, 0.0)]])
    stump = fit_tree(np.array([[1.0], [2.0]]), [0, 1])
    assert stump.threshold[0] == 1.5 and stump.predict_value(at).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("layout", ["fortran", "column slice", "row slice", "list"])
def test_level_walk_reads_any_layout_of_the_matrix(layout):
    rng = np.random.default_rng(31)
    X = _hard_matrix(rng, 400, m=8)
    y = _hard_labels(rng, X)
    forest = fit_forest(X[:, ::2], y, ForestParams(n_trees=4, max_depth=9), seed=3)
    gbt = fit_gbt(X[:, ::2], y, params=GbtParams(n_trees=3, max_depth=5))
    view = {"fortran": np.asfortranarray(X[:, ::2]), "column slice": X[:, ::2], "row slice": X[::-2, ::2],
            "list": X[:, ::2].tolist()}[layout]
    dense = np.ascontiguousarray(view, dtype=np.float64)
    assert dense.flags.c_contiguous and (layout == "list" or not view.flags.c_contiguous)
    for tree in (*forest.trees, *gbt.trees):
        np.testing.assert_array_equal(tree.predict_value(view), tree.value[compacting_leaves(tree, dense)])
    assert forest.predict_proba(view).tobytes() == forest.predict_proba(dense).tobytes()
    assert gbt.predict_proba(view).tobytes() == gbt.predict_proba(dense).tobytes()


def test_level_walk_matches_the_compacting_walk_on_loaded_trees(tmp_path):
    rng = np.random.default_rng(32)
    X = _hard_matrix(rng, 500)
    y = _hard_labels(rng, X)
    X_test = _hard_matrix(rng, 300)
    for i, model in enumerate([fit_forest(X, y, ForestParams(n_trees=5, max_depth=12), seed=4),
                               fit_gbt(X, y, params=GbtParams(n_trees=4, max_depth=6))]):
        save_model(tmp_path / f"{i}.json", model)
        loaded, _ = load_model(tmp_path / f"{i}.json")
        for tree in loaded.trees:
            assert tree.left.dtype == tree.right.dtype == np.int32
            _assert_walks_agree(tree, X_test)
        assert loaded.predict_proba(X_test).tobytes() == model.predict_proba(X_test).tobytes()


BAD_MATRICES = pytest.mark.parametrize("bad, message", [
    ([[0.0, np.nan, 1.0, 2.0]], "feature matrix contains NaN or infinite values"),
    ([[0.0, np.inf, 1.0]], "feature matrix contains NaN or infinite values"),
    (np.ones((3, 5)), "expected 4 features, got 5"),
    (np.ones((3, 3)).T[:, :2], "expected 4 features, got 2"),
    (np.zeros((0, 4)), "feature matrix must be non-empty 2-D, got shape (0, 4)"),
    (np.zeros((2, 0)), "feature matrix must be non-empty 2-D, got shape (2, 0)"),
    (np.ones(4), "feature matrix must be non-empty 2-D, got shape (4,)"),
], ids=["nan", "inf", "wide", "narrow view", "no rows", "no columns", "1-D"])


@BAD_MATRICES
def test_every_tree_scorer_rejects_a_bad_matrix_before_any_walk(monkeypatch, bad, message):
    X, y = _rand_data(np.random.default_rng(33), n=60)
    tree = fit_tree(X, y, params=TreeParams(max_depth=3))
    forest = fit_forest(X, y, ForestParams(n_trees=2, max_depth=3), seed=0)
    gbt = fit_gbt(X, y, params=GbtParams(n_trees=2, max_depth=3))

    def no_walk(self, X):
        raise AssertionError("walked a matrix that fails its check")

    monkeypatch.setattr(DecisionTree, "leaves", no_walk)
    for score in (tree.predict_value, forest.predict_proba, gbt.predict_proba):
        with pytest.raises(InputError) as err:
            score(bad)
        assert str(err.value) == message


@BAD_MATRICES
def test_the_logistic_scorer_rejects_a_bad_matrix_as_the_trees_do(bad, message):
    X, y = _rand_data(np.random.default_rng(33), n=60)
    with pytest.raises(InputError) as err:
        fit_logistic(X, y).predict_proba(bad)
    assert str(err.value) == message


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


@pytest.mark.parametrize("sample_weight, training_weight", [(1e300, 1e10), (1e-300, 1e-30)], ids=["inf", "zero"])
@pytest.mark.parametrize("fit", [fit_forest, fit_gbt, fit_logistic], ids=lambda f: f.__name__)
def test_every_fitter_rejects_positive_weights_out_of_range(fit, sample_weight, training_weight):
    X, y = _rand_data(np.random.default_rng(5), n=20)
    with pytest.raises(InputError, match=r"^training_weight times a sample weight must be finite and > 0$"):
        fit(X, y, sample_weight=np.full(20, sample_weight), training_weight=training_weight)


@pytest.mark.parametrize("fit", [fit_tree, fit_forest, fit_gbt, fit_logistic], ids=lambda f: f.__name__)
def test_every_fitter_rejects_weight_totals_whose_square_overflows(fit):
    # 1e150 a row trains; at 1e305 a row Gini's P * (W - P) and the gain's G * G
    # would overflow, every split would lose to the parent and each tree would be
    # one leaf
    X, y = _rand_data(np.random.default_rng(5), n=200, m=3)
    fit(X, y, sample_weight=np.full(200, 1e150))
    with pytest.raises(InputError, match=r"^the weights sum to 2e\+307 with training_weight 1; their sum must be "
                                         r"at most 1\.341e\+154, so that its square is finite$"):
        fit(X, y, sample_weight=np.full(200, 1e305))


def test_weights_scaled_up_to_the_bound_grow_the_unit_weight_tree():
    # a power-of-two scale changes no rounding; 200 * 2**504 is just under the bound
    X, y = _rand_data(np.random.default_rng(5), n=200, m=3)
    unit = fit_tree(X, y)
    assert unit.feature.size > 1
    scaled = fit_tree(X, y, sample_weight=np.full(200, 2.0**504))
    assert np.array_equal(scaled.feature, unit.feature) and np.array_equal(scaled.threshold, unit.threshold, equal_nan=True)
    with pytest.raises(InputError, match="so that its square is finite"):
        fit_tree(X, y, sample_weight=np.full(200, 2.0**505))


@pytest.mark.parametrize("fit", [fit_forest, fit_gbt, fit_logistic], ids=lambda f: f.__name__)
def test_every_fitter_rejects_weights_that_sum_past_the_largest_float(fit):
    X, y = _rand_data(np.random.default_rng(5), n=20)
    assert 2 <= y.sum()
    message = "^the weights sum to inf with training_weight {}; their sum must be finite$"
    with pytest.raises(InputError, match=message.format(r"1e\+308")):
        fit(X, y, training_weight=1e308)
    with pytest.raises(InputError, match=message.format("1")):  # sample weights alone
        fit(X, y, sample_weight=np.full(20, 1e307))
