import json
import tracemalloc

import numpy as np
import pytest

import debris_ews._common as common
import debris_ews.trees as trees
from debris_ews import (
    ForestModel,
    ForestParams,
    GbtParams,
    InputError,
    TreeParams,
    fit_forest,
    fit_gbt,
    fit_tree,
)
from debris_ews._common import derived_rng
from debris_ews.forest import grow_forest
from debris_ews.gbt import grow_gbt
from debris_ews.modelio import model_to_doc
from debris_ews.trees import NODE_ARRAYS, _GiniCriterion, _counting_weights, _rank_codes, check_training_inputs

from oracles import copying_grow_forest, copying_grow_gbt


def _imbalanced(rng, n=400, m=5, pos_rate=0.08):
    X = rng.normal(size=(n, m))
    margin = X[:, 0] + 0.8 * X[:, 1] - np.quantile(X[:, 0] + 0.8 * X[:, 1], 1 - pos_rate)
    y = (margin + 0.3 * rng.normal(size=n) > 0).astype(int)
    if y.sum() == 0:
        y[0] = 1
    return X, y


@pytest.fixture
def four_cpus(monkeypatch):
    """map_indexed caps its pool at the usable CPUs: with four, threads=4 runs four
    threads on a host of any size."""
    monkeypatch.setattr(common.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)


def test_single_tree_no_bootstrap_equals_fit_tree():
    rng = np.random.default_rng(0)
    X, y = _imbalanced(rng)
    params = ForestParams(n_trees=1, max_depth=4, min_samples_leaf=2, max_features=5, bootstrap=False)
    forest = fit_forest(X, y, params, seed=3)
    tree = fit_tree(X, y, params=TreeParams(max_depth=4, min_samples_leaf=2, max_features=5), seed=3)
    np.testing.assert_array_equal(forest.trees[0].feature, tree.feature)
    np.testing.assert_array_equal(forest.trees[0].threshold, tree.threshold)
    np.testing.assert_array_equal(forest.predict_proba(X), tree.predict_value(X))


def test_same_seed_bit_identical_serialization():
    rng = np.random.default_rng(1)
    X, y = _imbalanced(rng)
    a = fit_forest(X, y, ForestParams(n_trees=6, max_depth=6), seed=11)
    b = fit_forest(X, y, ForestParams(n_trees=6, max_depth=6), seed=11)
    assert json.dumps(model_to_doc(a), sort_keys=True) == json.dumps(model_to_doc(b), sort_keys=True)
    c = fit_forest(X, y, ForestParams(n_trees=6, max_depth=6), seed=12)
    assert json.dumps(model_to_doc(a), sort_keys=True) != json.dumps(model_to_doc(c), sort_keys=True)


@pytest.mark.usefixtures("four_cpus")
def test_thread_count_does_not_change_model():
    rng = np.random.default_rng(2)
    X, y = _imbalanced(rng, n=200)
    a = fit_forest(X, y, ForestParams(n_trees=8, max_depth=5), seed=4, threads=1)
    b = fit_forest(X, y, ForestParams(n_trees=8, max_depth=5), seed=4, threads=4)
    assert json.dumps(model_to_doc(a), sort_keys=True) == json.dumps(model_to_doc(b), sort_keys=True)


def test_forest_score_is_mean_of_tree_scores():
    rng = np.random.default_rng(3)
    X, y = _imbalanced(rng)
    forest = fit_forest(X, y, ForestParams(n_trees=7, max_depth=4), seed=5)
    per_tree = np.stack([t.predict_value(X) for t in forest.trees])
    np.testing.assert_allclose(forest.predict_proba(X), per_tree.mean(axis=0), rtol=1e-15)
    scores = forest.predict_proba(X)
    assert (scores >= 0).all() and (scores <= 1).all()


def test_two_stump_forest_averages_leaf_fractions():
    from debris_ews import ForestModel
    from debris_ews.trees import DecisionTree

    def leaf(fraction):
        return DecisionTree(
            feature=np.array([-1], dtype=np.int32),
            threshold=np.array([np.nan]),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            value=np.array([fraction]),
            n_features=2,
        )

    forest = ForestModel((leaf(0.2), leaf(0.8)), ForestParams(n_trees=2), 0, 1.0, 2)
    assert forest.predict_proba(np.zeros((3, 2))).tolist() == [0.5, 0.5, 0.5]


def test_high_training_weight_raises_training_recall():
    rng = np.random.default_rng(6)
    X, y = _imbalanced(rng, n=500, pos_rate=0.06)
    params = ForestParams(n_trees=10, max_depth=6)
    lo = fit_forest(X, y, params, training_weight=1.0, seed=9)
    hi = fit_forest(X, y, params, training_weight=1e6, seed=9)

    def recall(model):
        pred = model.predict_proba(X) >= 0.5
        return (pred & (y == 1)).sum() / max(1, y.sum())

    assert recall(hi) >= recall(lo)


def test_degenerate_and_invalid_params():
    rng = np.random.default_rng(7)
    X, y = _imbalanced(rng, n=60)
    with pytest.raises(InputError):
        ForestParams(n_trees=0)
    with pytest.raises(InputError):
        fit_forest(X, y, ForestParams(max_features=99), seed=0)
    with pytest.raises(InputError):
        fit_forest(X, y, training_weight=0.0, seed=0)


@pytest.mark.parametrize("training_weight", [1.0, 10.0, 2.5])
@pytest.mark.parametrize("wide", [False, True], ids=["uint16", "uint32"])
def test_forest_on_rows_of_a_wider_coding_equals_fit_on_the_rows(training_weight, wide):
    # cv codes its whole matrix once and grows each fold's forests on the fold's rows;
    # with wide, only the whole matrix has > 65,536 distinct values in a column
    rng = np.random.default_rng(8)
    n = 70_000 if wide else 400
    X, y = _imbalanced(rng, n=n)
    X = X.round(1)
    X[rng.random(X.shape) < 0.5] = 0.0
    if wide:
        X[:, 0] = rng.permutation(n) / 7.0
    rows = np.sort(rng.choice(n, size=300, replace=False))
    Xc, yc, w = check_training_inputs(X, y, None, training_weight)
    codes, values = _rank_codes(Xc)
    assert codes.dtype == (np.uint32 if wide else np.uint16)
    params = ForestParams(n_trees=3, max_depth=8, min_samples_leaf=2)
    grown = grow_forest(codes, values, yc, w, rows, params, training_weight, seed=4)
    fit = fit_forest(X[rows], y[rows], params, training_weight, seed=4)
    assert json.dumps(model_to_doc(grown)) == json.dumps(model_to_doc(fit))


def _tree_bytes(model):
    return [[getattr(t, name).tobytes() for name in NODE_ARRAYS] for t in model.trees]


def _coded_subset(seed, n, training_weight, sample_weight=None):
    """Rank codes of a tied, zero-heavy set of n rows, its checked labels and weights, and
    a strict subset of its rows, as cv passes them."""
    rng = np.random.default_rng(seed)
    X, y = _imbalanced(rng, n=n)
    X = X.round(1)
    X[rng.random(X.shape) < 0.5] = 0.0
    weights = {"integers": rng.integers(1, 4, size=n), "fractions": rng.uniform(0.5, 3.0, size=n)}.get(sample_weight)
    Xc, yc, w = check_training_inputs(X, y, weights, training_weight)
    return (*_rank_codes(Xc), yc, w), np.sort(rng.choice(n, size=n * 3 // 4, replace=False))


@pytest.mark.usefixtures("four_cpus")
@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("training_weight, sample_weight, counting", [
    (1.0, None, True), (0.1, None, False), (1.0, "integers", False), (2.5, "fractions", False),
], ids=["counting scan", "sort scan", "per-row integer weights", "per-row fractional weights"])
def test_forest_on_shared_codes_equals_the_copying_grower(training_weight, sample_weight, counting, threads):
    coded, subset = _coded_subset(20, 400, training_weight, sample_weight)
    codes, values, y, w = coded
    for rows in (np.arange(codes.shape[1]), subset):
        assert (_GiniCriterion(y, w, rows).counts is not None) == counting
        for bootstrap in (True, False):
            params = ForestParams(n_trees=5, max_depth=8, min_samples_leaf=2, bootstrap=bootstrap)
            args = (*coded, rows, params, training_weight, 4, threads)
            assert _tree_bytes(grow_forest(*args)) == _tree_bytes(copying_grow_forest(*args))


def test_tiny_sets_whose_draws_are_uniform_grow_the_copying_growers_trees():
    # each copying tree chose its scan from its draw; the shared criterion chooses from
    # the set, whose weights are not uniform, so a uniform draw now takes the sort scan
    hits = {"uniform draw": 0, "one class": 0}
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = 6
        X = rng.integers(0, 3, size=(n, 3)).astype(float)
        y = np.array([0, 0, 1, 1, 0, 1])
        Xc, yc, w = check_training_inputs(X, y, rng.integers(1, 3, size=n), 1.0)
        rows = np.arange(n)
        assert _GiniCriterion(yc, w).counts is None
        params = ForestParams(n_trees=8, max_depth=None, min_samples_leaf=1, max_features=2)
        args = (*_rank_codes(Xc), yc, w, rows, params, 1.0, seed)
        assert _tree_bytes(grow_forest(*args)) == _tree_bytes(copying_grow_forest(*args))
        for t in range(params.n_trees):
            r = derived_rng(seed, 4, t).integers(0, n, size=n)
            hits["uniform draw"] += _counting_weights(yc[r], w[r]) is not None
            hits["one class"] += np.unique(yc[r]).size == 1
    assert min(hits.values()) > 0, hits


@pytest.mark.parametrize("training_weight, sample_weight", [(1.0, None), (2.5, "fractions")])
def test_gbt_on_shared_codes_equals_the_copying_grower(training_weight, sample_weight):
    coded, subset = _coded_subset(21, 400, training_weight, sample_weight)
    params = GbtParams(n_trees=4, learning_rate=0.3, max_depth=5, min_samples_leaf=2)
    for rows in (np.arange(400), subset):
        grown = grow_gbt(*coded, rows, params, training_weight)
        copied = copying_grow_gbt(*coded, rows, params, training_weight)
        assert json.dumps(model_to_doc(grown)) == json.dumps(model_to_doc(copied))


def test_grow_forest_peaks_below_one_copy_of_the_codes():
    # the trees read the shared codes through their rows' ids: a grower that copied a
    # tree's codes would trace codes.nbytes for the copy alone
    rng = np.random.default_rng(22)
    n, m = 100_000, 48
    X = rng.integers(1, 200, size=(n, m)) * 0.1
    X[rng.random((n, m)) < 0.9] = 0.0
    y = (X[:, 0] + X[:, 1] + rng.normal(size=n) > 2.0).astype(int)
    Xc, yc, w = check_training_inputs(X, y, None, 1.0)
    codes, values = _rank_codes(Xc)
    assert codes.nbytes > 24 * trees._BLOCK_ELEMENTS  # the scan's gather and key scratch of one block
    params = ForestParams(n_trees=2, max_depth=3)
    tracemalloc.start()
    try:
        grow_forest(codes, values, yc, w, np.arange(n), params, 1.0, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < codes.nbytes, (peak, codes.nbytes)


def test_grow_forest_on_dry_rows_peaks_below_one_copy_of_the_codes():
    # the same bound where most rows are dry: a tree's root holds its draw's other ids
    # and two dry ones, and the dry-row mask is made one feature at a time
    rng = np.random.default_rng(23)
    n, m = 100_000, 48
    X = rng.integers(1, 200, size=(n, m)) * 0.1
    X[rng.random((n, m)) < 0.5] = 0.0
    X[rng.random(n) < 0.8] = 0.0
    y = (X[:, 0] + X[:, 1] + rng.normal(size=n) > 2.0).astype(int)
    Xc, yc, w = check_training_inputs(X, y, None, 1.0)
    codes, values = _rank_codes(Xc)
    assert trees._dry_rows(codes, values).mean() > 0.75
    params = ForestParams(n_trees=2, max_depth=3)
    tracemalloc.start()
    try:
        grow_forest(codes, values, yc, w, np.arange(n), params, 1.0, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < codes.nbytes, (peak, codes.nbytes)


# Dry rows (0 in every feature) ride a counting-scan forest tree as one counted group.
# copying_grow_forest grows each tree on a copy of its draw's codes through _grow
# alone, so it never groups: the grouped trees must be its trees, byte for byte.

def _dry_heavy(rng, n, m=5, dry_rate=0.7):
    """A tied, zero-heavy set in which about dry_rate of the rows are 0 in every feature,
    and both labels occur among the dry rows and the others."""
    X = rng.integers(1, 6, size=(n, m)) * 0.5
    X[rng.random((n, m)) < 0.4] = 0.0
    dry = rng.random(n) < dry_rate
    X[dry] = 0.0
    y = ((X[:, 0] + X[:, 1] + rng.normal(size=n) > 2.5) | (dry & (rng.random(n) < 0.15))).astype(int)
    return X, y


def _dry_sets():
    """(name, X, y) of the group's edge cases."""
    rng = np.random.default_rng(40)
    sets = []
    X, y = _dry_heavy(rng, 300, dry_rate=0.85)
    sets.append(("most rows dry", X, y))
    X, y = _dry_heavy(rng, 300)
    y[(X == 0.0).all(axis=1)] = 0
    sets.append(("dry rows of one label", X, y))
    X, y = _dry_heavy(rng, 300)
    dry = np.flatnonzero((X == 0.0).all(axis=1))
    y[dry] = 0
    y[dry[0]] = 1
    sets.append(("one dry positive", X, y))
    sets.append(("every row dry", np.zeros((60, 4)), np.arange(60) % 3 == 0))
    X, y = _dry_heavy(rng, 300, dry_rate=0.0)
    X[(X == 0.0).all(axis=1), 0] = 0.5
    sets.append(("no dry row", X, y))
    X, y = _dry_heavy(rng, 300)
    X[5, 2] = -0.5
    sets.append(("a negative value", X, y))
    X, y = _dry_heavy(rng, 300)
    X[rng.random(X.shape) < 0.3] *= -0.0  # -0.0 entries, in dry rows too
    sets.append(("-0.0 entries", X, y))
    X, y = _dry_heavy(rng, 300)
    X[:, 3] = 1.0 + (X[:, 3] > 1.0)
    sets.append(("a feature with no 0", X, y))
    return [(name, X, y.astype(int)) for name, X, y in sets]


DRY_SETS = _dry_sets()
GROUPED = {"most rows dry", "dry rows of one label", "one dry positive", "every row dry", "-0.0 entries"}


@pytest.mark.parametrize("name, X, y", DRY_SETS, ids=[s[0] for s in DRY_SETS])
def test_dry_groups_grow_the_trees_of_a_grower_that_never_groups(name, X, y):
    Xc, _, _ = check_training_inputs(X, y, None)
    codes, values = _rank_codes(Xc)
    dry = trees._dry_rows(codes, values)
    assert dry.any() == (name in GROUPED)
    if name in GROUPED:
        np.testing.assert_array_equal(dry, (X == 0.0).all(axis=1))
    n = X.shape[0]
    for training_weight in (1.0, 3.0, 0.5):
        _, yc, w = check_training_inputs(X, y, None, training_weight)
        for bootstrap in (True, False):
            for depth, min_leaf in ((None, 1), (0, 1), (6, 4)):
                params = ForestParams(n_trees=3, max_depth=depth, min_samples_leaf=min_leaf, bootstrap=bootstrap)
                args = (codes, values, yc, w, np.arange(n), params, training_weight, 6)
                assert _tree_bytes(grow_forest(*args)) == _tree_bytes(copying_grow_forest(*args)), \
                    (training_weight, bootstrap, depth)


@pytest.mark.usefixtures("four_cpus")
@pytest.mark.parametrize("threads", [1, 4])
def test_dry_groups_on_rows_of_a_wider_coding_and_any_thread_count(threads):
    # cv's folds share one coding; rows is a strict subset
    rng = np.random.default_rng(41)
    X, y = _dry_heavy(rng, 500)
    Xc, yc, w = check_training_inputs(X, y, None, 1.0)
    codes, values = _rank_codes(Xc)
    dry = trees._dry_rows(codes, values)
    params = ForestParams(n_trees=6, max_depth=None, min_samples_leaf=2)
    # a strict subset, and the set's other rows alone: no draw holds a dry row
    for rows in (np.sort(rng.choice(500, size=400, replace=False)), np.flatnonzero(~dry)):
        args = (codes, values, yc, w, rows, params, 1.0, 8, threads)
        assert _tree_bytes(grow_forest(*args)) == _tree_bytes(copying_grow_forest(*args))


def test_dry_groups_with_min_samples_leaf_above_a_nodes_other_rows():
    # most of a node's rows are its group: a node may hold fewer ids than
    # min_samples_leaf, and its right children still need that many
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 40))
        X, y = _dry_heavy(rng, n, m=3, dry_rate=0.6)
        Xc, yc, w = check_training_inputs(X, y, None, 1.0)
        codes, values = _rank_codes(Xc)
        params = ForestParams(n_trees=4, max_depth=None, min_samples_leaf=int(rng.integers(2, 7)), max_features=3)
        args = (codes, values, yc, w, np.arange(n), params, 1.0, seed)
        assert _tree_bytes(grow_forest(*args)) == _tree_bytes(copying_grow_forest(*args)), seed


def test_forest_cv_grid_on_dry_rows_equals_the_ungrouped_grid(monkeypatch):
    import debris_ews.tuning as tuning
    from debris_ews import FeatureSpec, grid_search_cv
    from test_tuning import _toy_corpus

    windows = _toy_corpus(np.random.default_rng(42), n_pos=6, n_neg=12, hours=50)
    spec = FeatureSpec(hourly_hours=3)
    grid = [{"n_trees": 3, "max_depth": None, "min_samples_leaf": 1},
            {"n_trees": 3, "max_depth": 4, "min_samples_leaf": 5}]
    grouped = grid_search_cv(windows, spec, grid, k=3, seed=2)
    calls = []

    def ungrouped(*args):
        calls.append(trees._dry_rows(*args[:2]).mean())
        return copying_grow_forest(*args)

    monkeypatch.setattr(tuning, "grow_forest", ungrouped)
    assert grouped == grid_search_cv(windows, spec, grid, k=3, seed=2)
    assert len(calls) == 6 and min(calls) > 0.5


def _spy_scans(monkeypatch):
    """Per tree grown, the (ids, group) of each scan of trees._best_split, in order."""
    import debris_ews.forest as forest
    import debris_ews.gbt as gbt

    scans: list[list] = []
    grow, scan = trees._grow, trees._best_split

    def grow_spy(*args, **kwargs):
        scans.append([])
        return grow(*args, **kwargs)

    def scan_spy(criterion, node, codes, values, rows, features, min_leaf, group=(0, 0)):
        scans[-1].append((rows, group))
        return scan(criterion, node, codes, values, rows, features, min_leaf, group)

    for module in (forest, gbt):
        monkeypatch.setattr(module, "_grow", grow_spy)
    monkeypatch.setattr(trees, "_best_split", scan_spy)
    return scans


def test_the_dry_group_rides_counting_forests_and_boosting_stages(monkeypatch):
    scans = _spy_scans(monkeypatch)
    rng = np.random.default_rng(43)
    X, y = _dry_heavy(rng, 400, m=6)
    n, seed = X.shape[0], 3
    dry = (X == 0.0).all(axis=1)
    params = ForestParams(n_trees=4, max_depth=5)
    fit_forest(X, y, params, seed=seed)
    assert len(scans) == params.n_trees
    for t, tree_scans in enumerate(scans):
        draw = derived_rng(seed, 4, t).integers(0, n, size=n)
        root, (e0, e1) = tree_scans[0]
        assert root.size <= np.count_nonzero(~dry[draw]) + 2
        assert root.size + e0 + e1 == n and e0 + e1 > 0
        assert all(e in ((0, 0), (e0, e1)) for _, e in tree_scans)  # the group never splits

    # a stage's root: the other rows in order, then one dry row of each label
    scans.clear()
    fit_gbt(X, y, params=GbtParams(n_trees=2, max_depth=3, min_samples_leaf=3))
    dry_counts = (np.count_nonzero(dry & (y == 0)), np.count_nonzero(dry & (y == 1)))
    assert len(scans) == 2 and min(dry_counts) > 1
    for stage_scans in scans:
        root, (e0, e1) = stage_scans[0]
        np.testing.assert_array_equal(root[:-2], np.flatnonzero(~dry))
        assert dry[root[-2:]].all() and y[root[-2:]].tolist() == [0, 1]
        assert (e0 + 1, e1 + 1) == dry_counts
        assert all(e in ((0, 0), (e0, e1)) for _, e in stage_scans)  # the group never splits

    def ungrouped(run):
        scans.clear()
        run()
        assert scans and all(e == (0, 0) and r.size == n for r, e in (s[0] for s in scans))

    ungrouped(lambda: fit_forest(X, y, params, training_weight=0.5, seed=seed))  # sort scan
    X_neg = X.copy()
    X_neg[0, 0] = -1.0
    ungrouped(lambda: fit_forest(X_neg, y, params, seed=seed))  # a negative value
    gbt_params = GbtParams(n_trees=2, max_depth=3)
    ungrouped(lambda: fit_gbt(X_neg, y, params=gbt_params))
    uneven = np.where(dry & (np.arange(n) % 2 == 0), 2.0, 1.0)  # dry rows of a label weigh differently
    ungrouped(lambda: fit_gbt(X, y, uneven, params=gbt_params))


def test_map_indexed_asks_for_at_most_one_thread_a_cpu_and_a_task(monkeypatch):
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(common, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(common.os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    assert common.map_indexed(lambda i: i * i, 50, 100_000) == [i * i for i in range(50)]
    assert common.map_indexed(lambda i: -i, 2, 100_000) == [0, -1]
    assert common.map_indexed(lambda i: i, 3, 2) == [0, 1, 2]
    assert asked == [3, 2, 2]
    assert common.map_indexed(lambda i: i, 1, 100_000) == [0] and common.map_indexed(str, 0, 8) == []
    monkeypatch.setattr(common.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert common.map_indexed(lambda i: i, 5, 4) == list(range(5))
    assert asked == [3, 2, 2]  # one task, or one CPU, runs without a pool
