import dataclasses
import json
import re

import numpy as np
import pytest

from debris_ews import (
    FeatureSpec,
    ForestParams,
    GbtParams,
    InputError,
    LogisticParams,
    fit_forest,
    fit_gbt,
    fit_logistic,
)
from debris_ews.linear import LinearModel
from debris_ews.modelio import load_model, predict_proba, save_model
from debris_ews.trees import NODE_ARRAYS, DecisionTree

from conftest import strict_json


def _data(rng, n=150, m=4):
    X = rng.normal(size=(n, m))
    y = (X[:, 0] - X[:, 2] + 0.4 * rng.normal(size=n) > 0.5).astype(int)
    return X, y


@pytest.mark.parametrize("kind", ["rf", "gbt", "logistic"])
def test_roundtrip_bit_exact_scores(tmp_path, kind):
    rng = np.random.default_rng(10)
    X, y = _data(rng)
    X_test = rng.normal(size=(60, 4))
    if kind == "rf":
        model = fit_forest(X, y, ForestParams(n_trees=5, max_depth=6), training_weight=3.0, seed=2)
    elif kind == "gbt":
        model = fit_gbt(X, y, params=GbtParams(n_trees=6, learning_rate=0.2))
    else:
        model = fit_logistic(X, y, params=LogisticParams(penalty="l2", l2=0.5))
    spec = FeatureSpec(hourly_hours=4)
    path = tmp_path / "model.json"
    save_model(path, model, feature_spec=spec, meta={"run": "unit"})
    loaded, loaded_spec = load_model(path)
    assert loaded_spec == spec
    a = predict_proba(model, X_test)
    b = predict_proba(loaded, X_test)
    np.testing.assert_array_equal(a, b)  # bit-exact, not approx


@pytest.mark.parametrize("kind", ["rf", "gbt", "logistic"])
def test_roundtrip_twice_is_stable(tmp_path, kind):
    rng = np.random.default_rng(11)
    X, y = _data(rng)
    if kind == "rf":
        model = fit_forest(X, y, ForestParams(n_trees=3, max_depth=4), seed=1)
    elif kind == "gbt":
        model = fit_gbt(X, y, params=GbtParams(n_trees=3, max_depth=4))
    else:
        model = fit_logistic(X, y, params=LogisticParams(penalty="l2", l2=0.5))
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_model(p1, model, feature_spec=FeatureSpec(hourly_hours=4), meta={"lead_hours": 2})
    loaded, spec, meta = load_model(p1, with_meta=True)
    save_model(p2, loaded, feature_spec=spec, meta=meta)
    assert p1.read_text() == p2.read_text()
    doc = strict_json(p1.read_text())
    assert doc["version"] == 2
    for tree in doc.get("trees", []):
        leaf = [f < 0 for f in tree["feature"]]
        assert any(leaf) and all((t is None) == is_leaf for t, is_leaf in zip(tree["threshold"], leaf))


@pytest.mark.parametrize("as_written", [False, True], ids=["version field", "version-1 writer"])
def test_a_version_1_model_asks_to_be_retrained(tmp_path, as_written):
    path, doc = _saved_doc(tmp_path, "rf")
    doc["version"] = 1
    if as_written:  # a node weight array, and NaN, which JSON has not, as each leaf's threshold
        for tree in doc["trees"]:
            tree["threshold"] = [np.nan if t is None else t for t in tree["threshold"]]
            tree["weight"] = [1.0] * len(tree["feature"])
    path.write_text(json.dumps(doc))
    assert ("NaN" in path.read_text()) == as_written
    with pytest.raises(InputError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: unsupported model document version 1; re-train the model with 'train'"


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(InputError):
        load_model(path)
    path.write_text("not json")
    with pytest.raises(InputError):
        load_model(path)
    with pytest.raises(InputError):
        load_model(tmp_path / "missing.json")


def _first_node(tree: dict, split: bool) -> int:
    return next(i for i, f in enumerate(tree["feature"]) if (f >= 0) == split and i > 0)


def _short_left(tree, m):
    tree["left"].pop()


def _child_out_of_range(tree, m):
    tree["left"][0] = 1000001


def _feature_too_large(tree, m):
    tree["feature"][0] = m


def _feature_below_leaf(tree, m):
    tree["feature"][0] = -2


def _child_points_back(tree, m):
    tree["left"][_first_node(tree, split=True)] = 0  # a cycle: predict_value would never return


def _child_before_parent(tree, m):
    k = _first_node(tree, split=True)
    tree["right"][k] = k - 1


def _leaf_with_child(tree, m):
    k = _first_node(tree, split=False)
    tree["right"][k] = k + 1


def _left_equals_right(tree, m):
    k = _first_node(tree, split=True)
    tree["right"][k] = tree["left"][k]


def _two_parents(tree, m):
    k = _first_node(tree, split=True)
    tree["right"][0] = tree["left"][k]  # numbered after both parents


def _orphan(tree, m):
    for name, value in zip(NODE_ARRAYS, (-1, None, -1, -1, 0.5)):
        tree[name].append(value)


def _chain_of_shared_children(tree, m):
    # 21 nodes, each split node's two children the next node: 2^20 root-to-leaf paths
    n = 21
    tree.update(feature=[0] * (n - 1) + [-1], threshold=[0.5] * (n - 1) + [None], left=[*range(1, n), -1],
                right=[*range(1, n), -1], value=[0.5] * n)


def _threshold_not_finite(tree, m):
    tree["threshold"][0] = float("inf")  # written as 1e999


def _split_threshold_null(tree, m):
    tree["threshold"][0] = None  # null is a leaf's threshold only


def _leaf_value_nan(tree, m):
    tree["value"][_first_node(tree, split=False)] = None  # null reads as NaN


def _leaf_threshold_number(tree, m):
    tree["threshold"][_first_node(tree, split=False)] = 0.5  # a leaf's threshold is null only


def _split_value_nan(tree, m):
    tree["value"][0] = None  # null reads as NaN


def _no_nodes(tree, m):
    for name in tree:
        tree[name] = []


def _not_numbers(tree, m):
    tree["value"][0] = "heavy"


def _nested(tree, m):
    tree["value"] = [tree["value"]]


@pytest.mark.parametrize("mutate, array", [
    (_short_left, "unequal"),
    (_child_out_of_range, r"left\[0\] = 1000001"),
    (_feature_too_large, r"feature\[0\] = 4 is outside \[-1, 4\)"),
    (_feature_below_leaf, r"feature\[0\] = -2"),
    (_child_points_back, r"left\[\d+\] = 0, but a split node's child"),
    (_child_before_parent, r"right\[\d+\] = \d+, but a split node's child"),
    (_leaf_with_child, r"right\[\d+\] = \d+, but a leaf's child is -1"),
    (_left_equals_right, r"right\[(\d+)\] = (\d+), but left\[\1\] = \2 too; a node is the child of one split node"),
    (_two_parents, r"right\[0\] = (\d+), but left\[\d+\] = \1 too; a node is the child of one split node"),
    (_orphan, r"no split node's left or right is \d+, but every node other than the root is the child of one"),
    (_chain_of_shared_children, r"right\[0\] = 1, but left\[0\] = 1 too"),
    (_threshold_not_finite, r"threshold\[0\] of a split node is inf"),
    (_split_threshold_null, r"threshold\[0\] of a split node is nan"),
    (_leaf_value_nan, r"value\[\d+\] of a leaf is nan"),
    (_leaf_threshold_number, r"threshold\[\d+\] of a leaf is 0.5, but a leaf's threshold is null"),
    (_split_value_nan, r"value\[0\] of a split node is nan"),
    (_no_nodes, "unequal or zero length"),
    (_not_numbers, "value: could not convert"),
    (_nested, "value is not a list of numbers"),
])
@pytest.mark.parametrize("kind", ["rf", "gbt"])
def test_load_rejects_bad_node_arrays_naming_file_tree_and_array(tmp_path, mutate, array, kind):
    rng = np.random.default_rng(12)
    X, y = _data(rng)
    if kind == "rf":
        model = fit_forest(X, y, ForestParams(n_trees=3, max_depth=4), seed=1)
    else:
        model = fit_gbt(X, y, params=GbtParams(n_trees=3, max_depth=4))
    path = tmp_path / "model.json"
    save_model(path, model)
    doc = json.loads(path.read_text())
    mutate(doc["trees"][1], doc["n_features"])
    _write(path, doc)
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: tree 1: .*{array}"):
        load_model(path)


def _write(path, doc):
    """doc as strict JSON text, an infinity written as 1e999 or -1e999, which parse to one."""
    path.write_text(json.dumps(doc).replace("Infinity", "1e999"))


def _saved_doc(tmp_path, kind):
    X, y = _data(np.random.default_rng(13))
    if kind == "rf":
        model = fit_forest(X, y, ForestParams(n_trees=2, max_depth=3), seed=1)
    elif kind == "gbt":
        model = fit_gbt(X, y, params=GbtParams(n_trees=2, max_depth=3))
    else:
        model = fit_logistic(X, y, params=LogisticParams(penalty="l2", l2=0.5))
    path = tmp_path / "model.json"
    save_model(path, model, feature_spec=FeatureSpec(hourly_hours=4))
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("kind, field, value, expected", [
    ("rf", "n_features", 4.0, "an integer >= 1, got 4.0"),
    ("rf", "n_features", 4.5, "an integer >= 1, got 4.5"),
    ("rf", "n_features", "4", "an integer >= 1, got '4'"),
    ("rf", "n_features", True, "an integer >= 1, got True"),
    ("rf", "n_features", 0, "an integer >= 1, got 0"),
    ("gbt", "n_features", 4.0, "an integer >= 1, got 4.0"),
    ("logistic", "n_features", True, "an integer >= 1, got True"),
    ("rf", "n_features", 5, "5 differs from the 4 features of the feature_spec"),
    ("gbt", "n_features", 3, "3 differs from the 4 features of the feature_spec"),
    ("rf", "seed", 1.0, "an integer, got 1.0"),
    ("rf", "seed", "1", "an integer, got '1'"),
    ("rf", "training_weight", 0.0, "a finite number > 0, got 0.0"),
    ("rf", "training_weight", float("inf"), "a finite number > 0, got inf"),
    ("gbt", "training_weight", -1.0, "a finite number > 0, got -1.0"),
    ("gbt", "training_weight", True, "a finite number > 0, got True"),
    ("gbt", "base_log_odds", None, "a finite number, got None"),
    ("gbt", "base_log_odds", "0.5", "a finite number, got '0.5'"),
    ("logistic", "bias", float("-inf"), "a finite number, got -inf"),
    ("logistic", "bias", None, "a finite number, got None"),
])
def test_load_rejects_bad_scalars_naming_file_and_field(tmp_path, kind, field, value, expected):
    path, doc = _saved_doc(tmp_path, kind)
    doc[field] = value
    _write(path, doc)
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}: field {field!r}: ')}"):
        load_model(path)
    with pytest.raises(InputError) as err:
        load_model(path)
    assert str(err.value).endswith(expected)


def test_load_rejects_a_forest_max_features_above_its_feature_count(tmp_path):
    path, doc = _saved_doc(tmp_path, "rf")
    doc["params"]["max_features"] = doc["n_features"] + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: max_features=5 out of range for 4 features$"):
        load_model(path)


@pytest.mark.parametrize("value", ["x", 1, None])
def test_load_rejects_a_logistic_converged_that_is_not_a_boolean(tmp_path, value):
    model = LinearModel(np.array([0.5, -1.0, 0.0, 2.0]), 0.25, LogisticParams(penalty="l2", l2=0.5), converged=False)
    path = tmp_path / "model.json"
    save_model(path, model)
    assert load_model(path)[0].converged is False
    doc = json.loads(path.read_text())
    doc["converged"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: field 'converged': expected true or false, got {value!r}"


def test_load_rejects_logistic_weights_of_another_count(tmp_path):
    path, doc = _saved_doc(tmp_path, "logistic")
    doc["weights"].append(0.5)
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"field 'weights': expected a list of n_features = 4 numbers, "
                                         r"got shape \(5,\)"):
        load_model(path)


def test_integer_scalars_load_as_the_floats_a_fit_saves(tmp_path):
    path, doc = _saved_doc(tmp_path, "gbt")
    doc["training_weight"], doc["base_log_odds"] = 2, 0
    path.write_text(json.dumps(doc))
    model, _ = load_model(path)
    assert (model.training_weight, model.base_log_odds) == (2.0, 0.0)
    assert type(model.training_weight) is float and type(model.base_log_odds) is float


def test_node_arrays_are_the_tree_fields_in_order_and_the_saved_keys(tmp_path):
    names = [f.name for f in dataclasses.fields(DecisionTree)]
    assert names == [*NODE_ARRAYS, "n_features"]
    path, doc = _saved_doc(tmp_path, "rf")
    assert all(list(tree) == sorted(NODE_ARRAYS) for tree in doc["trees"])
    X, y = _data(np.random.default_rng(13))
    grown = fit_forest(X, y, ForestParams(n_trees=2, max_depth=3), seed=1)
    loaded, _ = load_model(path)
    for tree in (*grown.trees, *loaded.trees):
        assert {name: getattr(tree, name).dtype for name in NODE_ARRAYS} == NODE_ARRAYS


def test_a_boosted_model_of_no_stages_loads_with_no_trees(tmp_path):
    X, y = _data(np.random.default_rng(14))
    model = fit_gbt(X, y, params=GbtParams(n_trees=0))
    path = tmp_path / "model.json"
    save_model(path, model)
    assert json.loads(path.read_text())["trees"] == []
    np.testing.assert_array_equal(predict_proba(load_model(path)[0], X), predict_proba(model, X))
