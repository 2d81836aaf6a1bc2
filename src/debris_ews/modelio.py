"""Versioned JSON model serialization.

Floats are written with repr (shortest round-trip form), so save -> load ->
predict is bit-exact. The document records the model kind, hyperparameters,
seed, optional feature spec, and full node arrays for tree models.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from ._common import InputError, _json_fits, build_params, read_json, write_json
from .dataset import FeatureSpec
from .forest import ForestModel, ForestParams
from .gbt import GbtModel, GbtParams
from .linear import LinearModel, LogisticParams
from .trees import DecisionTree, TreeParams

log = logging.getLogger(__name__)

FORMAT = "debris-ews-model"
VERSION = 1

Model = ForestModel | GbtModel | LinearModel


def _tree_doc(tree: DecisionTree) -> dict[str, Any]:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
        "weight": tree.weight.tolist(),
    }


_NODE_ARRAYS = {"feature": np.int32, "threshold": np.float64, "left": np.int32, "right": np.int32,
                "value": np.float64, "weight": np.float64}


def _first(mask: np.ndarray) -> int | None:
    bad = np.flatnonzero(mask)
    return int(bad[0]) if bad.size else None


def _tree_from_doc(doc: dict[str, Any], index: int, n_features: int, params: TreeParams) -> DecisionTree:
    """Tree `index` of a model document. Its node arrays must describe a tree that
    predict_value can walk: a split node's children are numbered after it, as the
    grower numbers them, which also rules out cycles, and a leaf has none."""
    arrays = {}
    for name, dtype in _NODE_ARRAYS.items():
        try:
            arrays[name] = np.asarray(doc[name], dtype=dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"tree {index}: {name}: {exc}") from None
        if arrays[name].ndim != 1:
            raise InputError(f"tree {index}: {name} is not a list of numbers")
    n = arrays["feature"].size
    if n == 0 or any(a.size != n for a in arrays.values()):
        sizes = {name: a.size for name, a in arrays.items()}
        raise InputError(f"tree {index}: node arrays of unequal or zero length {sizes}")
    feature = arrays["feature"]
    if (i := _first((feature < -1) | (feature >= n_features))) is not None:
        raise InputError(f"tree {index}: feature[{i}] = {feature[i]} is outside [-1, {n_features})")
    split = feature >= 0
    for name in ("left", "right"):
        child = arrays[name]
        if (i := _first(np.where(split, (child <= np.arange(n)) | (child >= n), child != -1))) is not None:
            rule = f"a split node's child is numbered in ({i}, {n})" if split[i] else "a leaf's child is -1"
            raise InputError(f"tree {index}: {name}[{i}] = {child[i]}, but {rule}")
    if (i := _first(split & ~np.isfinite(arrays["threshold"]))) is not None:
        raise InputError(f"tree {index}: threshold[{i}] of a split node is {arrays['threshold'][i]}")
    return DecisionTree(**arrays, n_features=n_features, params=params)


def _scalar(doc: dict[str, Any], name: str, kind: type, rule: str, ok=lambda v: True):
    """doc[name], which must be a JSON value of kind (an integer is a number too, a
    boolean is neither) that ok accepts; rule says what is expected."""
    value = doc[name]
    if not (_json_fits(kind, value) and ok(value)):
        raise InputError(f"field {name!r}: expected {rule}, got {value!r}")
    return value


def _finite(doc: dict[str, Any], name: str, positive: bool = False) -> float:
    rule = "a finite number > 0" if positive else "a finite number"
    return float(_scalar(doc, name, float, rule, lambda v: math.isfinite(v) and (v > 0 or not positive)))


def _n_features(doc: dict[str, Any], spec: FeatureSpec | None) -> int:
    m = _scalar(doc, "n_features", int, "an integer >= 1", lambda v: v >= 1)
    if spec is not None and m != spec.n_features:
        raise InputError(f"field 'n_features': {m} differs from the {spec.n_features} features of the feature_spec")
    return m


def model_to_doc(model: Model, feature_spec: FeatureSpec | None = None, meta: dict | None = None) -> dict:
    doc: dict[str, Any] = {"format": FORMAT, "version": VERSION, "meta": dict(meta or {})}
    if feature_spec is not None:
        spec = asdict(feature_spec)
        spec["daily_mode"] = feature_spec.daily_mode.value
        doc["feature_spec"] = spec
    if isinstance(model, ForestModel):
        doc.update(
            kind="random_forest",
            params=asdict(model.params),
            seed=model.seed,
            training_weight=model.training_weight,
            n_features=model.n_features,
            trees=[_tree_doc(t) for t in model.trees],
        )
    elif isinstance(model, GbtModel):
        doc.update(
            kind="gbt",
            params=asdict(model.params),
            base_log_odds=model.base_log_odds,
            training_weight=model.training_weight,
            n_features=model.n_features,
            trees=[_tree_doc(t) for t in model.trees],
        )
    elif isinstance(model, LinearModel):
        doc.update(
            kind="logistic",
            params=asdict(model.params),
            weights=model.weights.tolist(),
            bias=model.bias,
            converged=model.converged,
            n_features=int(model.weights.size),
        )
    else:
        raise InputError(f"cannot serialize model of type {type(model).__name__}")
    return doc


def model_from_doc(doc: dict) -> tuple[Model, FeatureSpec | None]:
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != FORMAT:
        raise InputError(f"not a model document (format={fmt!r})")
    if doc.get("version") != VERSION:
        raise InputError(f"unsupported model document version {doc.get('version')!r}")
    spec = None
    if doc.get("feature_spec") is not None:
        spec = build_params(FeatureSpec, doc["feature_spec"], "feature_spec")
    kind = doc.get("kind")
    if kind == "random_forest":
        params = build_params(ForestParams, doc["params"], "params")
        m = _n_features(doc, spec)
        tp = params.tree_params(m)
        trees = tuple(_tree_from_doc(t, i, m, tp) for i, t in enumerate(doc["trees"]))
        seed = _scalar(doc, "seed", int, "an integer")
        return ForestModel(trees, params, seed, _finite(doc, "training_weight", positive=True), m), spec
    if kind == "gbt":
        params = build_params(GbtParams, doc["params"], "params")
        m = _n_features(doc, spec)
        trees = tuple(_tree_from_doc(t, i, m, params.tree_params()) for i, t in enumerate(doc["trees"]))
        base = _finite(doc, "base_log_odds")
        return GbtModel(trees, params, base, _finite(doc, "training_weight", positive=True), m), spec
    if kind == "logistic":
        params = build_params(LogisticParams, doc["params"], "params")
        m = _n_features(doc, spec)
        weights = np.asarray(doc["weights"], dtype=np.float64)
        if weights.shape != (m,):
            raise InputError(f"field 'weights': expected a list of n_features = {m} numbers, "
                             f"got shape {weights.shape}")
        return LinearModel(weights, _finite(doc, "bias"), params, doc["converged"]), spec
    raise InputError(f"unknown model kind {kind!r}")


def save_model(path: str | Path, model: Model, feature_spec: FeatureSpec | None = None, meta: dict | None = None) -> None:
    write_json(path, model_to_doc(model, feature_spec, meta), indent=None)


def load_model(path: str | Path, with_meta: bool = False) -> tuple:
    """(model, feature spec), and the document's meta dict as a third item if with_meta."""
    path = Path(path)
    doc = read_json(path, "model file")
    try:
        model, spec = model_from_doc(doc)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:  # an InputError, or a document of the wrong shape
        raise InputError(f"{path}: {exc}") from None
    return (model, spec, dict(doc.get("meta") or {})) if with_meta else (model, spec)


def predict_proba(model: Model, X: np.ndarray) -> np.ndarray:
    """Uniform scoring front door for all model kinds."""
    return model.predict_proba(np.asarray(X, dtype=np.float64))
