"""Versioned strict-JSON model serialization; only VERSION loads, an older model is re-trained.

Floats are written with repr (shortest round-trip form), so save -> load ->
predict is bit-exact. The document records the model kind, hyperparameters, seed,
optional feature spec, and each tree's NODE_ARRAYS, a leaf's threshold as null.
"""
from __future__ import annotations

import math
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from ._common import InputError, _scalar, build_params, read_json, write_json
from .dataset import FeatureSpec
from .forest import ForestModel, ForestParams
from .gbt import GbtModel, GbtParams
from .linear import LinearModel, LogisticParams
from .trees import NODE_ARRAYS, DecisionTree

FORMAT = "debris-ews-model"
VERSION = 2

Model = ForestModel | GbtModel | LinearModel


_NODE_KIND = {True: "split node", False: "leaf"}


def _first(mask: np.ndarray) -> int | None:
    bad = np.flatnonzero(mask)
    return int(bad[0]) if bad.size else None


def _tree_from_doc(doc: dict[str, Any], index: int, n_features: int) -> DecisionTree:
    """Tree `index` of a model document. Its node arrays must describe a tree as the
    grower numbers it: a split node's children are numbered after it, which rules out
    cycles, a leaf has none, and every node but the root is the child of exactly one
    split node, so that depth() and the walks over levels visit each node once. A split
    node's threshold is finite and a leaf's is null, and every value is finite: the
    values model_to_doc writes, so the file re-saves byte for byte."""
    if not isinstance(doc, dict):
        raise InputError(f"tree {index}: expected a JSON object of node arrays")
    arrays = {}
    for name, dtype in NODE_ARRAYS.items():
        if name not in doc:
            raise InputError(f"tree {index}: missing field {name!r}")
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
    # the left children of the split nodes, then their right children; sorted stably,
    # a child named twice sits next to itself, its first naming first
    parents = np.flatnonzero(split)
    refs = np.concatenate([arrays["left"][parents], arrays["right"][parents]])
    order = np.argsort(refs, kind="stable")
    if (d := _first(np.diff(refs[order]) == 0)) is not None:
        (j, earlier), (i, name) = ((parents[p % parents.size], ("left", "right")[p // parents.size])
                                   for p in order[d:d + 2])
        raise InputError(f"tree {index}: {name}[{i}] = {refs[order[d]]}, but {earlier}[{j}] = {refs[order[d]]} "
                         "too; a node is the child of one split node")
    if (i := _first(np.bincount(refs, minlength=n)[1:] == 0)) is not None:
        raise InputError(f"tree {index}: no split node's left or right is {i + 1}, but every node "
                         "other than the root is the child of one split node")
    threshold, value = arrays["threshold"], arrays["value"]
    if (i := _first(np.where(split, ~np.isfinite(threshold), ~np.isnan(threshold)))) is not None:
        rule = "" if split[i] else ", but a leaf's threshold is null"
        raise InputError(f"tree {index}: threshold[{i}] of a {_NODE_KIND[split[i]]} is {threshold[i]}{rule}")
    if (i := _first(~np.isfinite(value))) is not None:
        raise InputError(f"tree {index}: value[{i}] of a {_NODE_KIND[split[i]]} is {value[i]}")
    return DecisionTree(**arrays, n_features=n_features)


def _finite(doc: dict[str, Any], name: str, positive: bool = False) -> float:
    rule = "a finite number > 0" if positive else "a finite number"
    return float(_scalar(doc, name, float, rule, lambda v: math.isfinite(v) and (v > 0 or not positive)))


def _n_features(doc: dict[str, Any], spec: FeatureSpec | None) -> int:
    m = _scalar(doc, "n_features", int, "an integer >= 1", lambda v: v >= 1)
    if spec is not None and m != spec.n_features:
        raise InputError(f"field 'n_features': {m} differs from the {spec.n_features} features of the feature_spec")
    return m


def _trees(doc: dict[str, Any], n_trees: int, n_features: int) -> tuple[DecisionTree, ...]:
    docs = doc["trees"]
    if not isinstance(docs, list):
        raise InputError("field 'trees': expected a list of trees")
    trees = tuple(_tree_from_doc(t, i, n_features) for i, t in enumerate(docs))
    if len(trees) != n_trees:
        raise InputError(f"field 'trees': expected params.n_trees = {n_trees} trees, got {len(trees)}")
    return trees


def _meta(doc: dict[str, Any]) -> dict:
    """The document's meta object; its lead_hours, when present, is an integer >= 1."""
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError(f"field 'meta': expected a JSON object, got {meta!r}")
    if "lead_hours" in meta:
        try:
            _scalar(meta, "lead_hours", int, "an integer >= 1", lambda v: v >= 1)
        except InputError as exc:
            raise InputError(f"meta: {exc}") from None
    return meta


def model_to_doc(model: Model, feature_spec: FeatureSpec | None = None, meta: dict | None = None) -> dict:
    doc: dict[str, Any] = {"format": FORMAT, "version": VERSION, "meta": dict(meta or {})}
    if feature_spec is not None:
        spec = asdict(feature_spec)
        spec["daily_mode"] = feature_spec.daily_mode.value
        doc["feature_spec"] = spec
    if isinstance(model, (ForestModel, GbtModel)):
        trees = [{name: getattr(t, name).tolist() for name in NODE_ARRAYS}
                 | {"threshold": np.where(t.feature < 0, None, t.threshold).tolist()} for t in model.trees]
        doc.update(training_weight=model.training_weight, n_features=model.n_features, trees=trees)
    if isinstance(model, ForestModel):
        doc.update(kind="random_forest", params=asdict(model.params), seed=model.seed)
    elif isinstance(model, GbtModel):
        doc.update(kind="gbt", params=asdict(model.params), base_log_odds=model.base_log_odds)
    elif isinstance(model, LinearModel):
        doc.update(kind="logistic", params=asdict(model.params), weights=model.weights.tolist(), bias=model.bias,
                   converged=model.converged, n_features=int(model.weights.size))
    else:
        raise InputError(f"cannot serialize model of type {type(model).__name__}")
    return doc


def _check_header(doc: object) -> None:
    """Rejects a document that is not a model document of VERSION."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != FORMAT:
        raise InputError(f"not a model document (format={fmt!r})")
    if doc.get("version") != VERSION:
        raise InputError(f"unsupported model document version {doc.get('version')!r}; re-train the model with 'train'")


def model_from_doc(doc: dict) -> tuple[Model, FeatureSpec | None]:
    """The model of a document that passed _check_header."""
    spec = None
    if doc.get("feature_spec") is not None:
        spec = build_params(FeatureSpec, doc["feature_spec"], "feature_spec")
    kind = doc.get("kind")
    if kind == "random_forest":
        params = build_params(ForestParams, doc["params"], "params")
        m = _n_features(doc, spec)
        params.tree_params(m)  # a max_features out of range for m features is an InputError
        trees = _trees(doc, params.n_trees, m)
        seed = _scalar(doc, "seed", int, "an integer")
        return ForestModel(trees, params, seed, _finite(doc, "training_weight", positive=True), m), spec
    if kind == "gbt":
        params = build_params(GbtParams, doc["params"], "params")
        m = _n_features(doc, spec)
        trees = _trees(doc, params.n_trees, m)
        base = _finite(doc, "base_log_odds")
        return GbtModel(trees, params, base, _finite(doc, "training_weight", positive=True), m), spec
    if kind == "logistic":
        params = build_params(LogisticParams, doc["params"], "params")
        m = _n_features(doc, spec)
        weights = np.asarray(doc["weights"], dtype=np.float64)
        if weights.shape != (m,):
            raise InputError(f"field 'weights': expected a list of n_features = {m} numbers, "
                             f"got shape {weights.shape}")
        return LinearModel(weights, _finite(doc, "bias"), params, _scalar(doc, "converged", bool)), spec
    raise InputError(f"unknown model kind {kind!r}")


def save_model(path: str | Path, model: Model, feature_spec: FeatureSpec | None = None, meta: dict | None = None) -> None:
    write_json(path, model_to_doc(model, feature_spec, meta), indent=None)


def load_model(path: str | Path, with_meta: bool = False) -> tuple:
    """(model, feature spec), and the document's meta dict as a third item if with_meta."""
    path = Path(path)
    doc = read_json(path, "model file", _check_header)
    try:
        model, spec = model_from_doc(doc)
        meta = _meta(doc)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:  # an InputError, or a document of the wrong shape
        raise InputError(f"{path}: {exc}") from None
    return (model, spec, dict(meta)) if with_meta else (model, spec)


def predict_proba(model: Model, X: np.ndarray) -> np.ndarray:
    """Uniform scoring front door for all model kinds."""
    return model.predict_proba(np.asarray(X, dtype=np.float64))
