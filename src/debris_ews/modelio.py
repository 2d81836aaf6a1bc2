"""Versioned JSON model serialization.

Floats are written with repr (shortest round-trip form), so save -> load ->
predict is bit-exact. The document records the model kind, hyperparameters,
seed, optional feature spec, and full node arrays for tree models.
"""
from __future__ import annotations

import json
import logging
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from ._common import InputError
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


def _tree_from_doc(doc: dict[str, Any], n_features: int, params: TreeParams) -> DecisionTree:
    return DecisionTree(
        feature=np.asarray(doc["feature"], dtype=np.int32),
        threshold=np.asarray(doc["threshold"], dtype=np.float64),
        left=np.asarray(doc["left"], dtype=np.int32),
        right=np.asarray(doc["right"], dtype=np.int32),
        value=np.asarray(doc["value"], dtype=np.float64),
        weight=np.asarray(doc["weight"], dtype=np.float64),
        n_features=n_features,
        params=params,
    )


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
    if doc.get("format") != FORMAT:
        raise InputError(f"not a model document (format={doc.get('format')!r})")
    if doc.get("version") != VERSION:
        raise InputError(f"unsupported model document version {doc.get('version')!r}")
    spec = None
    if doc.get("feature_spec") is not None:
        spec = FeatureSpec(**doc["feature_spec"])
    kind = doc.get("kind")
    if kind == "random_forest":
        params = ForestParams(**doc["params"])
        tp = params.tree_params(doc["n_features"])
        trees = tuple(_tree_from_doc(t, doc["n_features"], tp) for t in doc["trees"])
        return (
            ForestModel(trees, params, doc["seed"], doc["training_weight"], doc["n_features"]),
            spec,
        )
    if kind == "gbt":
        params = GbtParams(**doc["params"])
        tp = params.tree_params()
        trees = tuple(_tree_from_doc(t, doc["n_features"], tp) for t in doc["trees"])
        return (
            GbtModel(trees, params, doc["base_log_odds"], doc["training_weight"], doc["n_features"]),
            spec,
        )
    if kind == "logistic":
        params = LogisticParams(**doc["params"])
        return (
            LinearModel(np.asarray(doc["weights"], dtype=np.float64), doc["bias"], params, doc["converged"]),
            spec,
        )
    raise InputError(f"unknown model kind {kind!r}")


def save_model(path: str | Path, model: Model, feature_spec: FeatureSpec | None = None, meta: dict | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model_to_doc(model, feature_spec, meta), sort_keys=True) + "\n")


def load_model(path: str | Path, with_meta: bool = False) -> tuple:
    """(model, feature spec), and the document's meta dict as a third item if with_meta."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from None
    model, spec = model_from_doc(doc)
    return (model, spec, dict(doc.get("meta") or {})) if with_meta else (model, spec)


def predict_proba(model: Model, X: np.ndarray) -> np.ndarray:
    """Uniform scoring front door for all model kinds."""
    return model.predict_proba(np.asarray(X, dtype=np.float64))
