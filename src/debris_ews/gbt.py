"""Gradient-boosted trees for logistic loss.

Stages fit regression trees to the loss gradients and hessians of the current
score; leaf values use the second-order formula -G/(H + leaf_l2). The model
score is sigmoid(base log-odds + learning_rate * sum of tree outputs).
Training is fully deterministic: there is no row or feature subsampling.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import InputError
from .linear import sigmoid
from .trees import DecisionTree, TreeParams, check_training_inputs, _grow, _rank_codes, _GainCriterion

log = logging.getLogger(__name__)

_PRIOR_CLIP = 1e-12


@dataclass(frozen=True)
class GbtParams:
    n_trees: int = 40
    learning_rate: float = 0.1
    max_depth: int | None = 6
    min_samples_leaf: int = 1
    leaf_l2: float = 1.0

    def __post_init__(self) -> None:
        if self.n_trees < 0:
            raise InputError("n_trees must be >= 0")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise InputError("learning_rate must be finite and >= 0")
        if self.leaf_l2 < 0:
            raise InputError("leaf_l2 must be >= 0")
        self.tree_params()  # checks the tree settings

    def tree_params(self) -> TreeParams:
        return TreeParams(self.max_depth, self.min_samples_leaf, None)


@dataclass(frozen=True)
class GbtModel:
    trees: tuple[DecisionTree, ...]
    params: GbtParams
    base_log_odds: float
    training_weight: float
    n_features: int

    def decision_score(self, X: np.ndarray) -> np.ndarray:
        score = np.full(np.asarray(X).shape[0], self.base_log_odds)
        for tree in self.trees:
            score += self.params.learning_rate * tree.predict_value(X)
        return score

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_score(X))


def fit_gbt(
    X: np.ndarray,
    y: Sequence[int],
    sample_weight: Sequence[float] | None = None,
    params: GbtParams = GbtParams(),
    training_weight: float = 1.0,
) -> GbtModel:
    X, y, w = check_training_inputs(X, y, sample_weight, training_weight)
    codes, values = _rank_codes(X)
    return grow_gbt(codes, values, y, w, np.arange(X.shape[0]), params, training_weight)


def grow_gbt(
    codes: np.ndarray,
    values: tuple[np.ndarray, ...],
    y: np.ndarray,
    w: np.ndarray,
    rows: np.ndarray,
    params: GbtParams,
    training_weight: float,
) -> GbtModel:
    """The model fit_gbt boosts on the training set of the given rows, from the output
    of check_training_inputs and _rank_codes for a set that holds them. The codes may
    rank more rows than these; the trees are the same, as in forest.grow_forest."""
    codes, y, w = codes.take(rows, axis=1), y[rows], w[rows]
    prior = float(np.dot(w, y) / w.sum())
    prior = min(max(prior, _PRIOR_CLIP), 1.0 - _PRIOR_CLIP)
    base = float(np.log(prior / (1.0 - prior)))

    score = np.full(rows.size, base)
    trees: list[DecisionTree] = []
    tree_params = params.tree_params()
    for _ in range(params.n_trees):
        p = sigmoid(score)
        grad = w * (p - y)
        hess = w * p * (1.0 - p)
        tree, leaf = _grow(_GainCriterion(grad, hess, params.leaf_l2), codes, values, tree_params, None)
        trees.append(tree)
        score = score + params.learning_rate * tree.value[leaf]
        if not np.isfinite(score).all():
            raise InputError("boosting diverged to non-finite scores")
    return GbtModel(tuple(trees), params, base, float(training_weight), codes.shape[0])
