"""Gradient-boosted trees for logistic loss.

Stages fit regression trees to the loss gradients and hessians of the current
score; leaf values use the second-order formula -G/(H + leaf_l2). The model
score is sigmoid(base log-odds + learning_rate * sum of tree outputs).
Training is fully deterministic: there is no row or feature subsampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import InputError
from .linear import sigmoid
from .trees import (DecisionTree, TreeParams, check_rows, check_training_inputs, _dry_rows, _grouped_root, _grow,
                    _label_weights, _rank_codes, _GainCriterion)

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
        X = check_rows(X, self.n_features)  # also when there are no stages
        score = np.full(X.shape[0], self.base_log_odds)
        for tree in self.trees:
            score += self.params.learning_rate * tree.value.take(tree.leaves(X))
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
    rank more rows than these; the trees are the same, as in forest.grow_forest. Every
    stage grows on the shared codes through its root's ids: scores, gradients and
    hessians are indexed by row id, and only the root's scores move. Where each label's
    dry rows (see trees._dry_rows) weigh the same, the root holds the other rows and one
    dry row of each label (see trees._grouped_root), weighted by its label's dry count,
    so the prior, gradients and hessians carry the whole group. The group reaches one
    leaf of every stage, so each of its rows scores as its representatives do."""
    rows, group, w = _dry_group(codes, values, y, w, rows)
    wr = w[rows]
    prior = float(np.dot(wr, y[rows]) / wr.sum())
    prior = min(max(prior, _PRIOR_CLIP), 1.0 - _PRIOR_CLIP)
    base = float(np.log(prior / (1.0 - prior)))

    score = np.full(y.size, base)
    leaf = np.empty(y.size, dtype=np.intp)  # each stage's leaf of each training row, by row id
    trees: list[DecisionTree] = []
    tree_params = params.tree_params()
    for _ in range(params.n_trees):
        p = sigmoid(score)
        grad = w * (p - y)
        hess = w * p * (1.0 - p)
        tree = _grow(_GainCriterion(grad, hess, params.leaf_l2), codes, values, rows, tree_params, None, group, leaf)
        trees.append(tree)
        score[rows] += params.learning_rate * tree.value[leaf[rows]]
        if not np.isfinite(score).all():
            raise InputError("boosting diverged to non-finite scores")
    return GbtModel(tuple(trees), params, base, float(training_weight), codes.shape[0])


def _dry_group(codes: np.ndarray, values: tuple[np.ndarray, ...], y: np.ndarray, w: np.ndarray,
               rows: np.ndarray) -> tuple[np.ndarray, tuple[int, int], np.ndarray]:
    """(root, group, weights) of a fit on rows. Where the rows hold dry rows and each
    label's weigh the same, the grouped root and its group (see trees._grouped_root), and
    w with each representative's weight multiplied by its label's dry count, so that a
    stage's gradient and hessian sums are the group's; otherwise (rows, (0, 0), w)."""
    dry = _dry_rows(codes, values)
    ids = rows[dry.take(rows)]
    if ids.size == 0 or _label_weights(y.take(ids), w.take(ids)) is None:
        return rows, (0, 0), w
    root, (e0, e1) = _grouped_root(y, rows, dry)
    reps = root[dry.take(root)]
    w = w.copy()
    w[reps] *= np.where(y.take(reps) == 1.0, e1 + 1, e0 + 1)
    return root, (e0, e1), w
