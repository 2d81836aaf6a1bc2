"""Gradient-boosted trees for logistic loss.

Stages fit regression trees to the loss gradients and hessians of the current
score; leaf values use the second-order formula -G/(H + leaf_l2). The model
score is sigmoid(base log-odds + learning_rate * sum of tree outputs).
Training is fully deterministic: there is no row or feature subsampling. Each
stage grows on each distinct training row once, weighted by its count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import InputError, sorted_runs
from .linear import sigmoid
from .trees import (DecisionTree, TreeParams, check_rows, check_training_inputs, _channels, _grow, _rank_codes,
                    _GainCriterion)

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
    stage grows on the shared codes through its root's ids: the sorted first id of each
    distinct (codes, label, weight) among the rows, found by one sort (_distinct_rows),
    weighted by its count, so the prior, gradients and hessians carry its copies, and
    counted as its copies toward min_samples_leaf. The copies of a row reach its leaf in
    every stage, so each scores as its first id; scores, gradients and hessians are kept
    for the root's ids only."""
    root, copies, w = _distinct_rows(codes, y, w, rows)
    wr, yr = w.take(root), y.take(root)
    prior = float(np.dot(wr, yr) / wr.sum())
    prior = min(max(prior, _PRIOR_CLIP), 1.0 - _PRIOR_CLIP)
    base = float(np.log(prior / (1.0 - prior)))

    score = np.full(root.size, base)  # by position in the root
    leaf = np.empty(y.size, dtype=np.intp)  # each stage's leaf of each root id, by row id
    ab = np.empty(y.size, dtype=np.complex128)  # each stage's channels, set at the root's ids only
    # with a leaf of 1, a node of one id has no boundary, however many rows it stands for
    criterion = _GainCriterion(ab, params.leaf_l2, copies if params.min_samples_leaf > 1 else None)
    trees: list[DecisionTree] = []
    tree_params = params.tree_params()
    for _ in range(params.n_trees):
        p = sigmoid(score)
        ab[root] = _channels(wr * p * (1.0 - p), wr * (p - yr))
        tree = _grow(criterion, codes, values, root, tree_params, None, leaf=leaf)
        trees.append(tree)
        score += params.learning_rate * tree.value[leaf.take(root)]
        if not np.isfinite(score).all():
            raise InputError("boosting diverged to non-finite scores")
    return GbtModel(tuple(trees), params, base, float(training_weight), codes.shape[0])


def _distinct_rows(codes: np.ndarray, y: np.ndarray, w: np.ndarray,
                   rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(root, copies, weights) of a fit on rows: the sorted first id of each distinct
    (codes column, label, weight) among the rows; by row id, the count of the rows each
    stands for (None when no row repeats); and w with each first id's weight multiplied
    by its count. Rows with one codes column reach one leaf of every tree. One lexicographic
    sort of the rows' weight bits, label bits and codes puts equal rows next to each other."""
    columns = (w.take(rows).view(np.uint64), y.take(rows).view(np.uint64), *codes.take(rows, axis=1))
    order = np.lexsort(columns)
    new = np.zeros(rows.size, dtype=bool)
    new[:1] = True
    for column in columns:
        column = column.take(order)
        new[1:] |= column[1:] != column[:-1]
    first, run = sorted_runs(order, new)
    if first.size == rows.size:
        return rows, None, w
    ids = rows.take(first)
    copies = np.zeros(y.size, dtype=np.intp)
    copies[ids] = np.bincount(run, minlength=first.size)  # a repeated id is one group
    root = np.sort(ids)
    w = w.copy()
    w[root] *= copies.take(root)
    return root, copies, w

