"""Random forest of weighted-Gini trees with soft voting.

Each tree trains on its own seeded bootstrap resample (same size as the
training set) and subsamples max_features candidates per split, default
floor(sqrt(n_features)). The forest score is the arithmetic mean of leaf
positive fractions. training_weight multiplies the sample weight of every
positive row in impurity and leaf values, steering the missed-warning versus
false-alert trade-off.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import InputError, derived_rng, map_indexed
from .trees import DecisionTree, TreeParams, check_training_inputs, _grow, _rank_codes, _GiniCriterion

log = logging.getLogger(__name__)

# defaults pinned by the grid-search CV sweep on the reduced synthetic corpus
# (see README "Default hyperparameters")
DEFAULT_N_TREES = 100
DEFAULT_MAX_DEPTH: int | None = 15
DEFAULT_MIN_SAMPLES_LEAF = 4


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = DEFAULT_N_TREES
    max_depth: int | None = DEFAULT_MAX_DEPTH
    min_samples_leaf: int = DEFAULT_MIN_SAMPLES_LEAF
    max_features: int | None = None  # None -> floor(sqrt(n_features))
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise InputError("n_trees must be >= 1")

    def tree_params(self, n_features: int) -> TreeParams:
        m = self.max_features
        if m is None:
            m = max(1, int(np.floor(np.sqrt(n_features))))
        if not 1 <= m <= n_features:
            raise InputError(f"max_features={m} out of range for {n_features} features")
        return TreeParams(self.max_depth, self.min_samples_leaf, m)


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[DecisionTree, ...]
    params: ForestParams
    seed: int
    training_weight: float
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf positive fraction over all trees, in [0, 1]."""
        total = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees:
            total += tree.predict_value(X)
        return total / len(self.trees)


def fit_forest(
    X: np.ndarray,
    y: Sequence[int],
    params: ForestParams = ForestParams(),
    training_weight: float = 1.0,
    seed: int = 0,
    sample_weight: Sequence[float] | None = None,
    threads: int = 1,
) -> ForestModel:
    """Deterministic given (data, params, training_weight, seed); tree t always
    uses stream (seed, t), so thread scheduling cannot change the model."""
    X, y, w = check_training_inputs(X, y, sample_weight, training_weight)
    tree_params = params.tree_params(X.shape[1])
    codes, values = _rank_codes(X)

    def build(t: int) -> DecisionTree:
        rng = derived_rng(seed, 4, t)
        if params.bootstrap:
            rows = rng.integers(0, X.shape[0], size=X.shape[0])
            ct, yt, wt = codes.take(rows, axis=1), y[rows], w[rows]  # take keeps rows contiguous
        else:
            ct, yt, wt = codes, y, w
        return _grow(_GiniCriterion(yt, wt), ct, values, tree_params, rng)[0]

    trees = map_indexed(build, params.n_trees, threads)
    return ForestModel(tuple(trees), params, seed, float(training_weight), X.shape[1])
