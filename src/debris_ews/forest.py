"""Random forest of weighted-Gini trees with soft voting.

Each tree trains on its own seeded bootstrap resample (same size as the
training set) and subsamples max_features candidates per split, default
floor(sqrt(n_features)). The forest score is the arithmetic mean of leaf
positive fractions. training_weight multiplies the sample weight of every
positive row in impurity and leaf values, steering the missed-warning versus
false-alert trade-off.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import InputError, derived_rng, map_indexed
from .trees import (DecisionTree, TreeParams, check_rows, check_training_inputs, _dry_rows, _grouped_root, _grow,
                    _rank_codes, _GiniCriterion)

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
        TreeParams(self.max_depth, self.min_samples_leaf, self.max_features)  # checks the tree settings

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
        X = check_rows(X, self.n_features)
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.value.take(tree.leaves(X))
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
    codes, values = _rank_codes(X)
    return grow_forest(codes, values, y, w, np.arange(X.shape[0]), params, training_weight, seed, threads)


def grow_forest(
    codes: np.ndarray,
    values: tuple[np.ndarray, ...],
    y: np.ndarray,
    w: np.ndarray,
    rows: np.ndarray,
    params: ForestParams,
    training_weight: float,
    seed: int,
    threads: int = 1,
) -> ForestModel:
    """The forest fit_forest grows on the training set of the given rows, from the
    output of check_training_inputs and _rank_codes for a set that holds them. The
    codes may rank more rows than these: a split's threshold is the midpoint of two
    values adjacent within its node, so the trees are the same."""
    tree_params = params.tree_params(codes.shape[0])
    n = rows.size
    criterion = _GiniCriterion(y, w, rows)  # indexed by row id; threads only read it
    # the sort scan's sums are running float sums, so only the counting scan groups
    dry = _dry_rows(codes, values) if criterion.counts is not None else None

    def build(t: int) -> DecisionTree:
        rng = derived_rng(seed, 4, t)
        r = rows.take(rng.integers(0, n, size=n)) if params.bootstrap else rows
        # every tree reads the shared codes through its root's row ids: sorted for the
        # counting scan, which only counts, so its gathers stay local, and with its dry
        # rows as a counted group; in draw order for the sort scan, whose ties go by
        # position, so its sums are those of the draw
        group = (0, 0)
        if dry is not None:
            r, group = _grouped_root(criterion.labels, r, dry)
        return _grow(criterion, codes, values, r, tree_params, rng, group)

    trees = map_indexed(build, params.n_trees, threads)
    return ForestModel(tuple(trees), params, seed, float(training_weight), codes.shape[0])
