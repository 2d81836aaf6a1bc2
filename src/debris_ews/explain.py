"""Exact interventional Shapley attributions for forest models, and permutation
rankings; both work on feature matrices.

For one tree and one background row z, a leaf is reached under coalition S when
x meets its path's constraints on the features in S and z meets them on the
rest. The constraints on one feature form an interval, so the leaf is a box
lo <= x < hi. A pair (x, z) that both leave the box on one feature never reaches
it; otherwise each of the a features only z leaves gains value * (a-1)! b! /
(a+b)! and each of the b features only x leaves loses value * a! (b-1)! / (a+b)!.
Per leaf, one matrix product finds the dead pairs of all rows and background
rows and one more sums the gains over the background. The weights are scaled to
integers, so the sums are exact in any order while background rows times
lcm(1..depth) stay below 2^53 (512 rows to depth 30). Averaging over the
background and the trees gives exact local accuracy; the tests check the
values against full coalition enumeration.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from pathlib import Path
from typing import Sequence

import numpy as np

from ._common import InputError, derived_rng, write_csv
from .forest import ForestModel
from .metrics import auprc
from .trees import DecisionTree

BACKGROUND_MAX_ROWS = 512
PERMUTATIONS = 10


def _weight_table(depth: int) -> tuple[np.ndarray, int]:
    """(w, L): w[p+1, q+1] = L p! q! / (p+q+1)! for p + q < depth, zero in row
    and column 0. L = lcm(1..depth), a multiple of every denominator, makes the
    entries integers; past 2^53 the entries could not be exact, and L is 2^53."""
    scale = min(lcm(*range(1, depth + 1)), 1 << 53)
    w = np.zeros((depth + 2, depth + 2))
    for p in range(depth):
        for q in range(depth - p):
            w[p + 1, q + 1] = float(Fraction(factorial(p) * factorial(q) * scale, factorial(p + q + 1)))
    return w, scale


def _as_trees(model: ForestModel | DecisionTree) -> tuple[DecisionTree, ...]:
    if isinstance(model, ForestModel):
        return model.trees
    if isinstance(model, DecisionTree):
        return (model,)
    raise InputError(f"tree attributions support forest models only, got {type(model).__name__}")


def _score(model, X: np.ndarray) -> np.ndarray:
    if hasattr(model, "predict_proba"):
        return model.predict_proba(X)
    if isinstance(model, DecisionTree):
        return model.predict_value(X)
    raise InputError(f"cannot score model of type {type(model).__name__}")


def _check_background(model_features: int, background: np.ndarray) -> np.ndarray:
    Z = np.asarray(background, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] == 0 or Z.shape[1] != model_features:
        raise InputError(f"background must be non-empty with {model_features} columns")
    if not np.isfinite(Z).all():
        raise InputError("background contains NaN or infinite values")
    return Z


def _leaf_boxes(tree: DecisionTree):
    """(value, features, lo, hi) of each leaf below the root with a non-zero value,
    in depth-first order: the leaf holds the x with lo <= x[features] < hi, where
    lo and hi are columns."""
    stack: list[tuple[int, dict[int, tuple[float, float]]]] = [(0, {})]
    while stack:
        node, box = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            value = float(tree.value[node])
            if box and value != 0.0:  # every contribution scales with the leaf value
                lo, hi = np.array(list(box.values())).T[:, :, None]
                yield value, list(box), lo, hi
            continue
        thr = float(tree.threshold[node])
        lo, hi = box.get(f, (-np.inf, np.inf))
        stack.append((int(tree.right[node]), {**box, f: (max(lo, thr), hi)}))
        stack.append((int(tree.left[node]), {**box, f: (lo, min(hi, thr))}))


def tree_shap_batch(
    model: ForestModel | DecisionTree, X: np.ndarray, background: np.ndarray
) -> tuple[np.ndarray, float]:
    """Attribution matrix for many rows; returns (values, shared base)."""
    trees = _as_trees(model)
    n_features = trees[0].n_features
    Z = _check_background(n_features, background)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise InputError(f"rows must have {n_features} features, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InputError("rows to explain contain NaN or infinite values")
    w, scale = _weight_table(max(t.depth() for t in trees))
    XT, ZT = np.ascontiguousarray(X.T), np.ascontiguousarray(Z.T)  # a leaf reads a few features of all rows
    values = np.zeros((X.shape[0], n_features))
    for tree in trees:
        for value, feats, lo, hi in _leaf_boxes(tree):
            x_out, z_out = (((M < lo) | (M >= hi)).astype(np.float64) for M in (XT[feats], ZT[feats]))
            live = x_out.T @ z_out == 0
            rows = np.flatnonzero(live.any(1))  # the other rows gain and lose nothing
            live, x_out = live[rows], x_out[:, rows].T
            a, b = z_out.sum(0).astype(np.intp), x_out.sum(1).astype(np.intp)[:, None]
            # a live z leaves only features x keeps (so the gain is 0 where x
            # leaves f) and keeps every feature x leaves (so x loses each of those)
            gain = np.where(live, w[a, b + 1], 0.0) @ z_out.T
            loss = x_out * np.where(live, w[a + 1, b], 0.0).sum(1, keepdims=True)
            values[np.ix_(rows, feats)] += value * ((gain - loss) / scale) / len(Z)
    return values / len(trees), sum(float(t.predict_value(Z).mean()) for t in trees) / len(trees)


def subsample_background(X: np.ndarray, max_rows: int = BACKGROUND_MAX_ROWS, seed: int = 0) -> np.ndarray:
    """Seeded row subsample used as the default SHAP background: at most max_rows rows
    of X, in their order. The draw depends only on the row count, so X may be the row
    numbers of a matrix not yet built."""
    X = np.asarray(X)
    if X.shape[0] <= max_rows:
        return X
    rows = derived_rng(seed, 7).choice(X.shape[0], size=max_rows, replace=False)
    return X[np.sort(rows)]


def permutation_ranking(model, X: np.ndarray, y: np.ndarray, seed: int = 0) -> list[tuple[int, float]]:
    """Features ordered by the mean AUPRC drop over PERMUTATIONS seeded shuffles of their column."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0 or y.shape != X.shape[:1]:
        raise InputError("permutation ranking needs a non-empty matrix and one label per row")
    if y.min() == y.max():
        raise InputError("permutation importance needs both label classes")
    base = auprc(_score(model, X), y)
    scores = np.empty(X.shape[1])
    for f in range(X.shape[1]):
        drops = []
        for r in range(PERMUTATIONS):
            perm = derived_rng(seed, 8, f, r).permutation(X.shape[0])
            Xp = X.copy()
            Xp[:, f] = X[perm, f]
            drops.append(base - auprc(_score(model, Xp), y))
        scores[f] = np.mean(drops)
    return _ranked(scores)


def mean_abs_ranking(values: np.ndarray) -> list[tuple[int, float]]:
    """Features ordered by mean |phi| over the rows of an attribution matrix."""
    return _ranked(np.abs(values).mean(axis=0))


def _ranked(scores: np.ndarray) -> list[tuple[int, float]]:
    order = np.argsort(-scores, kind="stable")  # ties keep feature order
    return [(int(f), float(scores[f])) for f in order]


def write_attribution_csv(
    path: str | Path,
    row_ids: Sequence[str],
    feature_names: Sequence[str],
    X: np.ndarray,
    values: np.ndarray,
) -> None:
    """Beeswarm-ready export: row_id,feature_name,feature_value,shap_value."""
    columns = ([rid for rid in row_ids for _ in feature_names], list(feature_names) * len(row_ids),
               np.asarray(X, dtype=np.float64).ravel(), np.asarray(values, dtype=np.float64).ravel())
    write_csv(path, ("row_id", "feature_name", "feature_value", "shap_value"), columns)
