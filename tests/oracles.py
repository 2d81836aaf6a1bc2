"""Slow, direct implementations the tests check the package against: a tree walk
that drops the rows at a leaf after each level, Shapley values by full coalition
enumeration and by one tree leaf at a time, and the EAR of one event on its own."""
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from debris_ews import DailyWindowMode, ForestModel, InputError, MainEvent, RainSeries, tree_shap_batch
from debris_ews.explain import _as_trees, _check_background, _weight_table
from debris_ews.rainfall import DEFAULT_ALPHA, _antecedents
from debris_ews.trees import DecisionTree

BRUTE_MAX_FEATURES = 15


@dataclass(frozen=True)
class ShapAttribution:
    """Per-feature contributions in probability units plus the background mean."""

    values: np.ndarray
    base: float

    @property
    def total(self) -> float:
        return float(self.values.sum() + self.base)


def compacting_leaves(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """The leaf each row of X reaches, walked one level at a time over the rows
    that are still at a split node: DecisionTree.leaves without its looping leaves."""
    X = np.asarray(X, dtype=np.float64)
    idx = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        active = np.flatnonzero(tree.feature[idx] != -1)
        if active.size == 0:
            return idx
        cur = idx[active]
        go_left = X[active, tree.feature[cur]] < tree.threshold[cur]
        idx[active] = np.where(go_left, tree.left[cur], tree.right[cur])


def tree_shap(model: ForestModel | DecisionTree, x: np.ndarray, background: np.ndarray) -> ShapAttribution:
    """Exact interventional Shapley values for one row."""
    values, base = tree_shap_batch(model, np.asarray(x, dtype=np.float64).reshape(1, -1), background)
    return ShapAttribution(values[0], base)


def brute_shap(model: ForestModel | DecisionTree, x: np.ndarray, background: np.ndarray) -> ShapAttribution:
    """Shapley values by exhaustive coalition enumeration (<= 15 features)."""
    trees = _as_trees(model)
    n = trees[0].n_features
    if n > BRUTE_MAX_FEATURES:
        raise InputError(f"brute_shap enumerates 2^n coalitions; {n} features is too many")
    Z = _check_background(n, background)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise InputError(f"row must have {n} features, got shape {x.shape}")

    def predict_mean(rows: np.ndarray) -> float:
        total = np.zeros(rows.shape[0])
        for tree in trees:
            total += tree.predict_value(rows)
        return float(total.mean()) / len(trees)

    v = np.empty(1 << n)
    for mask in range(1 << n):
        hybrid = Z.copy()
        for j in range(n):
            if mask >> j & 1:
                hybrid[:, j] = x[j]
        v[mask] = predict_mean(hybrid)

    weights = [float(Fraction(factorial(s) * factorial(n - s - 1), factorial(n))) for s in range(n)]
    phi = np.zeros(n)
    full = (1 << n) - 1
    for j in range(n):
        rest = full & ~(1 << j)
        sub = rest
        while True:  # iterate all subsets of rest, including the empty set
            phi[j] += weights[bin(sub).count("1")] * (v[sub | 1 << j] - v[sub])
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return ShapAttribution(phi, v[0])


def per_leaf_boxes(tree: DecisionTree):
    """(value, features, lo, hi) of each leaf below the root with a non-zero value,
    in depth-first order: the leaf holds the x with lo <= x[features] < hi, where
    lo and hi are columns."""
    stack: list[tuple[int, dict[int, tuple[float, float]]]] = [(0, {})]
    while stack:
        node, box = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            value = float(tree.value[node])
            if box and value != 0.0:
                lo, hi = np.array(list(box.values())).T[:, :, None]
                yield value, list(box), lo, hi
            continue
        thr = float(tree.threshold[node])
        lo, hi = box.get(f, (-np.inf, np.inf))
        stack.append((int(tree.right[node]), {**box, f: (max(lo, thr), hi)}))
        stack.append((int(tree.left[node]), {**box, f: (lo, min(hi, thr))}))


def per_leaf_tree_shap_batch(
    model: ForestModel | DecisionTree, X: np.ndarray, background: np.ndarray
) -> tuple[np.ndarray, float]:
    """tree_shap_batch's attributions worked one leaf at a time, each leaf's
    contributions added to the rows that reach it before the next leaf's, in each
    tree's depth-first order: the same sums in the same order, so the same bits."""
    trees = _as_trees(model)
    Z = _check_background(trees[0].n_features, background)
    X = np.asarray(X, dtype=np.float64)
    w, scale = _weight_table(max(t.depth() for t in trees))
    XT, ZT = np.ascontiguousarray(X.T), np.ascontiguousarray(Z.T)
    values = np.zeros((X.shape[0], trees[0].n_features))
    for tree in trees:
        for value, feats, lo, hi in per_leaf_boxes(tree):
            x_out, z_out = (((M < lo) | (M >= hi)).astype(np.float64) for M in (XT[feats], ZT[feats]))
            live = x_out.T @ z_out == 0
            rows = np.flatnonzero(live.any(1))
            live, x_out = live[rows], x_out[:, rows].T
            a, b = z_out.sum(0).astype(np.intp), x_out.sum(1).astype(np.intp)[:, None]
            gain = np.where(live, w[a, b + 1], 0.0) @ z_out.T
            loss = x_out * np.where(live, w[a + 1, b], 0.0).sum(1, keepdims=True)
            values[np.ix_(rows, feats)] += value * ((gain - loss) / scale) / len(Z)
    return values / len(trees), sum(float(t.predict_value(Z).mean()) for t in trees) / len(trees)


@dataclass(frozen=True)
class EarTrace:
    """Per-hour EAR over one event, plus the constant antecedent term."""

    event: MainEvent
    antecedent_mm: float
    ear: np.ndarray


def ear_trace(
    series: RainSeries,
    event: MainEvent,
    alpha: float = DEFAULT_ALPHA,
    mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY,
) -> EarTrace:
    """EAR trajectory over one event: running event rain + antecedent index."""
    if event.end_idx >= len(series):
        raise InputError(f"event span ({event.start_idx}, {event.end_idx}) outside series")
    (ante,) = _antecedents(series, [event.start_idx], alpha, mode)
    return EarTrace(event, float(ante), np.cumsum(series.values[event.start_idx : event.end_idx + 1]) + ante)
