"""Greedy binary decision trees grown on exact sorted scans.

Split candidates are midpoints between consecutive distinct values of a
feature; the winner is the weighted-Gini minimizer (classification) or the
second-order gain maximizer (boosting stages). Ties go to the lowest feature
index, then the lowest threshold, so training is reproducible bit for bit.
Features are rank-coded once per fit and one scan sorts the codes of all of a
node's candidate features together; the trees are those that a per-feature
stable sort of the float values grows.
A scan takes one of two paths, picked once per criterion from its weights. If
every negative row weighs a0 and every positive a1, both integers with
n * max(a0, a1) < 2**53 (Gini without per-row or fractional weights, as in every
forest with an integer training weight), the counting scan sorts the keys
code << 1 | label and counts the positives left of each boundary. A left sum is
then count * weight, an integer below 2**53, so it is exactly the float that a
running sum gives. Otherwise (boosting gradients, fractional or per-row weights)
the sort scan orders the rows by a stable argsort of the codes and takes running
sums of their weights.
min_samples_leaf bounds the raw (unweighted) row count of every leaf, which
keeps tree structure invariant under rescaling of the sample weights.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import InputError

log = logging.getLogger(__name__)

_NO_FEATURE = -1
_REL_EPS = 1e-12
# Codes sorted together in one scan block (features x rows); bounds a node's
# scratch memory whatever max_features is. The sort scan keeps 27 bytes a uint16
# code (the code, its int64 argsort position, a complex128 running sum and a
# boundary flag), ~14 MB; uint32 codes take 29. The counting scan keeps 6 bytes
# (a uint32 key, a label bit and a boundary flag) plus 8 per positive, at most
# 14 (~7 MB); uint32 codes take 64-bit keys, 10 bytes plus 8 per positive.
_BLOCK_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_leaf: int = 1
    max_features: int | None = None  # features tried per split; None means all

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 0:
            raise InputError("max_depth must be None or >= 0")
        if self.min_samples_leaf < 1:
            raise InputError("min_samples_leaf must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise InputError("max_features must be None or >= 1")


@dataclass(frozen=True)
class DecisionTree:
    """Node arrays; leaves have feature == -1.

    value holds the weighted positive fraction at each leaf for classifier
    trees and the regularized leaf score for boosted regression trees; weight
    holds the matching weighted sample count (hessian mass for boosted trees).
    Rows with x[feature] < threshold go left.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    weight: np.ndarray
    n_features: int
    params: TreeParams

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == _NO_FEATURE))

    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=np.int32)
        out = 0
        for i in range(self.n_nodes):
            if self.feature[i] != _NO_FEATURE:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
            else:
                out = max(out, int(depths[i]))
        return out

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        idx = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            active = np.flatnonzero(self.feature[idx] != _NO_FEATURE)
            if active.size == 0:
                return self.value[idx]
            cur = idx[active]
            go_left = X[active, self.feature[cur]] < self.threshold[cur]
            idx[active] = np.where(go_left, self.left[cur], self.right[cur])


def _check_matrix(X: np.ndarray, n_features: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise InputError(f"feature matrix must be non-empty 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InputError("feature matrix contains NaN or infinite values")
    if n_features is not None and X.shape[1] != n_features:
        raise InputError(f"expected {n_features} features, got {X.shape[1]}")
    return X


def check_training_inputs(
    X: np.ndarray, y: Sequence[int], sample_weight: Sequence[float] | None, training_weight: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (X, float labels, weights), with the weight of each positive row
    multiplied by training_weight."""
    X = _check_matrix(X)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise InputError("labels must be 1-D and match the number of rows")
    uniq = np.unique(y)
    if not np.isin(uniq, (0, 1)).all():
        raise InputError(f"labels must be binary 0/1, got values {uniq[:5]}")
    y = y.astype(np.float64)
    if sample_weight is None:
        w = np.ones(X.shape[0])
    else:
        w = np.asarray(sample_weight, dtype=np.float64)
        if w.shape != (X.shape[0],):
            raise InputError("sample weights must match the number of rows")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise InputError("sample weights must be finite and > 0")
    if not np.isfinite(training_weight) or training_weight <= 0:
        raise InputError("training_weight must be finite and > 0")
    return X, y, np.where(y == 1.0, w * training_weight, w)


def _rank_codes(X: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Feature-major rank codes of X (uint16, or uint32 past 65,536 distinct values in a
    column) and each feature's sorted distinct values. Equal values share a code, so a
    stable sort of codes orders rows as one of the floats does. Only nonzeros are searched.
    """
    # a column has at most nnz + 1 distinct values; count them only where that passes 65,536
    wide = np.flatnonzero(np.count_nonzero(X, axis=0) >= 1 << 16)
    dtype = np.uint32 if any(np.unique(X[:, j]).size > 1 << 16 for j in wide) else np.uint16
    codes = np.empty(X.shape[::-1], dtype=dtype)
    values = []
    for j, col in enumerate(X.T):
        nz = np.flatnonzero(col)
        v, inv = np.unique(col[nz], return_inverse=True)
        zero = int(np.searchsorted(v, 0.0))
        if nz.size < col.size:  # 0 (and -0.0) takes its rank among the nonzero values
            v = np.insert(v, zero, 0.0)
            inv[inv >= zero] += 1
            codes[j] = zero
        codes[j, nz] = inv
        values.append(v)
    return codes, tuple(values)


def _counting_weights(y: np.ndarray, w: np.ndarray) -> tuple[float, float, np.ndarray] | None:
    """(a0, a1, labels as uint8) when every negative weighs a0 and every positive a1, both
    integers with n * max(a0, a1) < 2**53, so that every weight sum of a node is exact;
    otherwise None."""
    positive = y == 1.0
    a = []
    for v in (w[~positive], w[positive]):
        if v.size and v.min() != v.max():
            return None
        a.append(float(v[0]) if v.size else 0.0)
    a0, a1 = a
    if not (a0.is_integer() and a1.is_integer() and y.size * max(a0, a1) < 2.0 ** 53):
        return None
    return a0, a1, positive.view(np.uint8)


class _GiniCriterion:
    """Weighted Gini impurity; leaf value is the weighted positive fraction. Channels are
    the weights and positive weights; the score is the children's impurity, negated.
    counts selects the counting scan (see _counting_weights)."""

    def __init__(self, y: np.ndarray, w: np.ndarray):
        self.y = y
        self.a = w
        self.b = w * y
        self.counts = _counting_weights(y, w)

    def is_pure(self, rows: np.ndarray) -> bool:
        yr = self.y[rows]
        return bool(yr.max() == yr.min())

    def leaf(self, rows: np.ndarray) -> tuple[float, float]:
        wt = float(self.a[rows].sum())
        return float(self.b[rows].sum() / wt), wt

    def floor(self, W: float, P: float) -> float:
        return -(P * (W - P) / W) * (1.0 - _REL_EPS)  # require a real impurity decrease

    def score(self, wl: np.ndarray, pl: np.ndarray, W: float, P: float) -> np.ndarray:
        wr = W - wl
        pr = P - pl
        return -(pl * (wl - pl) / wl + pr * (wr - pr) / wr)


class _GainCriterion:
    """Second-order boosting gain with L2 leaf regularization; channels are hessians and gradients."""

    counts = None  # gradients are not label weights: always the sort scan

    def __init__(self, g: np.ndarray, h: np.ndarray, lam: float):
        self.a = h
        self.b = g
        self.lam = lam

    def is_pure(self, rows: np.ndarray) -> bool:
        return float(self.a[rows].sum()) + self.lam == 0

    def leaf(self, rows: np.ndarray) -> tuple[float, float]:
        # With no curvature (hessians summing to 0 under leaf_l2=0) the Newton
        # step -G/H is undefined: the node stays a leaf that changes no score.
        H = float(self.a[rows].sum())
        if H + self.lam == 0:
            return 0.0, H
        return float(-self.b[rows].sum() / (H + self.lam)), H

    def floor(self, H: float, G: float) -> float:
        return _REL_EPS * max(1.0, abs(G * G / (H + self.lam)))

    def score(self, hl: np.ndarray, gl: np.ndarray, H: float, G: float) -> np.ndarray:
        parent = G * G / (H + self.lam)
        return gl * gl / (hl + self.lam) + (G - gl) ** 2 / (H - hl + self.lam) - parent


def _best_split(criterion, codes: np.ndarray, values: tuple[np.ndarray, ...], rows: np.ndarray,
                features: np.ndarray, min_leaf: int) -> tuple[int, float, int] | None:
    """Exact scan of all candidate features of a node, _BLOCK_ELEMENTS codes at a time.

    Returns (feature, threshold, code) of the first best-scoring boundary in
    (feature, position) order, or None if none beats the criterion's floor.
    The rows with value < threshold are those with code <= code.
    """
    nr = rows.size
    counts = criterion.counts
    if counts is None:
        av = criterion.a.take(rows)
        bv = criterion.b.take(rows)
        A, B = float(av.sum()), float(bv.sum())
        # one complex cumsum is the two channels' sequential cumsums, bit for bit
        ab = av.astype(np.complex128)
        ab.imag = bv
        dtype = codes.dtype
    else:
        a0, a1, labels = counts
        lab = labels.take(rows)
        n_pos = int(np.count_nonzero(lab))
        A, B = (nr - n_pos) * a0 + n_pos * a1, n_pos * a1
        dtype = np.uint64 if codes.dtype == np.uint32 else np.uint32  # room for code << 1 | label
    best_score = criterion.floor(A, B)
    best = None
    step = max(1, _BLOCK_ELEMENTS // nr)
    for start in range(0, features.size, step):
        fb = features[start:start + step]
        block = np.empty((fb.size, nr), dtype=dtype)
        if counts is None:
            for i, f in enumerate(fb):
                codes[f].take(rows, out=block[i])
            order = np.argsort(block, axis=1, kind="stable")
            block.sort(axis=1)
        else:
            for i, f in enumerate(fb):
                np.left_shift(codes[f].take(rows), 1, out=block[i], dtype=dtype)
            block |= lab
            block.sort(axis=1)  # rows with one key are alike to the scan: no stability needed
            positives = np.flatnonzero(np.bitwise_and(block, 1, dtype=np.uint8, casting="unsafe").view(bool))
            block >>= 1
        ok = block[:, 1:] != block[:, :-1]
        ok[:, :min_leaf - 1] = False
        ok[:, nr - min_leaf:] = False
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            continue
        fi = idx // (nr - 1)
        if counts is None:
            sums = ab.take(order)
            np.cumsum(sums, axis=1, out=sums)
            sums = sums.take(idx + fi)  # ok has one column fewer
            wl, pl = sums.real, sums.imag
        else:
            # boundary p of feature row i is flat position i * nr + p; every row holds n_pos positives
            pos_left = np.searchsorted(positives, idx + fi, side="right") - fi * n_pos
            pl = pos_left * a1
            wl = (idx - fi * (nr - 1) + 1 - pos_left) * a0 + pl
        score = criterion.score(wl, pl, A, B)
        nan = np.isnan(score)
        if nan.any():  # a NaN anywhere rules its feature out, as a per-feature argmax would
            score[np.isin(fi, fi[nan])] = -np.inf
        j = int(np.argmax(score))
        if score[j] > best_score:
            best_score = float(score[j])
            i, p = divmod(int(idx[j]), nr - 1)
            lo, hi = values[fb[i]][block[i, p:p + 2]]
            thr = 0.5 * (lo + hi)
            if thr <= lo:  # adjacent floats can round the midpoint down
                thr = hi
            best = (int(fb[i]), float(thr), int(block[i, p]))
    return best


def _grow(criterion, codes: np.ndarray, values: tuple[np.ndarray, ...], params: TreeParams,
          rng: np.random.Generator | None) -> tuple[DecisionTree, np.ndarray]:
    """The tree and the leaf of each training row (the node predict_value routes it to)."""
    m, n = codes.shape
    m_try = m if params.max_features is None else params.max_features
    if m_try > m:
        raise InputError(f"max_features={m_try} exceeds feature count {m}")
    if m_try < m and rng is None:
        raise InputError("feature subsampling requires a seeded generator")
    max_depth = np.inf if params.max_depth is None else params.max_depth
    all_features = np.arange(m)
    nodes: list[list] = []  # [feature, threshold, left, right, value, weight]
    leaf = np.empty(n, dtype=np.intp)

    def new_node() -> int:
        nodes.append([_NO_FEATURE, np.nan, _NO_FEATURE, _NO_FEATURE, 0.0, 0.0])
        return len(nodes) - 1

    # stack keeps (slot, rows, depth); children pushed right-then-left so the
    # left subtree (and its RNG draws) always comes first
    stack = [(new_node(), np.arange(n), 0)]
    while stack:
        slot, rows, depth = stack.pop()
        node = nodes[slot]
        node[4], node[5] = criterion.leaf(rows)
        split = None
        if depth < max_depth and rows.size >= 2 * params.min_samples_leaf and not criterion.is_pure(rows):
            feats = all_features if m_try == m else np.sort(rng.choice(m, size=m_try, replace=False))
            split = _best_split(criterion, codes, values, rows, feats, params.min_samples_leaf)
        if split is None:
            leaf[rows] = slot
            continue
        f, node[1], code = split
        go_left = codes[f].take(rows) <= code
        node[0], node[2], node[3] = f, new_node(), new_node()
        stack.append((node[3], rows[~go_left], depth + 1))
        stack.append((node[2], rows[go_left], depth + 1))

    dtypes = (np.int32, np.float64, np.int32, np.int32, np.float64, np.float64)
    arrays = (np.asarray(column, dtype=dt) for column, dt in zip(zip(*nodes), dtypes))
    return DecisionTree(*arrays, n_features=m, params=params), leaf


def fit_tree(
    X: np.ndarray,
    y: Sequence[int],
    sample_weight: Sequence[float] | None = None,
    params: TreeParams = TreeParams(),
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> DecisionTree:
    """Classification tree minimizing weighted Gini impurity.

    The seed matters only when params.max_features subsamples the features.
    """
    X, y, w = check_training_inputs(X, y, sample_weight)
    if rng is None and seed is not None:
        rng = np.random.default_rng(seed)
    return _grow(_GiniCriterion(y, w), *_rank_codes(X), params, rng)[0]


def fit_gradient_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    params: TreeParams = TreeParams(),
    leaf_l2: float = 1.0,
    rng: np.random.Generator | None = None,
) -> DecisionTree:
    """One boosting stage: regression tree on gradient/hessian sums."""
    X = _check_matrix(X)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    if grad.shape != (X.shape[0],) or hess.shape != (X.shape[0],):
        raise InputError("gradients and hessians must match the number of rows")
    if leaf_l2 < 0:
        raise InputError("leaf_l2 must be >= 0")
    return _grow(_GainCriterion(grad, hess, leaf_l2), *_rank_codes(X), params, rng)[0]
