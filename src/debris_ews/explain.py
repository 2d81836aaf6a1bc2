"""Exact interventional Shapley attributions for forest models, and permutation
rankings; both work on feature matrices.

For one tree and one background row z, a leaf is reached under coalition S when
x meets its path's constraints on the features in S and z meets them on the
rest. The constraints on one feature form an interval, so the leaf is a box
lo <= x < hi. A pair (x, z) that both leave the box on one feature never reaches
it; otherwise each of the a features only z leaves gains value * (a-1)! b! /
(a+b)! and each of the b features only x leaves loses value * a! (b-1)! / (a+b)!.
So at one leaf a row's gains and losses depend only on the set of box features
it leaves. A chunk of leaves is worked at once: each leaf's rows and background
rows are grouped by that set, one stacked matrix product finds the live pairs of
sets and one more sums the gains over the background sets, each weighted by its
row count. The weights are scaled to integers, so the sums are exact in any
order while background rows times lcm(1..depth) stay below 2^53 (512 rows to
depth 30). The contributions are added leaf by leaf in each tree's depth-first
order, as one leaf at a time added them, so the result does not depend on the
chunks. Averaging over the background and the trees gives exact local accuracy;
the tests check the values against full coalition enumeration.
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
# Row x background-row pairs of one chunk of leaves (a chunk holds at least one
# leaf), which bounds the chunk's masks and pattern pairs; also the node x feature
# bounds of one group of trees whose leaf boxes are found together. 12 rows x 64
# background rows then take ~3 MB of scratch; twice this took ~6 MB and was no
# faster, and half of it nearly doubled the time of 400 rows x 64 (one core of a
# 2-vCPU Xeon, one BLAS thread).
_CHUNK_ELEMENTS = 1 << 17
# Box features one float code holds: integers below 2^53 are exact
_CODE_BITS = 53


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


def _as_trees(model: ForestModel) -> tuple[DecisionTree, ...]:
    if not isinstance(model, ForestModel):
        raise InputError(f"tree attributions support forest models only, got {type(model).__name__}")
    return model.trees


def _check_background(model_features: int, background: np.ndarray) -> np.ndarray:
    Z = np.asarray(background, dtype=np.float64, order="C")  # row-major, as DecisionTree.leaves reads it
    if Z.ndim != 2 or Z.shape[0] == 0 or Z.shape[1] != model_features:
        raise InputError(f"background must be non-empty with {model_features} columns")
    if not np.isfinite(Z).all():
        raise InputError("background contains NaN or infinite values")
    return Z


def _tree_groups(trees: Sequence[DecisionTree]):
    """Consecutive trees whose leaf boxes are found together: at most _CHUNK_ELEMENTS
    node x feature bounds a group, and at least one tree."""
    group, size = [], 0
    for tree in trees:
        if group and size + tree.n_nodes * tree.n_features > _CHUNK_ELEMENTS:
            yield group
            group, size = [], 0
        group.append(tree)
        size += tree.n_nodes * tree.n_features
    yield group


def _leaf_boxes(trees: Sequence[DecisionTree]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, lo, hi) of the leaves below a root with a non-zero value, tree by
    tree in depth-first order: leaf i holds the x with lo[i] <= x < hi[i], and a
    feature off its path has lo = -inf, hi = inf. The trees are walked together,
    one level at a time; level d + 1 lists the left children of level d's split
    nodes, then their right children."""
    sizes = np.array([t.n_nodes for t in trees])
    offset = np.cumsum(sizes) - sizes
    feature, threshold, value = (np.concatenate([getattr(t, name) for t in trees])
                                 for name in ("feature", "threshold", "value"))
    left = np.concatenate([t.left + o for t, o in zip(trees, offset)])
    right = np.concatenate([t.right + o for t, o in zip(trees, offset)])
    nodes = offset
    lo = np.full((nodes.size, trees[0].n_features), -np.inf)
    hi = np.full_like(lo, np.inf)
    levels = []  # per level: which entries split, and the node, lo and hi of each leaf
    while nodes.size:
        split = feature[nodes] >= 0
        levels.append((split, nodes[~split], lo[~split], hi[~split]))
        s = nodes[split]
        f, t, i = feature[s], threshold[s], np.arange(s.size)
        lo, hi = np.tile(lo[split], (2, 1)), np.tile(hi[split], (2, 1))
        hi[i, f] = np.minimum(hi[i, f], t)
        lo[i + s.size, f] = np.maximum(lo[i + s.size, f], t)
        nodes = np.concatenate([left[s], right[s]])
    # depth-first rank of each leaf: count the leaves below each entry bottom-up,
    # then give each entry the rank of its first leaf top-down; a right child's
    # first leaf comes after all of its left sibling's
    below = [np.zeros(0, dtype=np.intp)]
    for split, *_ in reversed(levels):
        n, half = np.ones(split.size, dtype=np.intp), below[-1].size // 2
        n[split] = below[-1][:half] + below[-1][half:]
        below.append(n)
    first, ranks = np.cumsum(below[-1]) - below[-1], []
    for (split, *_), n in zip(levels, below[-2::-1]):
        ranks.append(first[~split])
        f = first[split]
        first = np.concatenate([f, f + n[: f.size]])
    order = np.argsort(np.concatenate(ranks))
    leaf, lo, hi = (np.concatenate(part)[order] for part in list(zip(*levels))[1:])
    value = value[leaf]
    keep = (value != 0.0) & ((lo > -np.inf) | (hi < np.inf)).any(1)  # every contribution scales with the value
    return value[keep], lo[keep], hi[keep]


def _patterns(out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group each leaf's rows by the set of box features they leave; out is
    (leaves, features, rows). Returns the slot of each row (leaves, rows), the
    slots' sets as 0/1 columns (leaves, slots, features) and the rows in each
    slot. A leaf with fewer sets than the chunk's most repeats its row 0's set in
    the spare slots, with no rows."""
    L, K, n = out.shape
    j = np.arange(K)
    bits = np.zeros((-(-K // _CODE_BITS), K))
    bits[j // _CODE_BITS, j] = 2.0 ** (j % _CODE_BITS)
    codes = bits @ out  # (leaves, words, rows)
    order = np.lexsort(codes.transpose(1, 0, 2), axis=-1)
    codes = np.take_along_axis(codes, order[:, None, :], axis=2)
    new = np.ones((L, n), dtype=bool)
    new[:, 1:] = (codes[:, :, 1:] != codes[:, :, :-1]).any(1)
    rank = np.cumsum(new, axis=1) - 1
    ar = np.arange(L)[:, None]
    slot = np.empty_like(rank)
    slot[ar, order] = rank
    slots = int(rank[:, -1].max()) + 1
    li, ii = np.nonzero(new)
    first_row = np.zeros((L, slots), dtype=np.intp)
    first_row[li, rank[li, ii]] = order[li, ii]
    count = np.bincount((slot + slots * ar).ravel(), minlength=L * slots).reshape(L, slots)
    return slot, out[ar, :, first_row].astype(np.float64), count


def _add_chunk(values: np.ndarray, value: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               XT: np.ndarray, ZT: np.ndarray, w: np.ndarray, scale: int) -> None:
    """Add a chunk of leaves' contributions to values, leaf by leaf. XT and ZT are
    the rows and the background rows, one line a feature."""
    on = (lo > -np.inf) | (hi < np.inf)
    # each leaf's box features, then features off its path up to the widest box:
    # no row leaves those, so they gain and lose nothing
    feats = np.argsort(~on, axis=1, kind="stable")[:, : on.sum(1).max()]
    ar = np.arange(value.size)[:, None]
    lo, hi = lo[ar, feats][..., None], hi[ar, feats][..., None]
    xm, zm = XT[feats], ZT[feats]
    x_slot, xp, _ = _patterns((xm < lo) | (xm >= hi))
    _, zp, z_rows = _patterns((zm < lo) | (zm >= hi))
    live = xp @ zp.transpose(0, 2, 1) == 0  # (leaves, x sets, z sets) that leave no feature together
    a, b = zp.sum(2)[:, None, :], xp.sum(2)[:, :, None]  # the features each set leaves
    # flat index of w[a, b + 1] for live pairs and of w[0, 0] = 0 for the rest;
    # adding stride - 1 moves it to w[a + 1, b], and the rest to w[0, stride - 1] = 0
    stride = w.shape[1]
    gain_at = (a * stride + b + 1).astype(np.intp) * live
    # a live z leaves only features x keeps (so the gain is 0 where x leaves f)
    # and keeps every feature x leaves (so x loses each of those)
    gain = w.take(gain_at) @ (zp * z_rows[..., None])
    loss = xp * (w.take(gain_at + (stride - 1)) @ z_rows[..., None])
    c = (value[:, None, None] * ((gain - loss) / scale) / ZT.shape[1])[ar, x_slot]  # (leaves, rows, features)
    at = np.arange(x_slot.shape[1])[None, :, None] * values.shape[1] + feats[:, None, :]
    keep = c != 0.0  # an exact zero (a row with no live pair, a padding feature) changes no sum
    np.add.at(values.ravel(), at[keep], c[keep])


def tree_shap_batch(
    model: ForestModel, X: np.ndarray, background: np.ndarray
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
    chunk = max(1, _CHUNK_ELEMENTS // (len(X) * len(Z) or 1))
    for group in _tree_groups(trees) if len(X) else ():  # no rows, no sets to group
        value, lo, hi = _leaf_boxes(group)
        for s in range(0, value.size, chunk):
            _add_chunk(values, value[s : s + chunk], lo[s : s + chunk], hi[s : s + chunk], XT, ZT, w, scale)
    return values / len(trees), sum(float(t.value.take(t.leaves(Z)).mean()) for t in trees) / len(trees)


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
    base = auprc(model.predict_proba(X), y)
    scores = np.empty(X.shape[1])
    for f in range(X.shape[1]):
        drops = []
        for r in range(PERMUTATIONS):
            perm = derived_rng(seed, 8, f, r).permutation(X.shape[0])
            Xp = X.copy()
            Xp[:, f] = X[perm, f]
            drops.append(base - auprc(model.predict_proba(Xp), y))
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
