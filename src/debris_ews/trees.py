"""Greedy binary decision trees grown on exact sorted scans.

Split candidates are midpoints between consecutive distinct values of a
feature; the winner is the weighted-Gini minimizer (classification) or the
second-order gain maximizer (boosting stages). Ties go to the lowest feature
index, then the lowest threshold, so training is reproducible bit for bit.
Features are rank-coded once per fit. A node gathers its rows' statistics once
(labels and/or the two weight channels), and their totals give its leaf value,
its purity and the scan's parent totals. One scan then gathers the codes of all
of the node's candidate features with one take, packs each code with low bits
into an unsigned key and sorts the keys with one sort; the trees are those that
a per-feature stable sort of the float values grows.
The low bits depend on the criterion's weights. If every negative row weighs a0
and every positive a1, both integers with n * max(a0, a1) < 2**53 (Gini without
per-row or fractional weights, as in every forest with an integer training
weight), the counting scan sorts code << 1 | label and counts the positives left
of each boundary. A left sum is then count * weight, an integer below 2**53, so
it is exactly the float that a running sum gives. Otherwise (boosting gradients,
fractional or per-row weights) the sort scan sorts code << b | position, b the
bit length of the node's last position: positions break ties, so the sorted keys
are the stable argsort of the codes, and the running sums of the weights follow
that order. Each block takes few passes: a block of every feature (each boosting
node up to _BLOCK_ELEMENTS // m rows) gathers its codes along the rows with no flat
index, the positions unpack straight to the intp order that gathers the weights,
and the boundary mask is as wide as the block, so its flat indices address the
running sums and the sort scan derives only the winner's feature row.
Dry rows, 0 in every feature, ride a tree as one group when 0 is every feature's
smallest value: its nodes hold one dry row of each label and count the others.
The group sits at code 0 in every feature, left of every boundary, so it always
goes left. A forest tree groups on the counting scan, where adding the group's
counts to each side's integer counts gives the sums that scanning its rows would.
A boosting stage groups when each label's dry rows weigh the same: each
representative weighs its label's whole dry count, so the stage's gradients and
hessians carry the group's totals and the sort scan runs unchanged.
min_samples_leaf bounds the raw (unweighted) row count of every leaf, group
included, which keeps tree structure invariant under rescaling of the sample
weights, as long as their total W stays at most MAX_WEIGHT_TOTAL = sqrt(largest
float) ~ 1.34e154: past it the impurity product P * (W - P) and the gain's G * G
overflow, so check_training_inputs rejects such totals.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._common import InputError

_NO_FEATURE = -1
MAX_WEIGHT_TOTAL = float(np.sqrt(np.finfo(np.float64).max))  # ~1.34e154
_REL_EPS = 1e-12
# Codes sorted together in one scan block (features x rows); bounds a node's
# scratch memory whatever max_features is. A block of every feature gathers its
# codes along the rows, 2 bytes a uint16 code; a block of some features also holds
# an int64 flat index, 10 bytes (~2.6 MB). The sort scan then keeps 29 bytes a code
# with uint32 keys (the key, its position bits as intp, a complex128 running sum
# and a boundary flag), ~7.6 MB; uint64 keys take 33. The counting scan keeps 6
# bytes with uint32 keys (the key, a label bit and a boundary flag) plus 8 per
# positive, at most 14 (~3.7 MB); uint32 codes take 64-bit keys, 10 bytes plus 8
# per positive. Twice this budget raised the bench's peak RSS by ~8 MB through
# heap growth.
_BLOCK_ELEMENTS = 1 << 18
# Rows of X whose nonzero mask _rank_codes transposes at a time
_MASK_BLOCK_ROWS = 1 << 14
# DecisionTree's node arrays, in field order, and their dtypes
NODE_ARRAYS = {"feature": np.int32, "threshold": np.float64, "left": np.int32, "right": np.int32,
               "value": np.float64}


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
    """Node arrays; leaves have feature == -1, threshold NaN and children -1.

    value holds the weighted positive fraction at each leaf for classifier
    trees and the regularized leaf score for boosted regression trees.
    Rows with x[feature] < threshold go left.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == _NO_FEATURE))

    def depth(self) -> int:
        """Length of the longest root-to-leaf path, found one level of nodes at a time."""
        nodes, depth = np.zeros(1, dtype=np.intp), 0
        while True:
            split = nodes[self.feature[nodes] != _NO_FEATURE]
            if split.size == 0:
                return depth
            nodes, depth = np.concatenate([self.left[split], self.right[split]]), depth + 1

    @cached_property
    def _route(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(feature, threshold, child, depth) for leaves(): node arrays in which each
        leaf loops to itself, with feature 0, threshold +inf and both children the
        leaf. child[2 * i + 1] is node i's left child and child[2 * i] its right.
        Derived once per tree and never saved."""
        leaf = self.feature == _NO_FEATURE
        nodes = np.arange(self.n_nodes)
        child = np.empty(2 * nodes.size, dtype=np.intp)
        child[0::2] = np.where(leaf, nodes, self.right)
        child[1::2] = np.where(leaf, nodes, self.left)
        feature = np.where(leaf, 0, self.feature).astype(np.intp)
        return feature, np.where(leaf, np.inf, self.threshold), child, self.depth()

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """The leaf each row of X reaches; X is a matrix that check_rows returned.

        All rows walk depth() levels together, three gathers and a compare a level,
        straight from the row-major matrix; a row that reaches a leaf early stays
        there, since both of a leaf's children are the leaf."""
        feature, threshold, child, depth = self._route
        n, m = X.shape
        flat = X.reshape(-1)
        row_base = np.arange(0, n * m, m)
        idx = np.zeros(n, dtype=np.intp)
        for _ in range(depth):
            go_left = flat.take(feature.take(idx) + row_base) < threshold.take(idx)
            idx = child.take(2 * idx + go_left)
        return idx

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        return self.value.take(self.leaves(check_rows(X, self.n_features)))


def _check_matrix(X: np.ndarray, n_features: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise InputError(f"feature matrix must be non-empty 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InputError("feature matrix contains NaN or infinite values")
    if n_features is not None and X.shape[1] != n_features:
        raise InputError(f"expected {n_features} features, got {X.shape[1]}")
    return X


def check_rows(X: np.ndarray, n_features: int) -> np.ndarray:
    """X checked for scoring by a model of n_features, as the C-contiguous float64
    matrix that DecisionTree.leaves walks; a model checks it once for all its trees."""
    return np.ascontiguousarray(_check_matrix(X, n_features))


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
    with np.errstate(over="ignore", under="ignore"):  # checked below
        w = np.where(y == 1.0, w * training_weight, w)
    if not np.isfinite(w).all() or (w <= 0).any():
        raise InputError("training_weight times a sample weight must be finite and > 0")
    with np.errstate(over="ignore"):  # checked below
        total = w.sum()
    if not np.isfinite(total):
        raise InputError(f"the weights sum to {total} with training_weight {training_weight:g}; "
                         "their sum must be finite")
    if total > MAX_WEIGHT_TOTAL:  # Gini's P * (W - P) and the gain's G * G would overflow
        raise InputError(f"the weights sum to {total:g} with training_weight {training_weight:g}; "
                         f"their sum must be at most {MAX_WEIGHT_TOTAL:.4g}, so that its square is finite")
    return X, y, w


def _rank_codes(X: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Feature-major rank codes of X (uint16, or uint32 past 65,536 distinct values in a
    column) and each feature's sorted distinct values. Equal values share a code, so a
    stable sort of codes orders rows as one of the floats does. Only nonzeros are searched:
    a feature-major nonzero mask (an eighth of X's bytes) finds each column's nonzero rows
    with a contiguous pass, and only those are gathered from X.
    """
    # transposed a block of rows at a time: ~5 ms against ~15 ms for one whole transpose
    # at 129,099 x 48, and no second mask-sized array
    nonzero = np.empty(X.shape[::-1], dtype=bool)
    for start in range(0, X.shape[0], _MASK_BLOCK_ROWS):
        nonzero[:, start:start + _MASK_BLOCK_ROWS] = (X[start:start + _MASK_BLOCK_ROWS] != 0).T
    # a column has at most nnz + 1 distinct values; count them only where that passes 65,536
    wide = np.flatnonzero(np.count_nonzero(nonzero, axis=1) >= 1 << 16)
    dtype = np.uint32 if any(np.unique(X[:, j]).size > 1 << 16 for j in wide) else np.uint16
    codes = np.empty(X.shape[::-1], dtype=dtype)
    values = []
    for j, mask in enumerate(nonzero):
        nz = np.flatnonzero(mask)
        v, inv = np.unique(X[nz, j], return_inverse=True)
        zero = int(np.searchsorted(v, 0.0))
        if nz.size < mask.size:  # 0 (and -0.0) takes its rank among the nonzero values
            v = np.insert(v, zero, 0.0)
            inv[inv >= zero] += 1
            codes[j] = zero
        codes[j, nz] = inv
        values.append(v)
    return codes, tuple(values)


def _dry_rows(codes: np.ndarray, values: tuple[np.ndarray, ...]) -> np.ndarray:
    """A mask by row id of the rows that are 0 in every feature, where 0 is every feature's
    smallest value (code 0); all False when a feature has a negative value or no 0. Built
    one feature at a time, so that no temporary is as large as the codes."""
    dry = np.zeros(codes.shape[1], dtype=bool)
    if all(v[0] == 0.0 for v in values):
        np.equal(codes[0], 0, out=dry)
        for column in codes[1:]:
            dry &= column == 0
    return dry


def _grouped_root(labels: np.ndarray, rows: np.ndarray, dry: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """The root of a tree on rows (ids that may repeat) that carries its dry rows as a
    group: the sorted ids of its other rows, then one dry id of each label that the group
    holds, and (e0, e1), the count of the group's other rows of each label. labels is by
    row id, nonzero for a positive. A dry row sits at code 0 in every feature, so the
    group lies left of every boundary and its representatives keep code 0 and both
    labels in each node that holds it."""
    is_dry = dry.take(rows)
    group = rows[is_dry]
    lab = labels.take(group)
    n1 = int(np.count_nonzero(lab))
    n0 = group.size - n1
    reps = [group[np.argmax(lab == k)] for k, count in ((0, n0), (1, n1)) if count]
    root = np.concatenate([np.sort(rows[~is_dry]), np.asarray(reps, dtype=rows.dtype)])
    return root, (max(n0 - 1, 0), max(n1 - 1, 0))


def _label_weights(y: np.ndarray, w: np.ndarray) -> tuple[float, float] | None:
    """(a0, a1) when every negative weighs a0 and every positive a1 (0.0 for a label
    with no row); otherwise None."""
    positive = y == 1.0
    a = []
    for v in (w[~positive], w[positive]):
        if v.size and v.min() != v.max():
            return None
        a.append(float(v[0]) if v.size else 0.0)
    return a[0], a[1]


def _counting_weights(y: np.ndarray, w: np.ndarray) -> tuple[float, float] | None:
    """(a0, a1) of _label_weights when both are integers with n * max(a0, a1) < 2**53,
    so that every weight sum of a node is exact; otherwise None."""
    a = _label_weights(y, w)
    if a is None or not (a[0].is_integer() and a[1].is_integer() and y.size * max(a) < 2.0 ** 53):
        return None
    return a


def _channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + ib: one gather takes both channels, and one complex cumsum is the two
    channels' sequential cumsums, bit for bit."""
    ab = np.empty(a.size, dtype=np.complex128)
    ab.real = a
    ab.imag = b
    return ab


class _GiniCriterion:
    """Weighted Gini impurity; leaf value is the weighted positive fraction. Channels are
    the weights and positive weights; the score is the children's impurity, negated.
    Labels and channels are indexed by row id. counts selects the counting scan (see
    _counting_weights); the training set's rows (all by default) decide it, so every
    tree grown on rows of that set shares one criterion: a uniform set draws uniform
    resamples, and a draw that lacks a class holds only pure nodes."""

    def __init__(self, y: np.ndarray, w: np.ndarray, rows: np.ndarray | None = None):
        self.labels = (y == 1.0).view(np.uint8)
        self.counts = _counting_weights(y, w) if rows is None else _counting_weights(y[rows], w[rows])
        self.ab = _channels(w, w * y) if self.counts is None else None

    def node(self, rows: np.ndarray, group: tuple[int, int] = (0, 0)) -> tuple[float, float, bool, object]:
        """(W, P, pure, scan data) of a node: its weight and positive weight, whether it
        holds one class, and the gathered labels and positive count (counting scan) or
        channels (sort scan). group = (e0, e1) counts the node's dry rows of each label
        that rows leaves out (see _grouped_root); only the counting scan carries them."""
        lab = self.labels.take(rows)
        n_pos = int(np.count_nonzero(lab))
        pure = n_pos == 0 or n_pos == rows.size  # rows hold a representative of each grouped label
        if self.counts is None:
            ab = self.ab.take(rows)
            return float(ab.real.sum()), float(ab.imag.sum()), pure, ab
        a0, a1 = self.counts
        e0, e1 = group
        # integers below 2**53: the same floats as running sums of the weights
        return (rows.size - n_pos + e0) * a0 + (n_pos + e1) * a1, (n_pos + e1) * a1, pure, (lab, n_pos)

    def leaf(self, W: float, P: float) -> float:
        return P / W

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
        self.ab = _channels(h, g)
        self.lam = lam

    def node(self, rows: np.ndarray, group: tuple[int, int] = (0, 0)) -> tuple[float, float, bool, np.ndarray]:
        """(H, G, pure, gathered channels); a node with H + lam == 0 has no Newton step.
        A stage's dry group (see gbt.grow_gbt) is in its representatives' weights, so the
        channels already hold the group's totals and group is not read."""
        ab = self.ab.take(rows)
        H = float(ab.real.sum())
        return H, float(ab.imag.sum()), H + self.lam == 0, ab

    def leaf(self, H: float, G: float) -> float:
        # With no curvature (hessians summing to 0 under leaf_l2=0) the Newton
        # step -G/H is undefined: the node stays a leaf that changes no score.
        if H + self.lam == 0:
            return 0.0
        return -G / (H + self.lam)

    def floor(self, H: float, G: float) -> float:
        return _REL_EPS * max(1.0, abs(G * G / (H + self.lam)))

    def score(self, hl: np.ndarray, gl: np.ndarray, H: float, G: float) -> np.ndarray:
        """gl * gl / (hl + lam) + (G - gl) ** 2 / (H - hl + lam) - G * G / (H + lam), in
        that order of operations, in three arrays."""
        parent = G * G / (H + self.lam)
        score = gl * gl
        denom = hl + self.lam
        score /= denom
        right = G - gl
        right *= right
        np.subtract(H, hl, out=denom)
        denom += self.lam
        right /= denom
        score += right
        score -= parent
        return score


def _best_split(criterion, node: tuple, codes: np.ndarray, values: tuple[np.ndarray, ...], rows: np.ndarray,
                features: np.ndarray, min_leaf: int,
                group: tuple[int, int] = (0, 0)) -> tuple[int, float, int] | None:
    """Exact scan of all candidate features of a node, _BLOCK_ELEMENTS codes at a time;
    node is criterion.node(rows, group). The node's dry group (see _grouped_root) sits
    left of every boundary, and its rows count toward min_leaf on the left.

    Returns (feature, threshold, code) of the first best-scoring boundary in
    (feature, position) order, or None if none beats the criterion's floor.
    The rows with value < threshold are those with code <= code.
    """
    A, B, _, data = node
    nr = rows.size
    counts = criterion.counts
    e0, e1 = group
    if counts is None:
        # code << shift | position: positions break ties, so one sort is a stable argsort
        shift = (nr - 1).bit_length()
    else:
        a0, a1 = counts
        lab, n_pos = data
        shift = 1  # code << 1 | label: rows with one key are alike to the scan
    dtype = np.uint32 if 8 * codes.itemsize + shift <= 32 else np.uint64
    low = np.arange(nr, dtype=dtype) if counts is None else lab
    flat = codes.reshape(-1)
    best_score = criterion.floor(A, B)
    best = None
    step = max(1, _BLOCK_ELEMENTS // nr)
    for start in range(0, features.size, step):
        fb = features[start:start + step]
        # a block of every feature (fb is then 0..m-1) needs no flat index into the codes
        if fb.size == codes.shape[0]:
            block = np.left_shift(codes.take(rows, axis=1), shift, dtype=dtype)
        else:
            block = np.left_shift(flat.take((fb * codes.shape[1])[:, None] + rows), shift, dtype=dtype)
        block |= low
        block.sort(axis=1)
        if counts is None:  # the positions, unpacked straight to the index type that take uses
            order = np.bitwise_and(block, (1 << shift) - 1, dtype=np.intp, casting="unsafe")
        else:
            positives = np.flatnonzero(np.bitwise_and(block, 1, dtype=np.uint8, casting="unsafe").view(bool))
        block >>= shift  # the sorted codes
        # boundary p of feature row i, between sorted positions p and p + 1, is flat
        # position i * nr + p of the block; the last column has no boundary
        ok = np.empty(block.shape, dtype=bool)
        np.not_equal(block[:, 1:], block[:, :-1], out=ok[:, :-1])
        ok[:, :max(min_leaf - 1 - e0 - e1, 0)] = False
        ok[:, max(nr - min_leaf, 0):] = False  # with a group, rows may be fewer than min_leaf
        idx = ok.reshape(-1).nonzero()[0]
        if idx.size == 0:
            continue
        if counts is None:
            sums = data.take(order)
            sums.cumsum(axis=1, out=sums)
            sums = sums.take(idx)
            wl, pl = sums.real, sums.imag
        else:
            fi = idx // nr
            # every feature row holds n_pos positives
            pos_left = np.searchsorted(positives, idx, side="right") - fi * n_pos
            if e1:
                pos_left += e1
            pl = pos_left * a1
            wl = (idx - fi * nr + (1 + e0 + e1) - pos_left) * a0 + pl
        score = criterion.score(wl, pl, A, B)
        j = int(score.argmax())
        if np.isnan(score[j]):  # argmax finds the first NaN, if there is one
            fi = idx // nr  # a NaN anywhere rules its feature out, as a per-feature argmax would
            score[np.isin(fi, fi[np.isnan(score)])] = -np.inf
            j = int(score.argmax())
        if score[j] > best_score:
            best_score = float(score[j])
            i, p = divmod(int(idx[j]), nr)
            lo, hi = values[fb[i]][block[i, p:p + 2]]
            thr = 0.5 * (lo + hi)
            if thr <= lo:  # adjacent floats can round the midpoint down
                thr = hi
            best = (int(fb[i]), float(thr), int(block[i, p]))
    return best


def _grow(criterion, codes: np.ndarray, values: tuple[np.ndarray, ...], rows: np.ndarray, params: TreeParams,
          rng: np.random.Generator | None, group: tuple[int, int] = (0, 0),
          leaf: np.ndarray | None = None) -> DecisionTree:
    """The tree grown on the root's rows, ids of codes' columns that may repeat, and on
    the root's dry group (see _grouped_root), which counts toward min_samples_leaf and,
    on the counting scan, toward the node's weights. Given leaf, an array by row id, it
    is filled with the leaf of each of the root's rows (the node that leaves() routes it
    to). The codes are only read, so trees can share them. The counting scan only
    counts, so the order of the root's rows cannot change its tree; the sort scan breaks
    ties by position, so its running sums follow that order. The group goes left at
    every split: its code 0 is left of every boundary."""
    m = codes.shape[0]
    m_try = m if params.max_features is None else params.max_features
    if m_try > m:
        raise InputError(f"max_features={m_try} exceeds feature count {m}")
    if m_try < m and rng is None:
        raise InputError("feature subsampling requires a seeded generator")
    max_depth = np.inf if params.max_depth is None else params.max_depth
    all_features = np.arange(m)
    nodes: list[list] = []  # one list a node, its fields in NODE_ARRAYS order

    def new_node() -> int:
        nodes.append([_NO_FEATURE, np.nan, _NO_FEATURE, _NO_FEATURE, 0.0])
        return len(nodes) - 1

    # stack keeps (slot, rows, depth, group); children pushed right-then-left so the
    # left subtree (and its RNG draws) always comes first
    stack = [(new_node(), rows, 0, group)]
    while stack:
        slot, rows, depth, group = stack.pop()
        node = nodes[slot]
        stats = criterion.node(rows, group)
        node[4] = criterion.leaf(stats[0], stats[1])
        split = None
        if depth < max_depth and rows.size + sum(group) >= 2 * params.min_samples_leaf and not stats[2]:
            feats = all_features if m_try == m else np.sort(rng.choice(m, size=m_try, replace=False))
            split = _best_split(criterion, stats, codes, values, rows, feats, params.min_samples_leaf, group)
        if split is None:
            if leaf is not None:
                leaf[rows] = slot
            continue
        f, node[1], code = split
        go_left = codes[f].take(rows) <= code
        node[0], node[2], node[3] = f, new_node(), new_node()
        stack.append((node[3], rows[~go_left], depth + 1, (0, 0)))
        stack.append((node[2], rows[go_left], depth + 1, group))

    arrays = (np.asarray(column, dtype=dt) for column, dt in zip(zip(*nodes), NODE_ARRAYS.values()))
    return DecisionTree(*arrays, n_features=m)


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
    return _grow(_GiniCriterion(y, w), *_rank_codes(X), np.arange(X.shape[0]), params, rng)
