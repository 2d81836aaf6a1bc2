"""Slow, direct implementations the tests check the package against: a tree walk
that drops the rows at a leaf after each level, Shapley values by full coalition
enumeration and by one tree leaf at a time, the EAR of one event on its own,
station windows built from event intervals, forests and boosted models grown on
copies of their rows' codes, and the set of distinct rows with counts that a boosted
fit trains on."""
import logging
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from debris_ews import (
    DailyWindowMode, DatasetWindow, ForestModel, ForestParams, GbtModel, GbtParams, InputError, MainEvent, RainSeries,
    WindowConfig, WindowKind, segment_events, tree_shap_batch,
)
from debris_ews._common import derived_rng, format_ts, map_indexed
from debris_ews.explain import _as_trees, _check_background, _weight_table
from debris_ews.gbt import _PRIOR_CLIP
from debris_ews.linear import sigmoid
from debris_ews.rainfall import DEFAULT_ALPHA, _antecedents
from debris_ews.trees import DecisionTree, _GainCriterion, _GiniCriterion, _channels, _grow

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


def one_tree_forest(tree: DecisionTree) -> ForestModel:
    """The forest of one tree, which scores and attributes as the tree alone."""
    return ForestModel((tree,), ForestParams(n_trees=1), 0, 1.0, tree.n_features)


def tree_shap(model: ForestModel, x: np.ndarray, background: np.ndarray) -> ShapAttribution:
    """Exact interventional Shapley values for one row."""
    values, base = tree_shap_batch(model, np.asarray(x, dtype=np.float64).reshape(1, -1), background)
    return ShapAttribution(values[0], base)


def brute_shap(model: ForestModel, x: np.ndarray, background: np.ndarray) -> ShapAttribution:
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
    model: ForestModel, X: np.ndarray, background: np.ndarray
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


def _has_wet_run(values: np.ndarray, start: int, end: int, threshold: float, run: int) -> bool:
    wet = values[start : end + 1] > threshold
    if run <= 1:
        return bool(wet.any())
    streak = 0
    for w in wet:
        streak = streak + 1 if w else 0
        if streak >= run:
            return True
    return False


def _subtract_spans(span: tuple[int, int], holes) -> list[tuple[int, int]]:
    pieces = [span]
    for h0, h1 in holes:
        nxt = []
        for s0, s1 in pieces:
            if h1 < s0 or h0 > s1:
                nxt.append((s0, s1))
                continue
            if s0 < h0:
                nxt.append((s0, h0 - 1))
            if h1 < s1:
                nxt.append((h1 + 1, s1))
        pieces = nxt
    return pieces


def interval_windows(series: RainSeries, debris_events, cfg: WindowConfig = WindowConfig()) -> list[DatasetWindow]:
    """build_windows worked on event intervals: each flow scans every event for its
    anchor, positive spans are trimmed pairwise, padded negative spans are merged, the
    positive spans are cut out of them, and a piece is kept if it holds a whole
    negative event. It logs the same skipped-flow warnings, on this module's logger."""
    log = logging.getLogger(__name__)
    events = segment_events(series, cfg.rain_threshold_mm, cfg.quiet_hours)
    n = len(series)

    claimed: dict[int, int] = {}  # event index -> debris flow hour
    for ts in sorted(debris_events):
        try:
            idx = series.index_of(ts)
        except InputError as exc:
            log.warning("skipping debris flow %s: %s", format_ts(ts), exc)
            continue
        anchor = None
        for ei, ev in enumerate(events):
            if ev.start_idx <= idx <= ev.end_idx + cfg.tail_hours:
                anchor = ei
        if anchor is None:
            log.warning(
                "skipping debris flow %s at station %s: no main rainfall event covers it",
                format_ts(ts), series.station_id,
            )
            continue
        if anchor in claimed:
            log.warning(
                "skipping debris flow %s at station %s: event already tied to an earlier flow",
                format_ts(ts), series.station_id,
            )
            continue
        claimed[anchor] = idx

    # positive spans, one per claimed event; overlaps resolved by shrinking the
    # earlier tail to stop before the later event begins
    pos: list[list[int]] = []
    for ei in sorted(claimed):
        ev = events[ei]
        pos.append([max(0, ev.start_idx - cfg.antecedent_hours), min(n - 1, ev.end_idx + cfg.tail_hours), ei])
    for prev, cur in zip(pos, pos[1:]):
        cur_ev = events[cur[2]]
        if prev[1] >= cur_ev.start_idx:
            prev[1] = cur_ev.start_idx - 1
        cur[0] = max(cur[0], prev[1] + 1)
    pos_spans = [(s, e) for s, e, _ in pos]

    windows: list[DatasetWindow] = []
    for s, e, ei in pos:
        flow = claimed[ei]
        windows.append(
            DatasetWindow(series.station_id, series.slice_hours(s, e), WindowKind.POSITIVE, flow - s)
        )

    # negative candidates: unclaimed qualifying events clear of positive spans
    neg_events = [
        ev
        for ei, ev in enumerate(events)
        if ei not in claimed
        and _has_wet_run(series.values, ev.start_idx, ev.end_idx, cfg.rain_threshold_mm, cfg.min_wet_run_hours)
        and not any(ev.start_idx <= pe and ev.end_idx >= ps for ps, pe in pos_spans)
    ]
    merged: list[list[int]] = []
    for ev in neg_events:
        s = max(0, ev.start_idx - cfg.antecedent_hours)
        e = min(n - 1, ev.end_idx + cfg.tail_hours)
        if merged and s <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    for s, e in merged:
        for ps, pe in _subtract_spans((s, e), pos_spans):
            if any(ps <= ev.start_idx and ev.end_idx <= pe for ev in neg_events):
                windows.append(
                    DatasetWindow(series.station_id, series.slice_hours(ps, pe), WindowKind.NEGATIVE)
                )

    windows.sort(key=lambda w: w.series.start)
    return windows


def copying_grow_forest(codes: np.ndarray, values: tuple[np.ndarray, ...], y: np.ndarray, w: np.ndarray,
                        rows: np.ndarray, params: ForestParams, training_weight: float, seed: int,
                        threads: int = 1) -> ForestModel:
    """forest.grow_forest as each tree copied its bootstrap rows' codes, labels and weights,
    and decided its scan from the weights of its own draw."""
    tree_params = params.tree_params(codes.shape[0])
    n = rows.size

    def build(t: int) -> DecisionTree:
        rng = derived_rng(seed, 4, t)
        r = rows.take(rng.integers(0, n, size=n)) if params.bootstrap else rows
        return _grow(_GiniCriterion(y[r], w[r]), codes.take(r, axis=1), values, np.arange(n), tree_params, rng)

    trees = map_indexed(build, params.n_trees, threads)
    return ForestModel(tuple(trees), params, seed, float(training_weight), codes.shape[0])


def copying_grow_gbt(codes: np.ndarray, values: tuple[np.ndarray, ...], y: np.ndarray, w: np.ndarray,
                     rows: np.ndarray, params: GbtParams, training_weight: float,
                     copies: np.ndarray | None = None) -> GbtModel:
    """gbt.grow_gbt as it copied the training rows' codes, labels and weights once per fit
    and grew each stage on every copied row; copies, by position in rows, counts the
    rows each stands for toward min_samples_leaf."""
    codes, y, w = codes.take(rows, axis=1), y[rows], w[rows]
    prior = float(np.dot(w, y) / w.sum())
    prior = min(max(prior, _PRIOR_CLIP), 1.0 - _PRIOR_CLIP)
    base = float(np.log(prior / (1.0 - prior)))
    score = np.full(rows.size, base)
    trees = []
    for _ in range(params.n_trees):
        p = sigmoid(score)
        leaf = np.empty(rows.size, dtype=np.intp)
        criterion = _GainCriterion(_channels(w * p * (1.0 - p), w * (p - y)), params.leaf_l2, copies)
        tree = _grow(criterion, codes, values, np.arange(rows.size), params.tree_params(), None, leaf=leaf)
        trees.append(tree)
        score = score + params.learning_rate * tree.value[leaf]
    return GbtModel(tuple(trees), params, base, float(training_weight), codes.shape[0])


def distinct_row_set(codes: np.ndarray, y: np.ndarray, w: np.ndarray,
                     rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows a boosted fit on rows trains on: the first of each distinct (codes column,
    label, weight) among rows, sorted, and by each of them the count of rows it stands for."""
    first: dict[tuple, int] = {}
    count: dict[int, int] = {}
    for r in rows.tolist():
        f = first.setdefault((codes[:, r].tobytes(), float(y[r]), float(w[r])), r)
        count[f] = count.get(f, 0) + 1
    root = np.array(sorted(count), dtype=np.intp)
    return root, np.array([count[r] for r in root.tolist()], dtype=np.intp)


def grouped_grow_gbt(codes: np.ndarray, values: tuple[np.ndarray, ...], y: np.ndarray, w: np.ndarray,
                     rows: np.ndarray, params: GbtParams, training_weight: float) -> GbtModel:
    """gbt.grow_gbt as copying_grow_gbt on distinct_row_set's rows, each weighted by the
    count of rows it stands for and counted as them toward min_samples_leaf."""
    root, sizes = distinct_row_set(codes, y, w, rows)
    w = w.copy()
    w[root] *= sizes
    return copying_grow_gbt(codes, values, y, w, root, params, training_weight, sizes)
