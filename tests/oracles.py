"""Slow, direct implementations the tests check the package against: Shapley
values by full coalition enumeration, and the EAR of one event on its own."""
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from debris_ews import DailyWindowMode, ForestModel, InputError, MainEvent, RainSeries, tree_shap_batch
from debris_ews.explain import _as_trees, _check_background
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
