"""Logistic regression fit by full-batch gradient descent with backtracking.

The objective is the weighted negative log-likelihood plus an optional L2
penalty on the weights (never the bias). The loss is convex, so any step
sequence with non-increasing accepted loss converges; iteration stops when the
gradient norm drops below tol or after max_iter steps.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import InputError
from .trees import check_training_inputs

log = logging.getLogger(__name__)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class LogisticParams:
    penalty: str = "none"  # "none" | "l2"
    l2: float = 0.0
    max_iter: int = 10000
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.penalty not in ("none", "l2"):
            raise InputError(f"penalty must be none or l2, got {self.penalty!r}")
        if self.penalty == "l2" and self.l2 <= 0:
            raise InputError("l2 penalty requires a positive coefficient")
        if self.penalty == "none" and self.l2:
            raise InputError("l2 coefficient given but penalty is none")


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    params: LogisticParams
    converged: bool = True

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.weights.size:
            raise InputError(f"expected {self.weights.size} features, got shape {X.shape}")
        return sigmoid(X @ self.weights + self.bias)


def logistic_loss(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    l2: float = 0.0,
) -> float:
    z = X @ weights + bias
    # log(1 + e^z) - y z, summed with sample weights
    nll = float(np.dot(sample_weight, np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * l2 * float(np.dot(weights, weights))


def logistic_gradient(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    l2: float = 0.0,
) -> tuple[np.ndarray, float]:
    r = sample_weight * (sigmoid(X @ weights + bias) - y)
    return X.T @ r + l2 * weights, float(r.sum())


def fit_logistic(
    X: np.ndarray,
    y: Sequence[int],
    sample_weight: Sequence[float] | None = None,
    params: LogisticParams = LogisticParams(),
    training_weight: float = 1.0,
) -> LinearModel:
    X, y, w = check_training_inputs(X, y, sample_weight, training_weight)
    l2 = params.l2  # 0 unless the penalty is l2, as __post_init__ checks

    weights = np.zeros(X.shape[1])
    bias = 0.0
    loss = logistic_loss(weights, bias, X, y, w, l2)
    if not np.isfinite(loss):
        raise InputError("non-finite initial loss")
    step = 1.0 / max(1.0, float(np.abs(X).sum(axis=1).max()))  # crude curvature bound
    converged = False
    for _ in range(params.max_iter):
        gw, gb = logistic_gradient(weights, bias, X, y, w, l2)
        gnorm = float(np.sqrt(np.dot(gw, gw) + gb * gb))
        if gnorm < params.tol:
            converged = True
            break
        # backtracking line search with the Armijo condition
        g2 = gnorm * gnorm
        alpha = step
        for _ in range(60):
            cand_w = weights - alpha * gw
            cand_b = bias - alpha * gb
            cand_loss = logistic_loss(cand_w, cand_b, X, y, w, l2)
            if np.isfinite(cand_loss) and cand_loss <= loss - 1e-4 * alpha * g2:
                break
            alpha *= 0.5
        else:
            break  # no productive step at float resolution
        if cand_loss > loss:
            raise AssertionError("accepted line-search step increased the loss")
        weights, bias, loss = cand_w, cand_b, cand_loss
        step = min(alpha * 2.0, 1e6)
    if not np.isfinite(loss):
        raise InputError("logistic training diverged to a non-finite loss")
    if not converged:
        log.debug("logistic fit stopped before the gradient tolerance was reached")
    return LinearModel(weights, float(bias), params, converged)
