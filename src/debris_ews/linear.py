"""Logistic regression fit by damped Newton steps (IRLS; *The Elements of
Statistical Learning*, section 4.4.1).

The objective is the weighted negative log-likelihood plus an optional L2
penalty on the weights (never the bias). Each step solves the Hessian system
on [X 1] by least squares, which a duplicate or all-zero column leaves
solvable, then backtracks to the Armijo condition. The fit converges once the
Newton decrement, the gradient times the step, falls to tol times the loss, so
the scale of the features or of the sample weights does not move the stop;
below a loss of 1 the bound is tol itself, since separable data has no optimum.
It also stops after max_iter steps or at a step that does not lower the loss.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import InputError
from .trees import check_rows, check_training_inputs

# Rows of [X 1] whose Hessian terms are summed at a time
_HESSIAN_BLOCK_ROWS = 1 << 12


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
    max_iter: int = 10000  # Newton steps
    tol: float = 1e-6  # on the Newton decrement, relative to max(loss, 1)

    def __post_init__(self) -> None:
        if self.penalty not in ("none", "l2"):
            raise InputError(f"penalty must be none or l2, got {self.penalty!r}")
        if self.penalty == "l2" and self.l2 <= 0:
            raise InputError("l2 penalty requires a positive coefficient")
        if self.penalty == "none" and self.l2:
            raise InputError("l2 coefficient given but penalty is none")
        if self.max_iter < 1:
            raise InputError("max_iter must be >= 1")
        if not self.tol > 0:
            raise InputError("tol must be > 0")


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    params: LogisticParams
    converged: bool = True

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(check_rows(X, self.weights.size) @ self.weights + self.bias)


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


def fit_logistic(
    X: np.ndarray,
    y: Sequence[int],
    sample_weight: Sequence[float] | None = None,
    params: LogisticParams = LogisticParams(),
    training_weight: float = 1.0,
) -> LinearModel:
    X, y, w = check_training_inputs(X, y, sample_weight, training_weight)
    n = X.shape[1]
    ridge = np.r_[np.full(n, params.l2), 0.0]  # 0 unless the penalty is l2, as __post_init__ checks
    theta = np.zeros(n + 1)  # the weights, then the bias
    loss = logistic_loss(theta[:n], 0.0, X, y, w, params.l2)
    if not np.isfinite(loss):
        raise InputError("non-finite initial loss")
    for _ in range(params.max_iter):
        p = sigmoid(X @ theta[:n] + theta[n])
        r = w * (p - y)
        grad = np.r_[X.T @ r, r.sum()] + ridge * theta
        s = w * p * (1.0 - p)
        hess = np.diag(ridge)
        with np.errstate(over="ignore"):  # checked below
            for lo in range(0, len(X), _HESSIAN_BLOCK_ROWS):
                rows = slice(lo, lo + _HESSIAN_BLOCK_ROWS)
                block = np.c_[X[rows], np.ones(len(s[rows]))]
                hess += block.T @ (s[rows, None] * block)
        if not np.isfinite(hess).all():
            raise InputError("feature values too large for a logistic fit: its Hessian overflows")
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        decrement = float(grad @ step)
        converged = decrement <= params.tol * max(loss, 1.0)
        # backtracking line search with the Armijo condition
        alpha = 1.0
        for _ in range(60):
            cand = theta - alpha * step
            cand_loss = logistic_loss(cand[:n], cand[n], X, y, w, params.l2)
            if np.isfinite(cand_loss) and cand_loss <= loss - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        else:
            break  # no productive step at float resolution
        if not cand_loss < loss:
            break
        theta, loss = cand, cand_loss
        if converged:  # after its last step, whose decrement met tol
            break
    return LinearModel(theta[:n].copy(), float(theta[n]), params, converged)
