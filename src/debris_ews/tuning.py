"""Seeded grid-search cross-validation, grouped by whole windows.

Every grid cell is scored by the mean AUPRC over k held-out folds; folds come
from the stratified window k-fold, so no window contributes hours to both
sides of a fit. One example matrix holds the folds in fold order, and a fit
trains on the rows outside its held-out fold; forests and boosted models grow on
those rows of one rank coding of the whole matrix, made once per run. Ties on
mean AUPRC go to the smaller model: fewer trees, then shallower, then larger
leaves.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._common import InputError, build_params, cell, derived_rng, write_csv
from .dataset import DatasetWindow, FeatureSpec, LabelingConfig, build_examples, kfold_windows
from .forest import ForestParams, grow_forest
from .gbt import GbtParams, grow_gbt
from .linear import LogisticParams, fit_logistic
from .metrics import auprc
from .trees import _rank_codes, check_training_inputs

log = logging.getLogger(__name__)

_PARAMS = {"rf": ForestParams, "gbt": GbtParams, "logistic": LogisticParams}
MODEL_KINDS = tuple(_PARAMS)

_TREE_COUNTS = (10, 40, 70, 100)
_DEPTHS = (None, 1, 2, 6, 15, 39, 100)
_MIN_SAMPLES = (1, 2, 4)
_LEARNING_RATES = (0.001, 0.01, 0.1, 1.0)
_L2_COEFFS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


def default_grid(model_kind: str) -> list[dict]:
    """The stock hyperparameter grid for one model family."""
    if model_kind == "rf":
        return [
            {"n_trees": t, "max_depth": d, "min_samples_leaf": s}
            for t, d, s in product(_TREE_COUNTS, _DEPTHS, _MIN_SAMPLES)
        ]
    if model_kind == "gbt":
        return [
            {"n_trees": t, "max_depth": d, "min_samples_leaf": s, "learning_rate": lr}
            for t, d, s, lr in product(_TREE_COUNTS, _DEPTHS, _MIN_SAMPLES, _LEARNING_RATES)
        ]
    if model_kind == "logistic":
        return [{"penalty": "none", "l2": 0.0}] + [{"penalty": "l2", "l2": c} for c in _L2_COEFFS]
    raise InputError(f"unknown model kind {model_kind!r}; expected one of {MODEL_KINDS}")


def _cell_params(model_kind: str, grid: Sequence, source: str) -> list:
    """Each cell's parameters, checked before any fit; an error names the source,
    the cell index and the field."""
    if model_kind not in _PARAMS:
        raise InputError(f"unknown model kind {model_kind!r}; expected one of {MODEL_KINDS}")
    if not grid:
        raise InputError("empty hyperparameter grid")
    return [build_params(_PARAMS[model_kind], cell, f"{source}: cell {ci}") for ci, cell in enumerate(grid)]


def _fit_cell(params, examples, train: np.ndarray, coded: tuple | None, training_weight: float, seed: int,
              threads: int):
    """One fold fit on the rows `train` of examples; a tree ensemble grows on the rows of
    coded, the checked and rank-coded examples (see grow_forest)."""
    if isinstance(params, ForestParams):
        return grow_forest(*coded, np.flatnonzero(train), params, training_weight, seed, threads)
    if isinstance(params, GbtParams):
        return grow_gbt(*coded, np.flatnonzero(train), params, training_weight)
    return fit_logistic(examples.X[train], examples.y[train], params=params, training_weight=training_weight)


def _size_key(model_kind: str, cell: Mapping) -> tuple:
    depth = cell.get("max_depth")
    depth_key = np.inf if depth is None else depth
    if model_kind == "logistic":
        return (0,)
    return (cell.get("n_trees", 0), depth_key, -cell.get("min_samples_leaf", 1))


@dataclass(frozen=True)
class GridCell:
    params: dict
    fold_auprc: tuple[float, ...]
    mean_auprc: float


@dataclass(frozen=True)
class GridResult:
    model_kind: str
    best: dict
    cells: tuple[GridCell, ...]
    k: int
    seed: int


def grid_search_cv(
    windows: Sequence[DatasetWindow],
    spec: FeatureSpec,
    grid: Sequence[Mapping] | None = None,
    model_kind: str = "rf",
    k: int = 10,
    seed: int = 0,
    labeling: LabelingConfig = LabelingConfig(),
    training_weight: float = 1.0,
    threads: int = 1,
    grid_source: str = "grid",
) -> GridResult:
    """The CV table of grid; grid_source names the grid in errors about its cells."""
    if grid is None:
        grid = default_grid(model_kind)
    cell_params = _cell_params(model_kind, grid, grid_source)
    folds = kfold_windows(windows, k, seed)
    # one matrix in fold order: fold fi's rows are held out, the rest train in fold order
    examples = build_examples([w for fold in folds for w in fold], spec, labeling)
    fold_of_row = np.repeat(np.arange(k), [sum(len(w) for w in fold) for fold in folds])
    coded = None
    if model_kind != "logistic":  # every tree fold fit grows on rows of one coding
        X, y, w = check_training_inputs(examples.X, examples.y, None, training_weight)
        coded = (*_rank_codes(X), y, w)

    cells: list[GridCell] = []
    for ci, (cell, params) in enumerate(zip(grid, cell_params)):
        scores: list[float] = []
        for fi in range(k):
            held = fold_of_row == fi
            y_held = examples.y[held]
            if y_held.max() == y_held.min():
                log.warning("fold %d has single-class labels; skipped in cell %s", fi, cell)
                continue
            fit_seed = int(derived_rng(seed, 5, ci, fi).integers(2**63))
            model = _fit_cell(params, examples, ~held, coded, training_weight, fit_seed, threads)
            scores.append(auprc(model.predict_proba(examples.X[held]), y_held))
        if not scores:
            raise InputError("every fold was single-class; cannot score the grid")
        cells.append(GridCell(dict(cell), tuple(scores), float(np.mean(scores))))

    best = min(cells, key=lambda c: (-c.mean_auprc,) + _size_key(model_kind, c.params))
    return GridResult(model_kind, dict(best.params), tuple(cells), k, seed)


def write_grid_csv(path: str | Path, result: GridResult) -> None:
    keys = sorted({k for c in result.cells for k in c.params})
    header = ["model"] + keys + ["mean_auprc"] + [f"fold{j}_auprc" for j in range(result.k)]
    cells = result.cells
    columns = [[result.model_kind] * len(cells)]
    columns += [["" if c.params.get(k) is None else str(c.params[k]) for c in cells] for k in keys]
    columns.append(np.array([c.mean_auprc for c in cells], dtype=np.float64))
    columns += [[cell(c.fold_auprc[j] if j < len(c.fold_auprc) else None) for c in cells] for j in range(result.k)]
    write_csv(path, header, columns)
