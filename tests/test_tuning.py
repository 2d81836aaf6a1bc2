import numpy as np
import pytest

from debris_ews import (
    DatasetWindow,
    FeatureSpec,
    InputError,
    WindowKind,
    default_grid,
    grid_search_cv,
)
from debris_ews.tuning import write_grid_csv

from conftest import random_rain, series


def _toy_corpus(rng, n_pos=8, n_neg=24, hours=60):
    """Positives carry a loud rain burst right before the flow hour."""
    windows = []
    for i in range(n_pos):
        values = random_rain(rng, hours, wet_prob=0.15, scale=3.0)
        flow = int(rng.integers(20, hours - 5))
        values[flow - 3 : flow + 1] += 30.0
        w = DatasetWindow(f"P{i:02d}", series(values, station_id=f"P{i:02d}"), WindowKind.POSITIVE, flow)
        windows.append(w)
    for i in range(n_neg):
        values = random_rain(rng, hours, wet_prob=0.15, scale=3.0)
        values[30:32] += 6.0  # qualifying but mild rain
        w = DatasetWindow(f"N{i:02d}", series(values, station_id=f"N{i:02d}"), WindowKind.NEGATIVE)
        windows.append(w)
    return windows


def test_default_grids_shape():
    assert len(default_grid("rf")) == 4 * 7 * 3
    assert len(default_grid("gbt")) == 4 * 7 * 3 * 4
    assert len(default_grid("logistic")) == 8
    with pytest.raises(InputError):
        default_grid("mlp")


def test_single_cell_grid_returns_that_cell():
    rng = np.random.default_rng(0)
    windows = _toy_corpus(rng)
    cell = {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 2}
    res = grid_search_cv(windows, FeatureSpec(hourly_hours=6), [cell], model_kind="rf", k=4, seed=1)
    assert res.best == cell
    assert len(res.cells) == 1
    assert len(res.cells[0].fold_auprc) == 4


def test_deterministic_given_seed():
    rng = np.random.default_rng(1)
    windows = _toy_corpus(rng)
    grid = [
        {"n_trees": 3, "max_depth": 2, "min_samples_leaf": 1},
        {"n_trees": 3, "max_depth": 4, "min_samples_leaf": 1},
    ]
    r1 = grid_search_cv(windows, FeatureSpec(hourly_hours=6), grid, k=4, seed=9)
    r2 = grid_search_cv(windows, FeatureSpec(hourly_hours=6), grid, k=4, seed=9)
    assert r1 == r2


def test_tie_break_prefers_smaller_model():
    rng = np.random.default_rng(2)
    windows = _toy_corpus(rng, n_pos=6, n_neg=12)
    # max_depth 0 forces a single-leaf tree; every cell scores identically
    grid = [
        {"n_trees": 9, "max_depth": 0, "min_samples_leaf": 1},
        {"n_trees": 2, "max_depth": 0, "min_samples_leaf": 1},
        {"n_trees": 2, "max_depth": 0, "min_samples_leaf": 4},
    ]
    res = grid_search_cv(windows, FeatureSpec(hourly_hours=4), grid, k=3, seed=3)
    assert res.best["n_trees"] == 2
    assert res.best["min_samples_leaf"] == 4  # larger leaves = smaller model


def test_window_grouping_no_hour_leakage():
    # a fold's windows never appear in its training side: verified via fold ids
    rng = np.random.default_rng(3)
    windows = _toy_corpus(rng)
    from debris_ews import kfold_windows

    folds = kfold_windows(windows, k=4, seed=5)
    ids = [sorted(w.id for w in fold) for fold in folds]
    flat = [i for fold in ids for i in fold]
    assert sorted(flat) == sorted(w.id for w in windows)
    for a in range(4):
        for b in range(a + 1, 4):
            assert not set(ids[a]) & set(ids[b])


def test_logistic_and_gbt_cells_run():
    rng = np.random.default_rng(4)
    windows = _toy_corpus(rng, n_pos=6, n_neg=10, hours=40)
    res = grid_search_cv(
        windows, FeatureSpec(hourly_hours=4), [{"penalty": "l2", "l2": 1.0}], model_kind="logistic", k=3, seed=1
    )
    assert res.best["penalty"] == "l2"
    res2 = grid_search_cv(
        windows,
        FeatureSpec(hourly_hours=4),
        [{"n_trees": 3, "max_depth": 2, "min_samples_leaf": 1, "learning_rate": 0.3}],
        model_kind="gbt",
        k=3,
        seed=1,
    )
    assert len(res2.cells) == 1


def test_empty_grid_rejected():
    rng = np.random.default_rng(5)
    windows = _toy_corpus(rng, n_pos=4, n_neg=6)
    with pytest.raises(InputError):
        grid_search_cv(windows, FeatureSpec(hourly_hours=4), [], k=3, seed=0)


def test_every_grid_cell_is_checked_before_the_first_fit(monkeypatch):
    import debris_ews.tuning as tuning

    def no_fit(*args, **kwargs):
        raise AssertionError("fit before the grid was checked")

    monkeypatch.setattr(tuning, "grow_forest", no_fit)
    windows = _toy_corpus(np.random.default_rng(5), n_pos=4, n_neg=6)
    grid = [{"n_trees": 2}, {"n_trees": 2, "max_depth": "deep"}]
    with pytest.raises(InputError, match="^grid: cell 1: field 'max_depth': expected an integer or null, got 'deep'$"):
        grid_search_cv(windows, FeatureSpec(hourly_hours=4), grid, k=3, seed=0)


def test_grid_csv(tmp_path):
    rng = np.random.default_rng(6)
    windows = _toy_corpus(rng, n_pos=4, n_neg=8, hours=40)
    res = grid_search_cv(
        windows, FeatureSpec(hourly_hours=4), [{"n_trees": 2, "max_depth": 2, "min_samples_leaf": 1}], k=3, seed=0
    )
    write_grid_csv(tmp_path / "cv.csv", res)
    lines = (tmp_path / "cv.csv").read_text().splitlines()
    assert lines[0].startswith("model,max_depth,min_samples_leaf,n_trees,mean_auprc")
    assert len(lines) == 2
