"""EAR-threshold alert baselines.

The station model (ETM) alerts when the EAR reaches a per-station threshold;
the homogeneous model (HM) uses one threshold everywhere. Alerts can only fire
inside main rainfall events (EAR is 0 elsewhere, below every official
threshold). Each model is a per-hour score, EAR over the station threshold for
the ETM and EAR itself for the HM, so its curves come from thresholding the
score at every distinct value, and an alert rule is one point on them: the
official ETM point is the ETM score >= 1, an HM threshold the HM score >= it.
Inside an event the EAR never decreases, so an alert, once fired, lasts to the
event's end.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._common import InputError, cell, csv_row_ref, read_csv_rows, write_csv
from .dataset import DatasetWindow
from .rainfall import DEFAULT_ALPHA, DailyWindowMode, ear_series

log = logging.getLogger(__name__)

OFFICIAL_MIN_MM = 200.0
OFFICIAL_MAX_MM = 600.0
OFFICIAL_STEP_MM = 50.0
MARKED_THRESHOLDS_MM = tuple(np.arange(OFFICIAL_MIN_MM, OFFICIAL_MAX_MM + 1, OFFICIAL_STEP_MM))

THRESHOLD_CSV_COLUMNS = ("station_id", "year", "ear_threshold_mm")


@dataclass(frozen=True)
class ThresholdTable:
    """Per-station EAR thresholds, each an official value: 200..600 mm in 50 mm steps."""

    thresholds: Mapping[str, float]
    year: int | None = None

    def __post_init__(self) -> None:
        for sid, thr in self.thresholds.items():
            if not np.isfinite(thr) or thr <= 0:
                raise InputError(f"station {sid}: threshold must be positive, got {thr!r}")
            if not (OFFICIAL_MIN_MM <= thr <= OFFICIAL_MAX_MM) or thr % OFFICIAL_STEP_MM:
                raise InputError(
                    f"station {sid}: official threshold must lie in "
                    f"[{OFFICIAL_MIN_MM:.0f}, {OFFICIAL_MAX_MM:.0f}] mm in {OFFICIAL_STEP_MM:.0f} mm steps"
                )
        object.__setattr__(self, "thresholds", dict(self.thresholds))

    def __getitem__(self, station_id: str) -> float:
        try:
            return self.thresholds[station_id]
        except KeyError:
            raise InputError(f"no EAR threshold for station {station_id}") from None


@dataclass(frozen=True)
class WindowEar:
    """Full-window EAR (0 outside events) with event spans in window coordinates."""

    window_id: str
    station_id: str
    ear: np.ndarray
    events: tuple[tuple[int, int], ...]


def compute_window_ear(
    window: DatasetWindow,
    alpha: float = DEFAULT_ALPHA,
    mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY,
) -> WindowEar:
    ear, events = ear_series(window.series, alpha, mode)
    return WindowEar(window.id, window.station_id, ear, tuple((e.start_idx, e.end_idx) for e in events))


def _alerts(wear: WindowEar, threshold: float) -> np.ndarray:
    if not np.isfinite(threshold) or threshold < 0:
        raise InputError(f"threshold must be finite and >= 0, got {threshold!r}")
    out = np.zeros(wear.ear.size, dtype=bool)
    for s, e in wear.events:
        out[s : e + 1] = wear.ear[s : e + 1] >= threshold
    return out


def etm_predict(wear: WindowEar, threshold: float) -> np.ndarray:
    """Per-hour alerts for one window under a station threshold (>= crossing)."""
    return _alerts(wear, threshold)


def hm_predict(wear: WindowEar, uniform_threshold: float) -> np.ndarray:
    """Per-hour alerts under the shared uniform threshold."""
    return _alerts(wear, uniform_threshold)


def etm_scores(wears: Sequence[WindowEar], table: ThresholdTable) -> dict[str, np.ndarray]:
    """Per-hour EAR/threshold ratios; thresholding at scale s reproduces the
    station model with every threshold multiplied by s."""
    return {w.window_id: w.ear / table[w.station_id] for w in wears}


def hm_scores(wears: Sequence[WindowEar]) -> dict[str, np.ndarray]:
    """Per-hour EAR values; thresholding reproduces the homogeneous model."""
    return {w.window_id: w.ear.copy() for w in wears}


def read_threshold_csv(path: str | Path) -> ThresholdTable:
    """The table of a threshold CSV; its year is the last row's, None when that is empty."""
    path = Path(path)
    thresholds: dict[str, float] = {}
    year: int | None = None
    for i, row in read_csv_rows(path, THRESHOLD_CSV_COLUMNS, "threshold"):
        sid = row["station_id"].strip()
        if not sid:
            raise InputError(f"{csv_row_ref(path, i)}: empty station_id")
        if sid in thresholds:
            raise InputError(f"{csv_row_ref(path, i)}: duplicate station {sid}")
        try:
            thresholds[sid] = float(row["ear_threshold_mm"])
            year = int(row["year"]) if row["year"].strip() else None
        except ValueError:
            raise InputError(f"{csv_row_ref(path, i)}: bad threshold row {row!r}") from None
    if not thresholds:
        raise InputError(f"{path}: no threshold rows")
    return ThresholdTable(thresholds, year=year)


def write_threshold_csv(path: str | Path, table: ThresholdTable) -> None:
    year = "" if table.year is None else table.year
    rows = ((sid, year, cell(table.thresholds[sid])) for sid in sorted(table.thresholds))
    write_csv(path, THRESHOLD_CSV_COLUMNS, rows)
