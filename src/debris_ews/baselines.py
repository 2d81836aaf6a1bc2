"""EAR-threshold alert baselines.

The station model (ETM) alerts when the EAR reaches a per-station threshold;
the homogeneous model (HM) uses one threshold everywhere. Alerts fire only
inside main rainfall events, where the EAR is positive (it is 0 elsewhere).
Each model is a per-hour score, EAR over the station threshold for the ETM
and EAR itself for the HM, so its curves come from thresholding the score at
every distinct value, and an alert rule is one point on them: the official ETM
point is the ETM score >= 1, an HM threshold the HM score >= it. Inside an
event the EAR never decreases, so an alert, once fired, lasts to the event's
end. A window's EAR is its station record's, at the window's hours.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._common import InputError, csv_row_ref, read_csv_rows, write_csv
from .dataset import DatasetWindow
from .rainfall import DEFAULT_ALPHA, DailyWindowMode, ear_series

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
    """The EAR at each hour of a window (> 0 inside events, 0 outside)."""

    station_id: str
    ear: np.ndarray


def compute_window_ear(
    window: DatasetWindow,
    alpha: float = DEFAULT_ALPHA,
    mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY,
) -> WindowEar:
    return WindowEar(window.station_id, ear_series(window.series, alpha, mode)[0])


def _alerts(wear: WindowEar, threshold: float) -> np.ndarray:
    if not np.isfinite(threshold) or threshold < 0:
        raise InputError(f"threshold must be finite and >= 0, got {threshold!r}")
    # an event's first hour is wet and its antecedent >= 0, so the EAR is > 0 exactly inside events
    return (wear.ear >= threshold) & (wear.ear > 0)


def etm_predict(wear: WindowEar, threshold: float) -> np.ndarray:
    """Per-hour alerts for one window under a station threshold (>= crossing)."""
    return _alerts(wear, threshold)


def hm_predict(wear: WindowEar, uniform_threshold: float) -> np.ndarray:
    """Per-hour alerts under the shared uniform threshold."""
    return _alerts(wear, uniform_threshold)


def etm_scores(wears: Sequence[WindowEar], table: ThresholdTable) -> np.ndarray:
    """Per-hour EAR/threshold ratios over the windows in the given order; thresholding
    at scale s reproduces the station model with every threshold multiplied by s."""
    return np.concatenate([w.ear / table[w.station_id] for w in wears])


def hm_scores(wears: Sequence[WindowEar]) -> np.ndarray:
    """Per-hour EAR values over the windows in the given order; thresholding
    reproduces the homogeneous model."""
    return np.concatenate([w.ear for w in wears])


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
    sids = sorted(table.thresholds)
    year = "" if table.year is None else str(table.year)
    thresholds = np.array([table.thresholds[sid] for sid in sids], dtype=np.float64)
    write_csv(path, THRESHOLD_CSV_COLUMNS, (sids, [year] * len(sids), thresholds))
