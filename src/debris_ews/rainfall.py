"""Hourly rainfall primitives: series container, main-event segmentation, and
effective accumulated rainfall (EAR).

A main rainfall event starts at an hour whose rainfall exceeds the wet threshold
(4 mm by default, strict comparison) and ends at the last such hour that is
followed by at least six consecutive sub-threshold hours; a trailing event cut
off by the end of the record is closed at its last wet hour.

The EAR at hour t of an event is the rain accumulated by the event through t
plus a constant antecedent index: the seven daily totals preceding the event
start, the i-th day back weighted by alpha**i (alpha = 0.7 by default). Hours
outside any event carry an EAR of 0 so per-hour alert scores are defined over a
whole record. Hours before the start of a record contribute 0 mm to daily
totals.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._common import HOUR, InputError, ensure_hour_aligned, format_ts, number_keys, parse_column, parse_ts, read_csv_blocks

log = logging.getLogger(__name__)

RAIN_THRESHOLD_MM = 4.0
QUIET_HOURS = 6
ANTECEDENT_DAYS = 7
DEFAULT_ALPHA = 0.7

RAINFALL_CSV_COLUMNS = ("station_id", "timestamp", "rainfall_mm")


class DailyWindowMode(str, Enum):
    """How antecedent daily totals are delimited.

    CALENDAR_DAY sums full 00:00-24:00 days before the day containing the
    anchor hour; ROLLING_24H sums the 24-hour stretches immediately before the
    anchor hour.
    """

    CALENDAR_DAY = "calendar_day"
    ROLLING_24H = "rolling_24h"


@dataclass(frozen=True)
class RainSeries:
    """Gap-free hourly rainfall for one station; index i is start + i hours."""

    station_id: str
    start: datetime
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.station_id:
            raise InputError("station_id must be non-empty")
        if self.start.tzinfo is None or self.start.utcoffset().total_seconds() != 0:
            raise InputError(f"series start must be UTC: {self.start!r}")
        ensure_hour_aligned(self.start, "series start")
        v = np.array(self.values, dtype=np.float64, order="C")  # own copy; frozen below
        if v.ndim != 1 or v.size < 1:
            raise InputError("rainfall values must be a non-empty 1-D sequence")
        if not np.isfinite(v).all():
            raise InputError(f"non-finite rainfall in station {self.station_id}")
        if (v < 0).any():
            raise InputError(f"negative rainfall in station {self.station_id}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def hour_at(self, idx: int) -> datetime:
        return self.start + idx * HOUR

    @property
    def end(self) -> datetime:
        return self.hour_at(len(self) - 1)

    def index_of(self, ts: datetime) -> int:
        """Hour index of ts; InputError if misaligned or outside the record."""
        ensure_hour_aligned(ts, "timestamp")
        idx = round((ts - self.start).total_seconds() / 3600.0)
        if not 0 <= idx < len(self):
            raise InputError(
                f"timestamp {format_ts(ts)} outside series {self.station_id} "
                f"[{format_ts(self.start)} .. {format_ts(self.end)}]"
            )
        return idx

    def slice_hours(self, start_idx: int, end_idx: int) -> "RainSeries":
        """Sub-series covering hours start_idx..end_idx inclusive."""
        if not (0 <= start_idx <= end_idx < len(self)):
            raise InputError(f"slice [{start_idx}, {end_idx}] out of range (len {len(self)})")
        return RainSeries(self.station_id, self.hour_at(start_idx), self.values[start_idx : end_idx + 1])


@dataclass(frozen=True, order=True)
class MainEvent:
    """Inclusive hour-index span of one main rainfall event."""

    start_idx: int
    end_idx: int

    def __post_init__(self) -> None:
        if self.start_idx > self.end_idx or self.start_idx < 0:
            raise InputError(f"invalid event span ({self.start_idx}, {self.end_idx})")

    @property
    def hours(self) -> int:
        return self.end_idx - self.start_idx + 1


@dataclass(frozen=True)
class EarTrace:
    """Per-hour EAR over one event, plus the constant antecedent term."""

    event: MainEvent
    antecedent_mm: float
    ear: np.ndarray
    alpha: float
    daily_mode: DailyWindowMode


def segment_events(
    series: RainSeries,
    rain_threshold: float = RAIN_THRESHOLD_MM,
    quiet_hours: int = QUIET_HOURS,
) -> list[MainEvent]:
    """All maximal main rainfall events of a series, sorted and disjoint.

    Wet hours have rainfall strictly above rain_threshold; a gap of at least
    quiet_hours sub-threshold hours between wet hours splits events.
    """
    if quiet_hours < 1:
        raise InputError("quiet_hours must be >= 1")
    wet = np.flatnonzero(series.values > rain_threshold)
    if wet.size == 0:
        return []
    # dry gap between wet hours e and j is j - e - 1; close when gap >= quiet_hours
    breaks = np.flatnonzero(np.diff(wet) > quiet_hours)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [wet.size - 1]))
    return [MainEvent(int(wet[s]), int(wet[e])) for s, e in zip(starts, ends)]


def _day_start_index(series: RainSeries, anchor_idx: np.ndarray) -> np.ndarray:
    # index of 00:00 of the calendar day containing each anchor hour
    return anchor_idx - (series.start.hour + anchor_idx) % 24


def _range_sums(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # sums over [lo, hi) with hours outside the record counting as 0 mm
    cum = np.concatenate(([0.0], np.cumsum(values)))
    n = values.size
    return cum[np.clip(hi, 0, n)] - cum[np.clip(lo, 0, n)]


def daily_sums_matrix(
    series: RainSeries,
    anchor_idx: np.ndarray,
    days: int = ANTECEDENT_DAYS,
    mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY,
) -> np.ndarray:
    """Daily totals R_1..R_days before each anchor hour; shape (len(anchor_idx), days).

    Column i-1 holds R_i, the total for the i-th day back. Anchors may sit
    anywhere in [0, len(series)]; out-of-record hours contribute 0 mm.
    """
    anchor_idx = np.asarray(anchor_idx, dtype=np.int64)
    if days < 0:
        raise InputError("days must be >= 0")
    if anchor_idx.size and (anchor_idx.min() < 0 or anchor_idx.max() > len(series)):
        raise InputError("anchor index outside [0, len(series)]")
    if days == 0:
        return np.zeros((anchor_idx.size, 0))
    mode = DailyWindowMode(mode)
    if mode is DailyWindowMode.CALENDAR_DAY:
        base = _day_start_index(series, anchor_idx)
    else:
        base = anchor_idx
    out = np.empty((anchor_idx.size, days))
    for i in range(1, days + 1):
        out[:, i - 1] = _range_sums(series.values, base - 24 * i, base - 24 * (i - 1))
    return out


def daily_totals(
    series: RainSeries,
    anchor_idx: int,
    days: int = ANTECEDENT_DAYS,
    mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY,
) -> np.ndarray:
    """R_1..R_days (mm) for a single anchor hour."""
    return daily_sums_matrix(series, np.array([anchor_idx]), days, mode)[0]


def antecedent_index(dailies: Sequence[float], alpha: float = DEFAULT_ALPHA) -> float:
    """Decayed antecedent precipitation: sum over i of alpha**i * R_i."""
    r = np.asarray(dailies, dtype=np.float64)
    if not np.isfinite(r).all() or (r < 0).any():
        raise InputError("daily totals must be finite and non-negative")
    weights = np.power(alpha, np.arange(1, r.size + 1, dtype=np.float64))
    return float(np.dot(weights, r))


def ear_trace(
    series: RainSeries,
    event: MainEvent,
    alpha: float = DEFAULT_ALPHA,
    mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY,
) -> EarTrace:
    """EAR trajectory over one event: running event rain + antecedent index."""
    if event.end_idx >= len(series):
        raise InputError(f"event span ({event.start_idx}, {event.end_idx}) outside series")
    ante = antecedent_index(
        daily_totals(series, event.start_idx, ANTECEDENT_DAYS, mode), alpha
    )
    running = np.cumsum(series.values[event.start_idx : event.end_idx + 1])
    return EarTrace(event, ante, running + ante, alpha, DailyWindowMode(mode))


def ear_series(
    series: RainSeries,
    alpha: float = DEFAULT_ALPHA,
    mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY,
    rain_threshold: float = RAIN_THRESHOLD_MM,
    quiet_hours: int = QUIET_HOURS,
) -> tuple[np.ndarray, list[MainEvent]]:
    """Full-length EAR: event traces in place, 0 outside events."""
    events = segment_events(series, rain_threshold, quiet_hours)
    ear = np.zeros(len(series))
    for ev in events:
        ear[ev.start_idx : ev.end_idx + 1] = ear_trace(series, ev, alpha, mode).ear
    return ear, events


# ---------------------------------------------------------------------------
# CSV interface: header station_id,timestamp,rainfall_mm; ISO-8601 UTC,
# hour-aligned, ascending per station, no duplicates; gaps rejected unless
# impute_missing fills them with 0 mm (logged).
# ---------------------------------------------------------------------------


# Canonical timestamps, YYYY-MM-DDTHH:00:00Z, are converted in bulk: each of
# their characters lies between the two bounds below. Other forms go through
# parse_ts one at a time.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_LOW, _HIGH = (np.array([ord(c) for c in t], dtype=np.int32) for t in ("0000-00-00T00:00:00Z", "9999-99-99T99:00:00Z"))


def _epoch_hours(stamps: list[str]) -> tuple[np.ndarray, int]:
    """Hours since 1970-01-01T00Z of each timestamp as parse_ts reads it, and the
    index of the first one that it rejects or that is not hour-aligned
    (len(stamps) if none); entries from that index on are unset."""
    n = len(stamps)
    chars = np.array(stamps, dtype="U20").view(np.int32).reshape(n, 20)  # cuts longer ones, which len rules out
    canonical = ((chars >= _LOW) & (chars <= _HIGH)).all(1) & (np.fromiter(map(len, stamps), np.intp, n) == 20)
    year, month, day, hour = ((chars[:, a:b] - ord("0")) @ 10 ** np.arange(b - a - 1, -1, -1)
                              for a, b in ((0, 4), (5, 7), (8, 10), (11, 13)))
    months = ((year - 1970) * 12 + month - 1).astype("M8[M]")
    first_day, next_month = (m.astype("M8[D]").astype(np.int64) for m in (months, months + 1))
    canonical &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= next_month - first_day) & (hour <= 23)
    hours = (first_day + day - 1) * 24 + hour
    for i in np.flatnonzero(~canonical):
        try:
            hours[i] = (ensure_hour_aligned(parse_ts(stamps[i])) - _EPOCH) // HOUR
        except InputError:
            return hours, int(i)
    return hours, n


def read_rainfall_csv(path: str | Path, impute_missing: bool = False) -> list[RainSeries]:
    path = Path(path)
    code: dict[str, int] = {}  # station -> number in order of first appearance
    parts = []  # per block: (station numbers, hours, values)
    n = 0
    for columns in read_csv_blocks(path, RAINFALL_CSV_COLUMNS, "rainfall"):
        sids = [s.strip() for s in columns["station_id"]]
        stamps, mm = columns["timestamp"], columns["rainfall_mm"]
        hours, bad_ts = _epoch_hours(stamps)
        values, bad_mm = parse_column(float, mm, np.float64)
        out_of_range = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
        row = min(sids.index("") if "" in sids else len(sids), bad_ts, bad_mm, *out_of_range[:1])
        if row < len(sids):  # the first failing row, with the first of its checks that fails
            where = f"{path}:{n + row + 2}"
            if not sids[row]:
                raise InputError(f"{where}: empty station_id")
            ensure_hour_aligned(parse_ts(stamps[row]), f"{where}: timestamp")
            if row == bad_mm:
                raise InputError(f"{where}: bad rainfall_mm {mm[row]!r}")
            raise InputError(f"{where}: rainfall_mm must be finite and >= 0")
        parts.append((number_keys(code, sids), hours, values))
        n += len(sids)
    if not n:
        raise InputError(f"{path}: no rainfall rows")

    names = sorted(code)
    station, hours, values = (np.concatenate(p) for p in zip(*parts))
    station = np.argsort([code[sid] for sid in names])[station]  # numbered in name order
    order = np.argsort(station, kind="stable")  # file order within a station
    out = []
    for sid, rows in zip(names, np.split(order, np.cumsum(np.bincount(station))[:-1])):
        h = hours[rows]
        step = np.diff(h)
        for j in np.flatnonzero(step != 1):
            ts = format_ts(_EPOCH + int(h[j + 1]) * HOUR)
            if step[j] < 1:
                kind = "duplicate" if step[j] == 0 else "out-of-order"
                raise InputError(f"{path}: {kind} timestamp {ts} for station {sid}")
            if not impute_missing:
                raise InputError(
                    f"{path}: station {sid} missing {step[j] - 1} hour(s) before {ts}; "
                    "re-run with missing-hour imputation to fill with 0 mm"
                )
            log.warning("station %s: imputing %d missing hour(s) before %s as 0 mm", sid, step[j] - 1, ts)
        filled = np.zeros(h[-1] - h[0] + 1)
        filled[h - h[0]] = values[rows]
        out.append(RainSeries(sid, _EPOCH + int(h[0]) * HOUR, filled))
    return out


def write_rainfall_csv(path: str | Path, series: Iterable[RainSeries]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAINFALL_CSV_COLUMNS)
        for s in sorted(series, key=lambda s: s.station_id):
            hours = np.datetime64((s.start - _EPOCH) // HOUR, "h") + np.arange(len(s))
            stamps = np.datetime_as_string(hours, unit="s", timezone="UTC").tolist()
            writer.writerows(zip(repeat(s.station_id), stamps, map(repr, s.values.tolist())))
