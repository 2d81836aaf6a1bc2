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

import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from ._common import (
    HOUR, CodedColumn, CsvColumn, InputError, cells, csv_row_ref, ensure_hour_aligned, format_ts, number_keys,
    parse_column, parse_ts, read_csv_blocks, write_csv,
)

log = logging.getLogger(__name__)

RAIN_THRESHOLD_MM = 4.0
QUIET_HOURS = 6
ANTECEDENT_DAYS = 7
DEFAULT_ALPHA = 0.7

RAINFALL_CSV_COLUMNS = ("station_id", "timestamp", "rainfall_mm")
EAR_CSV_COLUMNS = ("station_id", "timestamp", "rainfall_mm", "event_id", "ear_mm", "antecedent_mm")


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
        """Sub-series covering hours start_idx..end_idx inclusive. Its values are a
        read-only view of this series', which were checked when it was made, so
        the slice is neither copied nor checked again."""
        if not (0 <= start_idx <= end_idx < len(self)):
            raise InputError(f"slice [{start_idx}, {end_idx}] out of range (len {len(self)})")
        part = object.__new__(RainSeries)
        part.__dict__.update(station_id=self.station_id, start=self.hour_at(start_idx),
                             values=self.values[start_idx : end_idx + 1])
        return part


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
    if DailyWindowMode(mode) is DailyWindowMode.CALENDAR_DAY:
        anchor_idx = anchor_idx - (series.start.hour + anchor_idx) % 24  # 00:00 of the anchor's day
    # day i back is [edge i, edge i-1): differences of one prefix sum, clipped to the record
    cum = np.concatenate(([0.0], np.cumsum(series.values)))
    edges = cum[np.clip(anchor_idx[:, None] - 24 * np.arange(days + 1), 0, len(series))]
    return edges[:, :-1] - edges[:, 1:]


def check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must be in [0, 1], got {alpha!r}")


def _antecedents(series: RainSeries, starts, alpha: float, mode: DailyWindowMode) -> np.ndarray:
    """Antecedent index, sum over i of alpha**i * R_i, before each event start."""
    check_alpha(alpha)
    weights = np.power(alpha, np.arange(1, ANTECEDENT_DAYS + 1, dtype=np.float64))
    return np.vecdot(daily_sums_matrix(series, starts, ANTECEDENT_DAYS, mode), weights)


def _ear_pass(
    series: RainSeries, alpha: float, mode: DailyWindowMode
) -> tuple[np.ndarray, list[MainEvent], np.ndarray]:
    """Full-length EAR, the events (segmented at the default wet threshold and quiet
    hours), and the antecedent index of each event."""
    events = segment_events(series)
    antes = _antecedents(series, [ev.start_idx for ev in events], alpha, mode)
    ear = np.zeros(len(series))
    for ev, ante in zip(events, antes):
        ear[ev.start_idx : ev.end_idx + 1] = np.cumsum(series.values[ev.start_idx : ev.end_idx + 1]) + ante
    return ear, events, antes


def ear_series(
    series: RainSeries, alpha: float = DEFAULT_ALPHA, mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY
) -> tuple[np.ndarray, list[MainEvent]]:
    """Full-length EAR: event traces in place, 0 outside events."""
    return _ear_pass(series, alpha, mode)[:2]


# ---------------------------------------------------------------------------
# CSV interface: header station_id,timestamp,rainfall_mm; ISO-8601 UTC,
# hour-aligned, ascending per station, no duplicates; gaps rejected unless
# impute_missing fills them with 0 mm (logged).
# ---------------------------------------------------------------------------


# Canonical timestamps, YYYY-MM-DDTHH:00:00Z, are converted in bulk from their
# 20 bytes: less _LOW, each is at most _SPAN (the bytes below _LOW wrap round).
# Other forms go through parse_ts one at a time.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_LOW, _HIGH = (np.frombuffer(t.encode(), np.uint8) for t in ("0000-00-00T00:00:00Z", "9999-99-99T99:00:00Z"))
_SPAN = _HIGH - _LOW


def _number(digits: np.ndarray) -> np.ndarray:
    """The decimal number of each row of digits, most significant first."""
    out = np.zeros(len(digits), np.int64)
    for column in digits.T:
        out *= 10
        out += column
    return out


def _epoch_hours(stamps: CsvColumn) -> tuple[np.ndarray, int]:
    """Hours since 1970-01-01T00Z of each timestamp as parse_ts reads it, and the
    index of the first one that it rejects or that is not hour-aligned
    (len(stamps) if none); entries from that index on are unset."""
    digits = stamps.windows(20) - _LOW
    canonical = stamps.end - stamps.start == 20
    canonical[np.flatnonzero(digits > _SPAN) // 20] = False
    year, month, day, hour = (_number(digits[:, a:b]) for a, b in ((0, 4), (5, 7), (8, 10), (11, 13)))
    canonical &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour <= 23)
    month_index = year * 12 + month - 1  # since January of year 0
    known = month_index[canonical]
    lo, hi = (int(known.min()), int(known.max())) if known.size else (0, 0)
    first_days = (np.arange(lo, hi + 2) - 1970 * 12).astype("M8[M]").astype("M8[D]").astype(np.int64)
    month_index = np.clip(month_index - lo, 0, hi - lo)
    first_day = first_days[month_index]
    canonical &= day <= first_days[month_index + 1] - first_day
    hours = (first_day + day - 1) * 24 + hour
    for i in np.flatnonzero(~canonical):
        try:
            hours[i] = (ensure_hour_aligned(parse_ts(stamps[i])) - _EPOCH) // HOUR
        except InputError:
            return hours, int(i)
    return hours, len(stamps)


def read_rainfall_csv(path: str | Path, impute_missing: bool = False) -> list[RainSeries]:
    path = Path(path)
    code: dict[str, int] = {}  # station -> number in order of first appearance
    parts = []  # per block: (station numbers, hours, values)
    n = 0
    for columns in read_csv_blocks(path, RAINFALL_CSV_COLUMNS, "rainfall"):
        sids = columns["station_id"].distinct()
        sids = sids._replace(text=[s.strip() for s in sids.text])
        stamps, mm = columns["timestamp"], columns["rainfall_mm"]
        hours, bad_ts = _epoch_hours(stamps)
        values, bad_mm = parse_column(float, mm, np.float64)
        out_of_range = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
        row = min(sids.first_of(not s for s in sids.text), bad_ts, bad_mm, *out_of_range[:1])
        if row < len(stamps):  # the first failing row, with the first of its checks that fails
            where = csv_row_ref(path, n + row + 1)
            if not sids.text[sids.index[row]]:
                raise InputError(f"{where}: empty station_id")
            try:
                ts = parse_ts(stamps[row])
            except InputError as exc:
                raise InputError(f"{where}: {exc}") from None
            ensure_hour_aligned(ts, f"{where}: timestamp")
            if row == bad_mm:
                raise InputError(f"{where}: bad rainfall_mm {mm[row]!r}")
            raise InputError(f"{where}: rainfall_mm must be finite and >= 0")
        parts.append((number_keys(code, sids), hours, values))
        n += len(stamps)
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


def _station_columns(series: list[RainSeries]) -> tuple[CodedColumn, CodedColumn, np.ndarray]:
    """The station id, the YYYY-MM-DDTHH:00:00Z stamp and the rainfall of every hour
    of the series in turn. Ids and stamps are coded columns: each distinct hour is
    formatted once, for every station, and a row holds only two small codes."""
    starts = [(s.start - _EPOCH) // HOUR for s in series]
    lengths = [len(s) for s in series]
    runs: list[list[int]] = []  # the stations' runs of hours, overlapping ones merged, ascending
    for a, b in sorted((a, a + n) for a, n in zip(starts, lengths)):
        if runs and a <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], b)
        else:
            runs.append([a, b])
    hours = np.concatenate([np.zeros(0, np.int64), *(np.arange(a, b) for a, b in runs)])
    stamps = np.datetime_as_string(hours.astype("datetime64[h]"), unit="s", timezone="UTC")
    # a station's hours are consecutive, and so are their stamps' codes
    code = np.min_scalar_type(hours.size)
    at = np.searchsorted(hours, starts).tolist()
    stamp_codes = [np.zeros(0, code), *(np.arange(a, a + n, dtype=code) for a, n in zip(at, lengths))]
    id_codes = np.repeat(np.arange(len(series), dtype=np.min_scalar_type(len(series))), lengths)
    return (CodedColumn([s.station_id for s in series], id_codes), CodedColumn(stamps, np.concatenate(stamp_codes)),
            np.concatenate([np.zeros(0), *(s.values for s in series)]))


def write_rainfall_csv(path: str | Path, series: Iterable[RainSeries]) -> None:
    write_csv(path, RAINFALL_CSV_COLUMNS, _station_columns(sorted(series, key=lambda s: s.station_id)))


def write_ear_csv(
    path: str | Path,
    series: Iterable[RainSeries],
    alpha: float = DEFAULT_ALPHA,
    mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY,
) -> None:
    """Per-hour EAR of each station. Hours inside an event carry its index among the
    station's events and its antecedent index; other hours leave both blank. Both are
    coded columns, so a row holds two small codes, not two fields."""
    check_alpha(alpha)  # before the file is opened
    series = sorted(series, key=lambda s: s.station_id)
    offsets = np.cumsum([0, *map(len, series)]).tolist()
    ear = np.empty(offsets[-1])
    station_events, ante_texts = [], [""]  # the stations' antecedents in turn, after the blank
    for s, a in zip(series, offsets):
        ear[a : a + len(s)], events, ante = _ear_pass(s, alpha, mode)
        station_events.append(events)
        ante_texts += cells(ante)
    # code 0 is the blank; an event's hours hold 1 + its index in the station, and
    # 1 + its index among all stations' events
    event_code = np.zeros(ear.size, np.min_scalar_type(len(ante_texts)))
    ante_code = np.zeros_like(event_code)
    k = 0
    for a, events in zip(offsets, station_events):
        for i, ev in enumerate(events, start=1):
            k += 1
            event_code[a + ev.start_idx : a + ev.end_idx + 1] = i
            ante_code[a + ev.start_idx : a + ev.end_idx + 1] = k
    most = max(map(len, station_events), default=0)
    columns = (*_station_columns(series), CodedColumn(["", *map(str, range(most))], event_code), ear,
               CodedColumn(ante_texts, ante_code))
    write_csv(path, EAR_CSV_COLUMNS, columns)
