"""Window construction, per-hour lead labeling, feature composition, and
leakage-safe splits.

A positive window wraps the main rainfall event tied to one debris flow: about
seven days of antecedent hours, the event itself, and roughly a day of tail. A
negative window is a maximal run of hours outside every positive window that
wraps main events with at least two consecutive wet hours and no debris flow.
Windows from one station never overlap in time.

Every window hour becomes one example, and window_rows alone orders and labels
the rows: windows in order, hours ascending, positive for the debris flow hour
and the lead_time hours before it. Features are, in order: the most recent
hourly values (newest first), daily totals for full days before the hourly
block (both window-local), and optionally the record's EAR at the hour.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._common import (
    InputError, _scalar, csv_row_ref, derived_rng, format_ts, parse_ts, read_csv_rows, read_json, write_csv,
    write_json,
)
from .rainfall import (
    DEFAULT_ALPHA,
    QUIET_HOURS,
    RAIN_THRESHOLD_MM,
    DailyWindowMode,
    RainSeries,
    check_alpha,
    daily_sums_matrix,
    ear_series,
    segment_events,
)

log = logging.getLogger(__name__)

DEFAULT_LEAD_HOURS = 12
DEFAULT_ANTECEDENT_HOURS = 168
DEFAULT_TAIL_HOURS = 24
DEFAULT_TEST_FRACTION = 0.15


class WindowKind(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class WindowConfig:
    antecedent_hours: int = DEFAULT_ANTECEDENT_HOURS
    tail_hours: int = DEFAULT_TAIL_HOURS
    rain_threshold_mm: float = RAIN_THRESHOLD_MM
    quiet_hours: int = QUIET_HOURS
    min_wet_run_hours: int = 2

    def __post_init__(self) -> None:
        if self.antecedent_hours < 0 or self.tail_hours < 0:
            raise InputError("window padding hours must be >= 0")
        if self.min_wet_run_hours < 1:
            raise InputError("min_wet_run_hours must be >= 1")


@dataclass(frozen=True)
class LabelingConfig:
    lead_hours: int = DEFAULT_LEAD_HOURS

    def __post_init__(self) -> None:
        if self.lead_hours < 1:
            raise InputError("lead_hours must be >= 1")


@dataclass(frozen=True)
class FeatureSpec:
    """Feature layout: hourly_hours recent hourly values, daily_days daily sums
    (optionally decayed by alpha**i), and optionally the EAR."""

    hourly_hours: int = 24
    daily_days: int = 0
    daily_weighted: bool = False
    include_ear: bool = False
    daily_mode: DailyWindowMode = DailyWindowMode.CALENDAR_DAY
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not 0 <= self.hourly_hours <= 168:
            raise InputError("hourly_hours must be in 0..168")
        if not 0 <= self.daily_days <= 7:
            raise InputError("daily_days must be in 0..7")
        if self.hourly_hours + self.daily_days + int(self.include_ear) < 1:
            raise InputError("feature spec selects no features")
        check_alpha(self.alpha)
        object.__setattr__(self, "daily_mode", DailyWindowMode(self.daily_mode))

    @property
    def n_features(self) -> int:
        return self.hourly_hours + self.daily_days + int(self.include_ear)

    @property
    def feature_names(self) -> tuple[str, ...]:
        names = [f"hourly_{j}" for j in range(self.hourly_hours)]
        names += [f"daily_{i}" for i in range(1, self.daily_days + 1)]
        if self.include_ear:
            names.append("ear")
        return tuple(names)


@dataclass(frozen=True)
class DatasetWindow:
    """One window, a slice of its station's record (see build_examples for its features)."""

    station_id: str
    series: RainSeries
    kind: WindowKind
    debris_flow_idx: int | None = None

    def __post_init__(self) -> None:
        kind = WindowKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is WindowKind.POSITIVE:
            if self.debris_flow_idx is None or not 0 <= self.debris_flow_idx < len(self.series):
                raise InputError("positive window needs debris_flow_idx inside the window")
        elif self.debris_flow_idx is not None:
            raise InputError("negative window must not carry debris_flow_idx")

    @cached_property  # formatted once: every manifest, example set and score row names it
    def id(self) -> str:
        return f"{self.station_id}/{format_ts(self.series.start)}"

    def __len__(self) -> int:
        return len(self.series)


@dataclass(frozen=True)
class ExampleSet:
    """Per-hour examples in matrix form; rows are grouped by window."""

    X: np.ndarray
    y: np.ndarray
    window_ids: tuple[str, ...]
    hours: np.ndarray
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.y.size)


# ---------------------------------------------------------------------------
# window construction
# ---------------------------------------------------------------------------


def _span_mask(n: int, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which of the hours 0..n-1 lie in some inclusive span [start, end] of them."""
    edges = np.zeros(n + 1, dtype=np.intp)
    np.add.at(edges, starts, 1)
    np.add.at(edges, ends + 1, -1)
    return np.cumsum(edges[:n]) > 0


def _counts(mask: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The set hours of mask in each inclusive span [start, end]."""
    total = np.concatenate([[0], np.cumsum(mask)])
    return total[ends + 1] - total[starts]


def build_windows(
    series: RainSeries,
    debris_events: Sequence[datetime],
    cfg: WindowConfig = WindowConfig(),
) -> list[DatasetWindow]:
    """Positive and negative windows for one station, disjoint and sorted.

    A debris flow's anchor is the last main event starting at or before it. A flow
    outside the record, past its anchor's tail, or whose anchor an earlier flow
    claimed is skipped with a warning. A positive window pads a claimed event, ends
    before the next one and starts after the previous window. Negative windows are
    the maximal runs of hours outside positive windows and in the padded span of a
    candidate (an unclaimed event with a min_wet_run_hours wet run) that hold one.
    """
    events = segment_events(series, cfg.rain_threshold_mm, cfg.quiet_hours)
    starts, ends = np.array([(ev.start_idx, ev.end_idx) for ev in events], dtype=np.intp).reshape(-1, 2).T
    n = len(series)

    def padded(chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.maximum(starts[chosen] - cfg.antecedent_hours, 0), np.minimum(ends[chosen] + cfg.tail_hours, n - 1)

    claimed: dict[int, int] = {}  # event index -> debris flow hour
    for ts in sorted(debris_events):
        try:
            idx = series.index_of(ts)
        except InputError as exc:
            log.warning("skipping debris flow %s: %s", format_ts(ts), exc)
            continue
        # an event before the anchor ends earlier, so its tail reaches idx only if the anchor's does
        anchor = int(np.searchsorted(starts, idx, side="right")) - 1
        if anchor < 0 or idx > ends[anchor] + cfg.tail_hours:
            reason = "no main rainfall event covers it"
        elif anchor in claimed:
            reason = "event already tied to an earlier flow"
        else:
            claimed[anchor] = idx
            continue
        log.warning("skipping debris flow %s at station %s: %s", format_ts(ts), series.station_id, reason)

    pos = np.array(sorted(claimed), dtype=np.intp)
    pos_start, pos_end = padded(pos)
    pos_end[:-1] = np.minimum(pos_end[:-1], starts[pos[1:]] - 1)  # a tail stops before the next claimed event
    pos_start[1:] = np.maximum(pos_start[1:], pos_end[:-1] + 1)
    positive = _span_mask(n, pos_start, pos_end)

    run = cfg.min_wet_run_hours
    run_end = np.convolve(series.values > cfg.rain_threshold_mm, np.ones(run, dtype=np.intp))[:n] == run
    # the hour before an event is dry, so a wet run ending in it lies inside it; a
    # claimed event lies in its positive window, so the positive hours rule it out
    candidate = (_counts(run_end, starts, ends) > 0) & (_counts(positive, starts, ends) == 0)
    kept = _span_mask(n, *padded(candidate)) & ~positive
    edges = np.flatnonzero(np.diff(np.concatenate([[False], kept, [False]])))
    neg_start, neg_end = edges[::2], edges[1::2] - 1
    held = np.searchsorted(starts[candidate], neg_end, side="right") > np.searchsorted(starts[candidate], neg_start)

    spans = [(s, e, WindowKind.POSITIVE, claimed[ei] - s)
             for s, e, ei in zip(pos_start.tolist(), pos_end.tolist(), pos.tolist())]
    spans += [(s, e, WindowKind.NEGATIVE, None) for s, e in zip(neg_start[held].tolist(), neg_end[held].tolist())]
    return [DatasetWindow(series.station_id, series.slice_hours(s, e), kind, flow)
            for s, e, kind, flow in sorted(spans, key=lambda span: span[0])]


def build_corpus_windows(
    series_list: Sequence[RainSeries],
    events_by_station: Mapping[str, Sequence[datetime]],
    cfg: WindowConfig = WindowConfig(),
) -> list[DatasetWindow]:
    """Windows for a whole corpus, sorted by window id."""
    windows: list[DatasetWindow] = []
    for series in series_list:
        windows.extend(build_windows(series, events_by_station.get(series.station_id, ()), cfg))
    windows.sort(key=lambda w: w.id)
    return windows


# ---------------------------------------------------------------------------
# labels and features
# ---------------------------------------------------------------------------


def label_hours(window: DatasetWindow, cfg: LabelingConfig = LabelingConfig()) -> np.ndarray:
    """Per-hour binary labels: the debris flow hour and lead_hours before it."""
    y = np.zeros(len(window), dtype=np.int8)
    if window.kind is WindowKind.POSITIVE:
        d = window.debris_flow_idx
        y[max(0, d - cfg.lead_hours) : d + 1] = 1
    return y


def window_rows(
    windows: Sequence[DatasetWindow], labeling: LabelingConfig = LabelingConfig()
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """(window_ids, hours, labels) of the example rows: every hour of each window,
    windows in the given order and hours ascending."""
    if not windows:
        raise InputError("no windows to take example rows from")
    window_ids = tuple(wid for w in windows for wid in (w.id,) * len(w))
    hours = np.concatenate([np.arange(len(w)) for w in windows])
    return window_ids, hours, np.concatenate([label_hours(w, labeling) for w in windows])


def _fill_features(out: np.ndarray, window: DatasetWindow, spec: FeatureSpec) -> None:
    """The feature rows of one window's hours, written into the zeroed rows out."""
    v = window.series.values
    n = len(window)
    h = spec.hourly_hours
    if h:
        # window n-1-t of the reversed values, zero-padded past the window start,
        # is v[t], v[t-1], ...: one copy fills the block
        padded = np.concatenate([v[::-1], np.zeros(h - 1)])
        out[:, :h] = sliding_window_view(padded, h)[::-1]
    if spec.daily_days:
        anchors = np.arange(n) - spec.hourly_hours + 1
        daily = daily_sums_matrix(
            window.series, np.clip(anchors, 0, n), spec.daily_days, spec.daily_mode
        )
        # a clipped anchor means the whole daily lookback is before the window
        daily[anchors < 0] = 0.0
        if spec.daily_weighted:
            daily = daily * np.power(spec.alpha, np.arange(1, spec.daily_days + 1))
        out[:, spec.hourly_hours : spec.hourly_hours + spec.daily_days] = daily
    if spec.include_ear:
        out[:, -1] = ear_series(window.series, spec.alpha, spec.daily_mode)[0]


def build_examples(
    windows: Sequence[DatasetWindow],
    spec: FeatureSpec,
    labeling: LabelingConfig = LabelingConfig(),
) -> ExampleSet:
    """One labeled example per window hour, in the row order of window_rows.

    Hourly features are the spec.hourly_hours most recent values, newest first,
    zero-padded before the window start. Daily sums cover full days strictly
    before the hourly block. The EAR feature is the record's (0 outside events).
    """
    window_ids, hours, y = window_rows(windows, labeling)
    X = np.zeros((y.size, spec.n_features))
    for w, rows in zip(windows, np.split(X, np.cumsum([len(w) for w in windows])[:-1])):
        _fill_features(rows, w, spec)
    return ExampleSet(X=X, y=y, window_ids=window_ids, hours=hours, feature_names=spec.feature_names)


def example_rows(
    windows: Sequence[DatasetWindow], spec: FeatureSpec, labeling: LabelingConfig, rows: np.ndarray
) -> np.ndarray:
    """The feature rows at sorted positions `rows` of the example matrix of windows,
    building only the windows that hold one of them: a row's features come from its
    own window alone."""
    lengths = np.array([len(w) for w in windows])
    starts = np.cumsum(lengths) - lengths
    held = np.searchsorted(starts, rows, side="right") - 1
    used, slot = np.unique(held, return_inverse=True)
    used_starts = np.cumsum(lengths[used]) - lengths[used]
    examples = build_examples([windows[i] for i in used], spec, labeling)
    return examples.X[used_starts[slot] + rows - starts[held]]


# ---------------------------------------------------------------------------
# splits: always at whole-window granularity, keyed on window ids
# ---------------------------------------------------------------------------


def _ids_by_kind(windows: Sequence[DatasetWindow]) -> dict[WindowKind, list[str]]:
    ids = [w.id for w in windows]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate window ids")
    out: dict[WindowKind, list[str]] = {k: [] for k in (WindowKind.POSITIVE, WindowKind.NEGATIVE)}
    for w in windows:
        out[w.kind].append(w.id)
    for k in out:
        out[k].sort()
    return out


def split_windows(
    windows: Sequence[DatasetWindow],
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 0,
) -> tuple[list[DatasetWindow], list[DatasetWindow]]:
    """Stratified train/test split of whole windows; deterministic given seed.

    Membership depends only on window ids, never on input order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InputError("test_fraction must be in (0, 1)")
    if len(windows) < 2:
        raise InputError("need at least 2 windows to split")
    rng = derived_rng(seed, 1)
    test_ids: set[str] = set()
    for kind, ids in _ids_by_kind(windows).items():
        n_test = int(round(len(ids) * test_fraction))
        perm = rng.permutation(len(ids))
        test_ids.update(ids[i] for i in perm[:n_test])
    ordered = sorted(windows, key=lambda w: w.id)
    train = [w for w in ordered if w.id not in test_ids]
    test = [w for w in ordered if w.id in test_ids]
    return train, test


def kfold_windows(
    windows: Sequence[DatasetWindow], k: int = 10, seed: int = 0
) -> list[list[DatasetWindow]]:
    """k disjoint stratified folds of whole windows; sizes differ by at most 1."""
    if k < 2:
        raise InputError("k must be >= 2")
    if k > len(windows):
        raise InputError(f"k={k} exceeds window count {len(windows)}")
    rng = derived_rng(seed, 2)
    by_id = {w.id: w for w in windows}
    fold_ids: list[list[str]] = [[] for _ in range(k)]
    cursor = 0
    for kind, ids in _ids_by_kind(windows).items():
        perm = rng.permutation(len(ids))
        for i in perm:
            fold_ids[cursor % k].append(ids[i])
            cursor += 1
    return [[by_id[i] for i in sorted(ids)] for ids in fold_ids]


# ---------------------------------------------------------------------------
# file interfaces
# ---------------------------------------------------------------------------

EVENTS_CSV_COLUMNS = ("station_id", "timestamp")


def read_events_csv(path: str | Path) -> dict[str, list[datetime]]:
    path = Path(path)
    out: dict[str, list[datetime]] = {}
    for i, row in read_csv_rows(path, EVENTS_CSV_COLUMNS, "events"):
        sid = row["station_id"].strip()
        if not sid:
            raise InputError(f"{csv_row_ref(path, i)}: empty station_id")
        try:
            out.setdefault(sid, []).append(parse_ts(row["timestamp"]))
        except InputError as exc:
            raise InputError(f"{csv_row_ref(path, i)}: {exc}") from None
    for sid in out:
        out[sid].sort()
    return out


def write_events_csv(path: str | Path, events: Mapping[str, Sequence[datetime]]) -> None:
    stations = sorted(events)
    sids = [sid for sid in stations for _ in events[sid]]
    write_csv(path, EVENTS_CSV_COLUMNS, (sids, [format_ts(ts) for sid in stations for ts in sorted(events[sid])]))


MANIFEST_FORMAT = "debris-ews-windows"


def write_manifest(
    path: str | Path,
    windows: Sequence[DatasetWindow],
    split: Mapping[str, str] | None = None,
    meta: Mapping[str, object] | None = None,
) -> None:
    doc = {
        "format": MANIFEST_FORMAT,
        "version": 1,
        "meta": dict(meta or {}),
        "windows": [
            {
                "id": w.id,
                "station_id": w.station_id,
                "kind": w.kind.value,
                "start": format_ts(w.series.start),
                "end": format_ts(w.series.end),
                "hours": len(w),
                "debris_flow_idx": w.debris_flow_idx,
                "split": (split or {}).get(w.id),
            }
            for w in sorted(windows, key=lambda w: w.id)
        ],
    }
    write_json(path, doc)


def _manifest_window(entry: object, series_by_station: Mapping[str, RainSeries]) -> tuple[DatasetWindow, str | None]:
    """The window of one manifest entry, resliced from its station's series, and its split."""
    if not isinstance(entry, dict):
        raise InputError(f"expected a JSON object, got {entry!r}")
    sid = _scalar(entry, "station_id", str)
    if (series := series_by_station.get(sid)) is None:
        raise InputError(f"unknown station {sid}")
    a, b = (series.index_of(parse_ts(_scalar(entry, name, str, "a timestamp string"))) for name in ("start", "end"))
    kind = _scalar(entry, "kind", WindowKind)
    flow = _scalar(entry, "debris_flow_idx", int | None)
    split = _scalar(entry, "split", str | None, "'train', 'test' or null", lambda v: v in ("train", "test", None))
    window = DatasetWindow(sid, series.slice_hours(a, b), kind, flow)
    for name, value in (("id", window.id), ("hours", len(window))):
        if _scalar(entry, name, type(value)) != value:
            raise InputError(f"field {name!r}: {entry[name]!r}, but station_id, start and end give {value!r}")
    return window, split


def read_manifest(
    path: str | Path, series_by_station: Mapping[str, RainSeries]
) -> tuple[list[DatasetWindow], dict[str, str]]:
    """Windows resliced from full station series, plus the stored split map. An entry
    that is malformed, or whose window another entry already lists, is an InputError
    naming the manifest and the entry."""
    path = Path(path)
    doc = read_json(path, "window manifest")
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != MANIFEST_FORMAT:
        raise InputError(f"{path}: not a window manifest (format={fmt!r})")
    entries = doc.get("windows")
    if not (isinstance(entries, list) and entries):
        raise InputError(f"{path}: field 'windows': expected a non-empty list of windows")
    windows: dict[str, DatasetWindow] = {}
    split: dict[str, str] = {}
    for i, entry in enumerate(entries):
        try:
            w, label = _manifest_window(entry, series_by_station)
        except KeyError as exc:
            raise InputError(f"{path}: window {i}: missing field {exc}") from None
        except InputError as exc:
            raise InputError(f"{path}: window {i}: {exc}") from None
        wid = w.id
        if wid in windows:
            raise InputError(f"{path}: window {i}: window {wid} is listed twice")
        windows[wid] = w
        if label is not None:
            split[wid] = label
    return [windows[wid] for wid in sorted(windows)], split


def write_feature_csv(path: str | Path, examples: ExampleSet) -> None:
    """Feature matrix export: window_id,hour,label,f0..f{n-1}."""
    header = ["window_id", "hour", "label"] + [f"f{j}" for j in range(examples.X.shape[1])]
    hours, labels = (np.asarray(a).astype(np.int64) for a in (examples.hours, examples.y))
    write_csv(path, header, [examples.window_ids, hours, labels, *np.asarray(examples.X, dtype=np.float64).T])
