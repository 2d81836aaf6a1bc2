"""Window construction, per-hour lead labeling, feature composition, and
leakage-safe splits.

A positive window wraps the main rainfall event tied to one debris flow: about
seven days of antecedent hours, the event itself, and roughly a day of tail. A
negative window wraps main events with at least two consecutive wet hours and
no debris flow. Windows from one station never overlap in time; negative
windows whose spans collide are merged into one.

Every window hour becomes one example. The label is positive for the debris
flow hour and the lead_time hours before it. Features are, in order: the most
recent hourly values (newest first), daily totals for full days before the
hourly block, and optionally the EAR at the prediction hour.
"""
from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ._common import InputError, derived_rng, format_ts, parse_ts
from .rainfall import (
    DEFAULT_ALPHA,
    QUIET_HOURS,
    RAIN_THRESHOLD_MM,
    DailyWindowMode,
    RainSeries,
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
    """One self-contained window slice; features are computed within it."""

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

    @property
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
    station_ids: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.y.size)

    @staticmethod
    def concat(parts: Sequence["ExampleSet"]) -> "ExampleSet":
        if not parts:
            raise InputError("cannot concatenate zero example sets")
        names = parts[0].feature_names
        if any(p.feature_names != names for p in parts):
            raise InputError("example sets have mismatched feature layouts")
        return ExampleSet(
            X=np.vstack([p.X for p in parts]),
            y=np.concatenate([p.y for p in parts]),
            window_ids=tuple(w for p in parts for w in p.window_ids),
            hours=np.concatenate([p.hours for p in parts]),
            station_ids=tuple(s for p in parts for s in p.station_ids),
            feature_names=names,
        )


# ---------------------------------------------------------------------------
# window construction
# ---------------------------------------------------------------------------


def _has_wet_run(values: np.ndarray, start: int, end: int, threshold: float, run: int) -> bool:
    wet = values[start : end + 1] > threshold
    if run <= 1:
        return bool(wet.any())
    streak = 0
    for w in wet:
        streak = streak + 1 if w else 0
        if streak >= run:
            return True
    return False


def _subtract_spans(span: tuple[int, int], holes: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    pieces = [span]
    for h0, h1 in holes:
        nxt = []
        for s0, s1 in pieces:
            if h1 < s0 or h0 > s1:
                nxt.append((s0, s1))
                continue
            if s0 < h0:
                nxt.append((s0, h0 - 1))
            if h1 < s1:
                nxt.append((h1 + 1, s1))
        pieces = nxt
    return pieces


def build_windows(
    series: RainSeries,
    debris_events: Sequence[datetime],
    cfg: WindowConfig = WindowConfig(),
) -> list[DatasetWindow]:
    """Positive and negative windows for one station, disjoint and sorted.

    Debris flows that fall outside the record, outside every main event's span
    (event through tail), or inside a window already claimed by an earlier flow
    are skipped with a warning.
    """
    events = segment_events(series, cfg.rain_threshold_mm, cfg.quiet_hours)
    n = len(series)

    claimed: dict[int, int] = {}  # event index -> debris flow hour
    for ts in sorted(debris_events):
        try:
            idx = series.index_of(ts)
        except InputError as exc:
            log.warning("skipping debris flow %s: %s", format_ts(ts), exc)
            continue
        anchor = None
        for ei, ev in enumerate(events):
            if ev.start_idx <= idx <= ev.end_idx + cfg.tail_hours:
                anchor = ei
        if anchor is None:
            log.warning(
                "skipping debris flow %s at station %s: no main rainfall event covers it",
                format_ts(ts), series.station_id,
            )
            continue
        if anchor in claimed:
            log.warning(
                "skipping debris flow %s at station %s: event already tied to an earlier flow",
                format_ts(ts), series.station_id,
            )
            continue
        claimed[anchor] = idx

    # positive spans, one per claimed event; overlaps resolved by shrinking the
    # earlier tail to stop before the later event begins
    pos: list[list[int]] = []
    for ei in sorted(claimed):
        ev = events[ei]
        pos.append([max(0, ev.start_idx - cfg.antecedent_hours), min(n - 1, ev.end_idx + cfg.tail_hours), ei])
    for prev, cur in zip(pos, pos[1:]):
        cur_ev = events[cur[2]]
        if prev[1] >= cur_ev.start_idx:
            prev[1] = cur_ev.start_idx - 1
        cur[0] = max(cur[0], prev[1] + 1)
    pos_spans = [(s, e) for s, e, _ in pos]

    windows: list[DatasetWindow] = []
    for s, e, ei in pos:
        flow = claimed[ei]
        windows.append(
            DatasetWindow(series.station_id, series.slice_hours(s, e), WindowKind.POSITIVE, flow - s)
        )

    # negative candidates: unclaimed qualifying events clear of positive spans
    neg_events = [
        ev
        for ei, ev in enumerate(events)
        if ei not in claimed
        and _has_wet_run(series.values, ev.start_idx, ev.end_idx, cfg.rain_threshold_mm, cfg.min_wet_run_hours)
        and not any(ev.start_idx <= pe and ev.end_idx >= ps for ps, pe in pos_spans)
    ]
    merged: list[list[int]] = []
    for ev in neg_events:
        s = max(0, ev.start_idx - cfg.antecedent_hours)
        e = min(n - 1, ev.end_idx + cfg.tail_hours)
        if merged and s <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    for s, e in merged:
        for ps, pe in _subtract_spans((s, e), pos_spans):
            if any(ps <= ev.start_idx and ev.end_idx <= pe for ev in neg_events):
                windows.append(
                    DatasetWindow(series.station_id, series.slice_hours(ps, pe), WindowKind.NEGATIVE)
                )

    windows.sort(key=lambda w: w.series.start)
    for a, b in zip(windows, windows[1:]):
        if a.series.end >= b.series.start:  # pragma: no cover - construction guarantees this
            raise AssertionError(f"overlapping windows {a.id} and {b.id}")
    return windows


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


def compose_features(
    window: DatasetWindow,
    spec: FeatureSpec,
    labeling: LabelingConfig = LabelingConfig(),
    ear_provider: Callable[[RainSeries], np.ndarray] | None = None,
) -> ExampleSet:
    """One labeled example per window hour.

    Hourly features are the spec.hourly_hours most recent values, newest first,
    zero-padded before the window start. Daily sums cover full days strictly
    before the hourly block. The EAR feature is 0 outside main events.
    """
    v = window.series.values
    n = len(window)
    blocks: list[np.ndarray] = []
    if spec.hourly_hours:
        hourly = np.zeros((n, spec.hourly_hours))
        for j in range(min(spec.hourly_hours, n)):
            hourly[j:, j] = v[: n - j]
        blocks.append(hourly)
    if spec.daily_days:
        anchors = np.arange(n) - spec.hourly_hours + 1
        daily = daily_sums_matrix(
            window.series, np.clip(anchors, 0, n), spec.daily_days, spec.daily_mode
        )
        # a clipped anchor means the whole daily lookback is before the window
        daily[anchors < 0] = 0.0
        if spec.daily_weighted:
            daily = daily * np.power(spec.alpha, np.arange(1, spec.daily_days + 1))
        blocks.append(daily)
    if spec.include_ear:
        if ear_provider is None:
            ear = ear_series(window.series, spec.alpha, spec.daily_mode)[0]
        else:
            ear = np.asarray(ear_provider(window.series), dtype=np.float64)
            if ear.shape != (n,):
                raise InputError("ear_provider returned a wrong-length trace")
        blocks.append(ear.reshape(-1, 1))
    X = np.hstack(blocks)
    return ExampleSet(
        X=X,
        y=label_hours(window, labeling),
        window_ids=(window.id,) * n,
        hours=np.arange(n),
        station_ids=(window.station_id,) * n,
        feature_names=spec.feature_names,
    )


def build_examples(
    windows: Sequence[DatasetWindow],
    spec: FeatureSpec,
    labeling: LabelingConfig = LabelingConfig(),
    ear_provider: Callable[[RainSeries], np.ndarray] | None = None,
) -> ExampleSet:
    if not windows:
        raise InputError("no windows to featurize")
    return ExampleSet.concat([compose_features(w, spec, labeling, ear_provider) for w in windows])


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
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in EVENTS_CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise InputError(f"{path}: missing events CSV columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            sid = (row["station_id"] or "").strip()
            if not sid:
                raise InputError(f"{path}:{lineno}: empty station_id")
            out.setdefault(sid, []).append(parse_ts(row["timestamp"]))
    for sid in out:
        out[sid].sort()
    return out


def write_events_csv(path: str | Path, events: Mapping[str, Sequence[datetime]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENTS_CSV_COLUMNS)
        for sid in sorted(events):
            for ts in sorted(events[sid]):
                writer.writerow((sid, format_ts(ts)))


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_manifest(
    path: str | Path, series_by_station: Mapping[str, RainSeries]
) -> tuple[list[DatasetWindow], dict[str, str]]:
    """Windows resliced from full station series, plus the stored split map."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read window manifest {path}: {exc}") from None
    if doc.get("format") != MANIFEST_FORMAT:
        raise InputError(f"{path}: not a window manifest (format={doc.get('format')!r})")
    windows: list[DatasetWindow] = []
    split: dict[str, str] = {}
    for entry in doc["windows"]:
        sid = entry["station_id"]
        if sid not in series_by_station:
            raise InputError(f"{path}: manifest references unknown station {sid}")
        series = series_by_station[sid]
        a = series.index_of(parse_ts(entry["start"]))
        b = series.index_of(parse_ts(entry["end"]))
        w = DatasetWindow(sid, series.slice_hours(a, b), WindowKind(entry["kind"]), entry["debris_flow_idx"])
        windows.append(w)
        if entry.get("split"):
            split[w.id] = entry["split"]
    windows.sort(key=lambda w: w.id)
    return windows, split


def write_feature_csv(path: str | Path, examples: ExampleSet) -> None:
    """Feature matrix export: window_id,hour,label,f0..f{n-1}."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n_feat = examples.X.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_id", "hour", "label"] + [f"f{j}" for j in range(n_feat)])
        for i in range(len(examples)):
            writer.writerow(
                [examples.window_ids[i], int(examples.hours[i]), int(examples.y[i])]
                + [repr(float(x)) for x in examples.X[i]]
            )
