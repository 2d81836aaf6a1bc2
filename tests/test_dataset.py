from datetime import timedelta

import numpy as np
import pytest

from debris_ews import (
    DatasetWindow,
    FeatureSpec,
    InputError,
    LabelingConfig,
    WindowConfig,
    WindowKind,
    build_examples,
    build_windows,
    kfold_windows,
    label_hours,
    split_windows,
    window_rows,
)
from debris_ews.dataset import (
    example_rows,
    read_events_csv,
    read_manifest,
    write_events_csv,
    write_feature_csv,
    write_manifest,
)
from debris_ews.rainfall import daily_sums_matrix, ear_series, segment_events

from conftest import T0, random_rain, series
from oracles import interval_windows


def _storm(n_before, wet_hours, n_after, mm=10.0, base=None):
    values = np.zeros(n_before + wet_hours + n_after) if base is None else base.copy()
    values[n_before : n_before + wet_hours] = mm
    return values


# --- window construction ------------------------------------------------------


def test_single_flow_single_event():
    values = _storm(200, 10, 48)
    s = series(values)
    flows = [s.hour_at(205)]
    windows = build_windows(s, flows)
    assert len(windows) == 1
    w = windows[0]
    assert w.kind is WindowKind.POSITIVE
    assert w.series.start == s.hour_at(200 - 168)
    assert w.series.end == s.hour_at(209 + 24)
    assert w.debris_flow_idx == 205 - (200 - 168)


def test_no_rain_no_windows():
    s = series(np.zeros(500))
    assert build_windows(s, []) == []


def test_flow_without_event_skipped(caplog):
    s = series(np.zeros(500))
    windows = build_windows(s, [s.hour_at(100)])
    assert windows == []


def test_flow_outside_series_skipped():
    values = _storm(200, 10, 48)
    s = series(values)
    windows = build_windows(s, [T0.replace(year=2030)])
    # the flow is dropped; the storm itself still qualifies as a negative
    assert [w.kind for w in windows] == [WindowKind.NEGATIVE]


def test_flow_in_event_tail_is_positive():
    values = _storm(200, 10, 60)
    s = series(values)
    # flow 20 h after the event's last wet hour: still inside the 24 h tail
    windows = build_windows(s, [s.hour_at(209 + 20)])
    assert len(windows) == 1 and windows[0].kind is WindowKind.POSITIVE


def test_second_flow_same_event_skipped():
    values = _storm(200, 10, 48)
    s = series(values)
    windows = build_windows(s, [s.hour_at(205), s.hour_at(207)])
    assert len(windows) == 1
    assert windows[0].debris_flow_idx == 205 - 32


def test_negative_needs_two_consecutive_wet_hours():
    # isolated single wet hour does not qualify as a negative window
    values = np.zeros(400)
    values[200] = 9.0
    assert build_windows(series(values), []) == []
    values[201] = 9.0
    windows = build_windows(series(values), [])
    assert len(windows) == 1 and windows[0].kind is WindowKind.NEGATIVE


def test_adjacent_negative_events_share_one_window():
    # two qualifying bursts separated by 10 dry hours: two main events, one window
    values = np.zeros(600)
    values[200:204] = 8.0
    values[214:218] = 8.0
    windows = build_windows(series(values), [])
    assert len(windows) == 1
    w = windows[0]
    assert w.series.start == series(values).hour_at(200 - 168)
    assert w.series.end == series(values).hour_at(217 + 24)


def test_negative_overlapping_positive_is_absorbed_or_dropped():
    # a qualifying event inside the positive antecedent must not spawn a negative
    values = np.zeros(800)
    values[300:304] = 8.0  # would-be negative
    values[400:410] = 10.0  # the positive event
    s = series(values)
    windows = build_windows(s, [s.hour_at(405)])
    kinds = [w.kind for w in windows]
    assert kinds.count(WindowKind.POSITIVE) == 1
    for w in windows:
        for v in windows:
            if w is not v:
                assert w.series.end < v.series.start or v.series.end < w.series.start


def test_windows_disjoint_on_random_corpus():
    rng = np.random.default_rng(5)
    for trial in range(20):
        s = series(random_rain(rng, 3000, wet_prob=0.25))
        events = [s.hour_at(int(i)) for i in rng.integers(0, 3000, size=4)]
        windows = build_windows(s, events)
        for a, b in zip(windows, windows[1:]):
            assert a.series.end < b.series.start
        for w in windows:
            if w.kind is WindowKind.POSITIVE:
                assert 0 <= w.debris_flow_idx < len(w)


def _random_case(rng):
    """A short random record, debris flows inside, before, after and twice in it,
    and a window config with padding down to zero and wet runs of 1 to 3 hours."""
    n = int(rng.choice([1, 2, 7, 40, 300]))
    values = np.where(rng.random(n) < rng.uniform(0.0, 0.6), rng.gamma(1.5, 3.0, size=n), 0.0)
    flows = [T0 + timedelta(hours=int(h)) for h in rng.integers(-3, n + 3, size=rng.integers(0, 6))]
    flows += flows[: rng.integers(0, 2)]
    cfg = WindowConfig(int(rng.integers(0, 30)), int(rng.integers(0, 12)), float(rng.choice([0.0, 1.0])),
                       int(rng.integers(1, 6)), int(rng.integers(1, 4)))
    return series(values), flows, cfg


def test_windows_match_the_interval_oracle_and_hold_their_events(caplog):
    rng = np.random.default_rng(23)
    skipped = 0
    for _ in range(400):
        s, flows, cfg = _random_case(rng)
        caplog.clear()
        windows = build_windows(s, flows, cfg)
        warnings = [r.getMessage() for r in caplog.records]
        caplog.clear()
        expected = interval_windows(s, flows, cfg)
        assert warnings == [r.getMessage() for r in caplog.records]
        skipped += len(warnings)
        assert [(w.id, w.kind, w.debris_flow_idx, len(w)) for w in windows] == [
            (w.id, w.kind, w.debris_flow_idx, len(w)) for w in expected]

        spans = [(s.index_of(w.series.start), s.index_of(w.series.end)) for w in windows]
        assert all(e0 < s1 for (_, e0), (s1, _) in zip(spans, spans[1:]))
        events = segment_events(s, cfg.rain_threshold_mm, cfg.quiet_hours)
        wet = "".join("1" if v > cfg.rain_threshold_mm else "0" for v in s.values)
        claimed = set()
        for w, (a, _) in zip(windows, spans):
            if w.kind is WindowKind.POSITIVE:
                flow = a + w.debris_flow_idx
                assert s.hour_at(flow) in flows
                claimed.add(max(ev for ev in events if ev.start_idx <= flow))
        for w, (a, b) in zip(windows, spans):
            if w.kind is WindowKind.NEGATIVE:
                held = [ev for ev in events if a <= ev.start_idx and ev.end_idx <= b]
                assert any(ev not in claimed and "1" * cfg.min_wet_run_hours in wet[ev.start_idx : ev.end_idx + 1]
                           for ev in held)
                assert not any(a <= ev.end_idx and ev.start_idx <= b for ev in claimed)
    assert skipped  # the cases skip flows for each reason, so the warnings are compared


def test_window_id_is_formatted_once(monkeypatch):
    import debris_ews.dataset as dataset

    calls = []
    monkeypatch.setattr(dataset, "format_ts", lambda ts: calls.append(ts) or "2020-01-01T00:00:00Z")
    w = DatasetWindow("S000", series(_storm(10, 5, 10)), WindowKind.NEGATIVE)
    assert [w.id, w.id] == ["S000/2020-01-01T00:00:00Z"] * 2
    assert len(calls) == 1
    assert w == DatasetWindow("S000", w.series, WindowKind.NEGATIVE)  # the cached id is no field


# --- labels ---------------------------------------------------------------------


def _pos_window(n=210, flow=100):
    values = np.zeros(n)
    values[flow - 2 : flow + 1] = 8.0
    return DatasetWindow("S000", series(values), WindowKind.POSITIVE, flow)


def test_labels_negative_window_all_zero():
    w = DatasetWindow("S000", series(_storm(10, 5, 10)), WindowKind.NEGATIVE)
    assert label_hours(w).sum() == 0
    assert label_hours(w).size == 25


def test_labels_lead_window():
    w = _pos_window(flow=100)
    y = label_hours(w, LabelingConfig(lead_hours=12))
    assert y.sum() == 13
    assert y[88:101].all() and not y[:88].any() and not y[101:].any()


def test_labels_clip_at_window_start():
    w = _pos_window(n=50, flow=5)
    y = label_hours(w, LabelingConfig(lead_hours=12))
    assert y.sum() == 6
    assert y[:6].all()


def test_label_count_identity_random():
    rng = np.random.default_rng(31)
    total = 0
    expected = 0
    for _ in range(50):
        n = int(rng.integers(20, 300))
        flow = int(rng.integers(0, n))
        w = DatasetWindow("S000", series(np.zeros(n) + 0.0), WindowKind.POSITIVE, flow) if False else None
        # windows need the flow hour wet for realism, but labels don't care
        values = np.zeros(n)
        values[flow] = 9.0
        w = DatasetWindow("S000", series(values), WindowKind.POSITIVE, flow)
        y = label_hours(w)
        total += int(y.sum())
        expected += min(12 + 1, flow + 1)
    assert total == expected


# --- features ---------------------------------------------------------------------


def test_hourly_feature_most_recent_first():
    values = np.arange(1.0, 11.0)
    w = DatasetWindow("S000", series(values), WindowKind.NEGATIVE)
    ex = build_examples([w], FeatureSpec(hourly_hours=3))
    assert ex.X[0].tolist() == [1.0, 0.0, 0.0]  # padding before window start
    assert ex.X[5].tolist() == [6.0, 5.0, 4.0]
    assert ex.feature_names == ("hourly_0", "hourly_1", "hourly_2")


def test_single_hour_feature():
    w = DatasetWindow("S000", series([7.0]), WindowKind.NEGATIVE)
    ex = build_examples([w], FeatureSpec(hourly_hours=1))
    assert ex.X.tolist() == [[7.0]]


def test_daily_weighted_feature():
    # previous calendar day totals 10 mm; weight 0.7**1
    values = np.zeros(48)
    values[6] = 10.0
    w = DatasetWindow("S000", series(values), WindowKind.NEGATIVE)
    ex = build_examples([w], FeatureSpec(hourly_hours=0, daily_days=1, daily_weighted=True))
    assert ex.X[30, 0] == pytest.approx(7.0)
    assert ex.X[10, 0] == 0.0  # same day: previous full day is empty


def test_daily_features_precede_hourly_block():
    # H=24: at hour t the daily block must not include hours t-23..t
    values = np.ones(24 * 6)
    w = DatasetWindow("S000", series(values), WindowKind.NEGATIVE)
    spec = FeatureSpec(hourly_hours=24, daily_days=1, daily_mode="rolling_24h")
    ex = build_examples([w], spec)
    t = 24 * 5
    # daily_1 covers hours [t-47 .. t-24]: all ones -> 24
    assert ex.X[t, 24] == pytest.approx(24.0)
    # at t=30 the daily window [t-47..t-24] pokes before the window start
    assert ex.X[30, 24] == pytest.approx(7.0)


def test_ear_feature_zero_outside_events():
    values = _storm(200, 6, 40)
    w = DatasetWindow("S000", series(values), WindowKind.NEGATIVE)
    ex = build_examples([w], FeatureSpec(hourly_hours=0, include_ear=True))
    assert ex.X[100, 0] == 0.0
    assert ex.X[203, 0] > 0.0


def test_feature_vector_layout_and_invariants():
    rng = np.random.default_rng(41)
    values = random_rain(rng, 300)
    w = DatasetWindow("S000", series(values), WindowKind.NEGATIVE)
    spec = FeatureSpec(hourly_hours=6, daily_days=7, daily_weighted=True, include_ear=True)
    ex = build_examples([w], spec)
    assert ex.X.shape == (300, 6 + 7 + 1)
    assert np.isfinite(ex.X).all() and (ex.X >= 0).all()
    assert ex.feature_names[-1] == "ear"
    # determinism: pure function of (window, spec)
    ex2 = build_examples([w], spec)
    np.testing.assert_array_equal(ex.X, ex2.X)


def _reference_examples_X(windows, spec):
    """The feature matrix as a loop over the hourly lags builds it, one strided column
    write a lag; daily and EAR columns as build_examples computes them."""
    X = np.zeros((sum(len(w) for w in windows), spec.n_features))
    start = 0
    for w in windows:
        v, n = w.series.values, len(w)
        out = X[start:start + n]
        for j in range(min(spec.hourly_hours, n)):
            out[j:, j] = v[: n - j]
        if spec.daily_days:
            anchors = np.arange(n) - spec.hourly_hours + 1
            daily = daily_sums_matrix(w.series, np.clip(anchors, 0, n), spec.daily_days, spec.daily_mode)
            daily[anchors < 0] = 0.0
            if spec.daily_weighted:
                daily = daily * np.power(spec.alpha, np.arange(1, spec.daily_days + 1))
            out[:, spec.hourly_hours : spec.hourly_hours + spec.daily_days] = daily
        if spec.include_ear:
            out[:, -1] = ear_series(w.series, spec.alpha, spec.daily_mode)[0]
        start += n
    return X


@pytest.mark.parametrize("hourly_hours, daily_and_ear", [
    (h, extra) for h in (0, 1, 48, 168) for extra in (False, True) if h or extra  # a spec selects some feature
])
def test_hourly_block_matches_the_per_lag_loop(hourly_hours, daily_and_ear):
    rng = np.random.default_rng(43)
    windows = []
    for i, n in enumerate([1, 5, 47, 48, 49, 167, 200, 400]):  # shorter and longer than each hourly block
        values = random_rain(rng, n)
        values[values == 0.0] = rng.choice([0.0, -0.0], size=int((values == 0.0).sum()))
        windows.append(DatasetWindow(f"S{i:03d}", series(values), WindowKind.NEGATIVE))
    spec = FeatureSpec(hourly_hours=hourly_hours, daily_days=3 if daily_and_ear else 0, daily_weighted=daily_and_ear,
                       include_ear=daily_and_ear)
    X = build_examples(windows, spec).X
    assert X.tobytes() == _reference_examples_X(windows, spec).tobytes()  # -0.0 kept, +0.0 padding


def test_feature_spec_validation():
    with pytest.raises(InputError):
        FeatureSpec(hourly_hours=0, daily_days=0, include_ear=False)
    with pytest.raises(InputError):
        FeatureSpec(hourly_hours=169)
    with pytest.raises(InputError):
        FeatureSpec(daily_days=8)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
def test_feature_spec_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(InputError, match=r"alpha must be in \[0, 1\]"):
        FeatureSpec(alpha=alpha)
    assert FeatureSpec(alpha=0.0).alpha == 0.0 and FeatureSpec(alpha=1.0).alpha == 1.0


def test_window_rows_order_and_label_every_hour():
    neg = DatasetWindow("S001", series(np.zeros(5), station_id="S001"), WindowKind.NEGATIVE)
    pos = _pos_window(n=30, flow=20)
    ids, hours, labels = window_rows([neg, pos], LabelingConfig(lead_hours=3))
    assert ids == (neg.id,) * 5 + (pos.id,) * 30
    assert hours.tolist() == list(range(5)) + list(range(30))
    assert labels.tolist() == [0] * 5 + label_hours(pos, LabelingConfig(lead_hours=3)).tolist()
    ex = build_examples([neg, pos], FeatureSpec(hourly_hours=2), LabelingConfig(lead_hours=3))
    assert (ex.window_ids, ex.hours.tolist(), ex.y.tolist()) == (ids, hours.tolist(), labels.tolist())
    with pytest.raises(InputError):
        window_rows([])


def test_example_rows_are_those_rows_of_the_whole_matrix():
    rng = np.random.default_rng(44)
    windows = [DatasetWindow(f"S{i:03d}", series(random_rain(rng, n), station_id=f"S{i:03d}"), WindowKind.NEGATIVE)
               for i, n in enumerate([3, 1, 60, 7, 25])]
    spec = FeatureSpec(hourly_hours=6, daily_days=1, include_ear=True)
    X = build_examples(windows, spec).X
    for rows in (np.arange(len(X)), np.array([0, 3, 4, 40, 95]), np.sort(rng.choice(len(X), 9, replace=False))):
        assert example_rows(windows, spec, LabelingConfig(), rows).tobytes() == X[rows].tobytes()


# --- splits -----------------------------------------------------------------------


def _toy_windows(n_pos=104, n_neg=533):
    windows = []
    for i in range(n_pos):
        values = np.zeros(30)
        values[10] = 9.0
        w = DatasetWindow(f"P{i:03d}", series(values, station_id=f"P{i:03d}"), WindowKind.POSITIVE, 10)
        windows.append(w)
    for i in range(n_neg):
        w = DatasetWindow(f"N{i:03d}", series(_storm(5, 3, 5), station_id=f"N{i:03d}"), WindowKind.NEGATIVE)
        windows.append(w)
    return windows


def test_split_paper_scale_counts():
    windows = _toy_windows()
    train, test = split_windows(windows, 0.15, seed=42)
    n_test_pos = sum(1 for w in test if w.kind is WindowKind.POSITIVE)
    assert n_test_pos in (15, 16)
    assert len(train) + len(test) == len(windows)
    assert {w.id for w in train}.isdisjoint({w.id for w in test})


def test_split_rejects_bad_fraction():
    windows = _toy_windows(4, 4)
    with pytest.raises(InputError):
        split_windows(windows, 0.0)
    with pytest.raises(InputError):
        split_windows(windows, 1.0)


def test_split_deterministic_and_order_insensitive():
    windows = _toy_windows(20, 60)
    train1, test1 = split_windows(windows, 0.2, seed=9)
    train2, test2 = split_windows(list(reversed(windows)), 0.2, seed=9)
    assert [w.id for w in test1] == [w.id for w in test2]
    train3, test3 = split_windows(windows, 0.2, seed=10)
    assert [w.id for w in test1] != [w.id for w in test3]


def test_kfold_partition_properties():
    windows = _toy_windows(23, 77)
    folds = kfold_windows(windows, k=10, seed=3)
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    all_ids = [w.id for f in folds for w in f]
    assert sorted(all_ids) == sorted(w.id for w in windows)
    pos_sizes = [sum(1 for w in f if w.kind is WindowKind.POSITIVE) for f in folds]
    assert max(pos_sizes) - min(pos_sizes) <= 1


def test_kfold_singletons_and_errors():
    windows = _toy_windows(5, 5)
    folds = kfold_windows(windows, k=10, seed=0)
    assert all(len(f) == 1 for f in folds)
    with pytest.raises(InputError):
        kfold_windows(windows, k=11)
    with pytest.raises(InputError):
        kfold_windows(windows, k=1)


# --- file interfaces -----------------------------------------------------------


def test_events_csv_roundtrip(tmp_path):
    events = {"B": [T0.replace(day=3)], "A": [T0, T0.replace(day=2)]}
    path = tmp_path / "events.csv"
    write_events_csv(path, events)
    back = read_events_csv(path)
    assert list(back) == ["A", "B"]
    assert back["A"] == sorted(events["A"])


@pytest.mark.parametrize(
    "body, message",
    [
        ("A,2019-05-01T00:00:00Z\nB\n", ":3: invalid ISO-8601 timestamp: ''"),
        ("A,2019-05-01T00:00:00Z\nB,2019-13-01T00:00:00Z\n", ":3: invalid ISO-8601 timestamp: '2019-13-01T00:00:00Z'"),
        ("A,2019-05-01T00:00:00+08:00\n", ":2: timestamp must be UTC: '2019-05-01T00:00:00+08:00'"),
        ("A,2019-05-01T00:00:00Z\n,2019-05-01T00:00:00Z\n", ":3: empty station_id"),
    ],
    ids=["no timestamp", "bad timestamp", "not UTC", "no station"],
)
def test_events_csv_errors_name_the_row(tmp_path, csv_blocks, body, message):
    path = tmp_path / "events.csv"
    path.write_text("station_id,timestamp\n" + body)
    with pytest.raises(InputError) as err:
        read_events_csv(path)
    assert str(err.value) == f"{path}{message}"


def test_events_csv_error_lines_count_blank_lines(tmp_path, csv_blocks):
    path = tmp_path / "events.csv"
    path.write_text("station_id,timestamp\n\nA,2019-05-01T00:00:00Z\n\n\nB,2019-13-01T00:00:00Z\n")
    with pytest.raises(InputError) as err:
        read_events_csv(path)
    assert str(err.value) == f"{path}:6: invalid ISO-8601 timestamp: '2019-13-01T00:00:00Z'"


def test_events_csv_missing_column(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("station_id\nA\n")
    with pytest.raises(InputError, match=r"missing events CSV columns \['timestamp'\]"):
        read_events_csv(path)


def test_manifest_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    s = series(random_rain(rng, 2000, wet_prob=0.25))
    flows = [s.hour_at(i) for i in (500, 1200)]
    windows = build_windows(s, flows)
    assert windows
    split = {w.id: ("test" if i % 2 else "train") for i, w in enumerate(windows)}
    path = tmp_path / "manifest.json"
    write_manifest(path, windows, split, meta={"note": "unit"})
    back, back_split = read_manifest(path, {"S000": s})
    assert [w.id for w in back] == sorted(w.id for w in windows)
    assert back_split == split
    for w, b in zip(sorted(windows, key=lambda w: w.id), back):
        np.testing.assert_array_equal(w.series.values, b.series.values)
        assert w.kind == b.kind and w.debris_flow_idx == b.debris_flow_idx


def test_manifest_windows_are_read_only_views_of_the_station_series(tmp_path):
    s = series(random_rain(np.random.default_rng(18), 2000, wet_prob=0.25))
    windows = build_windows(s, [s.hour_at(i) for i in (500, 1200)])
    write_manifest(tmp_path / "manifest.json", windows)
    back, _ = read_manifest(tmp_path / "manifest.json", {"S000": s})
    assert back
    for w in back:
        assert np.shares_memory(w.series.values, s.values)
        assert not w.series.values.flags.writeable
        start = s.index_of(w.series.start)
        np.testing.assert_array_equal(w.series.values, s.values[start : start + len(w)])


def test_timestamps_before_year_1000_round_trip(tmp_path):
    """format_ts zero-pads the year, so the events CSV, window ids and the
    manifest of a record before year 1000 read back."""
    start = T0.replace(year=999)
    events = {"A": [start, start.replace(day=14, hour=3)]}
    path = tmp_path / "events.csv"
    write_events_csv(path, events)
    assert path.read_text().splitlines()[1:] == ["A,0999-05-01T00:00:00Z", "A,0999-05-14T03:00:00Z"]
    assert read_events_csv(path) == events

    s = series(_storm(200, 10, 48), start=start)
    windows = build_windows(s, [s.hour_at(205)])
    assert [w.id for w in windows] == ["S000/0999-05-02T08:00:00Z"]
    write_manifest(tmp_path / "manifest.json", windows)
    back, _ = read_manifest(tmp_path / "manifest.json", {"S000": s})
    assert [(w.id, len(w), w.debris_flow_idx) for w in back] == [(w.id, len(w), w.debris_flow_idx) for w in windows]


def test_feature_csv_export(tmp_path):
    w = _pos_window()
    ex = build_examples([w], FeatureSpec(hourly_hours=2))
    path = tmp_path / "features.csv"
    write_feature_csv(path, ex)
    lines = path.read_text().splitlines()
    assert lines[0] == "window_id,hour,label,f0,f1"
    assert len(lines) == len(ex) + 1
