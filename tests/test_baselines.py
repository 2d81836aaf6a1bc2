import numpy as np
import pytest

from debris_ews import (
    DailyWindowMode,
    DatasetWindow,
    FeatureSpec,
    InputError,
    MainEvent,
    ThresholdTable,
    WindowKind,
    build_examples,
    build_windows,
    compute_window_ear,
    ear_series,
    etm_predict,
    etm_scores,
    hm_predict,
    hm_scores,
    segment_events,
)
from debris_ews._common import HOUR
from debris_ews.baselines import MARKED_THRESHOLDS_MM, WindowEar, read_threshold_csv, write_threshold_csv

from conftest import T0, random_rain, series


def _wear(ear, sid="S000"):
    return WindowEar(sid, np.asarray(ear, dtype=float))


def test_alert_at_crossing_hour():
    w = _wear([100.0, 250.0, 310.0])
    assert etm_predict(w, 300.0).tolist() == [False, False, True]


def test_alert_threshold_edges():
    w = _wear([100.0, 250.0, 310.0])
    assert etm_predict(w, 1e-9).tolist() == [True, True, True]
    assert etm_predict(w, 1000.0).tolist() == [False, False, False]


def test_alerts_only_inside_events():
    w = _wear([50.0, 0.0, 0.0, 80.0])
    got = hm_predict(w, 10.0)
    assert got.tolist() == [True, False, False, True]
    # threshold zero still never alerts outside events
    assert hm_predict(w, 0.0).tolist() == [True, False, False, True]


def test_etm_equals_hm_with_constant_table():
    rng = np.random.default_rng(2)
    wears = []
    for i in range(5):
        s = series(random_rain(rng, 200), station_id=f"S{i:03d}")
        ear = ear_series(s)[0]
        wears.append(_wear(ear, sid=f"S{i:03d}"))
    table = ThresholdTable({f"S{i:03d}": 250.0 for i in range(5)})
    for w in wears:
        np.testing.assert_array_equal(etm_predict(w, table[w.station_id]), hm_predict(w, 250.0))


def test_threshold_monotonicity_random_traces():
    rng = np.random.default_rng(4)
    for _ in range(30):
        s = series(random_rain(rng, 300))
        ear = ear_series(s)[0]
        w = _wear(ear)
        lo = hm_predict(w, 30.0)
        hi = hm_predict(w, 90.0)
        assert not (hi & ~lo).any()  # raising the threshold never adds alerts


def test_scores_match_swept_predictions():
    rng = np.random.default_rng(9)
    s = series(random_rain(rng, 400))
    ear, events = ear_series(s)[0], segment_events(s)
    w = _wear(ear)
    table = ThresholdTable({"S000": 250.0})
    scores = etm_scores([w], table)
    for scale in (0.1, 0.5, 1.0, 2.0):
        direct = etm_predict(w, scale * 250.0)
        via_scores = np.zeros_like(direct)
        for ev in events:
            via_scores[ev.start_idx : ev.end_idx + 1] = scores[ev.start_idx : ev.end_idx + 1] >= scale
        np.testing.assert_array_equal(direct, via_scores)
    # the homogeneous model at any uniform threshold, the marked ones included,
    # is its EAR score thresholded; outside events the score is 0 and never alerts
    ear_scores = hm_scores([w])
    inside = ear > 0
    for thr in (1e-9, 30.0, *MARKED_THRESHOLDS_MM, ear_scores.max(), ear_scores.max() + 1.0):
        np.testing.assert_array_equal(hm_predict(w, float(thr)), inside & (ear_scores >= thr))


def test_scores_follow_the_order_of_the_windows_given():
    a = _wear([0.0, 120.0, 300.0], sid="S000")
    b = _wear([400.0, 0.0], sid="S001")
    table = ThresholdTable({"S000": 200.0, "S001": 400.0})
    np.testing.assert_array_equal(etm_scores([a, b], table), [0.0, 0.6, 1.5, 1.0, 0.0])
    np.testing.assert_array_equal(hm_scores([a, b]), [0.0, 120.0, 300.0, 400.0, 0.0])
    for scores in (lambda wears: etm_scores(wears, table), hm_scores):
        ab, ba = scores([a, b]), scores([b, a])
        np.testing.assert_array_equal(ba, np.concatenate([ab[3:], ab[:3]]))  # swapped windows, swapped blocks


def test_official_table_validation():
    ThresholdTable({"A": 200.0, "B": 600.0})
    with pytest.raises(InputError):
        ThresholdTable({"A": 210.0})
    with pytest.raises(InputError):
        ThresholdTable({"A": 150.0})
    with pytest.raises(InputError, match="positive"):
        ThresholdTable({"A": -5.0})


def test_missing_station_is_actionable():
    w = _wear([10.0], sid="S999")
    table = ThresholdTable({"S000": 300.0})
    with pytest.raises(InputError, match="S999"):
        etm_scores([w], table)


def test_threshold_csv_roundtrip(tmp_path):
    table = ThresholdTable({"A": 250.0, "B": 400.0}, year=2019)
    path = tmp_path / "thr.csv"
    write_threshold_csv(path, table)
    back = read_threshold_csv(path)
    assert back.thresholds == table.thresholds
    assert back.year == 2019


def test_threshold_csv_roundtrip_without_year(tmp_path):
    path = tmp_path / "thr.csv"
    write_threshold_csv(path, ThresholdTable({"A": 250.0, "B": 400.0}))
    assert path.read_text().splitlines()[1] == "A,,250.0"
    back = read_threshold_csv(path)
    assert back.thresholds == {"A": 250.0, "B": 400.0}
    assert back.year is None


@pytest.mark.parametrize(
    "body, message",
    [
        ("A,2019,250.0\n,2019,300.0\n", ":3: empty station_id"),
        ("A,2019,250.0\nA,2019,300.0\n", ":3: duplicate station A"),
        ("A,2019,250.0\nB,2019,x\n", ":3: bad threshold row {'station_id': 'B', 'year': '2019', 'ear_threshold_mm': 'x'}"),
        ("A,20.5,250.0\n", ":2: bad threshold row"),
        ("", ": no threshold rows"),
    ],
    ids=["no station", "duplicate", "bad threshold", "bad year", "no rows"],
)
def test_threshold_csv_errors_name_the_row(tmp_path, csv_blocks, body, message):
    path = tmp_path / "thr.csv"
    path.write_text("station_id,year,ear_threshold_mm\n" + body)
    with pytest.raises(InputError) as err:
        read_threshold_csv(path)
    assert str(err.value).startswith(f"{path}{message}")


def test_threshold_csv_error_lines_count_blank_lines(tmp_path, csv_blocks):
    path = tmp_path / "thr.csv"
    path.write_text('station_id,year,ear_threshold_mm\n\n"A",2019,250.0\n\nA,2019,300.0\n')
    with pytest.raises(InputError) as err:
        read_threshold_csv(path)
    assert str(err.value) == f"{path}:5: duplicate station A"


def test_threshold_csv_missing_column(tmp_path):
    path = tmp_path / "thr.csv"
    path.write_text("station_id,ear_threshold_mm\nA,250.0\n")
    with pytest.raises(InputError, match=r"missing threshold CSV columns \['year'\]"):
        read_threshold_csv(path)


def test_window_ear_pipeline():
    values = np.zeros(400)
    values[200:210] = 20.0
    w = DatasetWindow("S000", series(values), WindowKind.NEGATIVE)
    wear = compute_window_ear(w)
    assert wear.ear[:200].tolist() == [0.0] * 200
    assert wear.ear[209] == pytest.approx(200.0)


@pytest.mark.parametrize("alpha", [0.7, 0.35])
@pytest.mark.parametrize("mode", list(DailyWindowMode))
def test_windows_read_their_records_ear(mode, alpha):
    """The window EAR and the EAR feature of every window, and of slices that start
    inside an event or up to 7 days after one, are the record's EAR at the window's
    hours, bit for bit; the events are the record's, clipped to the window."""
    rng = np.random.default_rng(29)
    spec = FeatureSpec(hourly_hours=0, include_ear=True, daily_mode=mode, alpha=alpha)
    for trial in range(6):
        values = random_rain(rng, int(rng.integers(800, 1600)), wet_prob=0.06)
        record = series(values, start=T0 + int(rng.integers(24)) * HOUR)
        want = ear_series(series(values, start=record.start), alpha, mode)[0]  # over a fresh copy of the record
        events = segment_events(record)
        flows = [record.hour_at(int(rng.integers(ev.start_idx, ev.end_idx + 1))) for ev in events[1::3]]
        windows = build_windows(record, flows)
        spans = [(w, record.index_of(w.series.start)) for w in windows]
        for i in rng.choice(len(events), size=min(len(events), 8), replace=False):
            ev = events[i]
            inside = int(rng.integers(ev.start_idx, ev.end_idx + 1))
            after = min(ev.end_idx + int(rng.integers(1, 7 * 24 + 1)), len(record) - 1)  # within 7 days
            a = inside if rng.random() < 0.5 else after
            b = min(a + int(rng.integers(0, 400)), len(record) - 1)
            spans.append((DatasetWindow(record.station_id, record.slice_hours(a, b), WindowKind.NEGATIVE), a))
            k = int(rng.integers(0, b - a + 1))  # a slice of the slice, cut at its own hour k
            spans.append((DatasetWindow(record.station_id, spans[-1][0].series.slice_hours(k, b - a),
                                        WindowKind.NEGATIVE), a + k))
        column = build_examples([w for w, _ in spans], spec).X[:, -1]
        for w, a in spans:
            b = a + len(w)
            assert compute_window_ear(w, alpha, mode).ear.tobytes() == want[a:b].tobytes(), (trial, w.id)
            assert column[: len(w)].tobytes() == want[a:b].tobytes(), (trial, w.id)
            column = column[len(w):]
            assert ear_series(w.series, alpha, mode)[1] == [
                MainEvent(max(ev.start_idx, a) - a, min(ev.end_idx, b - 1) - a)
                for ev in events if ev.end_idx >= a and ev.start_idx < b
            ], (trial, w.id)
        for s in (record, *(w.series for w, _ in spans)):  # one array, shared by the record and its slices
            with pytest.raises(ValueError, match="read-only"):
                ear_series(s, alpha, mode)[0][0] = 1.0
