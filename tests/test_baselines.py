import numpy as np
import pytest

from debris_ews import (
    DatasetWindow,
    InputError,
    ThresholdTable,
    WindowKind,
    compute_window_ear,
    etm_predict,
    etm_scores,
    hm_predict,
    hm_scores,
)
from debris_ews.baselines import MARKED_THRESHOLDS_MM, WindowEar, read_threshold_csv, write_threshold_csv

from conftest import random_rain, series


def _wear(ear, events, wid="W0", sid="S000"):
    return WindowEar(wid, sid, np.asarray(ear, dtype=float), tuple(events))


def test_alert_at_crossing_hour():
    w = _wear([100.0, 250.0, 310.0], [(0, 2)])
    assert etm_predict(w, 300.0).tolist() == [False, False, True]


def test_alert_threshold_edges():
    w = _wear([100.0, 250.0, 310.0], [(0, 2)])
    assert etm_predict(w, 1e-9).tolist() == [True, True, True]
    assert etm_predict(w, 1000.0).tolist() == [False, False, False]


def test_alerts_only_inside_events():
    w = _wear([50.0, 0.0, 0.0, 80.0], [(0, 0), (3, 3)])
    got = hm_predict(w, 10.0)
    assert got.tolist() == [True, False, False, True]
    # threshold zero still never alerts outside events
    assert hm_predict(w, 0.0).tolist() == [True, False, False, True]


def test_etm_equals_hm_with_constant_table():
    rng = np.random.default_rng(2)
    wears = []
    for i in range(5):
        from debris_ews import ear_series

        s = series(random_rain(rng, 200), station_id=f"S{i:03d}")
        ear, events = ear_series(s)
        wears.append(_wear(ear, [(e.start_idx, e.end_idx) for e in events], wid=f"W{i}", sid=f"S{i:03d}"))
    table = ThresholdTable({f"S{i:03d}": 250.0 for i in range(5)})
    for w in wears:
        np.testing.assert_array_equal(etm_predict(w, table[w.station_id]), hm_predict(w, 250.0))


def test_threshold_monotonicity_random_traces():
    rng = np.random.default_rng(4)
    for _ in range(30):
        from debris_ews import ear_series

        s = series(random_rain(rng, 300))
        ear, events = ear_series(s)
        w = _wear(ear, [(e.start_idx, e.end_idx) for e in events])
        lo = hm_predict(w, 30.0)
        hi = hm_predict(w, 90.0)
        assert not (hi & ~lo).any()  # raising the threshold never adds alerts


def test_scores_match_swept_predictions():
    rng = np.random.default_rng(9)
    from debris_ews import ear_series

    s = series(random_rain(rng, 400))
    ear, events = ear_series(s)
    w = _wear(ear, [(e.start_idx, e.end_idx) for e in events])
    table = ThresholdTable({"S000": 250.0})
    scores = etm_scores([w], table)["W0"]
    for scale in (0.1, 0.5, 1.0, 2.0):
        direct = etm_predict(w, scale * 250.0)
        via_scores = np.zeros_like(direct)
        for a, b in w.events:
            via_scores[a : b + 1] = scores[a : b + 1] >= scale
        np.testing.assert_array_equal(direct, via_scores)
    # the homogeneous model at any uniform threshold, the marked ones included,
    # is its EAR score thresholded; outside events the score is 0 and never alerts
    ear_scores = hm_scores([w])["W0"]
    inside = np.zeros(ear_scores.size, dtype=bool)
    for a, b in w.events:
        inside[a : b + 1] = True
    for thr in (1e-9, 30.0, *MARKED_THRESHOLDS_MM, ear_scores.max(), ear_scores.max() + 1.0):
        np.testing.assert_array_equal(hm_predict(w, float(thr)), inside & (ear_scores >= thr))


def test_official_table_validation():
    ThresholdTable({"A": 200.0, "B": 600.0})
    with pytest.raises(InputError):
        ThresholdTable({"A": 210.0})
    with pytest.raises(InputError):
        ThresholdTable({"A": 150.0})
    with pytest.raises(InputError, match="positive"):
        ThresholdTable({"A": -5.0})


def test_missing_station_is_actionable():
    w = _wear([10.0], [(0, 0)], sid="S999")
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
    assert wear.events == ((200, 209),)
    assert wear.ear[:200].tolist() == [0.0] * 200
    assert wear.ear[209] == pytest.approx(200.0)
