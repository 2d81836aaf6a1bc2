import csv
import logging
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from debris_ews import (
    DailyWindowMode,
    InputError,
    MainEvent,
    RainSeries,
    ear_series,
    segment_events,
)
import debris_ews._common as _common
from debris_ews._common import HOUR, ensure_hour_aligned, format_ts, parse_ts
from debris_ews.cli import main
from debris_ews.rainfall import (
    EAR_CSV_COLUMNS, RAINFALL_CSV_COLUMNS, daily_sums_matrix, read_rainfall_csv, write_ear_csv, write_rainfall_csv,
)

from conftest import T0, random_rain, series
from oracles import ear_trace


# --- series container -------------------------------------------------------


def test_series_rejects_bad_values():
    with pytest.raises(InputError):
        series([])
    with pytest.raises(InputError):
        series([1.0, -0.5])
    with pytest.raises(InputError):
        series([1.0, np.nan])
    with pytest.raises(InputError):
        RainSeries("S", datetime(2019, 5, 1, 0, 30, tzinfo=timezone.utc), np.ones(3))


def test_series_values_immutable():
    s = series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_index_of_roundtrip():
    s = series(np.ones(48))
    assert s.index_of(T0) == 0
    assert s.index_of(s.hour_at(17)) == 17
    with pytest.raises(InputError):
        s.index_of(s.hour_at(48))


# --- segmentation -----------------------------------------------------------


def test_segment_all_dry():
    assert segment_events(series(np.zeros(50))) == []
    assert segment_events(series(np.full(50, 4.0))) == []  # strict > 4


def test_segment_two_events_hand_trace():
    s = series([5, 5, 0, 0, 0, 0, 0, 0, 5])
    assert segment_events(s) == [MainEvent(0, 1), MainEvent(8, 8)]


def test_segment_short_dip_does_not_split():
    s = series([5, 3, 3, 3, 5, 0, 0, 0, 0, 0, 0])
    assert segment_events(s) == [MainEvent(0, 4)]


def test_segment_exactly_six_quiet_hours_splits():
    s = series([5] + [0] * 6 + [5])
    assert segment_events(s) == [MainEvent(0, 0), MainEvent(7, 7)]
    s = series([5] + [0] * 5 + [5])
    assert segment_events(s) == [MainEvent(0, 6)]


def test_segment_trailing_event_closed_at_series_end():
    s = series([0, 5, 5])
    assert segment_events(s) == [MainEvent(1, 2)]


def test_segment_properties_random():
    rng = np.random.default_rng(42)
    for trial in range(300):
        n = int(rng.integers(1, 400))
        s = series(random_rain(rng, n))
        events = segment_events(s)
        assert events == segment_events(s)  # deterministic
        prev_end = -10**9
        for ev in events:
            assert s.values[ev.start_idx] > 4.0
            assert s.values[ev.end_idx] > 4.0
            # no wet hour in the 6 hours after the end (clipped at series end)
            tail = s.values[ev.end_idx + 1 : ev.end_idx + 7]
            assert not (tail > 4.0).any()
            assert ev.start_idx > prev_end
            prev_end = ev.end_idx
        # every wet hour belongs to exactly one event
        wet = set(np.flatnonzero(s.values > 4.0).tolist())
        covered = set()
        for ev in events:
            covered.update(range(ev.start_idx, ev.end_idx + 1))
        assert wet <= covered


# --- daily totals ------------------------------------------------------------


def test_daily_totals_all_zero():
    s = series(np.zeros(400))
    assert daily_sums_matrix(s, [200])[0].tolist() == [0.0] * 7


def test_daily_totals_rolling_uniform_rain():
    s = series(np.ones(24 * 10))
    got = daily_sums_matrix(s, [24 * 9], mode=DailyWindowMode.ROLLING_24H)[0]
    assert got.tolist() == [24.0] * 7


def test_daily_totals_anchor_at_start_is_padding():
    s = series(np.ones(100))
    assert daily_sums_matrix(s, [0], mode=DailyWindowMode.ROLLING_24H)[0].tolist() == [0.0] * 7
    assert daily_sums_matrix(s, [0], mode=DailyWindowMode.CALENDAR_DAY)[0].tolist() == [0.0] * 7


def test_daily_totals_calendar_respects_midnight():
    # start at 06:00; anchor inside day 2 -> R_1 is the full previous calendar day
    start = datetime(2019, 5, 1, 6, tzinfo=timezone.utc)
    values = np.zeros(100)
    values[18:42] = 1.0  # exactly calendar day 2019-05-02
    s = RainSeries("S", start, values)
    anchor = 18 + 24 + 5  # 11:00 on 2019-05-03
    got = daily_sums_matrix(s, [anchor], mode=DailyWindowMode.CALENDAR_DAY)[0]
    assert got[0] == 24.0
    assert got[1:].tolist() == [0.0] * 6


def test_daily_totals_rolling_windows_partition():
    rng = np.random.default_rng(3)
    s = series(random_rain(rng, 400))
    anchor = 350
    got = daily_sums_matrix(s, [anchor], mode=DailyWindowMode.ROLLING_24H)[0]
    assert got.sum() == pytest.approx(s.values[anchor - 168 : anchor].sum())


# --- antecedent index --------------------------------------------------------


def test_antecedent_zero():
    values = np.zeros(400)
    values[200] = 5.0
    assert ear_trace(series(values), MainEvent(200, 200)).antecedent_mm == 0.0


def test_antecedent_single_day():
    values = np.zeros(400)
    values[24 * 6 + 7] = 10.0  # R_1 of an event on day 7
    values[24 * 7 + 3] = 5.0
    assert ear_trace(series(values), MainEvent(24 * 7 + 3, 24 * 7 + 3)).antecedent_mm == pytest.approx(7.0)


def test_antecedent_geometric_sum():
    # independent oracle: direct geometric sum over 7 days of 10 mm
    expected = sum(10.0 * 0.7**i for i in range(1, 8))
    assert expected == pytest.approx(21.4117330, abs=1e-6)
    values = np.zeros(400)
    values[np.arange(7) * 24 + 11] = 10.0  # 10 mm on each of the 7 days before day 7
    values[24 * 7 + 3] = 5.0
    tr = ear_trace(series(values), MainEvent(24 * 7 + 3, 24 * 7 + 3))
    assert tr.antecedent_mm == pytest.approx(expected, abs=1e-12)


# --- one EAR pass against the per-event computation it replaced ------------------


def _reference_range_sums(values, lo, hi):
    cum = np.concatenate(([0.0], np.cumsum(values)))
    n = values.size
    return cum[np.clip(hi, 0, n)] - cum[np.clip(lo, 0, n)]


def _reference_daily_sums_matrix(s, anchor_idx, days=7, mode=DailyWindowMode.CALENDAR_DAY):
    anchor_idx = np.asarray(anchor_idx, dtype=np.int64)
    if days == 0:
        return np.zeros((anchor_idx.size, 0))
    if DailyWindowMode(mode) is DailyWindowMode.CALENDAR_DAY:
        base = anchor_idx - (s.start.hour + anchor_idx) % 24
    else:
        base = anchor_idx
    out = np.empty((anchor_idx.size, days))
    for i in range(1, days + 1):
        out[:, i - 1] = _reference_range_sums(s.values, base - 24 * i, base - 24 * (i - 1))
    return out


def _reference_daily_totals(s, anchor_idx, days=7, mode=DailyWindowMode.CALENDAR_DAY):
    return _reference_daily_sums_matrix(s, np.array([anchor_idx]), days, mode)[0]


def _reference_antecedent_index(dailies, alpha=0.7):
    r = np.asarray(dailies, dtype=np.float64)
    weights = np.power(alpha, np.arange(1, r.size + 1, dtype=np.float64))
    return float(np.dot(weights, r))


def _reference_ear_trace(s, event, alpha=0.7, mode=DailyWindowMode.CALENDAR_DAY):
    """(antecedent, per-hour EAR) of one event."""
    ante = _reference_antecedent_index(_reference_daily_totals(s, event.start_idx, 7, mode), alpha)
    return ante, np.cumsum(s.values[event.start_idx : event.end_idx + 1]) + ante


def _reference_ear_series(s, alpha=0.7, mode=DailyWindowMode.CALENDAR_DAY):
    events = segment_events(s)
    ear = np.zeros(len(s))
    for ev in events:
        ear[ev.start_idx : ev.end_idx + 1] = _reference_ear_trace(s, ev, alpha, mode)[1]
    return ear, events


def _random_series(rng, hour, edges):
    n = int(rng.integers(1, 500))
    values = random_rain(rng, n)
    if edges:  # events that start at hour 0 and end at the last hour
        values[[0, -1]] = 5.0 + rng.random(2)
    return series(values, start=T0.replace(hour=hour))


@pytest.mark.parametrize("mode", list(DailyWindowMode))
def test_daily_sums_matrix_matches_reference(mode):
    rng = np.random.default_rng(29)
    for hour in range(24):
        for edges in (False, True):
            s = _random_series(rng, hour, edges)
            anchors = np.arange(len(s) + 1)  # 0 through len
            for days in (0, 1, 7):
                got = daily_sums_matrix(s, anchors, days, mode)
                want = _reference_daily_sums_matrix(s, anchors, days, mode)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("mode", list(DailyWindowMode))
def test_ear_matches_reference(mode, alpha):
    rng = np.random.default_rng(31)
    traces = 0
    for hour in range(24):
        for edges in (False, True):
            s = _random_series(rng, hour, edges)
            ear, events = ear_series(s, alpha, mode)
            want, want_events = _reference_ear_series(s, alpha, mode)
            assert events == want_events and ear.tobytes() == want.tobytes()
            for ev in events:
                tr = ear_trace(s, ev, alpha, mode)
                ante, trace = _reference_ear_trace(s, ev, alpha, mode)
                assert tr.antecedent_mm == ante and type(tr.antecedent_mm) is float
                assert tr.ear.tobytes() == trace.tobytes()
                traces += 1
    assert traces > 500


# --- EAR ----------------------------------------------------------------------


def test_ear_trace_no_antecedent():
    s = series([5.0, 7.0])
    tr = ear_trace(s, MainEvent(0, 1))
    assert tr.antecedent_mm == 0.0
    assert tr.ear.tolist() == [5.0, 12.0]


def test_ear_trace_with_one_antecedent_day():
    # 10 mm the previous day, then a 20 mm event hour: 20 + 0.7 * 10 = 27
    values = np.zeros(49)
    values[30] = 10.0  # hour 30 lies in the calendar day before hour 48
    values[48] = 20.0
    s = series(values)
    tr = ear_trace(s, MainEvent(48, 48))
    assert tr.antecedent_mm == pytest.approx(7.0)
    assert tr.ear.tolist() == [pytest.approx(27.0)]


def test_ear_trace_alert_crossing_hour():
    # constructed series whose EAR crosses 300 mm at a knowable hour
    values = np.zeros(24 * 7 + 30)
    start = 24 * 7
    values[start : start + 30] = 20.0
    s = series(values)
    tr = ear_trace(s, segment_events(s)[0])
    crossing = int(np.argmax(tr.ear >= 300.0))
    assert crossing == 14  # oracle: ceil(300 / 20) - 1
    assert tr.ear[crossing - 1] < 300.0 <= tr.ear[crossing]


def test_ear_matches_direct_summation_oracle():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(24, 600))
        s = series(random_rain(rng, n))
        mode = DailyWindowMode.ROLLING_24H if trial % 2 else DailyWindowMode.CALENDAR_DAY
        for ev in segment_events(s):
            tr = ear_trace(s, ev, mode=mode)
            # oracle: plain python loops over the defining sums
            ante = 0.0
            for i in range(1, 8):
                if mode is DailyWindowMode.ROLLING_24H:
                    lo, hi = ev.start_idx - 24 * i, ev.start_idx - 24 * (i - 1)
                else:
                    day0 = ev.start_idx - (s.start.hour + ev.start_idx) % 24
                    lo, hi = day0 - 24 * i, day0 - 24 * (i - 1)
                daily = sum(s.values[t] for t in range(max(lo, 0), max(hi, 0)))
                ante += 0.7**i * daily
            run = 0.0
            for k, t in enumerate(range(ev.start_idx, ev.end_idx + 1)):
                run += s.values[t]
                assert abs(tr.ear[k] - (run + ante)) <= 1e-9


def test_ear_monotone_and_bounded_below():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = series(random_rain(rng, 300))
        for ev in segment_events(s):
            tr = ear_trace(s, ev)
            assert (np.diff(tr.ear) >= 0).all()
            assert (tr.ear >= tr.antecedent_mm).all()
            assert tr.ear[0] == pytest.approx(s.values[ev.start_idx] + tr.antecedent_mm)


@pytest.mark.parametrize("mode", list(DailyWindowMode))
def test_ear_series_never_decreases_inside_an_event(mode):
    # so an alert at EAR >= threshold, once fired, lasts to the event's end
    rng = np.random.default_rng(37)
    checked = 0
    for trial in range(40):
        s = series(random_rain(rng, 400, wet_prob=rng.uniform(0.1, 0.6), scale=rng.uniform(1.0, 30.0)))
        ear, events = ear_series(s, alpha=rng.uniform(0.0, 1.0), mode=mode)
        for ev in events:
            assert (np.diff(ear[ev.start_idx : ev.end_idx + 1]) >= 0).all(), (trial, ev)
            checked += ev.hours > 1
    assert checked > 100


def test_ear_linearity_under_scaling():
    rng = np.random.default_rng(13)
    s = series(random_rain(rng, 300))
    doubled = series(2.0 * s.values)
    for ev, ev2 in zip(segment_events(s), segment_events(doubled)):
        assert ev == ev2 or True  # events can differ; compare only shared ones
    ev_list = segment_events(s)
    for ev in ev_list:
        tr = ear_trace(s, ev)
        # scale rainfall but keep the event span: EAR doubles exactly
        tr2 = ear_trace(doubled, ev)
        assert tr2.antecedent_mm == pytest.approx(2 * tr.antecedent_mm, rel=1e-12)
        np.testing.assert_allclose(tr2.ear, 2 * tr.ear, rtol=1e-12)


def test_ear_alpha_zero_is_running_sum():
    rng = np.random.default_rng(17)
    s = series(random_rain(rng, 200))
    for ev in segment_events(s):
        tr = ear_trace(s, ev, alpha=0.0)
        np.testing.assert_allclose(tr.ear, np.cumsum(s.values[ev.start_idx : ev.end_idx + 1]))


def test_ear_series_zero_outside_events():
    rng = np.random.default_rng(19)
    s = series(random_rain(rng, 300))
    ear, events = ear_series(s)
    inside = np.zeros(len(s), dtype=bool)
    for ev in events:
        inside[ev.start_idx : ev.end_idx + 1] = True
    assert (ear[~inside] == 0).all()
    if inside.any():
        assert (ear[inside] > 0).any()


def test_ear_trace_rejects_out_of_range_event():
    s = series([5.0, 5.0])
    with pytest.raises(InputError):
        ear_trace(s, MainEvent(0, 5))


# --- CSV round trip -----------------------------------------------------------


def test_rainfall_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    a = series(random_rain(rng, 60), "A")
    b = series(random_rain(rng, 40), "B", start=T0.replace(hour=9))
    path = tmp_path / "rain.csv"
    write_rainfall_csv(path, [b, a])
    back = read_rainfall_csv(path)
    assert [s.station_id for s in back] == ["A", "B"]
    np.testing.assert_array_equal(back[0].values, a.values)
    np.testing.assert_array_equal(back[1].values, b.values)
    assert back[1].start == b.start


def test_rainfall_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "rain.csv"
    ts = "2019-05-01T00:00:00Z"
    path.write_text(f"station_id,timestamp,rainfall_mm\nA,{ts},1.0\nA,{ts},2.0\n")
    with pytest.raises(InputError, match="duplicate"):
        read_rainfall_csv(path)


def test_rainfall_csv_gap_rejected_then_imputed(tmp_path, caplog):
    path = tmp_path / "rain.csv"
    path.write_text(
        "station_id,timestamp,rainfall_mm\n"
        "A,2019-05-01T00:00:00Z,1.0\n"
        "A,2019-05-01T03:00:00Z,2.0\n"
    )
    with pytest.raises(InputError, match="missing 2 hour"):
        read_rainfall_csv(path)
    back = read_rainfall_csv(path, impute_missing=True)
    assert back[0].values.tolist() == [1.0, 0.0, 0.0, 2.0]


def test_rainfall_csv_rejects_misaligned_and_nonutc(tmp_path):
    path = tmp_path / "rain.csv"
    path.write_text("station_id,timestamp,rainfall_mm\nA,2019-05-01T00:30:00Z,1.0\n")
    with pytest.raises(InputError, match="hour boundary"):
        read_rainfall_csv(path)
    path.write_text("station_id,timestamp,rainfall_mm\nA,2019-05-01T00:00:00+02:00,1.0\n")
    with pytest.raises(InputError, match="UTC"):
        read_rainfall_csv(path)


# --- bulk CSV I/O against the per-row reference ---------------------------------
# The per-row reader and writer that the bulk ones replaced, kept as the
# reference: the series, file bytes, warnings and error messages must match.


def _reference_read_rainfall_csv(path, impute_missing=False):
    path = Path(path)
    per_station = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RAINFALL_CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise InputError(f"{path}: missing rainfall CSV columns {missing}")
        for row in reader:
            lineno = reader.line_num  # blank lines count
            sid = (row["station_id"] or "").strip()
            if not sid:
                raise InputError(f"{path}:{lineno}: empty station_id")
            try:
                ts = parse_ts(row["timestamp"])
            except InputError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            ts = ensure_hour_aligned(ts, f"{path}:{lineno}: timestamp")
            try:
                mm = float(row["rainfall_mm"])
            except (TypeError, ValueError):
                raise InputError(f"{path}:{lineno}: bad rainfall_mm {row['rainfall_mm']!r}") from None
            if not np.isfinite(mm) or mm < 0:
                raise InputError(f"{path}:{lineno}: rainfall_mm must be finite and >= 0")
            per_station.setdefault(sid, []).append((ts, mm))
    if not per_station:
        raise InputError(f"{path}: no rainfall rows")

    out = []
    for sid in sorted(per_station):
        rows = per_station[sid]
        start = rows[0][0]
        values = []
        expected = start
        for ts, mm in rows:
            if ts < expected:
                kind = "duplicate" if ts == expected - HOUR else "out-of-order"
                raise InputError(f"{path}: {kind} timestamp {format_ts(ts)} for station {sid}")
            gap = round((ts - expected).total_seconds() / 3600.0)
            if gap:
                if not impute_missing:
                    raise InputError(
                        f"{path}: station {sid} missing {gap} hour(s) before {format_ts(ts)}; "
                        "re-run with missing-hour imputation to fill with 0 mm"
                    )
                logging.getLogger("debris_ews.rainfall").warning(
                    "station %s: imputing %d missing hour(s) before %s as 0 mm", sid, gap, format_ts(ts)
                )
                values.extend([0.0] * gap)
            values.append(mm)
            expected = ts + HOUR
        out.append(RainSeries(sid, start, np.array(values)))
    return out


def _reference_write_rainfall_csv(path, series):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAINFALL_CSV_COLUMNS)
        for s in sorted(series, key=lambda s: s.station_id):
            for i, mm in enumerate(s.values):
                writer.writerow((s.station_id, format_ts(s.hour_at(i)), repr(float(mm))))


def _read_both(path, caplog, impute_missing=False):
    """Both readers' series (or error text) and warnings, as comparable values."""
    results = []
    for read in (read_rainfall_csv, _reference_read_rainfall_csv):
        caplog.clear()
        try:
            out = [(s.station_id, s.start, s.start.tzinfo, s.values.tobytes()) for s in read(path, impute_missing)]
        except InputError as exc:
            out = f"InputError: {exc}"
        results.append((out, [r.getMessage() for r in caplog.records]))
    return results


HEADER = "station_id,timestamp,rainfall_mm\n"
QUOTED_HEADER = '"station_id",timestamp,rainfall_mm\n'  # same columns through csv.reader


READABLE = {
    "interleaved stations": (
        "B,2019-05-01T03:00:00Z,1.5\nA,2019-05-01T00:00:00Z,0.0\nB,2019-05-01T04:00:00Z,-0.0\n"
        "A,2019-05-01T01:00:00Z,2.25\n", False),
    # +00:00, naive, space-separated, lower-case z, padded, date-only and
    # year-boundary timestamps, mixed with canonical ones
    "other timestamp forms": (
        "A,2019-12-31T22:00:00+00:00,1\nA,2019-12-31 23:00:00,2\nA, 2020-01-01T00:00:00Z ,3\n"
        "A,2020-01-01T01:00:00z,4\nA,2020-01-01T02:00:00,5\nA,2020-01-01T03:00:00Z\x00,6\n"
        "B,2020-02-29,7\nB,2020-02-29T01:00Z,8\n", False),
    # float() spellings that numpy's string cast reads differently; padded ids
    "float spellings": (
        "A,2019-05-01T00:00:00Z, 1_000.5 \n A ,2019-05-01T01:00:00Z,1e-3\nA,2019-05-01T02:00:00Z,+.5\n", False),
    "line ends and blank lines": (
        "A,2019-05-01T00:00:00Z,1.0\r\n\r\nA,2019-05-01T01:00:00Z,2.0\rA,2019-05-01T02:00:00Z,3.0\r\n\n", False),
    "imputed gaps": (
        "B,2019-05-01T00:00:00Z,1\nA,2019-05-01T00:00:00Z,1\nA,2019-05-01T03:00:00Z,2\n"
        "B,2019-05-01T02:00:00Z,3\nA,2019-05-01T04:00:00Z,4\nA,2019-05-01T09:00:00Z,5\n", True),
    "extreme years": (
        "A,1969-12-31T23:00:00Z,1\nA,1970-01-01T00:00:00Z,2\nB,0001-01-01T00:00:00Z,3\nC,9999-12-31T22:00:00Z,4\n",
        False),
    # fields of up to 7 bytes share a uint64 key with their length; a wider column is
    # keyed by a hash of its 8-byte words, and each field is checked byte for byte
    "fields of 7, 8 and 9 bytes": (
        "ABCDEFG,2019-05-01T00:00:00Z,1.00000\nABCDEFGH,2019-05-01T00:00:00Z,1.000000\n"
        "ABCDEFGHI,2019-05-01T00:00:00Z,1.0000000\nABCDEFG,2019-05-01T01:00:00Z,1.0000000\n"
        "ABCDEFGH,2019-05-01T01:00:00Z,1.00000\nABCDEFGHI,2019-05-01T01:00:00Z,12.5e-1\n", False),
    # a trailing NUL makes another station, in a short field and in a long one
    "stations A and A NUL": (
        "A,2019-05-01T00:00:00Z,1\nA\x00,2019-05-01T00:00:00Z,2\nA,2019-05-01T01:00:00Z,3\n"
        "ABCDEFGHIJ\x00,2019-05-01T00:00:00Z,4\nABCDEFGHIJ,2019-05-01T00:00:00Z,5\n", False),
    # multi-byte ids, and Unicode spaces that strip() removes
    "non-ASCII stations": (
        "Zürich,2019-05-01T00:00:00Z,1\n東京,2019-05-01T00:00:00Z,2\n\u3000B\u3000,2019-05-01T00:00:00Z,3\n"
        "B,2019-05-01T01:00:00Z,4\nZürich,2019-05-01T01:00:00Z,5\né,2019-05-01T00:00:00Z,6\n"
        "東京東京東京,2019-05-01T00:00:00Z,7\n", False),
    # in one block, keys as wide as the long id would outgrow the block
    "a long station among short ones": (
        "".join(f"{s},2019-05-01T{h:02d}:00:00Z,{h}\n" for h in range(20) for s in ("A", "A\x00"))
        + "L" * 1000 + ",2019-05-01T00:00:00Z,1\n" + "L" * 999 + ",2019-05-01T00:00:00Z,2\n", False),
    "one non-canonical stamp, in the last block": (
        "".join(f"A,2019-05-01T{h:02d}:00:00Z,{h}\n" for h in range(12)) + "A,2019-05-01T12:00:00+00:00,12\n", False),
    # the blocks around it are split by one reshape, its own by each line's comma count
    "one line with an extra field": (
        "".join(f"A,2019-05-01T{h:02d}:00:00Z,{h}\n" for h in range(6)) + "A,2019-05-01T06:00:00Z,6,x\n"
        + "".join(f"A,2019-05-01T{h:02d}:00:00Z,{h}\n" for h in range(7, 12)), False),
    # after the plain header, the first 64-character block ends between the
    # blank line's "\r" and "\n"
    "crlf, a blank line across a block end": (
        "A,2019-05-01T00:00:00Z,1.000\r\n\r\n"
        + "".join(f"A,2019-05-01T{h:02d}:00:00Z,{h}\r\n" for h in range(1, 6)), False),
}


@pytest.mark.parametrize("case", sorted(READABLE))
@pytest.mark.parametrize("header", [HEADER, QUOTED_HEADER], ids=["plain", "quoted"])
def test_bulk_reader_matches_reference(tmp_path, caplog, case, header, csv_blocks):
    body, impute = READABLE[case]
    path = tmp_path / "rain.csv"
    path.write_bytes((header + body).encode())
    caplog.set_level(logging.WARNING)
    new, ref = _read_both(path, caplog, impute)
    assert new == ref
    assert not isinstance(new[0], str)
    assert bool(new[1]) == impute


def test_bulk_reader_columns_by_name_and_quoted_fields(tmp_path, caplog):
    path = tmp_path / "rain.csv"
    path.write_text(
        "rainfall_mm,note,timestamp,station_id,extra\n"
        '1.5,"a, b",2019-05-01T00:00:00Z,"S,1",x\n'
        '2.5,,2019-05-01T01:00:00Z,"S,1",\n'
        '0.5,"say ""hi""",2019-05-01T00:00:00Z,S2,y\n'
    )
    new, ref = _read_both(path, caplog)
    assert new == ref
    assert [sid for sid, *_ in new[0]] == ["S,1", "S2"]
    path.write_text("extra,rainfall_mm,timestamp,station_id\n0,1.5,2019-05-01T00:00:00Z,A\n1,2.5,2019-05-01T01:00:00Z,A\n")
    new, ref = _read_both(path, caplog)
    assert new == ref and not isinstance(new[0], str)


ROW_ERRORS = {
    "empty station": "A,2019-05-01T00:00:00Z,1\n  ,2019-05-01T01:00:00Z,1\n",
    "bad float": "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T01:00:00Z,1.0mm\n",
    "empty float": "A,2019-05-01T00:00:00Z,\n",
    "nan": "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T01:00:00Z,nan\n",
    "inf": "A,2019-05-01T00:00:00Z,1e999\n",
    "negative": "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T01:00:00Z,-0.1\n",
    "misaligned": "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T01:30:00Z,1\n",
    "misaligned seconds": "A,2019-05-01T01:00:01Z,1\n",
    "non-utc": "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T01:00:00+02:00,1\n",
    "year 0000": "A,0000-05-01T00:00:00Z,1\n",
    "month 13": "A,2019-13-01T00:00:00Z,1\n",
    "feb 29 non-leap": "A,2019-02-28T23:00:00Z,1\nA,2019-02-29T00:00:00Z,1\n",
    "feb 29 of 1900": "A,1900-02-29T00:00:00Z,1\n",
    "hour 24": "A,2019-05-01T24:00:00Z,1\n",
    "garbage timestamp": "A,2019-05-01T0x:00:00Z,1\n",
    "long timestamp": "A,2019-05-01T00:00:00Z0,1\n",
    "empty timestamp": "A,,1\n",
    # the first failing row wins, and within it the first failing check
    "earlier row wins": "A,2019-05-01T00:00:00Z,-1\n,2019-05-01T01:00:00Z,1\n",
    "station before timestamp": "A,2019-05-01T00:00:00Z,1\n,bad,bad\n",
    "timestamp before value": "A,2019-05-01T00:30:00Z,x\n",
    "duplicate": "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T01:00:00Z,1\nA,2019-05-01T01:00:00Z,2\n",
    "out-of-order": "A,2019-05-01T03:00:00Z,1\nA,2019-05-01T01:00:00Z,1\n",
    "gap": "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T05:00:00Z,1\n",
    "station order decides": "B,2019-05-01T00:00:00Z,1\nB,2019-05-01T00:00:00Z,1\n"
                             "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T02:00:00Z,1\n",
    "no rows": "\n\n",
    "empty first field": "A,2019-05-01T00:00:00Z,1\n,2019-05-01T01:00:00Z,1\n",
    "empty last field": "".join(f"A,2019-05-01T{h:02d}:00:00Z,{h}\n" for h in range(4)) + "A,2019-05-01T04:00:00Z,\n",
    # a short line reads "" in the fields it lacks; its blank station fails first
    "a short line among whole ones": "".join(f"A,2019-05-01T{h:02d}:00:00Z,{h}\n" for h in range(4))
                                     + " ,2019-05-01T04:00:00Z\nA,2019-05-01T05:00:00Z,5\n",
    "late row": "".join(f"A,2019-05-01T{h:02d}:00:00Z,{h}\n" for h in range(12)) + "\nB,2019-05-01T00:00:00Z,-1\n",
}


@pytest.mark.parametrize("case", sorted(ROW_ERRORS))
@pytest.mark.parametrize("header", [HEADER, QUOTED_HEADER], ids=["plain", "quoted"])
def test_bulk_reader_errors_match_reference(tmp_path, caplog, case, header, csv_blocks):
    path = tmp_path / "rain.csv"
    path.write_bytes((header + ROW_ERRORS[case]).encode())
    new, ref = _read_both(path, caplog)
    assert new == ref
    assert new[0].startswith("InputError: ")


@pytest.mark.parametrize("case", ["gap", "out-of-order"])
def test_bulk_reader_imputation_errors_match_reference(tmp_path, caplog, case):
    path = tmp_path / "rain.csv"
    path.write_text(HEADER + "A,2019-05-01T00:00:00Z,1\nA,2019-05-01T03:00:00Z,1\n" + ROW_ERRORS[case])
    caplog.set_level(logging.WARNING)
    new, ref = _read_both(path, caplog, impute_missing=True)
    assert new == ref


@pytest.mark.parametrize("text", [
    "station_id,rainfall_mm\nA,1\n",
    "",
    "\nstation_id,timestamp,rainfall_mm\nA,2019-05-01T00:00:00Z,1\n",
    HEADER,
    "\ufeff" + HEADER + "A,2019-05-01T00:00:00Z,1\n",
])
def test_bulk_reader_header_errors_match_reference(tmp_path, caplog, text):
    path = tmp_path / "rain.csv"
    path.write_bytes(text.encode())
    new, ref = _read_both(path, caplog)
    assert new == ref
    assert new[0].startswith("InputError: ")


def test_bulk_reader_short_row_is_an_input_error(tmp_path):
    # the per-row reader crashed with AttributeError on a row without a timestamp field
    path = tmp_path / "rain.csv"
    path.write_text(HEADER + "A,2019-05-01T00:00:00Z,1\nA\n")
    with pytest.raises(InputError, match="invalid ISO-8601 timestamp: ''"):
        read_rainfall_csv(path)


def test_line_ends_at_block_ends_match_reference(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(_common, "CSV_BLOCK_CHARS", 64)
    # a "\r\n" cut by the first block end, then a lone "\r" that ends the second block
    text = (HEADER + "A,2019-05-01T00:00:00Z,1.00000\r\nA,2019-05-01T01:00:00Z,2." + "0" * 37 + "\r"
            + "A,2019-05-01T02:00:00Z,3\rA,2019-05-01T03:00:00Z,4\n")
    assert text[63:65] == "\r\n" and text[127:129] == "\rA"
    path = tmp_path / "rain.csv"
    path.write_bytes(text.encode())
    new, ref = _read_both(path, caplog)
    assert new == ref
    assert [values for *_, values in new[0]] == [np.array([1.0, 2.0, 3.0, 4.0]).tobytes()]


def test_multibyte_characters_cut_by_block_ends_match_reference(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(_common, "CSV_BLOCK_CHARS", 64)
    text = HEADER + "".join(f"東京{'é' * (h // 4)},2019-05-01T{h:02d}:00:00Z,{h}\n" for h in range(12))
    data = text.encode()
    assert any(data[i] >> 6 == 0b10 for i in range(64, len(data), 64))  # a block starts inside a character
    path = tmp_path / "rain.csv"
    path.write_bytes(data)
    new, ref = _read_both(path, caplog)
    assert new == ref and len(new[0]) == 3


@pytest.mark.parametrize("data, line, reason", [
    (b"A,2019-05-01T00:00:00Z,1\r\n\r\nA\xe9,2019-05-01T01:00:00Z,1\n", 4, "0xe9 (invalid continuation byte)"),
    (b"A,2019-05-01T00:00:00Z,1\rA,2019-05-01T01:00:00Z,1\xff\n", 3, "0xff (invalid start byte)"),
    (b"A,2019-05-01T00:00:00Z,1\n\xe6\x9d", 3, "0xe6 (unexpected end of data)"),
    (b"\xed\xa0\x80,2019-05-01T00:00:00Z,1\n", 2, "0xed (invalid continuation byte)"),  # a UTF-16 surrogate
], ids=["latin-1 e-acute", "0xff", "cut at the end", "surrogate"])
@pytest.mark.parametrize("header", [HEADER, QUOTED_HEADER], ids=["plain", "quoted"])
def test_a_csv_that_is_not_utf8_is_an_input_error_naming_its_line(tmp_path, capsys, csv_blocks, header, data, line,
                                                                   reason):
    # the reader decoded with the locale's codec, and the UnicodeDecodeError was an internal error (exit 2)
    path = tmp_path / "rain.csv"
    path.write_bytes(header.encode() + data)
    message = f"{path}:{line}: not UTF-8: byte {reason}"
    with pytest.raises(InputError) as err:
        read_rainfall_csv(path)
    assert str(err.value) == message
    assert main(["ear", "--rainfall", str(path), "--out", str(tmp_path / "ear")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("stamp, message", [
    ("2019-13-01T00:00:00Z", "invalid ISO-8601 timestamp: '2019-13-01T00:00:00Z'"),
    ("2019-05-01T01:00:00+02:00", "timestamp must be UTC: '2019-05-01T01:00:00+02:00'"),
], ids=["does not parse", "not UTC"])
def test_timestamp_errors_name_the_line(tmp_path, csv_blocks, stamp, message):
    # parse_ts raised these without the file and line
    path = tmp_path / "rain.csv"
    path.write_text(HEADER + f"A,2019-05-01T00:00:00Z,1\nA,{stamp},1\n")
    with pytest.raises(InputError) as err:
        read_rainfall_csv(path)
    assert str(err.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("text, line", [
    (HEADER + "\n\nA,2019-05-01T00:00:00Z,1\r\n\r\n\rA,2019-05-01T01:00:00Z,x\n", 7),
    # a quoted field holding a line break, blank lines, and a bad row spanning two lines
    (QUOTED_HEADER + '\n"A\nB",2019-05-01T00:00:00Z,1\n\n"A\nB",2019-05-01T01:00:00Z,"\nx"\n', 6),
], ids=["plain", "quoted"])
def test_error_lines_count_blank_lines(tmp_path, csv_blocks, text, line):
    # the line numbers counted rows, so blank lines moved them up
    path = tmp_path / "rain.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InputError) as err:
        read_rainfall_csv(path)
    assert str(err.value).startswith(f"{path}:{line}: bad rainfall_mm")


def test_bulk_writer_matches_reference(tmp_path, caplog, csv_blocks):
    rng = np.random.default_rng(5)
    stations = [
        series(random_rain(rng, 300) * rng.choice([1.0, 1 / 3, 1e-7], size=300), "S,2"),
        series(np.r_[0.0, -0.0, 1e300, 5e-324, 0.1 + 0.2], "A", start=datetime(1969, 12, 31, 22, tzinfo=timezone.utc)),
        series(random_rain(rng, 50), 'q"x', start=datetime(2020, 2, 28, 20, tzinfo=timezone.utc)),
        series([1.0], "Z", start=datetime(9999, 12, 31, 22, tzinfo=timezone.utc)),
        # hours that overlap another station's, within them and past their end
        series(random_rain(rng, 20), "B", start=T0 + 100 * HOUR),
        series(random_rain(rng, 60), "C", start=T0 + 280 * HOUR),
    ]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_rainfall_csv(new, stations)
    _reference_write_rainfall_csv(ref, stations)
    assert new.read_bytes() == ref.read_bytes()
    assert _read_both(new, caplog)[0][0] == [
        (s.station_id, s.start, timezone.utc, s.values.tobytes()) for s in sorted(stations, key=lambda s: s.station_id)
    ]


def _reference_write_ear_csv(path, series, alpha):
    """One row at a time: each event hour's index, EAR and antecedent from ear_trace."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EAR_CSV_COLUMNS)
        for s in sorted(series, key=lambda s: s.station_id):
            event, ear, ante = [""] * len(s), [0.0] * len(s), [""] * len(s)
            for i, ev in enumerate(segment_events(s)):
                tr = ear_trace(s, ev, alpha, DailyWindowMode.CALENDAR_DAY)
                for k, t in enumerate(range(ev.start_idx, ev.end_idx + 1)):
                    event[t], ear[t], ante[t] = str(i), float(tr.ear[k]), repr(float(tr.antecedent_mm))
            for t in range(len(s)):
                writer.writerow((s.station_id, format_ts(s.hour_at(t)), repr(float(s.values[t])), event[t],
                                 repr(ear[t]), ante[t]))


def test_ear_writer_matches_reference(tmp_path, csv_blocks):
    # coded event and antecedent columns: a station with more than ten events,
    # one with none, and one whose only event runs to the end of its record
    rng = np.random.default_rng(6)
    stations = [
        series(random_rain(rng, 600), "S,2"),
        series(np.zeros(40), "A", start=T0 + 5 * HOUR),
        series(np.r_[np.zeros(30), 9.0, 0.0, 12.0], "B", start=T0 + 100 * HOUR),
        series(random_rain(rng, 200, wet_prob=0.1), "C"),
    ]
    assert len(segment_events(stations[0])) > 10
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_ear_csv(new, stations, alpha=0.9)
    _reference_write_ear_csv(ref, stations, 0.9)
    assert new.read_bytes() == ref.read_bytes()


def test_csv_round_trip_at_the_ends_of_the_calendar(tmp_path):
    # the per-row writer wrote year 5 as "5-01-01T00:00:00Z", which no reader
    # takes, and the per-row reader overflowed past the last hour of 9999
    path = tmp_path / "rain.csv"
    stations = [series([1.0, 2.0], "A", start=datetime(5, 1, 1, tzinfo=timezone.utc)),
                series([3.0, 4.0], "B", start=datetime(9999, 12, 31, 22, tzinfo=timezone.utc))]
    write_rainfall_csv(path, stations)
    assert path.read_text().splitlines()[1] == "A,0005-01-01T00:00:00Z,1.0"
    back = read_rainfall_csv(path)
    assert [(s.station_id, s.start, s.values.tolist()) for s in back] == [
        (s.station_id, s.start, s.values.tolist()) for s in stations
    ]
