import numpy as np
import pytest

from debris_ews import (
    InputError,
    SynthConfig,
    WindowKind,
    build_corpus_windows,
    generate_corpus,
)
from debris_ews.rainfall import write_rainfall_csv
from debris_ews.synth import (
    REFRACTORY_HOURS, SOIL_DECAY_PER_DAY, SOIL_MEMORY_DAYS, hazard_curve, soil_state, station_rainfall,
    storm_arrivals,
)

SMALL = SynthConfig(stations=4, weeks_per_station=10, seed=123)


def test_deterministic_corpus_and_csv_bytes(tmp_path):
    a = generate_corpus(SMALL)
    b = generate_corpus(SMALL)
    assert a.debris_events == b.debris_events
    assert a.thresholds.thresholds == b.thresholds.thresholds
    for s1, s2 in zip(a.series, b.series):
        np.testing.assert_array_equal(s1.values, s2.values)
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    write_rainfall_csv(p1, a.series)
    write_rainfall_csv(p2, b.series)
    assert p1.read_bytes() == p2.read_bytes()


def test_soil_state_decay_weights():
    rain = np.zeros(200)
    rain[10] = 1.0
    assert (SOIL_DECAY_PER_DAY, SOIL_MEMORY_DAYS) == (0.7, 7)
    s = soil_state(rain)
    assert s[10] == 0.0  # current hour excluded
    assert s[11] == pytest.approx(0.7)  # lag 1 h -> day 1 weight
    assert s[34] == pytest.approx(0.7)  # lag 24 h -> still day 1
    assert s[35] == pytest.approx(0.49)  # lag 25 h -> day 2
    assert s[10 + 168] == pytest.approx(0.7**7)  # last remembered hour
    assert s[10 + 169] == 0.0  # truncated at 7 days


def test_hazard_monotone_in_rainfall():
    rng = np.random.default_rng(1)
    cfg = SMALL
    rain = station_rainfall(rng, cfg)
    h1 = hazard_curve(rain, cfg)
    h2 = hazard_curve(rain * 1.25, cfg)
    assert (h2 >= h1 - 1e-15).all()
    assert (h1 > 0).all() and (h1 < 1).all()


def test_storm_interarrival_rate():
    rng = np.random.default_rng(2)
    starts = storm_arrivals(rng, 600 * 168, storms_per_week=2.0)
    assert starts.size > 1000
    gaps = np.diff(starts)
    assert gaps.mean() == pytest.approx(168 / 2.0, rel=0.1)


def test_refractory_blocks_back_to_back_flows():
    corpus = generate_corpus(SMALL)
    for sid, flows in corpus.debris_events.items():
        for a, b in zip(flows, flows[1:]):
            assert (b - a).total_seconds() / 3600.0 > REFRACTORY_HOURS


def test_thresholds_are_official_grid():
    corpus = generate_corpus(SMALL)
    for thr in corpus.thresholds.thresholds.values():
        assert 200.0 <= thr <= 600.0 and thr % 50.0 == 0.0


def test_hard_trigger_limit_flows_only_above_threshold():
    # near-step hazard with no recent-rain term: flows happen exactly where the
    # soil state exceeds the threshold, so a soil-threshold alert has recall 1
    cfg = SynthConfig(
        stations=6,
        weeks_per_station=10,
        trigger_steepness=50.0,
        trigger_threshold_mm=150.0,
        recent_rain_gain=1e-12,
        seed=9,
    )
    corpus = generate_corpus(cfg)
    checked = 0
    for s in corpus.series:
        soil = soil_state(s.values)
        alerts = soil > cfg.trigger_threshold_mm
        for ts in corpus.debris_events[s.station_id]:
            assert alerts[s.index_of(ts)], "flow fired below the soil threshold"
            checked += 1
    assert checked > 0


def test_zero_flow_config_raises():
    cfg = SynthConfig(stations=1, weeks_per_station=2, trigger_threshold_mm=5000.0, recent_rain_gain=1e-9, seed=1)
    with pytest.raises(InputError, match="no debris flows"):
        generate_corpus(cfg)


def test_default_corpus_window_statistics():
    corpus = generate_corpus(SynthConfig())
    windows = build_corpus_windows(corpus.series, corpus.debris_events)
    pos = sum(1 for w in windows if w.kind is WindowKind.POSITIVE)
    neg = len(windows) - pos
    assert 450 <= len(windows) <= 750
    ratio = neg / pos
    assert 3.0 <= ratio <= 8.0
    mean_hours = np.mean([len(w) for w in windows])
    assert 150 <= mean_hours <= 300


def test_config_validation():
    with pytest.raises(InputError):
        SynthConfig(stations=0)
    with pytest.raises(InputError):
        SynthConfig(recent_rain_gain=-0.1)


@pytest.mark.parametrize("field", ["storms_per_week", "trigger_steepness", "trigger_threshold_mm",
                                   "recent_rain_gain"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_a_float_setting_that_is_not_finite(field, value):
    with pytest.raises(InputError, match=f"^{field} must be a finite number, got {value!r}$"):
        SynthConfig(**{field: value})


def test_config_rejects_more_than_one_storm_an_hour():
    assert SynthConfig(storms_per_week=168.0).storms_per_week == 168.0
    with pytest.raises(InputError, match=r"^storms_per_week must be <= 168 \(one storm an hour\), got 1000000.0$"):
        SynthConfig(storms_per_week=1e6)
