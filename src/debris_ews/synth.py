"""Seeded synthetic rainfall corpus with a planted debris-flow trigger.

Rainfall is a superposition of Poisson-arriving storms with half-sine
intensity profiles and multiplicative AR(1) noise. A latent soil state sums
the previous seven days of hourly rain, hour lag i weighted by
decay**ceil(i/24); the hourly debris-flow hazard is
sigmoid(steepness * (soil - threshold) + recent_gain * rain). The recent-rain
interaction is invisible to any pure EAR threshold rule, which keeps the
threshold baselines honest but beatable. After a flow, further flows at the
station are suppressed for a refractory period so each main event carries at
most one flow.

Everything derives from per-station seed streams: the same config is
byte-identical on every run.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
import numpy as np

from ._common import InputError, derived_rng
from .baselines import OFFICIAL_MAX_MM, OFFICIAL_MIN_MM, OFFICIAL_STEP_MM, ThresholdTable
from .rainfall import DailyWindowMode, RainSeries, ear_series

log = logging.getLogger(__name__)

HOURS_PER_WEEK = 168
START = datetime(2019, 5, 1, tzinfo=timezone.utc)  # first hour of every station's record
STORM_DURATION_SHAPE, STORM_DURATION_SCALE_H = 2.0, 7.0  # gamma storm length, hours
INTENSITY_SHAPE, INTENSITY_SCALE_MM = 2.0, 6.0  # gamma storm peak, mm/h
NOISE_RHO, NOISE_SIGMA = 0.6, 0.45  # AR(1) log-noise on the storm profile
SOIL_DECAY_PER_DAY = 0.7
SOIL_MEMORY_DAYS = 7
REFRACTORY_HOURS = 96  # no second flow at a station this soon after one


@dataclass(frozen=True)
class SynthConfig:
    stations: int = 42
    weeks_per_station: int = 42
    storms_per_week: float = 0.75
    trigger_steepness: float = 0.035
    trigger_threshold_mm: float = 380.0
    recent_rain_gain: float = 0.16
    seed: int = 42

    def __post_init__(self) -> None:
        positive = {
            "stations": self.stations,
            "weeks_per_station": self.weeks_per_station,
            "storms_per_week": self.storms_per_week,
            "trigger_steepness": self.trigger_steepness,
            "trigger_threshold_mm": self.trigger_threshold_mm,
        }
        for name, value in positive.items():
            if value <= 0:
                raise InputError(f"{name} must be > 0, got {value!r}")
        for name in ("storms_per_week", "trigger_steepness", "trigger_threshold_mm", "recent_rain_gain"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.recent_rain_gain < 0:
            raise InputError("recent_rain_gain must be >= 0")
        # storm_arrivals draws one gap a storm: at most one storm an hour keeps its loop as long as the record
        if self.storms_per_week > HOURS_PER_WEEK:
            raise InputError(f"storms_per_week must be <= {HOURS_PER_WEEK} (one storm an hour), "
                             f"got {self.storms_per_week!r}")

    @property
    def hours_per_station(self) -> int:
        return self.weeks_per_station * HOURS_PER_WEEK


@dataclass(frozen=True)
class SynthCorpus:
    series: tuple[RainSeries, ...]
    debris_events: dict[str, list[datetime]]
    thresholds: ThresholdTable

    @property
    def n_flows(self) -> int:
        return sum(len(v) for v in self.debris_events.values())


def storm_arrivals(rng: np.random.Generator, n_hours: int, storms_per_week: float) -> np.ndarray:
    """Storm start hours from an exponential inter-arrival process."""
    mean_gap = HOURS_PER_WEEK / storms_per_week
    starts = []
    t = rng.exponential(mean_gap)
    while t < n_hours:
        starts.append(int(t))
        t += rng.exponential(mean_gap)
    return np.asarray(starts, dtype=np.int64)


def _storm_profile(rng: np.random.Generator) -> np.ndarray:
    duration = max(2, int(round(rng.gamma(STORM_DURATION_SHAPE, STORM_DURATION_SCALE_H))))
    peak = rng.gamma(INTENSITY_SHAPE, INTENSITY_SCALE_MM)
    shape = np.sin(np.pi * (np.arange(duration) + 0.5) / duration)
    noise = np.empty(duration)
    eps = rng.normal(0.0, NOISE_SIGMA, size=duration)
    noise[0] = eps[0]
    for k in range(1, duration):
        noise[k] = NOISE_RHO * noise[k - 1] + eps[k]
    return peak * shape * np.exp(noise)


def station_rainfall(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    n = cfg.hours_per_station
    rain = np.zeros(n)
    for start in storm_arrivals(rng, n, cfg.storms_per_week):
        profile = _storm_profile(rng)
        end = min(n, start + profile.size)
        rain[start:end] += profile[: end - start]
    return np.round(rain, 3)  # gauge-like 0.001 mm resolution keeps CSVs exact


def soil_state(rain: np.ndarray) -> np.ndarray:
    """Latent wetness: rain at lag i (hours, 1 <= i <= 24 * SOIL_MEMORY_DAYS) weighted
    by SOIL_DECAY_PER_DAY**ceil(i/24)."""
    lags = np.arange(1, SOIL_MEMORY_DAYS * 24 + 1)
    kernel = np.power(SOIL_DECAY_PER_DAY, np.ceil(lags / 24.0))
    n = rain.size
    out = np.zeros(n)
    for i, k in zip(lags, kernel):
        out[i:] += k * rain[: n - i]
    return out


def hazard_curve(rain: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    """Per-hour debris-flow probability; monotone in every rainfall value."""
    from .linear import sigmoid

    s = soil_state(rain)
    z = cfg.trigger_steepness * (s - cfg.trigger_threshold_mm) + cfg.recent_rain_gain * rain
    return sigmoid(z)


def _sample_flows(rng: np.random.Generator, hazard: np.ndarray, refractory: int) -> list[int]:
    draws = rng.random(hazard.size)
    flows: list[int] = []
    blocked_until = -1
    for t in np.flatnonzero(draws < hazard):
        if t > blocked_until:
            flows.append(int(t))
            blocked_until = t + refractory
    return flows


def _station_threshold(series: RainSeries, rng: np.random.Generator) -> float:
    """Official-style threshold near the station's 75th percentile event-max EAR,
    snapped to the 200..600 mm / 50 mm grid with one step of jitter."""
    ear, events = ear_series(series, mode=DailyWindowMode.CALENDAR_DAY)
    maxima = [float(ear[ev.end_idx]) for ev in events]
    base = np.quantile(maxima, 0.75) if maxima else 300.0
    base += float(rng.integers(-1, 2)) * OFFICIAL_STEP_MM
    snapped = OFFICIAL_STEP_MM * round(base / OFFICIAL_STEP_MM)
    return float(min(OFFICIAL_MAX_MM, max(OFFICIAL_MIN_MM, snapped)))


def generate_corpus(cfg: SynthConfig = SynthConfig()) -> SynthCorpus:
    """Rainfall series, debris-flow timestamps, and an official-style threshold
    table; fully deterministic given cfg.seed."""
    series_list: list[RainSeries] = []
    events: dict[str, list[datetime]] = {}
    thresholds: dict[str, float] = {}
    for s in range(cfg.stations):
        sid = f"S{s:03d}"
        rng = derived_rng(cfg.seed, 9, s)
        rain = station_rainfall(rng, cfg)
        series = RainSeries(sid, START, rain)
        flows = _sample_flows(rng, hazard_curve(rain, cfg), REFRACTORY_HOURS)
        series_list.append(series)
        events[sid] = [series.hour_at(t) for t in flows]
        thresholds[sid] = _station_threshold(series, rng)
    corpus = SynthCorpus(
        tuple(series_list), events, ThresholdTable(thresholds, year=START.year)
    )
    if corpus.n_flows == 0:
        raise InputError(
            "config produced no debris flows; raise storms_per_week or recent_rain_gain, "
            "or lower trigger_threshold_mm"
        )
    log.info(
        "synthetic corpus: %d stations, %d weeks each, %d debris flows",
        cfg.stations, cfg.weeks_per_station, corpus.n_flows,
    )
    return corpus
