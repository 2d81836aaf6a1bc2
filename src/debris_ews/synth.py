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
from dataclasses import dataclass, field
from datetime import datetime, timezone
import numpy as np

from ._common import InputError, derived_rng
from .baselines import OFFICIAL_MAX_MM, OFFICIAL_MIN_MM, OFFICIAL_STEP_MM, ThresholdTable
from .rainfall import DailyWindowMode, RainSeries, ear_series

log = logging.getLogger(__name__)

HOURS_PER_WEEK = 168


@dataclass(frozen=True)
class SynthConfig:
    stations: int = 42
    weeks_per_station: int = 42
    storms_per_week: float = 0.75
    storm_duration_shape: float = 2.0
    storm_duration_scale_h: float = 7.0
    intensity_shape: float = 2.0
    intensity_scale_mm: float = 6.0
    noise_rho: float = 0.6
    noise_sigma: float = 0.45
    soil_decay_per_day: float = 0.7
    soil_memory_days: int = 7
    trigger_steepness: float = 0.035
    trigger_threshold_mm: float = 380.0
    recent_rain_gain: float = 0.16
    refractory_hours: int = 96
    seed: int = 42
    start: datetime = field(default_factory=lambda: datetime(2019, 5, 1, tzinfo=timezone.utc))

    def __post_init__(self) -> None:
        positive = {
            "stations": self.stations,
            "weeks_per_station": self.weeks_per_station,
            "storms_per_week": self.storms_per_week,
            "storm_duration_shape": self.storm_duration_shape,
            "storm_duration_scale_h": self.storm_duration_scale_h,
            "intensity_shape": self.intensity_shape,
            "intensity_scale_mm": self.intensity_scale_mm,
            "noise_sigma": self.noise_sigma,
            "soil_decay_per_day": self.soil_decay_per_day,
            "soil_memory_days": self.soil_memory_days,
            "trigger_steepness": self.trigger_steepness,
            "trigger_threshold_mm": self.trigger_threshold_mm,
            "refractory_hours": self.refractory_hours,
        }
        for name, value in positive.items():
            if value <= 0:
                raise InputError(f"{name} must be > 0, got {value!r}")
        if not 0 <= self.noise_rho < 1:
            raise InputError("noise_rho must be in [0, 1)")
        if self.recent_rain_gain < 0:
            raise InputError("recent_rain_gain must be >= 0")

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


def _storm_profile(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    duration = max(2, int(round(rng.gamma(cfg.storm_duration_shape, cfg.storm_duration_scale_h))))
    peak = rng.gamma(cfg.intensity_shape, cfg.intensity_scale_mm)
    shape = np.sin(np.pi * (np.arange(duration) + 0.5) / duration)
    noise = np.empty(duration)
    eps = rng.normal(0.0, cfg.noise_sigma, size=duration)
    noise[0] = eps[0]
    for k in range(1, duration):
        noise[k] = cfg.noise_rho * noise[k - 1] + eps[k]
    return peak * shape * np.exp(noise)


def station_rainfall(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    n = cfg.hours_per_station
    rain = np.zeros(n)
    for start in storm_arrivals(rng, n, cfg.storms_per_week):
        profile = _storm_profile(rng, cfg)
        end = min(n, start + profile.size)
        rain[start:end] += profile[: end - start]
    return np.round(rain, 3)  # gauge-like 0.001 mm resolution keeps CSVs exact


def soil_state(rain: np.ndarray, decay_per_day: float = 0.7, memory_days: int = 7) -> np.ndarray:
    """Latent wetness: rain at lag i (hours, i >= 1) weighted by decay**ceil(i/24)."""
    lags = np.arange(1, memory_days * 24 + 1)
    kernel = np.power(decay_per_day, np.ceil(lags / 24.0))
    n = rain.size
    out = np.zeros(n)
    for i, k in zip(lags, kernel):
        out[i:] += k * rain[: n - i]
    return out


def hazard_curve(rain: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    """Per-hour debris-flow probability; monotone in every rainfall value."""
    from .linear import sigmoid

    s = soil_state(rain, cfg.soil_decay_per_day, cfg.soil_memory_days)
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
        series = RainSeries(sid, cfg.start, rain)
        flows = _sample_flows(rng, hazard_curve(rain, cfg), cfg.refractory_hours)
        series_list.append(series)
        events[sid] = [series.hour_at(t) for t in flows]
        thresholds[sid] = _station_threshold(series, rng)
    corpus = SynthCorpus(
        tuple(series_list), events, ThresholdTable(thresholds, year=cfg.start.year)
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
