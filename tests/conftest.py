from datetime import datetime, timezone

import numpy as np
import pytest

import debris_ews._common as _common
from debris_ews import RainSeries

T0 = datetime(2019, 5, 1, tzinfo=timezone.utc)


def series(values, station_id="S000", start=T0):
    return RainSeries(station_id, start, np.asarray(values, dtype=float))


@pytest.fixture
def mk_series():
    return series


def random_rain(rng, n, wet_prob=0.3, scale=6.0):
    """Spiky rainfall with plenty of dry spells and threshold crossings."""
    wet = rng.random(n) < wet_prob
    return np.where(wet, rng.gamma(1.5, scale, size=n), 0.0)


@pytest.fixture(params=[None, 64], ids=["one block", "small blocks"])
def csv_blocks(request, monkeypatch):
    """CSV files read in one block, or a few rows a block so rows cross block ends."""
    if request.param:
        monkeypatch.setattr(_common, "CSV_BLOCK_CHARS", request.param)
