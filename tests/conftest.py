import json
from datetime import datetime, timezone

import numpy as np
import pytest

import debris_ews._common as _common
from debris_ews import RainSeries
from debris_ews.cli import main

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


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Paths of the seed-7 golden corpus, its manifest, a 2-tree model, its scores and a 1-cell grid."""
    root = tmp_path_factory.mktemp("mutations")
    corpus, data = root / "corpus", root / "data"
    paths = {
        "rainfall": corpus / "rainfall.csv", "events": corpus / "debris_events.csv",
        "thresholds": corpus / "thresholds.csv", "manifest": data / "manifest.json",
        "model": root / "model" / "model.json", "scores": root / "eval" / "scores.csv", "grid": root / "grid.json",
    }
    paths["grid"].write_text('[{"n_trees": 2, "max_depth": 2, "min_samples_leaf": 1}]')
    corpus_args = ["--rainfall", str(paths["rainfall"]), "--manifest", str(paths["manifest"])]
    for argv in (
        ["synth", "--seed", "7", "--stations", "6", "--weeks", "4", "--out", str(corpus)],
        ["build-dataset", "--rainfall", str(paths["rainfall"]), "--events", str(paths["events"]),
         "--out", str(data), "--seed", "7"],
        ["train", *corpus_args, "--out", str(paths["model"].parent), "--seed", "7", "--trees", "2"],
        ["eval", "--model", str(paths["model"]), *corpus_args, "--out", str(paths["scores"].parent), "--split", "all"],
    ):
        assert main(argv) == 0, argv
    return paths


def cli_argv(command: str, p: dict, out) -> list[str]:
    """The argv of one subcommand on the input paths p (as golden gives them), writing to out."""
    corpus = ["--rainfall", str(p["rainfall"]), "--manifest", str(p["manifest"])]
    return {
        "segment": ["segment", "--rainfall", str(p["rainfall"])],
        "ear": ["ear", "--rainfall", str(p["rainfall"])],
        "build-dataset": ["build-dataset", "--rainfall", str(p["rainfall"]), "--events", str(p["events"]), "--seed", "7"],
        "train": ["train", *corpus, "--seed", "7", "--trees", "2"],
        "cv": ["cv", *corpus, "--seed", "7", "--grid", str(p["grid"]), "--k", "3", "--hours", "6"],
        "eval": ["eval", "--model", str(p["model"]), *corpus],
        "sweep-baselines": ["sweep-baselines", *corpus, "--thresholds", str(p["thresholds"])],
        "bootstrap-ci": ["bootstrap-ci", "--scores", str(p["scores"]), "--seed", "7", "--reps", "5"],
        "operating-points": ["operating-points", "--scores", str(p["scores"])],
        "event-capture": ["event-capture", "--scores", str(p["scores"]), *corpus],
        "explain": ["explain", "--model", str(p["model"]), *corpus, "--seed", "7", "--max-rows", "4",
                    "--background-rows", "4"],
    }[command] + ["--out", str(out)]


def strict_json(text: str):
    """text parsed as RFC 8259 JSON, which has no NaN or Infinity: either raises ValueError."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)
