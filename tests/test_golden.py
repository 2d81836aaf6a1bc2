"""Byte fingerprints of the pipeline on a small synthetic corpus.

A refactor of the CSV, dataset, model, baseline, bootstrap or attribution
code proves it kept every byte by passing these tests, in seconds. The corpus
comes from numpy's generators, so the digests are keyed by numpy major.minor;
other versions skip.
"""
import hashlib

import numpy as np
import pytest

from debris_ews.cli import main

# numpy major.minor -> sha256 of (rainfall.csv, manifest.json)
GOLDEN = {
    "2.4": (
        "32c415089f0ed597f6858cf1d11bfd2486fa94723af5b117223864d51b88d8f8",
        "7a42782ad5ba532009f230bdce032717b64a6155c9e72bbbb42535f0965360a9",
    ),
}

# numpy major.minor -> {artifact: sha256} of the pipeline run on that corpus
GOLDEN_PIPELINE = {
    "2.4": {
        "model/model.json": "bfca04f07d34562276e4585cc66398fffdbf9294b5362a68d0cd830db4c4615b",
        "eval/scores.csv": "f43aa7b0066ce71dd44873f49989ed907bab92815bbd495f6a75ea695748e1a3",
        "baselines/etm_scores.csv": "9a60ef1b336afe1cf19ff47cde97d0a6002e7d461e1ab6dfc03c052b4f71a023",
        "baselines/hm_scores.csv": "2eda2231203bb95da63e1de90427774ea09c7deaa33101f2003a77a7fd2a0666",
        "baselines/baselines.json": "8d55b19fd42774e2d3ea64f71f0e703169dd4845e7809a65589936d5e55de6bc",
        "baselines/hm_marked.csv": "9ed39b7e7394aa17b41bcf04d9d878a4926a95b1d6629f215da47f0b82408818",
        "ci/ci.json": "75da0b14c95259e08e33e6de53a4b0d3617afdde2895127b32719ad6f5baddbc",
        "capture/event_capture.csv": "5fc7a0b09fa5973f7f14aa97d674c4914fad9154f2397edf47c50f23f6e2d1c5",
        "explain/attributions.csv": "3b8bcb86229e91d31612cc9f923758d10073daaae21a40b51e90044d3dda17cf",
    },
}


def _numpy_version(table):
    version = ".".join(np.__version__.split(".")[:2])
    if version not in table:
        pytest.skip(f"no fingerprints recorded for numpy {version}")
    return version


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(corpus dir, dataset dir) of the seed-7, 6-station x 4-week corpus."""
    root = tmp_path_factory.mktemp("golden")
    corpus, data = root / "corpus", root / "data"
    assert main(["synth", "--seed", "7", "--stations", "6", "--weeks", "4", "--out", str(corpus)]) == 0
    assert main([
        "build-dataset", "--rainfall", str(corpus / "rainfall.csv"), "--events", str(corpus / "debris_events.csv"),
        "--out", str(data), "--seed", "7",
    ]) == 0
    return corpus, data


def test_synth_and_build_dataset_fingerprints(corpus):
    version = _numpy_version(GOLDEN)
    corpus, data = corpus
    assert (_sha256(corpus / "rainfall.csv"), _sha256(data / "manifest.json")) == GOLDEN[version]


def test_pipeline_fingerprints(corpus, tmp_path):
    """A 3-tree forest through eval, both baselines, a 40-rep bootstrap, event
    capture and 12 explained rows."""
    version = _numpy_version(GOLDEN_PIPELINE)
    corpus, data = corpus
    inputs = ["--rainfall", str(corpus / "rainfall.csv"), "--manifest", str(data / "manifest.json")]
    model, scores = tmp_path / "model/model.json", tmp_path / "eval/scores.csv"
    for argv in (
        ["train", *inputs, "--out", str(model.parent), "--seed", "7", "--trees", "3"],
        ["eval", "--model", str(model), *inputs, "--out", str(scores.parent), "--split", "all"],
        ["sweep-baselines", *inputs, "--thresholds", str(corpus / "thresholds.csv"),
         "--out", str(tmp_path / "baselines"), "--split", "all"],
        ["bootstrap-ci", "--scores", str(scores), "--out", str(tmp_path / "ci"), "--seed", "7", "--reps", "40"],
        ["event-capture", "--scores", str(scores), *inputs, "--out", str(tmp_path / "capture")],
        ["explain", "--model", str(model), *inputs, "--out", str(tmp_path / "explain"), "--seed", "7",
         "--max-rows", "12", "--background-rows", "16"],
    ):
        assert main(argv) == 0, argv
    digests = {name: _sha256(tmp_path / name) for name in GOLDEN_PIPELINE[version]}
    assert digests == GOLDEN_PIPELINE[version]
