"""Byte fingerprints of a small synthetic corpus and its dataset manifest.

A refactor of the CSV or dataset code proves it kept every byte by passing
this test, in seconds. The corpus comes from numpy's generators, so the
digests are keyed by numpy major.minor; other versions skip.
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


def test_synth_and_build_dataset_fingerprints(tmp_path):
    version = ".".join(np.__version__.split(".")[:2])
    if version not in GOLDEN:
        pytest.skip(f"no fingerprints recorded for numpy {version}")
    corpus, data = tmp_path / "corpus", tmp_path / "data"
    assert main(["synth", "--seed", "7", "--stations", "6", "--weeks", "4", "--out", str(corpus)]) == 0
    assert main([
        "build-dataset", "--rainfall", str(corpus / "rainfall.csv"), "--events", str(corpus / "debris_events.csv"),
        "--out", str(data), "--seed", "7",
    ]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (corpus / "rainfall.csv", data / "manifest.json"))
    assert digests == GOLDEN[version]
