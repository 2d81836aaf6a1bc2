"""Seeded mutations of every CSV input of every subcommand.

Each mutation damages one seeded row (or the header) of a CSV file of the
golden corpus, and the subcommand that reads it must end with exit code 0 or
1, never with an internal error (2). An error names the file and the line of
the damaged row, unless it is about the header or about a whole station,
window or label set.
"""
import re
import zlib

import numpy as np
import pytest

from debris_ews.cli import main

# errors that are not about one row
NOT_A_ROW = re.compile(
    r"missing \w+ CSV columns|missing \d+ hour\(s\)|(duplicate|out-of-order) timestamp|has no score for hour"
    r"|duplicate hours for window|needs at least one positive and one negative label"
)
MUTATIONS = ("truncated mid-row", "dropped column", "bad number", "negative value", "nan", "non-UTF-8 byte")


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


def _argv(command: str, p: dict, out) -> list[str]:
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


INPUTS = [
    *((command, "rainfall") for command in (
        "segment", "ear", "build-dataset", "train", "cv", "eval", "sweep-baselines", "event-capture", "explain")),
    ("build-dataset", "events"),
    ("sweep-baselines", "thresholds"),
    *((command, "scores") for command in ("bootstrap-ci", "operating-points", "event-capture")),
]


def _mutate(text: bytes, mutation: str, rng: np.random.Generator) -> tuple[bytes, int | None]:
    """text with one mutation, and the file line of the row it damaged (None for the header)."""
    header, *rows = [line for line in text.split(b"\r\n") if line]
    r = int(rng.integers(len(rows)))
    if mutation == "dropped column":
        j = int(rng.integers(header.count(b",") + 1))
        lines = [b",".join(f for k, f in enumerate(line.split(b",")) if k != j) for line in (header, *rows)]
        return b"\r\n".join(lines) + b"\r\n", None
    if mutation == "truncated mid-row":
        return b"\r\n".join((header, *rows[:r], rows[r][: int(rng.integers(1, len(rows[r])))])), r + 2
    fields = rows[r].split(b",")
    numbers = [j for j, f in enumerate(fields) if re.fullmatch(rb"-?[0-9.e+-]+", f)] or [len(fields) - 1]
    j = numbers[int(rng.integers(len(numbers)))]
    fields[j] = {
        "bad number": fields[j] + b"x",
        "negative value": b"-1",
        "nan": b"nan",
        "non-UTF-8 byte": fields[j][:1] + b"\xe9" + fields[j][1:],
    }[mutation]
    rows[r] = b",".join(fields)
    return b"\r\n".join((header, *rows)) + b"\r\n", r + 2


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("command, name", INPUTS, ids=[f"{c}-{n}" for c, n in INPUTS])
def test_a_mutated_csv_is_an_input_error_or_accepted(golden, tmp_path, capsys, command, name, mutation):
    rng = np.random.default_rng(zlib.crc32(f"{command} {name} {mutation}".encode()))
    text, line = _mutate(golden[name].read_bytes(), mutation, rng)
    paths = dict(golden, **{name: tmp_path / golden[name].name})
    paths[name].write_bytes(text)
    capsys.readouterr()
    code = main(_argv(command, paths, tmp_path / "out"))
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1 and not NOT_A_ROW.search(err):
        assert err.startswith(f"error: {paths[name]}:{line}: "), err
    if mutation == "non-UTF-8 byte":
        assert code == 1 and err.startswith(f"error: {paths[name]}:{line}: not UTF-8: byte 0xe9 "), err
