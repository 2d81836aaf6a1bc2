"""Seeded mutations of every JSON input: window manifests, models, grids and configs.

Each mutation damages a JSON file of the golden corpus: it truncates the
document, wraps it in a top level of the wrong type, drops one seeded field or
gives one seeded field a value of another JSON type. The subcommand that reads
it must end with exit code 0 or 1, never with an internal error (2), and an
error about a field names the file.
"""
import json
import zlib

import numpy as np
import pytest

from debris_ews.cli import main

from conftest import cli_argv

MUTATIONS = ("truncated mid-document", "wrong top-level type", "dropped field", "wrong field type")
# a value of another JSON type for each type a field can hold
OTHER_TYPE = {dict: [], list: {}, str: 5, int: "5", float: "0.5", bool: "true", type(None): []}
# base documents of the --config inputs
CONFIGS = {
    "train": {"trees": 2, "hours": 6, "model": "rf", "max_depth": 3},
    "bootstrap-ci": {"reps": 5, "stat": "auroc", "block_hours": 3, "level": 0.9},
}

INPUTS = [
    *((command, "manifest") for command in ("train", "cv", "eval", "sweep-baselines", "event-capture", "explain")),
    ("eval", "model"),
    ("explain", "model"),
    ("cv", "grid"),
    *((command, "config") for command in CONFIGS),
]


def _fields(doc, where=()):
    """The path of every object field in doc, depth first."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield (*where, key)
            yield from _fields(value, (*where, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _fields(value, (*where, i))


def _mutate(text: str, mutation: str, rng: np.random.Generator) -> str:
    if mutation == "truncated mid-document":
        return text[: int(rng.integers(1, len(text)))]
    doc = json.loads(text)
    if mutation == "wrong top-level type":
        return json.dumps([doc] if isinstance(doc, dict) else {"cells": doc})
    fields = list(_fields(doc))
    *parent, key = fields[int(rng.integers(len(fields)))]
    holder = doc
    for step in parent:
        holder = holder[step]
    if mutation == "dropped field":
        del holder[key]
    else:
        holder[key] = OTHER_TYPE[type(holder[key])]
    return json.dumps(doc)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("command, name", INPUTS, ids=[f"{c}-{n}" for c, n in INPUTS])
def test_a_mutated_json_is_an_input_error_or_accepted(golden, tmp_path, capsys, command, name, mutation):
    rng = np.random.default_rng(zlib.crc32(f"{command} {name} {mutation}".encode()))
    if name == "config":
        paths, text = dict(golden, config=tmp_path / "config.json"), json.dumps(CONFIGS[command])
        extra = ["--config", str(paths["config"])]
    else:
        paths, text, extra = dict(golden, **{name: tmp_path / golden[name].name}), golden[name].read_text(), []
    paths[name].write_text(_mutate(text, mutation, rng))
    capsys.readouterr()
    code = main(cli_argv(command, paths, tmp_path / "out") + extra)
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1 and "field" in err:
        assert str(paths[name]) in err, err


LITERALS = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}
WHAT = {"manifest": "window manifest", "model": "model file", "grid": "grid file", "config": "config"}


@pytest.mark.parametrize("literal", list(LITERALS))
@pytest.mark.parametrize("command, name", INPUTS, ids=[f"{c}-{n}" for c, n in INPUTS])
def test_a_literal_that_json_has_not_exits_1_naming_the_file_and_literal(golden, tmp_path, capsys, command, name,
                                                                         literal):
    # json.loads takes NaN, Infinity and -Infinity by default; one seeded number becomes one
    rng = np.random.default_rng(zlib.crc32(f"{command} {name} {literal}".encode()))
    paths = dict(golden, **{name: tmp_path / f"{name}.json"})
    doc = json.loads(json.dumps(CONFIGS[command]) if name == "config" else golden[name].read_text())
    extra = ["--config", str(paths["config"])] if name == "config" else []
    numbers = []
    for field in _fields(doc):
        holder = doc
        for step in field[:-1]:
            holder = holder[step]
        if type(holder[field[-1]]) in (int, float):
            numbers.append((holder, field[-1]))
    holder, key = numbers[int(rng.integers(len(numbers)))]
    holder[key] = LITERALS[literal]
    paths[name].write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(cli_argv(command, paths, tmp_path / "out") + extra) == 1
    assert capsys.readouterr().err == f"error: cannot read {WHAT[name]} {paths[name]}: {literal} is not JSON\n"


def _manifest_window(doc, kind=None):
    return next(w for w in doc["windows"] if kind in (None, w["kind"]))


def _edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


# malformed manifests that once ended in an internal error or were read with wrong data
BAD_MANIFESTS = {
    "a list at the top level": (lambda d: [d], "not a window manifest (format=None)"),
    "windows that is a number": (lambda d: dict(d, windows=5), "field 'windows': expected a non-empty list"),
    "no windows": (lambda d: {k: v for k, v in d.items() if k != "windows"}, "field 'windows': expected"),
    "an entry that is a list": (lambda d: _edited(d, lambda e: e["windows"].__setitem__(0, [1])),
                                "window 0: expected a JSON object, got [1]"),
    "an entry without kind": (lambda d: _edited(d, lambda e: e["windows"][0].pop("kind")),
                              "window 0: missing field 'kind'"),
    "kind maybe": (lambda d: _edited(d, lambda e: e["windows"][0].update(kind="maybe")),
                   "window 0: field 'kind': expected one of 'positive', 'negative', got 'maybe'"),
    "a numeric start": (lambda d: _edited(d, lambda e: e["windows"][0].update(start=5)),
                        "window 0: field 'start': expected a timestamp string, got 5"),
    "a fractional flow hour": (
        lambda d: _edited(d, lambda e: _manifest_window(e, "positive").update(debris_flow_idx=1.5)),
        "field 'debris_flow_idx': expected an integer or null, got 1.5"),
    "a boolean flow hour": (
        lambda d: _edited(d, lambda e: _manifest_window(e, "positive").update(debris_flow_idx=True)),
        "field 'debris_flow_idx': expected an integer or null, got True"),
    "an unknown split": (lambda d: _edited(d, lambda e: e["windows"][0].update(split="validation")),
                         "window 0: field 'split': expected 'train', 'test' or null, got 'validation'"),
    "a window listed twice": (lambda d: _edited(d, lambda e: e["windows"].append(e["windows"][0])),
                              "is listed twice"),
    "an unknown station": (lambda d: _edited(d, lambda e: e["windows"][0].update(station_id="nowhere")),
                           "window 0: unknown station nowhere"),
    "hours that disagree with start and end": (
        lambda d: _edited(d, lambda e: e["windows"][0].update(hours=1)),
        "window 0: field 'hours': 1, but station_id, start and end give "),
    "an id that disagrees with station_id and start": (
        lambda d: _edited(d, lambda e: e["windows"][0].update(id="bogus")),
        "window 0: field 'id': 'bogus', but station_id, start and end give 'S"),
    "an entry without hours": (lambda d: _edited(d, lambda e: e["windows"][0].pop("hours")),
                               "window 0: missing field 'hours'"),
    "a negative window with a flow hour": (
        lambda d: _edited(d, lambda e: _manifest_window(e, "negative").update(debris_flow_idx=3)),
        "negative window must not carry debris_flow_idx"),
}

# malformed models that once ended in an internal error, a misleading one or a silent load
BAD_MODELS = {
    "no trees": (lambda d: dict(d, trees=[]), "field 'trees': expected params.n_trees = 2 trees, got 0"),
    "fewer trees than n_trees": (lambda d: dict(d, trees=d["trees"][:1]),
                                 "field 'trees': expected params.n_trees = 2 trees, got 1"),
    "trees that are not a list": (lambda d: dict(d, trees={}), "field 'trees': expected a list of trees"),
    "a root whose children are one node": (
        lambda d: _edited(d, lambda e: e["trees"][0]["right"].__setitem__(0, e["trees"][0]["left"][0])),
        "tree 0: right[0] = 1, but left[0] = 1 too; a node is the child of one split node"),
    "meta that is a list": (lambda d: dict(d, meta=[1]), "field 'meta': expected a JSON object, got [1]"),
    "meta that is a string": (lambda d: dict(d, meta="x"), "field 'meta': expected a JSON object, got 'x'"),
    "a text lead": (lambda d: dict(d, meta=dict(d["meta"], lead_hours="12")),
                    "meta: field 'lead_hours': expected an integer >= 1, got '12'"),
    "a zero lead": (lambda d: dict(d, meta=dict(d["meta"], lead_hours=0)),
                    "meta: field 'lead_hours': expected an integer >= 1, got 0"),
}


@pytest.mark.parametrize("name, case", [*(("manifest", c) for c in BAD_MANIFESTS), *(("model", c) for c in BAD_MODELS)])
def test_a_malformed_manifest_or_model_exits_1_naming_the_file(golden, tmp_path, capsys, name, case):
    edit, message = (BAD_MANIFESTS if name == "manifest" else BAD_MODELS)[case]
    paths = dict(golden, **{name: tmp_path / golden[name].name})
    paths[name].write_text(json.dumps(edit(json.loads(golden[name].read_text()))))
    capsys.readouterr()
    assert main(cli_argv("train" if name == "manifest" else "eval", paths, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[name]}: ") and message in err, err
