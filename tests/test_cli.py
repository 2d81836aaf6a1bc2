import csv
import json
from pathlib import Path

import numpy as np
import pytest

from debris_ews import InputError, segment_events
from debris_ews.cli import SCORES_CSV_COLUMNS, main, read_scores_csv, write_scores_csv
from debris_ews.rainfall import read_rainfall_csv

from oracles import ear_trace

SMALL_SYNTH = ["--stations", "5", "--weeks", "12"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth corpus taken through build-dataset, train, and eval."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    data = root / "data"
    model = root / "model"
    ev = root / "eval"
    assert main(["synth", "--seed", "11", "--out", str(corpus)] + SMALL_SYNTH) == 0
    assert main([
        "build-dataset",
        "--rainfall", str(corpus / "rainfall.csv"),
        "--events", str(corpus / "debris_events.csv"),
        "--out", str(data),
        "--seed", "11",
    ]) == 0
    assert main([
        "train",
        "--rainfall", str(corpus / "rainfall.csv"),
        "--manifest", str(data / "manifest.json"),
        "--out", str(model),
        "--seed", "11",
        "--hours", "12",
        "--trees", "8",
        "--max-depth", "8",
    ]) == 0
    assert main([
        "eval",
        "--model", str(model / "model.json"),
        "--rainfall", str(corpus / "rainfall.csv"),
        "--manifest", str(data / "manifest.json"),
        "--out", str(ev),
        "--split", "test",
    ]) == 0
    return {"root": root, "corpus": corpus, "data": data, "model": model, "eval": ev}


def test_synth_outputs_exist_and_are_deterministic(pipeline, tmp_path):
    corpus = pipeline["corpus"]
    for name in ("rainfall.csv", "debris_events.csv", "thresholds.csv", "synth_config.json"):
        assert (corpus / name).exists()
    again = tmp_path / "again"
    assert main(["synth", "--seed", "11", "--out", str(again)] + SMALL_SYNTH) == 0
    assert (again / "rainfall.csv").read_bytes() == (corpus / "rainfall.csv").read_bytes()
    assert (again / "debris_events.csv").read_bytes() == (corpus / "debris_events.csv").read_bytes()


def test_segment_and_ear_smoke(pipeline, tmp_path):
    corpus = pipeline["corpus"]
    out = tmp_path / "seg"
    assert main(["segment", "--rainfall", str(corpus / "rainfall.csv"), "--out", str(out)]) == 0
    lines = (out / "main_events.csv").read_text().splitlines()
    assert lines[0] == "station_id,event_index,start,end,hours,total_mm"
    assert len(lines) > 1
    out2 = tmp_path / "ear"
    assert main(["ear", "--rainfall", str(corpus / "rainfall.csv"), "--out", str(out2)]) == 0
    ear_lines = (out2 / "ear.csv").read_text().splitlines()
    assert ear_lines[0] == "station_id,timestamp,rainfall_mm,event_id,ear_mm,antecedent_mm"
    # event columns honor the trace invariants: EAR non-decreasing and at least
    # the antecedent within each event, zero outside
    prev_key = None
    prev_ear = None
    saw_event = False
    for line in ear_lines[1:]:
        sid, _, _, event_id, ear_mm, ante = line.split(",")
        ear_val = float(ear_mm)
        if event_id == "":
            assert ear_val == 0.0
            prev_key = None
            continue
        saw_event = True
        assert ear_val >= float(ante) - 1e-12
        key = (sid, event_id)
        if key == prev_key:
            assert ear_val >= prev_ear - 1e-12
        prev_key, prev_ear = key, ear_val
    assert saw_event


@pytest.mark.parametrize("mode", ["calendar_day", "rolling_24h"])
def test_ear_csv_columns_match_ear_trace(pipeline, tmp_path, mode):
    """Each event hour of ear.csv carries its event's EAR and antecedent index
    exactly as ear_trace gives them; other hours have EAR 0 and blank event columns."""
    rainfall = pipeline["corpus"] / "rainfall.csv"
    out = tmp_path / "ear"
    assert main(["ear", "--rainfall", str(rainfall), "--out", str(out), "--daily-mode", mode, "--alpha", "0.9"]) == 0
    with (out / "ear.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    events = 0
    for s in read_rainfall_csv(rainfall):
        mine, rows = rows[: len(s)], rows[len(s) :]
        assert [r["station_id"] for r in mine] == [s.station_id] * len(s)
        assert [float(r["rainfall_mm"]) for r in mine] == s.values.tolist()
        owner = [""] * len(s)
        for i, ev in enumerate(segment_events(s)):
            tr = ear_trace(s, ev, 0.9, mode)
            for k, t in enumerate(range(ev.start_idx, ev.end_idx + 1)):
                assert float(mine[t]["ear_mm"]) == tr.ear[k]
                assert float(mine[t]["antecedent_mm"]) == tr.antecedent_mm
                owner[t] = str(i)
            events += 1
        assert [r["event_id"] for r in mine] == owner
        assert all(r["ear_mm"] == "0.0" and r["antecedent_mm"] == "" for r, o in zip(mine, owner) if o == "")
    assert rows == [] and events > 20


def test_manifest_and_split(pipeline):
    doc = json.loads((pipeline["data"] / "manifest.json").read_text())
    assert doc["format"] == "debris-ews-windows"
    splits = {w["split"] for w in doc["windows"]}
    assert splits == {"train", "test"}
    kinds = {w["kind"] for w in doc["windows"]}
    assert kinds == {"positive", "negative"}


def test_eval_outputs(pipeline):
    ev = pipeline["eval"]
    metrics = json.loads((ev / "metrics.json").read_text())
    assert 0.0 <= metrics["auprc"] <= 1.0
    assert 0.0 <= metrics["auroc"] <= 1.0
    assert "resolved_config" not in metrics  # eval_config.json holds it, with the run's paths
    resolved = json.loads((ev / "eval_config.json").read_text())
    assert resolved["command"] == "eval" and resolved["options"]["out"] == str(ev)
    rows = read_scores_csv(ev / "scores.csv")
    assert rows
    for _, hours, labels, scores in rows:
        assert (scores >= 0).all() and (scores <= 1).all()
        assert set(np.unique(labels)) <= {0, 1}


def test_eval_rerun_byte_identical(pipeline):
    # same resolved config (same --out) must reproduce identical data outputs
    ev = pipeline["eval"]
    names = ("scores.csv", "model_pr.csv", "model_roc.csv", "metrics.json")
    before = {n: (ev / n).read_bytes() for n in names}
    assert main([
        "eval",
        "--model", str(pipeline["model"] / "model.json"),
        "--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
        "--manifest", str(pipeline["data"] / "manifest.json"),
        "--out", str(ev),
        "--split", "test",
    ]) == 0
    for n in names:
        assert (ev / n).read_bytes() == before[n]


def test_eval_into_another_dir_writes_same_metrics(pipeline, tmp_path):
    # metrics.json holds no paths, so an eval's bytes do not depend on --out
    out = tmp_path / "elsewhere"
    assert main([
        "eval",
        "--model", str(pipeline["model"] / "model.json"),
        "--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
        "--manifest", str(pipeline["data"] / "manifest.json"),
        "--out", str(out),
        "--split", "test",
    ]) == 0
    assert (out / "metrics.json").read_bytes() == (pipeline["eval"] / "metrics.json").read_bytes()


def test_sweep_baselines_and_downstream(pipeline, tmp_path):
    corpus, data, ev = pipeline["corpus"], pipeline["data"], pipeline["eval"]
    base = tmp_path / "base"
    assert main([
        "sweep-baselines",
        "--rainfall", str(corpus / "rainfall.csv"),
        "--manifest", str(data / "manifest.json"),
        "--thresholds", str(corpus / "thresholds.csv"),
        "--out", str(base),
        "--split", "test",
    ]) == 0
    summary = json.loads((base / "baselines.json").read_text())
    assert set(summary) >= {"etm", "hm", "official_etm_point"}
    assert (base / "hm_marked.csv").read_text().count("\n") == 10  # header + 9 marked

    ci_out = tmp_path / "ci"
    assert main([
        "bootstrap-ci",
        "--scores", str(ev / "scores.csv"),
        "--out", str(ci_out),
        "--seed", "3",
        "--reps", "200",
    ]) == 0
    ci = json.loads((ci_out / "ci.json").read_text())
    assert ci["lower"] <= ci["point"] <= ci["upper"]

    op_out = tmp_path / "op"
    assert main([
        "operating-points",
        "--scores", str(ev / "scores.csv"),
        "--out", str(op_out),
    ]) == 0
    text = (op_out / "operating_points.csv").read_text()
    assert text.splitlines()[0] == "metric,target,status,threshold,precision,recall,specificity"

    cap_out = tmp_path / "cap"
    assert main([
        "event-capture",
        "--scores", str(ev / "scores.csv"),
        "--rainfall", str(corpus / "rainfall.csv"),
        "--manifest", str(data / "manifest.json"),
        "--out", str(cap_out),
    ]) == 0
    cap_lines = (cap_out / "event_capture.csv").read_text().splitlines()
    assert len(cap_lines) == 102
    captured = [int(line.split(",")[1]) for line in cap_lines[1:]]
    assert captured == sorted(captured, reverse=True)


def test_explain_cli(pipeline, tmp_path):
    out = tmp_path / "shap"
    assert main([
        "explain",
        "--model", str(pipeline["model"] / "model.json"),
        "--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
        "--manifest", str(pipeline["data"] / "manifest.json"),
        "--out", str(out),
        "--seed", "5",
        "--max-rows", "40",
        "--background-rows", "16",
    ]) == 0
    doc = json.loads((out / "explain.json").read_text())
    assert doc["local_accuracy_max_error"] < 1e-9
    imp = (out / "importance.csv").read_text().splitlines()
    assert imp[0] == "rank,feature,score"
    assert len(imp) == 12 + 1  # one row per feature


def test_cv_cli_small_grid(pipeline, tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([
        {"n_trees": 3, "max_depth": 3, "min_samples_leaf": 2},
        {"n_trees": 5, "max_depth": 3, "min_samples_leaf": 2},
    ]))
    out = tmp_path / "cv"
    assert main([
        "cv",
        "--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
        "--manifest", str(pipeline["data"] / "manifest.json"),
        "--out", str(out),
        "--seed", "2",
        "--grid", str(grid_path),
        "--k", "3",
        "--hours", "6",
    ]) == 0
    best = json.loads((out / "best_params.json").read_text())
    assert best["params"]["n_trees"] in (3, 5)
    assert (out / "cv_results.csv").exists()


def test_config_file_merging_and_unknown_keys(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stations": 3, "weeks": 8, "seed": 9}))
    out = tmp_path / "synth_cfg"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    resolved = json.loads((out / "synth_config.json").read_text())
    assert resolved["options"]["stations"] == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stations": 3, "bogus_field": 1, "another": 2}))
    assert main(["synth", "--config", str(bad), "--out", str(out), "--seed", "9"]) == 1


def test_exit_codes_for_input_errors(tmp_path):
    # missing required seed
    assert main(["synth", "--out", str(tmp_path / "x")]) == 1
    # missing input file names the expectation
    assert main(["segment", "--rainfall", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "y")]) == 1
    # unknown flag
    assert main(["synth", "--out", str(tmp_path / "z"), "--seed", "1", "--wat", "3"]) == 1


@pytest.mark.parametrize("command, threads", [("train", "0"), ("cv", "-1")])
def test_threads_below_one_fail(pipeline, tmp_path, capsys, command, threads):
    capsys.readouterr()
    assert main([command, "--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
                 "--manifest", str(pipeline["data"] / "manifest.json"), "--out", str(tmp_path / command),
                 "--seed", "1", "--threads", threads]) == 1
    assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"


CORPUS = ["--rainfall", "{rain}", "--manifest", "{man}", "--seed", "1"]
SCORES_BODY = "window_id,hour,label,score\nw1,0,0,0.5\n"
MODEL_DOC = {"format": "debris-ews-model", "version": 1, "kind": "random_forest"}
EVAL = ["eval", "--model", "{doc}", "--rainfall", "{rain}", "--manifest", "{man}"]
RF_FIELDS = "n_trees, max_depth, min_samples_leaf, max_features, bootstrap"
BAD_INPUTS = {
    "gbt threads flag": (["train", *CORPUS, "--model", "gbt", "--trees", "2", "--threads", "0"], {},
                         "threads must be >= 1, got 0"),
    "logistic cv threads flag": (["cv", *CORPUS, "--model", "logistic", "--threads", "0"], {},
                                 "threads must be >= 1, got 0"),
    "threads from config": (["cv", *CORPUS, "--model", "gbt", "--config", "{cfg}"], {"cfg": {"threads": -2}},
                            "threads must be >= 1, got -2"),
    "int field from config": (["train", *CORPUS, "--config", "{cfg}"], {"cfg": {"trees": "abc"}},
                              "config {cfg}: field 'trees': invalid int value: 'abc'"),
    "float for int field from config": (["train", *CORPUS, "--config", "{cfg}"], {"cfg": {"threads": 2.5}},
                                        "config {cfg}: field 'threads': invalid int value: 2.5"),
    "choice from config": (["train", *CORPUS, "--config", "{cfg}"], {"cfg": {"model": "svm"}},
                           "config {cfg}: field 'model': invalid choice: 'svm' (choose from 'rf', 'gbt', 'logistic')"),
    "switch from config": (["train", *CORPUS, "--config", "{cfg}"], {"cfg": {"include_ear": "false"}},
                           "config {cfg}: field 'include_ear': expected true or false, got 'false'"),
    "explain max rows": (["explain", *CORPUS, "--model", "{model}", "--max-rows", "-3"], {},
                         "max-rows must be >= 1, got -3"),
    "explain background rows from config": (["explain", *CORPUS, "--model", "{model}", "--config", "{cfg}"],
                                            {"cfg": {"background_rows": 0}}, "background-rows must be >= 1, got 0"),
    "label 2": (["operating-points", "--scores", "{scores}"], {"scores": SCORES_BODY + "w1,1,2,0.25\n"},
                "{scores}:3: label must be 0 or 1 and score finite in row "
                "{{'window_id': 'w1', 'hour': '1', 'label': '2', 'score': '0.25'}}"),
    "negative label": (["bootstrap-ci", "--scores", "{scores}", "--seed", "1"], {"scores": SCORES_BODY + "w1,1,-1,0.25\n"},
                       "{scores}:3: label must be 0 or 1 and score finite in row "
                       "{{'window_id': 'w1', 'hour': '1', 'label': '-1', 'score': '0.25'}}"),
    "nan score": (["bootstrap-ci", "--scores", "{scores}", "--seed", "1"], {"scores": SCORES_BODY + "w1,1,1,nan\n"},
                  "{scores}:3: label must be 0 or 1 and score finite in row "
                  "{{'window_id': 'w1', 'hour': '1', 'label': '1', 'score': 'nan'}}"),
    "inf score before a bad row": (["operating-points", "--scores", "{scores}"],
                                   {"scores": SCORES_BODY + "w1,1,1,-inf\nw1,x,1,0.5\n"},
                                   "{scores}:3: label must be 0 or 1 and score finite in row "
                                   "{{'window_id': 'w1', 'hour': '1', 'label': '1', 'score': '-inf'}}"),
    "grid cell with an unknown key": (["cv", *CORPUS, "--grid", "{grid}"], {"grid": [{"n_trees": 2, "bogus": 1}]},
                                      f"{{grid}}: cell 0: unknown field 'bogus' (expected one of {RF_FIELDS})"),
    "grid cell with a string value": (["cv", *CORPUS, "--grid", "{grid}"], {"grid": [{"n_trees": 2}, {"n_trees": "x"}]},
                                      "{grid}: cell 1: field 'n_trees': expected an integer, got 'x'"),
    "grid cell with a bad depth": (["cv", *CORPUS, "--grid", "{grid}"], {"grid": [{"max_depth": 1.5}]},
                                   "{grid}: cell 0: field 'max_depth': expected an integer or null, got 1.5"),
    "grid cell the params reject": (["cv", *CORPUS, "--model", "gbt", "--grid", "{grid}"],
                                    {"grid": [{"min_samples_leaf": 0}]}, "{grid}: cell 0: min_samples_leaf must be >= 1"),
    "tree cell in a logistic grid": (["cv", *CORPUS, "--model", "logistic", "--grid", "{grid}"],
                                     {"grid": [{"n_trees": 2}]},
                                     "{grid}: cell 0: unknown field 'n_trees' (expected one of penalty, l2, max_iter, tol)"),
    "grid that is not JSON": (["cv", *CORPUS, "--grid", "{grid}"], {"grid": "[{"},
                              "cannot read grid file {grid}: Expecting property name enclosed in double quotes: "
                              "line 1 column 3 (char 2)"),
    "model with an unknown params key": (EVAL, {"doc": {**MODEL_DOC, "params": {"n_trees": 3, "bogus": 1}}},
                                         f"{{doc}}: params: unknown field 'bogus' (expected one of {RF_FIELDS})"),
    "model with a string n_trees": (EVAL, {"doc": {**MODEL_DOC, "params": {"n_trees": "3"}}},
                                    "{doc}: params: field 'n_trees': expected an integer, got '3'"),
    "model with a string hourly_hours": (EVAL, {"doc": {**MODEL_DOC, "feature_spec": {"hourly_hours": "12"}}},
                                         "{doc}: feature_spec: field 'hourly_hours': expected an integer, got '12'"),
    "model with a bad daily_mode": (EVAL, {"doc": {**MODEL_DOC, "feature_spec": {"daily_mode": "weekly"}}},
                                    "{doc}: feature_spec: field 'daily_mode': expected one of 'calendar_day', "
                                    "'rolling_24h', got 'weekly'"),
    "model without params": (EVAL, {"doc": MODEL_DOC}, "{doc}: missing field 'params'"),
    "model that is not an object": (EVAL, {"doc": [MODEL_DOC]}, "{doc}: not a model document (format=None)"),
    "model with a text node array": (EVAL, {"doc": {**MODEL_DOC, "params": {}, "n_features": 1, "trees": [
        {"feature": "x", "threshold": [], "left": [], "right": [], "value": [], "weight": []}]}},
                                     "{doc}: tree 0: feature: invalid literal for int() with base 10: 'x'"),
    "negative alpha with the EAR feature": (["train", *CORPUS, "--alpha", "-2", "--include-ear"], {},
                                            "alpha must be in [0, 1], got -2.0"),
    "alpha above 1 for weighted daily totals": (["train", *CORPUS, "--daily", "2", "--daily-weighted", "--alpha", "1.5"],
                                                {}, "alpha must be in [0, 1], got 1.5"),
    "ear alpha": (["ear", "--rainfall", "{rain}", "--alpha", "5"], {}, "alpha must be in [0, 1], got 5.0"),
    "sweep-baselines alpha": (["sweep-baselines", "--rainfall", "{rain}", "--manifest", "{man}", "--thresholds", "{thr}",
                               "--alpha", "nan"], {}, "alpha must be in [0, 1], got nan"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_option_and_score_values_exit_1_naming_them(pipeline, tmp_path, capsys, case):
    argv, files, message = BAD_INPUTS[case]
    paths = {"rain": pipeline["corpus"] / "rainfall.csv", "man": pipeline["data"] / "manifest.json",
             "model": pipeline["model"] / "model.json", "cfg": tmp_path / "cfg.json", "scores": tmp_path / "scores.csv",
             "grid": tmp_path / "grid.json", "doc": tmp_path / "model.json", "thr": pipeline["corpus"] / "thresholds.csv"}
    for name, content in files.items():
        paths[name].write_text(content if isinstance(content, str) else json.dumps(content))
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"


def test_build_dataset_rejects_event_row_without_timestamp(pipeline, tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text("station_id,timestamp\nS000\n")
    capsys.readouterr()
    assert main(["build-dataset", "--rainfall", str(pipeline["corpus"] / "rainfall.csv"), "--events", str(events),
                 "--out", str(tmp_path / "data"), "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: {events}:2: invalid ISO-8601 timestamp: ''\n"


@pytest.mark.parametrize("command", ["train", "cv", "eval", "sweep-baselines", "event-capture", "explain"])
def test_loading_errors_come_in_order(pipeline, tmp_path, capsys, command):
    """A missing model, then rainfall CSV, then manifest is reported, in that order."""
    rainfall, manifest = pipeline["corpus"] / "rainfall.csv", pipeline["data"] / "manifest.json"
    extra = {
        "train": ["--seed", "1"],
        "cv": ["--seed", "1"],
        "eval": ["--model", str(pipeline["model"] / "model.json")],
        "sweep-baselines": ["--thresholds", str(tmp_path / "none.csv")],
        "event-capture": ["--scores", str(pipeline["eval"] / "scores.csv")],
        "explain": ["--model", str(pipeline["model"] / "model.json"), "--seed", "1"],
    }[command]

    def error(rain, man, *more):
        capsys.readouterr()
        argv = [command, "--rainfall", str(rain), "--manifest", str(man), "--out", str(tmp_path / "o"), *extra, *more]
        assert main(argv) == 1
        return capsys.readouterr().err

    absent = tmp_path / "absent"
    assert error(absent, absent).startswith(f"error: rainfall CSV not found: {absent}")
    assert error(rainfall, absent).startswith(f"error: window manifest not found: {absent}")
    if "--model" in extra:
        assert error(absent, absent, "--model", str(absent)).startswith(f"error: model file not found: {absent}")
    if command == "sweep-baselines":
        assert error(rainfall, manifest).startswith("error: threshold table not found")


def test_internal_errors_exit_2(tmp_path, monkeypatch):
    import debris_ews.cli as cli

    def boom(cfg):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli, "generate_corpus", boom)
    assert cli.main(["synth", "--seed", "1", "--out", str(tmp_path / "x")]) == 2


def test_log_level_env(monkeypatch):
    import logging

    from debris_ews._common import env_log_level

    monkeypatch.setenv("DEBRIS_EWS_LOG", "debug")
    assert env_log_level() == logging.DEBUG
    monkeypatch.setenv("DEBRIS_EWS_LOG", "INFO")
    assert env_log_level() == logging.INFO
    monkeypatch.delenv("DEBRIS_EWS_LOG")
    assert env_log_level("WARNING") == logging.WARNING


def test_train_requires_split_when_manifest_unsplit(pipeline, tmp_path):
    # eval on a split name that does not exist in the manifest
    assert main([
        "eval",
        "--model", str(pipeline["model"] / "model.json"),
        "--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
        "--manifest", str(pipeline["data"] / "manifest.json"),
        "--out", str(tmp_path / "e"),
        "--split", "all",
    ]) == 0


@pytest.mark.parametrize("array, value", [("left", 1000001), ("left", 0), ("feature", 12)])
def test_eval_rejects_bad_node_arrays_with_exit_1(pipeline, tmp_path, capsys, array, value):
    """A child out of range, a child that points back at the root (a cycle) and a
    feature past n_features fail at load, naming the file, the tree and the array."""
    doc = json.loads((pipeline["model"] / "model.json").read_text())
    node = next(i for i, f in enumerate(doc["trees"][0]["feature"]) if f >= 0 and i > 0)
    doc["trees"][0][array][node] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--model", str(path), "--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
                 "--manifest", str(pipeline["data"] / "manifest.json"), "--out", str(tmp_path / "e")]) == 1
    assert f"{path}: tree 0: {array}[{node}] = {value}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("n_features", 4.0), ("seed", True), ("training_weight", 0)])
def test_eval_rejects_bad_model_scalars_with_exit_1(pipeline, tmp_path, capsys, field, value):
    doc = json.loads((pipeline["model"] / "model.json").read_text())
    doc[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--model", str(path), "--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
                 "--manifest", str(pipeline["data"] / "manifest.json"), "--out", str(tmp_path / "e")]) == 1
    assert f"{path}: field {field!r}: expected " in capsys.readouterr().err


def test_eval_and_explain_take_lead_from_model(pipeline, tmp_path, capsys):
    data = ["--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
            "--manifest", str(pipeline["data"] / "manifest.json")]
    model = tmp_path / "lead6"
    assert main(["train", *data, "--out", str(model), "--seed", "3", "--hours", "6", "--lead", "6",
                 "--trees", "2", "--max-depth", "3"]) == 0
    scoring = ["--model", str(model / "model.json"), *data, "--split", "all"]
    assert main(["eval", *scoring, "--out", str(tmp_path / "e_default")]) == 0
    resolved = json.loads((tmp_path / "e_default" / "eval_config.json").read_text())
    assert resolved["options"]["lead"] == 6
    assert main(["eval", *scoring, "--out", str(tmp_path / "e_six"), "--lead", "6"]) == 0
    assert (tmp_path / "e_six" / "scores.csv").read_bytes() == (tmp_path / "e_default" / "scores.csv").read_bytes()

    capsys.readouterr()
    assert main(["eval", *scoring, "--out", str(tmp_path / "e_bad"), "--lead", "12"]) == 1
    err = capsys.readouterr().err
    assert "--lead 12" in err and "lead_hours 6" in err
    assert main(["explain", *scoring, "--out", str(tmp_path / "x_bad"), "--seed", "1", "--lead", "12"]) == 1
    err = capsys.readouterr().err
    assert "--lead 12" in err and "lead_hours 6" in err


def test_event_capture_lead_must_match_score_labels(pipeline, tmp_path, capsys):
    """Scores labeled with lead 6 are rejected by event-capture at its default
    lead 12, naming the window and the lead, and accepted with --lead 6."""
    data = ["--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
            "--manifest", str(pipeline["data"] / "manifest.json")]
    model = tmp_path / "lead6"
    assert main(["train", *data, "--out", str(model), "--seed", "3", "--hours", "6", "--lead", "6",
                 "--trees", "2", "--max-depth", "3"]) == 0
    assert main(["eval", "--model", str(model / "model.json"), *data, "--out", str(tmp_path / "eval")]) == 0
    capture = ["event-capture", "--scores", str(tmp_path / "eval" / "scores.csv"), *data]
    capsys.readouterr()
    assert main([*capture, "--out", str(tmp_path / "cap12")]) == 1
    err = capsys.readouterr().err
    assert "labels of window S" in err and "--lead 12" in err
    assert not (tmp_path / "cap12" / "event_capture.csv").exists()
    assert main([*capture, "--out", str(tmp_path / "cap6"), "--lead", "6"]) == 0
    assert (tmp_path / "cap6" / "event_capture.csv").exists()


def test_resolved_config_records_lead_from_model(pipeline, tmp_path):
    """The resolved config is written after the command ran, with the lead it took from the model."""
    data = ["--rainfall", str(pipeline["corpus"] / "rainfall.csv"),
            "--manifest", str(pipeline["data"] / "manifest.json")]
    model = tmp_path / "lead6"
    assert main(["train", *data, "--out", str(model), "--seed", "3", "--hours", "6", "--lead", "6",
                 "--trees", "2", "--max-depth", "3"]) == 0
    scoring = ["--model", str(model / "model.json"), *data, "--split", "all"]
    explain = ["--seed", "1", "--max-rows", "5", "--background-rows", "4"]
    for command, extra in (("eval", []), ("explain", explain)):
        out = tmp_path / command
        assert main([command, *scoring, "--out", str(out), *extra]) == 0
        resolved = json.loads((out / f"{command}_config.json").read_text())
        assert resolved["command"] == command and resolved["options"]["lead"] == 6
    assert main(["eval", *scoring, "--out", str(tmp_path / "bad"), "--lead", "12"]) == 1
    assert not (tmp_path / "bad" / "eval_config.json").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lead": None}))  # null leaves the lead unset, so it comes from the model
    assert main(["eval", *scoring, "--out", str(tmp_path / "null"), "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "null" / "eval_config.json").read_text())["options"]["lead"] == 6


def test_read_scores_csv_rejects_hour_gaps(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("window_id,hour,label,score\nw1,0,0,0.1\nw1,1,0,0.2\nw2,0,1,0.5\nw2,1,0,0.3\nw2,4,0,0.1\nw2,5,1,0.9\n")
    with pytest.raises(InputError, match=r"window w2 has no score for hour 2"):
        read_scores_csv(path)
    assert main(["bootstrap-ci", "--scores", str(path), "--out", str(tmp_path / "ci"), "--seed", "1", "--reps", "10"]) == 1


# The per-row scores reader and writer that the bulk ones replaced, kept as the
# reference: groups, file bytes and error messages must match.


def _reference_read_scores_csv(path):
    path = Path(path)
    grouped = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in SCORES_CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise InputError(f"{path}: missing scores CSV columns {missing}")
        for row in reader:
            try:
                grouped.setdefault(row["window_id"], []).append(
                    (int(row["hour"]), int(row["label"]), float(row["score"]))
                )
            except (TypeError, ValueError):
                raise InputError(f"{path}:{reader.line_num}: bad scores row {row!r}") from None
    if not grouped:
        raise InputError(f"{path}: no score rows")
    out = []
    for wid, rows in grouped.items():
        rows.sort(key=lambda r: r[0])
        h = np.array([r[0] for r in rows])
        if np.unique(h).size != h.size:
            raise InputError(f"{path}: duplicate hours for window {wid}")
        gaps = np.flatnonzero(np.diff(h) != 1)
        if gaps.size:
            raise InputError(f"{path}: window {wid} has no score for hour {h[gaps[0]] + 1}; hours must be consecutive")
        out.append((wid, h, np.array([r[1] for r in rows]), np.array([r[2] for r in rows])))
    return out


def _reference_write_scores_csv(path, window_ids, hours, labels, scores):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_CSV_COLUMNS)
        for wid, h, y, s in zip(window_ids, hours, labels, scores):
            writer.writerow((wid, int(h), int(y), repr(float(s))))


def _scores_outcome(read, path):
    try:
        return [(wid, h.dtype, h.tobytes(), y.dtype, y.tobytes(), s.dtype, s.tobytes()) for wid, h, y, s in read(path)]
    except InputError as exc:
        return f"InputError: {exc}"


SCORES_HEADER = "window_id,hour,label,score\n"
SCORES_FILES = {
    "interleaved windows, hours unsorted":
        SCORES_HEADER + "w2,1,0,0.5\nw1,0,1,0.25\nw2,0,1,-0.0\nw1,1,0,1e-300\nw3,7,0,1\n",
    "reordered and extra columns": "score,extra,hour,window_id,label\n0.5,x,1,w1,0\n0.25,,0,w1,1\n1,y,0,w0,0\n",
    "crlf, blank lines, padded ints": SCORES_HEADER + "w1,0,1,0.5\r\n\r\nw1, 1 ,0,0.75\r\n\r\n",
    "bad hour": SCORES_HEADER + "w1,0,1,0.5\nw1,1.0,0,0.5\n",
    "bad label": SCORES_HEADER + "w1,0,1,0.5\nw1,1,,0.5\n",
    "bad score": SCORES_HEADER + "w1,0,1,0.5\nw1,1,0,high\nw1,x,0,0.5\n",
    "late bad row": SCORES_HEADER + "".join(f"w1,{h},0,0.5\n" for h in range(12)) + "\nw2,0,0,\n",
    "duplicate hour": SCORES_HEADER + "w1,0,1,0.5\nw2,0,0,0.1\nw2,0,1,0.2\n",
    "missing hour": SCORES_HEADER + "w1,0,1,0.5\nw1,2,0,0.5\n",
    "missing column": "window_id,hour,score\nw1,0,0.5\n",
    "no rows": SCORES_HEADER,
    # windows keep their order of first appearance, which feeds the bootstrap groups
    "first appearance unlike sorted order, non-ASCII ids":
        SCORES_HEADER + "wz,0,0,0.5\nwé,0,1,0.25\nwa,0,0,0.1\nwé,1,0,0.3\n東京,0,1,0.9\nwz,1,1,0.5\nw\x00,0,0,1\nw,0,1,2\n",
    # fields of up to 7 bytes share a uint64 key with their length; 8 and more are byte strings
    "fields of 7, 8 and 9 bytes": SCORES_HEADER + "w234567,0,1,0.12345\nw2345678,0,0,0.123456\nw23456789,0,1,0.1234567\n"
                                  "w234567,1,0,0.1234567\nw2345678,1,1,0.12345\nw23456789,1,0,1234567.0\n",
}


@pytest.mark.parametrize("case", sorted(SCORES_FILES))
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_bulk_scores_reader_matches_reference(tmp_path, case, quoted, csv_blocks):
    text = SCORES_FILES[case]
    if quoted:  # the same file through csv.reader
        text = text.replace("hour", '"hour"', 1)
    path = tmp_path / "scores.csv"
    path.write_bytes(text.encode())
    assert _scores_outcome(read_scores_csv, path) == _scores_outcome(_reference_read_scores_csv, path)


def test_scores_reader_short_row_reads_empty_fields(tmp_path):
    # the per-row reader showed the missing fields as None
    path = tmp_path / "scores.csv"
    path.write_text("window_id,hour,label,score\nw1,0,1,0.5\nw1,1\n")
    with pytest.raises(InputError) as exc:
        read_scores_csv(path)
    assert str(exc.value) == f"{path}:3: bad scores row {{'window_id': 'w1', 'hour': '1', 'label': '', 'score': ''}}"


def test_bulk_scores_writer_matches_reference(tmp_path):
    rng = np.random.default_rng(3)
    n = 500
    wids = [f"w,{i // 40}" for i in range(n)]
    args = (wids, np.arange(n) % 40, rng.random(n) < 0.2, np.r_[rng.random(n - 3), 0.0, -0.0, 5e-324])
    write_scores_csv(tmp_path / "new.csv", *args)
    _reference_write_scores_csv(tmp_path / "ref.csv", *args)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert _scores_outcome(read_scores_csv, tmp_path / "new.csv") == _scores_outcome(
        _reference_read_scores_csv, tmp_path / "new.csv"
    )
