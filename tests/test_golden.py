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

from conftest import strict_json

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
        "model/model.json": "6b6488ecfb4ddee38c8bbba727eedfcbbc3a62b3d88a4e70b3ca3a562809cfc3",
        "eval/scores.csv": "f43aa7b0066ce71dd44873f49989ed907bab92815bbd495f6a75ea695748e1a3",
        "baselines/etm_scores.csv": "9a60ef1b336afe1cf19ff47cde97d0a6002e7d461e1ab6dfc03c052b4f71a023",
        "baselines/hm_scores.csv": "2eda2231203bb95da63e1de90427774ea09c7deaa33101f2003a77a7fd2a0666",
        "baselines/baselines.json": "4bcbd2b5bd86129790496e3c9d9ab860b453b60d76d856510e19064b91dde38d",
        "baselines/hm_marked.csv": "9ed39b7e7394aa17b41bcf04d9d878a4926a95b1d6629f215da47f0b82408818",
        "ci/ci.json": "75da0b14c95259e08e33e6de53a4b0d3617afdde2895127b32719ad6f5baddbc",
        "capture/event_capture.csv": "5fc7a0b09fa5973f7f14aa97d674c4914fad9154f2397edf47c50f23f6e2d1c5",
        "explain/attributions.csv": "3b8bcb86229e91d31612cc9f923758d10073daaae21a40b51e90044d3dda17cf",
    },
}


# numpy major.minor -> {artifact: sha256} of the artifacts no table above
# covers; "corpus/" is the synth output, "pipeline/" the pipeline fixture's
# and "run/" the test's own runs
GOLDEN_ARTIFACTS = {
    "2.4": {
        "corpus/debris_events.csv": "4d34bd2bafd55e0df3482f2f07518b29857b66ee60ea3dd0b7355a9ce6b677f7",
        "corpus/thresholds.csv": "85ec565cb4a388f16f50572ee6afeab230f66ba9577dad3ed6b6f02418bb8760",
        "run/segment/main_events.csv": "f14d2f13c27235cd41f3e068010ae25f094d009f7847637dd26c1d3510dedc29",
        "run/ear/ear.csv": "67469663bef008835d70f0e137bad109ca67ac3b4c556ce6d9643b8e5ea93063",
        "run/features/features.csv": "9b3c6db5ece045c8bfb1f8a7ebf25e86032d878bce5199ded79d0ef363cad84c",
        "pipeline/eval/model_roc.csv": "d225cac6e609eef11e8196d016a0bcb6fa38f93c7f261a1f53cd2129271e50d5",
        "pipeline/eval/model_pr.csv": "76844b57a0c8e4de57c7bd73bca1c1037ab62ef8cae39bdd137317432d5500a7",
        "pipeline/eval/metrics.json": "b42449ca0d759a1d2e3a455016dcb723799e99acb10a0424d9283709fea7ddba",
        "pipeline/baselines/etm_roc.csv": "7181d0ce8a7247e6d8777d96fd88ebe3382fccf2988fad637a3b060684a1478c",
        "pipeline/baselines/etm_pr.csv": "4d0aa81734b66995f8bf6178d3ebf2ef843025ba84b0429224a62a1522bd2362",
        "pipeline/baselines/hm_roc.csv": "4d77ade1960919219147117649881a0d54b823fd9bbb93f3bbdbfe62fd2f7ccf",
        "pipeline/baselines/hm_pr.csv": "34dd64f628c9605bc6e022a2ec494350b7bd2a30e0498f4830c27b4075744ed8",
        "pipeline/op/operating_points.csv": "cbba4b823dcb9550b4144cf08fed583ecda39d6a32f7de75dfdfdcb70a4c6020",
        "pipeline/explain/importance.csv": "2cdc8e122ff895e243c1d95e797d0587a1634c11098fba477e618381acb3cd95",
        "pipeline/explain/explain.json": "9eac82622e379ba63d289ec87220495c6d276cd0cd7c2851a8ddba20df812246",
        "run/explain_perm/importance.csv": "26c09cc0a5168effb06ba8e27aec07b5a32efd8daf52ecb18ea4c22b06248d05",
        "run/cv/cv_results.csv": "b83b40afd47ac682f5e1ac273dec23e4ceb6b9d003b27077270c9a9c130a835b",
        "run/cv/best_params.json": "71472e95e1b3ebfef0d90407e4c25d48ddf460c10798ed54c206d7199f485ff4",
        "run/cv_gbt/cv_results.csv": "f3f51ad034148154e6c0cc36737a1a2fc799539fb1c24868e3ca0a95aa566f36",
        "run/gbt/model.json": "52b05a5ae98d59e577acc6ace5d6274b41644c93ea16f4c7da5d6c2fb089322c",
        "run/gbt_deep/model.json": "e7b61d4351a6d3fe711aee952794f039321c3ee1cfc21e856248ebfbe210438c",
        "run/rf_tw0.1/model.json": "cfd046f9ca9d3c687e40dfd4905e77e0bafd731f01e39ef5838aa722b3623d04",
        "run/rf_tw10/model.json": "d77101e86efef026288c1658d872a9fd452094dd2a4282938bd11d799a4553f4",
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


@pytest.fixture(scope="module")
def pipeline(corpus, tmp_path_factory):
    """Output dir of a 3-tree forest through eval, both baselines, a 40-rep
    bootstrap, operating points, event capture and 12 explained rows."""
    corpus, data = corpus
    out = tmp_path_factory.mktemp("pipeline")
    inputs = ["--rainfall", str(corpus / "rainfall.csv"), "--manifest", str(data / "manifest.json")]
    model, scores = out / "model/model.json", out / "eval/scores.csv"
    for argv in (
        ["train", *inputs, "--out", str(model.parent), "--seed", "7", "--trees", "3"],
        ["eval", "--model", str(model), *inputs, "--out", str(scores.parent), "--split", "all"],
        ["sweep-baselines", *inputs, "--thresholds", str(corpus / "thresholds.csv"),
         "--out", str(out / "baselines"), "--split", "all"],
        ["bootstrap-ci", "--scores", str(scores), "--out", str(out / "ci"), "--seed", "7", "--reps", "40"],
        ["operating-points", "--scores", str(scores), "--out", str(out / "op")],
        ["event-capture", "--scores", str(scores), *inputs, "--out", str(out / "capture")],
        ["explain", "--model", str(model), *inputs, "--out", str(out / "explain"), "--seed", "7",
         "--max-rows", "12", "--background-rows", "16"],
    ):
        assert main(argv) == 0, argv
    return out


def test_pipeline_fingerprints(pipeline):
    version = _numpy_version(GOLDEN_PIPELINE)
    digests = {name: _sha256(pipeline / name) for name in GOLDEN_PIPELINE[version]}
    assert digests == GOLDEN_PIPELINE[version]


def test_artifact_fingerprints(corpus, pipeline, tmp_path):
    """Every other CSV and JSON artifact: the synthetic event and threshold
    tables, segment, ear, the exported features, curves, metrics, operating
    points, importances, 2-cell forest and GBT CV tables, two GBT models (one
    at depth 3, one shaped like the bench's: the default depth 15 and leaf 4 on
    hourly, weighted daily and EAR features), two forests whose training
    weights (0.1 and 10) take the two split scans, and a permutation
    importance ranking."""
    version = _numpy_version(GOLDEN_ARTIFACTS)
    corpus, data = corpus
    rain = ["--rainfall", str(corpus / "rainfall.csv")]
    inputs = [*rain, "--manifest", str(data / "manifest.json")]
    grid = tmp_path / "grid.json"
    grid.write_text('[{"n_trees": 2, "max_depth": 4, "min_samples_leaf": 4},'
                    ' {"n_trees": 2, "max_depth": 2, "min_samples_leaf": 1}]')
    gbt_grid = tmp_path / "gbt_grid.json"
    gbt_grid.write_text('[{"n_trees": 3, "max_depth": 3, "min_samples_leaf": 2, "learning_rate": 0.3},'
                        ' {"n_trees": 2, "max_depth": null, "min_samples_leaf": 1, "learning_rate": 1.0}]')
    for argv in (
        ["segment", *rain, "--out", str(tmp_path / "segment")],
        ["ear", *rain, "--out", str(tmp_path / "ear")],
        ["build-dataset", *rain, "--events", str(corpus / "debris_events.csv"), "--out", str(tmp_path / "features"),
         "--seed", "7", "--hours", "6", "--daily", "2", "--export-features"],
        ["cv", *inputs, "--out", str(tmp_path / "cv"), "--seed", "7", "--grid", str(grid), "--k", "3", "--hours", "12"],
        ["cv", *inputs, "--out", str(tmp_path / "cv_gbt"), "--seed", "7", "--model", "gbt", "--grid", str(gbt_grid),
         "--k", "3", "--hours", "12", "--training-weight", "2.5"],
        ["train", *inputs, "--out", str(tmp_path / "gbt"), "--seed", "7", "--model", "gbt", "--trees", "3",
         "--max-depth", "3", "--hours", "12"],
        ["train", *inputs, "--out", str(tmp_path / "gbt_deep"), "--seed", "7", "--model", "gbt", "--trees", "3",
         "--hours", "6", "--daily", "7", "--daily-weighted", "--include-ear"],
        # fractional weights take the sort scan, integer ones the counting scan
        *(["train", *inputs, "--out", str(tmp_path / f"rf_tw{tw}"), "--seed", "7", "--trees", "3",
           "--training-weight", tw] for tw in ("0.1", "10")),
        # 300 rows of every split hold both classes, as permutation ranking needs
        ["explain", "--model", str(pipeline / "model/model.json"), *inputs, "--out", str(tmp_path / "explain_perm"),
         "--seed", "7", "--split", "all", "--max-rows", "300", "--background-rows", "16", "--method", "permutation"],
    ):
        assert main(argv) == 0, argv
    files = {"corpus": corpus, "pipeline": pipeline, "run": tmp_path}
    digests = {}
    for name in GOLDEN_ARTIFACTS[version]:
        root, rel = name.split("/", 1)
        digests[name] = _sha256(files[root] / rel)
    assert digests == GOLDEN_ARTIFACTS[version]


def test_every_json_artifact_is_strict_json(corpus, pipeline, tmp_path):
    """Every JSON file of the corpus, the pipeline, a cv run and a boosted model parses as
    RFC 8259 JSON, which has no NaN or Infinity."""
    corpus, data = corpus
    inputs = ["--rainfall", str(corpus / "rainfall.csv"), "--manifest", str(data / "manifest.json")]
    grid = tmp_path / "grid.json"
    grid.write_text('[{"n_trees": 2, "max_depth": 2, "min_samples_leaf": 1}]')
    for argv in (
        ["cv", *inputs, "--out", str(tmp_path / "cv"), "--seed", "7", "--grid", str(grid), "--k", "3", "--hours", "12"],
        ["train", *inputs, "--out", str(tmp_path / "gbt"), "--seed", "7", "--model", "gbt", "--trees", "3",
         "--max-depth", "3", "--hours", "12"],
    ):
        assert main(argv) == 0, argv
    paths = [p for root in (corpus, data, pipeline, tmp_path / "cv", tmp_path / "gbt") for p in root.rglob("*.json")]
    assert {p.name for p in paths} == {
        "manifest.json", "model.json", "metrics.json", "baselines.json", "ci.json", "explain.json", "best_params.json",
        *(f"{c}_config.json" for c in ("synth", "build_dataset", "train", "eval", "sweep_baselines", "bootstrap_ci",
                                       "operating_points", "event_capture", "explain", "cv")),
    }
    for path in paths:
        strict_json(path.read_text())
