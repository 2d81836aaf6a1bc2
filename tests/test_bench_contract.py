"""The names by which the benchmark in bench/ reaches into the package.

bench/spans.py swaps every CLI_LAYERS name on debris_ews.cli for a timing
wrapper during traced runs and reads some of the wrapped calls' arguments, and
bench/run.py imports modules and functions of the package; deleting or renaming
any of them, or changing what those arguments hold, breaks those runs, so it
fails here first.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import debris_ews.cli as cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_layer_is_a_cli_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    assert spans.CLI_LAYERS
    assert [name for name in spans.CLI_LAYERS if not callable(getattr(cli, name, None))] == []


def test_names_bench_run_uses_resolve():
    tree = ast.parse((BENCH / "run.py").read_text())
    modules, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "debris_ews":
            parent = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    modules[alias.asname or alias.name] = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    assert hasattr(parent, alias.name), f"{node.module}.{alias.name}"
                imported.add(f"{node.module}.{alias.name}")
    used = {
        f"{node.value.attr}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name) and node.value.value.id == "self" and node.value.attr in modules
    }
    assert [name for name in sorted(used) if not hasattr(modules[name.split(".")[0]], name.split(".")[1])] == []
    # the parse found what the benchmark is known to use
    assert {"debris_ews.trees.TreeParams", "debris_ews.trees.fit_tree"} <= imported
    assert {"cli.main", "metrics.auprc", "metrics.auroc", "modelio.load_model", "modelio.save_model"} <= used


def _recorded(monkeypatch, names):
    """Swap the named cli functions for wrappers that keep each call's (args, kwargs, result)."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _fn=getattr(cli, name), _calls=calls[name], **kwargs):
            result = _fn(*args, **kwargs)
            _calls.append((args, kwargs, result))
            return result
        monkeypatch.setattr(cli, name, wrapper)
    return calls


def test_traced_calls_carry_the_arguments_the_spans_read(golden, tmp_path, monkeypatch):
    """bench/spans.py counts rows and zeros of fit_forest's and fit_gbt's first
    argument and re-fits fit_forest's first two; it reads the model and rows of
    tree_shap_batch(model, rows, background), and predict_proba(model, X) marks the
    forest's scoring. So train hands the fits the whole float example matrix and
    its labels, and explain and eval call with the model first, positionally."""
    calls = _recorded(monkeypatch, ("build_examples", "fit_forest", "fit_gbt", "tree_shap_batch", "predict_proba"))
    corpus = ["--rainfall", str(golden["rainfall"]), "--manifest", str(golden["manifest"])]
    for model in ("rf", "gbt"):
        argv = ["train", *corpus, "--out", str(tmp_path / model), "--seed", "7", "--trees", "2", "--max-depth", "3",
                "--model", model]
        assert cli.main(argv) == 0
        ((args, _, fitted),) = calls[f"fit_{'forest' if model == 'rf' else 'gbt'}"]
        ((_, _, examples),) = calls["build_examples"]
        calls["build_examples"].clear()
        X, y = args[:2]
        assert isinstance(X, np.ndarray) and X.dtype == np.float64 and X.shape == examples.X.shape
        np.testing.assert_array_equal(X, examples.X)
        np.testing.assert_array_equal(y, examples.y)
        assert len(fitted.trees) == 2

    rf = str(tmp_path / "rf/model.json")
    assert cli.main(["eval", "--model", rf, *corpus, "--out", str(tmp_path / "eval"), "--split", "all"]) == 0
    ((args, kwargs, scores),) = calls["predict_proba"]
    ((_, _, examples),) = calls["build_examples"]
    assert len(args) == 2 and not kwargs and isinstance(args[0], cli.ForestModel)
    np.testing.assert_array_equal(args[1], examples.X)
    assert scores.shape == (len(examples),)

    argv = ["explain", "--model", rf, *corpus, "--out", str(tmp_path / "explain"), "--seed", "7",
            "--max-rows", "5", "--background-rows", "6"]
    assert cli.main(argv) == 0
    ((args, kwargs, (values, _)),) = calls["tree_shap_batch"]
    model, rows, background = args
    assert not kwargs and isinstance(model, cli.ForestModel) and len(model.trees) == 2
    assert rows.shape == values.shape == (5, model.n_features) and background.shape == (6, model.n_features)
