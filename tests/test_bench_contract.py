"""The names by which the benchmark in bench/ reaches into the package.

bench/spans.py swaps every CLI_LAYERS name on debris_ews.cli for a timing
wrapper during traced runs, and bench/run.py imports modules and functions of
the package; deleting or renaming any of them breaks those runs, so it fails
here first.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

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
