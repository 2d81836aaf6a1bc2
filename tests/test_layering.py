"""The scoring layers work on arrays: metrics, bootstrap and explain import
nothing from dataset, so the example-row layout has one owner."""
import ast
from pathlib import Path

import debris_ews

SRC = Path(debris_ews.__file__).parent


def _dataset_imports(path):
    """Line numbers of the imports in path that name the dataset module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any("dataset" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


def test_scoring_modules_import_nothing_from_dataset():
    offenders = {name: _dataset_imports(SRC / name) for name in ("metrics.py", "bootstrap.py", "explain.py")}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_the_check_sees_every_import_form(tmp_path):
    forms = ["from .dataset import ExampleSet", "from . import dataset", "import debris_ews.dataset",
             "from debris_ews.dataset import label_hours", "from .metrics import auprc"]
    path = tmp_path / "probe.py"
    path.write_text("\n".join(forms) + "\n")
    assert _dataset_imports(path) == [1, 2, 3, 4]
