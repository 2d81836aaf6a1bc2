"""The artifact writers and the JSON reader in _common, and the rule that every
CSV and JSON artifact goes through them, so the output format lives in one module."""
import json
import re
from pathlib import Path

import pytest

import debris_ews
from debris_ews._common import InputError, cell, read_json, write_csv, write_json

SRC = Path(debris_ews.__file__).parent


def test_write_csv_creates_parents_and_ends_rows_in_crlf(tmp_path):
    path = tmp_path / "a" / "b" / "t.csv"
    write_csv(path, ("name", "value"), [("x", cell(0.1)), ("y,z", cell(None)), ("w", 3)])
    assert path.read_bytes() == b'name,value\r\nx,0.1\r\n"y,z",\r\nw,3\r\n'


def test_write_csv_writes_the_header_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], iter(()))
    assert path.read_bytes() == b"a,b\r\n"


def test_cell_is_the_float_repr_or_empty():
    assert [cell(v) for v in (None, 1, 0.1, 1e-300, float("inf"))] == ["", "1.0", "0.1", "1e-300", "inf"]


def test_write_json_sorts_keys_and_ends_in_a_newline(tmp_path):
    doc = {"b": [1, 2.5], "a": {"d": None, "c": "x"}}
    path = tmp_path / "sub" / "doc.json"
    write_json(path, doc)
    assert path.read_text() == '{\n  "a": {\n    "c": "x",\n    "d": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert json.loads(path.read_text()) == doc


def test_write_json_indent_none_is_compact(tmp_path):
    path = tmp_path / "compact.json"
    write_json(path, {"b": 1, "a": [1, 2]}, indent=None)
    assert path.read_text() == '{"a": [1, 2], "b": 1}\n'


def test_read_json_reads_back_and_names_a_bad_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": [1, None]})
    assert read_json(path, "doc") == {"a": [1, None]}
    path.write_text("{")
    with pytest.raises(InputError, match=f"^cannot read doc {re.escape(str(path))}: Expecting property name"):
        read_json(path, "doc")
    with pytest.raises(InputError, match=f"^cannot read doc {re.escape(str(tmp_path / 'gone.json'))}: "):
        read_json(tmp_path / "gone.json", "doc")


def test_only_common_writes_csv_or_json():
    """csv.writer( and json.dumps( appear in no package module but _common.py."""
    pattern = re.compile(r"csv\.writer\(|json\.dumps\(")
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_common.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []
