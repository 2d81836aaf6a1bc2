"""The artifact writers and the JSON reader in _common, and the rule that every
CSV and JSON artifact goes through them, so the output format lives in one module."""
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import debris_ews
import debris_ews._common as _common
from debris_ews._common import InputError, cell, read_json, write_csv, write_json

SRC = Path(debris_ews.__file__).parent


def _reference_write_csv(path, header, columns):
    """The row-wise writer write_csv replaced: csv.writer over the rows, floats
    by repr and everything else by str, as csv.writer formats them."""
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_ADVERSARIAL_FLOATS = [-0.0, 0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
                       5e-324, 1e16, 1e-05, 0.1 + 0.2, 0.1, -2.5]
_ADVERSARIAL_STRINGS = ["a,b", 'say "hi"', "cr\rlf", "new\nline", "crlf\r\n", "", '"', ",", "plain", "  spaced "]


def _adversarial_columns(n, rng):
    """Columns of n rows drawn from adversarial values, each repeated many times."""
    pick = lambda values: [values[i] for i in rng.integers(0, len(values), n)]  # noqa: E731
    big = [-(2**62), -1, 0, 7, 2**31, 2**63 - 1]
    return [
        np.array(pick(_ADVERSARIAL_FLOATS)),
        np.array(pick(big), dtype=np.int64),
        rng.integers(-(2**31), 2**31 - 1, n, dtype=np.int32),
        rng.random(n) < 0.5,
        pick(_ADVERSARIAL_STRINGS),
        rng.standard_normal(n).astype(np.float32),
        rng.integers(0, 2**64 - 1, n, dtype=np.uint64),
    ]


_HEADER = ("float", "int64", "int32", "bool", "text,quoted", "float32", "uint64")


@pytest.mark.parametrize("n", [0, 1, 100])
def test_write_csv_matches_the_row_wise_csv_writer(tmp_path, n):
    columns = _adversarial_columns(n, np.random.default_rng(n))
    write_csv(tmp_path / "fast.csv", _HEADER, columns)
    _reference_write_csv(tmp_path / "slow.csv", _HEADER, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


@pytest.mark.parametrize("n", [56, 60])
def test_write_csv_blocks_join_to_the_same_bytes(tmp_path, monkeypatch, n):
    """Rows fill several blocks when a block holds 7 rows, the last one full or not."""
    monkeypatch.setattr(_common, "CSV_BLOCK_ROWS", 7)
    columns = _adversarial_columns(n, np.random.default_rng(n))
    write_csv(tmp_path / "fast.csv", _HEADER, columns)
    _reference_write_csv(tmp_path / "slow.csv", _HEADER, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_write_csv_creates_parents_and_ends_rows_in_crlf(tmp_path):
    path = tmp_path / "a" / "b" / "t.csv"
    write_csv(path, ("name", "value", "note"), (["x", "y,z", "w"], np.array([0.0, -0.0, 0.1]), ["", cell(None), '"q"']))
    assert path.read_bytes() == b'name,value,note\r\nx,0.0,\r\n"y,z",-0.0,\r\nw,0.1,"""q"""\r\n'


def test_write_csv_quotes_an_empty_field_alone_in_its_row(tmp_path):
    for header, column in ((["a"], ["", "x", ""]), ([""], ["", ""])):
        write_csv(tmp_path / "fast.csv", header, [column])
        _reference_write_csv(tmp_path / "slow.csv", header, [column])
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_write_csv_writes_the_header_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [np.zeros(0), []])
    assert path.read_bytes() == b"a,b\r\n"


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="lengths"):
        write_csv(tmp_path / "t.csv", ("a", "b"), (np.zeros(3), ["x", "y"]))
    with pytest.raises(ValueError, match="2 header names"):
        write_csv(tmp_path / "t.csv", ("a", "b"), (np.zeros(3),))
    with pytest.raises(TypeError, match="not float"):
        write_csv(tmp_path / "t.csv", ("a",), ([0.5],))
    assert not (tmp_path / "t.csv").exists()


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
    path.write_bytes(b'{"a": "\xe9"}')  # not UTF-8, whatever the locale
    with pytest.raises(InputError, match=f"^cannot read doc {re.escape(str(path))}: 'utf-8' codec can't decode"):
        read_json(path, "doc")


def test_only_common_writes_csv_or_json():
    """json.dumps( appears in no package module but _common.py, and csv.writer(
    in none: write_csv formats whole columns, and no artifact is written row by row."""
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "csv.writer(" in line or ("json.dumps(" in line and path.name != "_common.py")
    ]
    assert offenders == []
