"""The artifact writers and the readers in _common, and the rules that every
CSV and JSON artifact goes through them and that no other module opens a file,
so the output format and the open-error messages live in one module."""
import ast
import csv
import json
import re
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import debris_ews
import debris_ews._common as _common
from debris_ews._common import (
    CodedColumn, InputError, cell, cells, read_csv_blocks, read_json, write_csv, write_json,
)
from debris_ews.cli import read_scores_csv, write_scores_csv
from debris_ews.rainfall import RainSeries, read_rainfall_csv, write_rainfall_csv

from conftest import random_rain

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
                       5e-324, 1e16, 1e-05, 0.1 + 0.2, 0.1, -2.5,
                       # the ends of _common._shortest's range, and values inside it
                       *(float(np.nextafter(b, b * s)) for b in (1e-4, 1e15) for s in (0.0, 1.0, 2.0)),
                       0.5, 2.0**-20, 123456789012345.6, -123456789012345.6, 0.9876543210987654, 1 / 3]
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


@pytest.mark.parametrize("block_rows", [7, 1 << 16])
@pytest.mark.parametrize("alone", [True, False])
def test_a_coded_column_writes_its_fields(tmp_path, monkeypatch, block_rows, alone):
    monkeypatch.setattr(_common, "CSV_BLOCK_ROWS", block_rows)
    code = np.random.default_rng(3).integers(0, len(_ADVERSARIAL_STRINGS), 60).astype(np.uint8)
    fields = [_ADVERSARIAL_STRINGS[i] for i in code]
    header, columns = ("text,coded",), [CodedColumn(_ADVERSARIAL_STRINGS, code)]
    if not alone:
        header, columns = (*header, "row"), [*columns, np.arange(60)]
    write_csv(tmp_path / "coded.csv", header, columns)
    _reference_write_csv(tmp_path / "slow.csv", header, [fields, *columns[1:]])
    assert (tmp_path / "coded.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


@pytest.mark.parametrize("n", [100, 1000])
def test_write_csv_mixes_the_numpy_float_path_and_repr(tmp_path, monkeypatch, n):
    """Every float column takes _shortest's path, in chunks of 7 distinct values, so
    chunks mix the floats it works out with those left to repr."""
    monkeypatch.setattr(_common, "FLOAT_TEXTS_MIN", 0)
    monkeypatch.setattr(_common, "FLOAT_TEXTS_CHUNK", 7)
    columns = _adversarial_columns(n, np.random.default_rng(n))
    write_csv(tmp_path / "fast.csv", _HEADER, columns)
    _reference_write_csv(tmp_path / "slow.csv", _HEADER, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def _float_families(rng, n):
    """Floats of the kinds the numpy path could get wrong, n or so of each kind, by name."""
    fast_exponents = rng.integers(1023 - 13, 1023 + 49, n).astype(np.uint64) << 52  # 2**-13 to 2**49
    powers = 10.0 ** np.arange(-6, 18)
    near_2_53 = 2.0**53 / 10.0 ** np.arange(20)
    return {
        "bit patterns": rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(np.float64),
        "bit patterns in range": (rng.integers(0, 2**52, n, dtype=np.uint64) | fast_exponents).view(np.float64),
        "uniform": rng.random(n),
        "integer ratios": rng.integers(1, 10**6, n) / rng.integers(1, 10**6, n),
        "3 decimals": np.round(rng.random(n) * 1000, 3),
        "powers of ten and neighbours": np.concatenate([powers + k * np.spacing(powers) for k in range(-20, 21)]),
        "powers of two": 2.0 ** np.arange(-1074, 1024),
        "near 2**53 / 10**j": np.concatenate([near_2_53 + k * np.spacing(near_2_53) for k in range(-50, 51)]),
        "float32": rng.standard_normal(n).astype(np.float32).astype(np.float64) * 10.0 ** rng.integers(-5, 16, n),
        "few fraction bits": rng.integers(2**40, 2**50, n) / 2.0 ** rng.integers(0, 12, n),  # ties between candidates
        "specials": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308]),
    }


def _assert_float_texts_are_repr(x):
    assert _common._float_texts(x).tolist() == list(map(repr, x.tolist()))


def _worked_out(x):
    """The share of the floats x that _shortest works out, rather than leaving to repr."""
    return np.mean([_common._shortest(x[a : a + 4096])[0].mean() for a in range(0, x.size, 4096)])


def test_float_texts_is_repr():
    """On each family, with its negatives, in bit-pattern order as write_csv gives
    them, and some of them shuffled."""
    for name, values in _float_families(np.random.default_rng(21), 10_000).items():
        distinct = np.unique(np.concatenate([values, -values]).view(np.uint64)).view(np.float64)
        _assert_float_texts_are_repr(distinct)
        _assert_float_texts_are_repr(np.random.default_rng(0).permutation(distinct[:1000]))
        if name in ("uniform", "integer ratios", "3 decimals", "bit patterns in range"):
            assert _worked_out(distinct) > 0.99, name  # the numpy path wrote them, not repr
    assert _common._float_texts(np.zeros(0)).tolist() == []


@pytest.mark.slow
def test_float_texts_is_repr_exhaustively():
    """10**7 random bit patterns of either sign from 2**-13 to 2**50, around the numpy
    path's range, in bit-pattern order as write_csv gives them, and the 5000 floats
    nearest each 10**k and each 2**53 / 10**j."""
    rng = np.random.default_rng(2021)
    low, high = np.array([2.0**-13, 2.0**50]).view(np.uint64)
    for _ in range(39):
        bits = rng.integers(low, high, 2**18, dtype=np.uint64) | rng.integers(0, 2, 2**18, np.uint64) << np.uint64(63)
        _assert_float_texts_are_repr(np.sort(bits).view(np.float64))
    for centre in np.concatenate((10.0 ** np.arange(-6, 18), 2.0**53 / 10.0 ** np.arange(20))):
        _assert_float_texts_are_repr(centre + np.arange(-2500, 2500) * np.spacing(centre))


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


def test_cells_is_cell_of_each_float(monkeypatch):
    values = np.array(_ADVERSARIAL_FLOATS * 30)
    assert cells(values) == [cell(v) for v in values.tolist()]
    monkeypatch.setattr(_common, "FLOAT_TEXTS_MIN", 0)
    assert cells(values) == [cell(v) for v in values.tolist()]


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
    with pytest.raises(InputError, match=f"^doc not found: {re.escape(str(tmp_path / 'gone.json'))}$"):
        read_json(tmp_path / "gone.json", "doc")
    path.write_bytes(b'{"a": "\xe9"}')  # not UTF-8, whatever the locale
    with pytest.raises(InputError, match=f"^cannot read doc {re.escape(str(path))}: 'utf-8' codec can't decode"):
        read_json(path, "doc")


def test_read_csv_blocks_names_a_missing_or_unreadable_file(tmp_path):
    gone = tmp_path / "gone.csv"
    with pytest.raises(InputError, match=f"^rain CSV not found: {re.escape(str(gone))} \\(expected header a,b\\)$"):
        next(read_csv_blocks(gone, ("a", "b"), "rain"))
    with pytest.raises(InputError, match=f"^cannot read rain CSV {re.escape(str(tmp_path))}: Is a directory$"):
        next(read_csv_blocks(tmp_path, ("a", "b"), "rain"))


def _reference_distinct(fields):
    """CsvColumn.distinct by a dict of the fields' bytes: the texts in order of first
    appearance, each field's number and each text's first field."""
    seen, first = {}, {}
    index = [seen.setdefault(field.encode(), len(seen)) for field in fields]
    for i, k in enumerate(index):
        first.setdefault(k, i)
    return [b.decode() for b in seen], index, list(first.values())


def _random_fields(rng, widest, runs):
    """Fields of at most `widest` bytes drawn from a pool that holds a field of every
    size up to it, each of those with a NUL appended, prefixes of them and non-ASCII
    text: drawn one at a time, or in runs of up to 40 equal fields."""
    sized = ["".join(rng.choice(list("ab-:.09Z"), size)) for size in range(widest + 1)]
    pool = [*sized, *(f + "\0" for f in sized[:-1]), *(f[:k] for f in sized[widest // 2 :] for k in (1, 8)),
            *("é" * k for k in range(1, widest // 2 + 1)), *("東" * k for k in range(1, widest // 3 + 1))]
    draws = rng.integers(0, len(pool), 400)
    if runs:
        draws = np.repeat(draws, rng.integers(1, 41, draws.size))
    return [pool[d] for d in draws]


def _spy(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name from now on."""
    calls, real = [], getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("runs", [False, True], ids=["no runs", "runs"])
@pytest.mark.parametrize("widest", [7, 8, 9, 16, 17, 40])
def test_distinct_matches_a_dict_of_the_fields(monkeypatch, widest, runs):
    by_dict = _spy(monkeypatch, _common.CsvColumn, "_by_dict")
    for seed in range(3):
        fields = _random_fields(np.random.default_rng([widest, runs, seed]), widest, runs)
        got = _common.CsvColumn.of(fields).distinct()
        assert (got.text, got.index.tolist(), got.first.tolist()) == _reference_distinct(fields)
    assert by_dict == []  # keyed, exactly or by the hash, not by the dict


@pytest.mark.parametrize("widest", [8, 17, 40])
def test_distinct_falls_back_to_the_dict_when_long_fields_share_a_hash(monkeypatch, widest):
    monkeypatch.setattr(_common, "_HASH_MULTIPLIER", np.uint64(0))  # every field of 8 bytes or more keys 0
    by_dict = _spy(monkeypatch, _common.CsvColumn, "_by_dict")
    fields = _random_fields(np.random.default_rng(widest), widest, runs=True)
    got = _common.CsvColumn.of(fields).distinct()
    assert (got.text, got.index.tolist(), got.first.tolist()) == _reference_distinct(fields)
    assert len(by_dict) == 1


def test_written_csv_files_take_the_reshape_split_and_the_keyed_distinct(tmp_path, monkeypatch, csv_blocks):
    """Every file this program writes is split by one reshape and keyed without the
    dict, at any block size: the speed of every CSV read rests on it."""
    ragged = _spy(monkeypatch, _common, "_ragged_columns")
    by_dict = _spy(monkeypatch, _common.CsvColumn, "_by_dict")
    rng = np.random.default_rng(11)
    n = 480  # 4 windows of 120 hours, ids of 25 bytes and scores of up to 21 as the eval writes them
    window_ids = [f"S{i // 120:03d}/2019-05-{1 + i // 120:02d}T00:00:00Z" for i in range(n)]
    write_scores_csv(tmp_path / "scores.csv", window_ids, np.arange(n) % 120, rng.random(n) < 0.2, rng.random(n))
    start = datetime(2019, 5, 1, tzinfo=timezone.utc)
    series = [RainSeries(f"S{k:03d}", start, np.round(random_rain(rng, 150), 1 if k else 17)) for k in range(4)]
    write_rainfall_csv(tmp_path / "rain.csv", series)
    assert len(read_scores_csv(tmp_path / "scores.csv")) == 4
    assert len(read_rainfall_csv(tmp_path / "rain.csv")) == 4
    assert (ragged, by_dict) == ([], [])
    # the spies see the other paths: a line with an extra field, and long fields that share a hash
    monkeypatch.setattr(_common, "_HASH_MULTIPLIER", np.uint64(0))
    (tmp_path / "ragged.csv").write_text((tmp_path / "scores.csv").read_text() + "S009/2019-05-09T00:00:00Z,0,0,1,x\n")
    assert len(read_scores_csv(tmp_path / "ragged.csv")) == 5
    assert ragged and by_dict


def _reprs_outside_raise(tree: ast.AST, in_raise: bool = False):
    """The line of each use of the name repr, as in repr(x) or map(repr, xs), that is
    not part of a raise statement."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and node.id == "repr" and not in_raise:
            yield node.lineno
        yield from _reprs_outside_raise(node, in_raise or isinstance(node, ast.Raise))


def test_only_common_writes_csv_or_json():
    """json.dumps( appears in no package module but _common.py, and csv.writer(
    in none: write_csv formats whole columns, and no artifact is written row by row.
    Nor does any other module open, read or probe a file: the readers in _common
    turn a missing or unreadable input into the InputError that names it. Nor
    does any other module format a float with repr, but in an error message:
    float fields come from _common's cell, cells and write_csv."""
    common_only = re.compile(r"json\.dumps\(|\bopen\(|\.exists\(|read_text\(|read_bytes\(")
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "csv.writer(" in line or (common_only.search(line) and path.name != "_common.py")
    ]
    offenders += [
        f"{path.name}:{number} repr"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_common.py"
        for number in _reprs_outside_raise(ast.parse(path.read_text()))
    ]
    assert offenders == []
