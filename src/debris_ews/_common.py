"""Shared plumbing: input errors, UTC timestamp handling, bulk CSV reading,
artifact writing, derived RNG streams."""
from __future__ import annotations

import csv
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar, get_type_hints

import numpy as np

HOUR = timedelta(hours=1)

T = TypeVar("T")
R = TypeVar("R")


class InputError(ValueError):
    """Invalid user-supplied data or configuration (CLI exit code 1)."""


def parse_ts(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp ('Z', '+00:00', or naive treated as UTC)."""
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(t)
    except ValueError:
        raise InputError(f"invalid ISO-8601 timestamp: {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    elif dt.utcoffset() != timedelta(0):
        raise InputError(f"timestamp must be UTC: {text!r}")
    return dt.astimezone(timezone.utc)


def format_ts(dt: datetime) -> str:
    """YYYY-MM-DDTHH:MM:SSZ, the year zero-padded to 4 digits so parse_ts reads it back."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def ensure_hour_aligned(dt: datetime, what: str = "timestamp") -> datetime:
    if dt.minute or dt.second or dt.microsecond:
        raise InputError(f"{what} must be aligned to an hour boundary: {dt.isoformat()}")
    return dt


# Characters of a CSV file split at once (a CSV read through csv.reader takes
# rows of ~32 characters): bounds a read's scratch memory to a few MB whatever
# the file size, so the heap a large file grew is not left for the next step.
CSV_BLOCK_CHARS = 1 << 21


def read_csv_blocks(path: Path, required: Sequence[str], what: str) -> Iterator[dict[str, list[str]]]:
    """The rows of a CSV file a block at a time, each block as its fields by header name.

    Reads as csv.DictReader does: the first line is the header, blank lines
    are skipped, a short row reads "" in the columns it lacks and fields past
    the header are dropped. A file without quote characters is split in bulk,
    which gives csv.reader's fields; any other file goes through csv.reader.
    """
    with path.open(newline="") as fh:
        quoted = any('"' in chunk for chunk in iter(lambda: fh.read(CSV_BLOCK_CHARS), ""))
    # universal newlines read "\r\n" and "\r" as "\n", where csv ends a record too
    with path.open(newline="" if quoted else None) as fh:
        if quoted:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = filter(None, reader)
            blocks = iter(lambda: list(islice(rows, CSV_BLOCK_CHARS // 32)), [])
        else:
            header = fh.readline().removesuffix("\n").split(",")
            blocks = iter(lambda: fh.read(CSV_BLOCK_CHARS) + fh.readline(), "")
        missing = [c for c in required if c not in header]
        if missing:
            raise InputError(f"{path}: missing {what} CSV columns {missing}")
        for block in blocks:
            columns = _pad(block, len(header)) if quoted else _split(list(filter(None, block.split("\n"))), len(header))
            yield dict(zip(header, columns))  # a repeated name keeps its last column, as in DictReader


def read_csv_rows(path: Path, required: Sequence[str], what: str) -> Iterator[tuple[int, dict[str, str]]]:
    """The rows of read_csv_blocks one at a time, each with its number (the first row is 1)."""
    number = 0
    for columns in read_csv_blocks(path, required, what):
        for fields in zip(*columns.values()):
            number += 1
            yield number, dict(zip(columns, fields))


def csv_row_ref(path: Path, row: int) -> str:
    """"path:line" of data row `row` (the first is 1) of a CSV file as
    read_csv_blocks yields it: the file line it starts on, counting the blank
    lines that are skipped. Reads the file again, so it is for error messages."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        end = reader.line_num  # the line the previous record ended on
        for fields in reader:
            if fields:
                row -= 1
                if not row:
                    break
            end = reader.line_num
    return f"{path}:{end + 1}"


def _split(lines: list[str], width: int) -> list[list[str]]:
    """Columns of unquoted lines, in bulk when every line has `width` fields."""
    if set(map(str.count, lines, repeat(","))) <= {width - 1}:
        fields = ",".join(lines).split(",") if lines else []
        return [fields[j::width] for j in range(width)]
    return _pad([line.split(",") for line in lines], width)


def _pad(rows: list[list[str]], width: int) -> list[list[str]]:
    return [[r[j] if j < len(r) else "" for r in rows] for j in range(width)]


def cell(v: float | None) -> str:
    """A float CSV field: its shortest round-trip repr, or "" for None."""
    return "" if v is None else repr(float(v))


# Rows of a CSV artifact joined and written at once: bounds a write's scratch
# memory whatever the row count, as CSV_BLOCK_CHARS does for a read.
CSV_BLOCK_ROWS = 1 << 16


def _quoted(field: str, alone: bool) -> str:
    """field as csv's default dialect writes it: in quotes, with " doubled, when it holds
    a comma, a quote or a line break, or when it is empty and the only field of its row."""
    if "," in field or '"' in field or "\r" in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return '""' if alone and not field else field


def _fields(column: Sequence, alone: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(text, index): a column's CSV fields are text[index], or text when index is None.

    Each distinct value is formatted once: a float array by repr of each distinct
    bit pattern (so -0.0 and 0.0 stay apart), an integer or bool array by str.
    Any other column holds str fields, each distinct one quoted once."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        if column.dtype.kind == "f":
            bits, index = np.unique(np.asarray(column, dtype=np.float64).view(np.uint64), return_inverse=True)
            text = map(repr, bits.view(np.float64).tolist())
        else:
            distinct, index = np.unique(column, return_inverse=True)
            text = map(str, distinct.tolist())
        text = np.array(list(text), dtype=object)
        return text, index.astype(np.min_scalar_type(text.size))  # 1 or 2 bytes a row for most columns
    quoted = {}
    for field in set(column):
        if not isinstance(field, str):
            raise TypeError(f"a CSV column holds a numeric array or str fields, not {type(field).__name__}")
        quoted[field] = _quoted(field, alone)
    if any(q is not f for f, q in quoted.items()):
        column = list(map(quoted.__getitem__, column))
    return np.asarray(column, dtype=object), None


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """A CSV artifact: the header row, then row i of every column, in the bytes of
    csv's default dialect (minimal quoting, CRLF line ends). Columns are formatted
    as _fields says and written CSV_BLOCK_ROWS rows at a time."""
    lengths = {len(c) for c in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header names for columns of lengths {[len(c) for c in columns]}")
    fields = [_fields(c, len(columns) == 1) for c in columns]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(",".join(_quoted(name, len(header) == 1) for name in header) + "\r\n")
        n, k = max(lengths, default=0), len(fields)
        for a in range(0, n, CSV_BLOCK_ROWS):
            rows, m = slice(a, a + CSV_BLOCK_ROWS), min(CSV_BLOCK_ROWS, n - a)
            parts = [","] * (2 * k * m)  # row by row: field, separator, ..., field, line end
            for j, (text, index) in enumerate(fields):
                parts[2 * j :: 2 * k] = (text[rows] if index is None else text[index[rows]]).tolist()
            parts[2 * k - 1 :: 2 * k] = ["\r\n"] * m
            fh.write("".join(parts))


def read_json(path: str | Path, what: str) -> object:
    """The JSON document in path; a file that cannot be read or parsed is an InputError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None


def write_json(path: str | Path, doc: object, indent: int | None = 2) -> None:
    """A JSON artifact with sorted keys and a final newline; indent=None is the compact form."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _json_fits(kind: type, value: object) -> bool:
    if issubclass(kind, Enum):
        return value in [m.value for m in kind]
    number = (int, float) if kind is float else kind  # an integer is a number too
    return isinstance(value, number) and (kind is bool or not isinstance(value, bool))


def build_params(cls: Callable[..., T], doc: object, where: str) -> T:
    """cls(**doc) for a parameter dataclass read from JSON. An unknown field, a value
    of the wrong JSON type and a value cls rejects are InputErrors naming where and the field."""
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object, got {doc!r}")
    hints = get_type_hints(cls)
    for key, value in doc.items():
        if key not in hints:
            raise InputError(f"{where}: unknown field {key!r} (expected one of {', '.join(hints)})")
        kinds = getattr(hints[key], "__args__", (hints[key],))  # int | None -> (int, NoneType)
        if not any(_json_fits(k, value) for k in kinds):
            expected = " or ".join(_JSON_KINDS.get(k) or f"one of {', '.join(repr(m.value) for m in k)}" for k in kinds)
            raise InputError(f"{where}: field {key!r}: expected {expected}, got {value!r}")
    try:
        return cls(**doc)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def number_keys(code: dict[str, int], keys: list[str]) -> np.ndarray:
    """Each key's number in code, after numbering the keys new to it in order of first appearance."""
    for key in dict.fromkeys(keys):
        if key not in code:
            # a copy: the field string would keep the allocator arena of its
            # whole block of fields alive for as long as the code lives
            code[key.encode().decode()] = len(code)
    return np.fromiter(map(code.__getitem__, keys), np.intp, len(keys))


def parse_column(fn: Callable[[str], object], fields: Sequence[str], dtype) -> tuple[np.ndarray, int]:
    """fn applied to every field, and the index of the first field it rejects
    (len(fields) if none); entries from that index on are 0."""
    try:
        return np.fromiter(map(fn, fields), dtype, len(fields)), len(fields)
    except (ValueError, OverflowError):
        pass
    out = np.zeros(len(fields), dtype)
    for i, field in enumerate(fields):
        try:
            out[i] = fn(field)
        except (ValueError, OverflowError):
            return out, i
    return out, len(fields)


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic PCG64 stream for (seed, key).

    Streams for distinct keys are independent, so work items (trees, bootstrap
    replicates, stations) can run in any order or in parallel without changing
    results.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def map_indexed(fn: Callable[[int], R], count: int, threads: int = 1) -> list[R]:
    """Apply fn(0..count-1), optionally on a thread pool; output order is by index."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    if threads == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def env_log_level(default: str = "WARNING") -> int:
    name = os.environ.get("DEBRIS_EWS_LOG", default).upper()
    return getattr(logging, name, logging.WARNING)


def setup_logging() -> None:
    logging.basicConfig(
        level=env_log_level(),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
