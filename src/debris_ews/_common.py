"""Shared plumbing: input errors, UTC timestamp handling, bulk CSV reading,
artifact writing, derived RNG streams."""
from __future__ import annotations

import codecs
import csv
import io
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar, get_type_hints

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


# Bytes of a CSV file split at once (a CSV read through csv.reader takes rows
# of ~32 characters): bounds a read's scratch memory to a few MB whatever the
# file size, so the heap a large file grew is not left for the next step.
CSV_BLOCK_CHARS = 1 << 21

# _LOW_BYTES[k] keeps the low k bytes of a uint64
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(8)], dtype=np.uint64)


class Distinct(NamedTuple):
    """A column's distinct fields in order of first appearance: field i is
    text[index[i]], and text[k] first appears in field first[k]."""

    text: list[str]
    index: np.ndarray
    first: np.ndarray

    def first_of(self, flags: Iterable[bool]) -> int:
        """The first field whose text is flagged (one flag per text), or the field count if none is."""
        hits = np.flatnonzero(np.fromiter(flags, bool, len(self.text)))
        return int(self.first[hits[0]]) if hits.size else self.index.size


class CsvColumn:
    """The fields of one CSV column in a block of rows: field i is the UTF-8 text
    of the bytes block[start[i]:end[i]]."""

    def __init__(self, block: bytes, start: np.ndarray, end: np.ndarray) -> None:
        self.block, self.start, self.end = block, start, end

    @classmethod
    def of(cls, fields: Sequence[str]) -> CsvColumn:
        """The column of the given fields, joined and encoded once."""
        text = "".join(fields)
        data = text.encode()
        sizes = map(len, fields) if len(data) == len(text) else (len(f.encode()) for f in fields)
        lengths = np.fromiter(sizes, np.intp, len(fields))
        end = np.cumsum(lengths)
        return cls(data, end - lengths, end)

    def __len__(self) -> int:
        return self.start.size

    def __getitem__(self, i: int) -> str:
        return self.block[self.start[i] : self.end[i]].decode()

    def tolist(self) -> list[str]:
        return [self.block[a:b].decode() for a, b in zip(self.start.tolist(), self.end.tolist())]

    def windows(self, width: int) -> np.ndarray:
        """The `width` bytes from each field's start, zero past the block's end: an
        (n, width) uint8 array whose row i starts with field i."""
        padded = np.frombuffer(self.block + bytes(width), np.uint8)
        starts = np.ndarray((len(self.block) + 1,), f"V{width}", padded, strides=(1,))  # an item at each byte
        return starts[self.start].view(np.uint8).reshape(-1, width)

    def distinct(self) -> Distinct:
        """The distinct fields, each decoded once. Fields are told apart by sorting one
        key a field: its bytes and its length (so "A" and "A\\0" differ), in a uint64
        when every field has at most 7 bytes and a fixed-width byte string otherwise.
        Keys as wide as the longest field are made only while they take at most 8
        bytes a byte of the block; past that, a dict of the fields tells them apart."""
        length = self.end - self.start
        width = int(length.max(initial=0))
        if width < 8:
            key = self.windows(8).view("<u8")[:, 0] & _LOW_BYTES[length] | length.astype(np.uint64) << 56
        elif len(self) * (width + 4) <= 8 * len(self.block):
            key = self.windows(width + 4)
            key[np.arange(width + 4) >= length[:, None]] = 0
            key[:, width:] = length.astype(">u4").view(np.uint8).reshape(-1, 4)
            key = key.view(f"S{width + 4}")[:, 0]
        else:  # a few long fields among many short ones
            seen: dict[bytes, int] = {}
            spans = zip(self.start.tolist(), self.end.tolist())
            index = np.fromiter((seen.setdefault(self.block[a:b], len(seen)) for a, b in spans), np.intp, len(self))
            return Distinct([field.decode() for field in seen], index, np.unique(index, return_index=True)[1])
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        first = first[order]
        text = [self.block[a:b].decode() for a, b in zip(self.start[first].tolist(), self.end[first].tolist())]
        return Distinct(text, rank[inverse.reshape(-1)], first)


def read_csv_blocks(path: Path, required: Sequence[str], what: str) -> Iterator[dict[str, CsvColumn]]:
    """The rows of a UTF-8 CSV file a block at a time, each block as its columns by header name.

    Reads as csv.DictReader does: the first line is the header, blank lines
    are skipped, a short row reads "" in the columns it lacks and fields past
    the header are dropped. A file without quote characters is split on its
    bytes ("\\r", "\\n" and "\\r\\n" end a line), which gives csv.reader's fields;
    any other file goes through csv.reader. A file that is not UTF-8 is an
    InputError naming the line of its first undecodable byte.
    """
    quoted = _scan_csv(path)
    with path.open("rb") as fh:
        if quoted:
            reader = csv.reader(io.TextIOWrapper(fh, encoding="utf-8", newline=""))
            header = next(reader, [])
            rows = filter(None, reader)
            blocks = (map(CsvColumn.of, _pad(block, len(header)))
                      for block in iter(lambda: list(islice(rows, CSV_BLOCK_CHARS // 32)), []))
        else:
            lines = _line_blocks(fh)
            first = next(lines, b"\n")
            cut = min(i for i in (first.find(b"\n"), first.find(b"\r")) if i >= 0)
            header = first[:cut].decode().split(",")
            blocks = (_columns(block, len(header)) for block in chain([first[cut:]], lines))
        missing = [c for c in required if c not in header]
        if missing:
            raise InputError(f"{path}: missing {what} CSV columns {missing}")
        for columns in blocks:
            columns = list(columns)
            if len(columns[0]):
                yield dict(zip(header, columns))  # a repeated name keeps its last column, as in DictReader


def _scan_csv(path: Path) -> bool:
    """Whether the file holds a quote character; an InputError if it is not UTF-8."""
    quoted, checked, pending = False, 0, b""  # pending: a character cut by the end of a chunk
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(CSV_BLOCK_CHARS), b""):
            quoted = quoted or b'"' in chunk
            if pending or not chunk.isascii():
                chunk = pending + chunk
                pending = chunk[_utf8_prefix(path, chunk, checked, final=False) :]
            checked += len(chunk) - len(pending)
    _utf8_prefix(path, pending, checked, final=True)
    return quoted


def _utf8_prefix(path: Path, data: bytes, offset: int, final: bool) -> int:
    """The length of the whole UTF-8 characters data starts with, all of data when
    final; data starts at byte `offset` of the file, named with the line of an
    undecodable byte in the InputError that it raises."""
    try:
        return codecs.utf_8_decode(data, "strict", final)[1]
    except UnicodeDecodeError as exc:
        with path.open("rb") as fh:
            head = fh.read(offset + exc.start)
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise InputError(f"{path}:{line}: not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})") from None


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """A binary file in blocks of about CSV_BLOCK_CHARS bytes, each ending with a line end."""
    rest = b""
    for chunk in iter(lambda: fh.read(CSV_BLOCK_CHARS), b""):
        block = rest + chunk
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if cut:
            yield block[:cut]
        rest = block[cut:]
    yield rest + b"\n"


def _columns(block: bytes, width: int) -> list[CsvColumn]:
    """The first `width` columns of the non-blank lines of a block that ends with a line end."""
    data = np.frombuffer(block, np.uint8)
    end = np.flatnonzero((data == 10) | (data == 13))
    begin = np.concatenate(([0], end[:-1] + 1))
    filled = end > begin
    begin, end = begin[filled], end[filled]
    commas = np.flatnonzero(data == 44)
    count = np.bincount(np.searchsorted(end, commas), minlength=end.size)  # the commas of each line
    sep = np.append(commas, 0)  # never empty, so that a clipped take works
    first = np.cumsum(count) - count  # the index in commas of each line's first comma
    columns, start = [], begin
    for j in range(width):
        stop = np.where(j < count, sep.take(first + j, mode="clip"), end)
        start = np.where(j <= count, start, stop)  # a field past the line's last reads ""
        columns.append(CsvColumn(block, start, stop))
        start = stop + 1
    return columns


def read_csv_rows(path: Path, required: Sequence[str], what: str) -> Iterator[tuple[int, dict[str, str]]]:
    """The rows of read_csv_blocks one at a time, each with its number (the first row is 1)."""
    number = 0
    for columns in read_csv_blocks(path, required, what):
        for fields in zip(*(c.tolist() for c in columns.values())):
            number += 1
            yield number, dict(zip(columns, fields))


def csv_row_ref(path: Path, row: int) -> str:
    """"path:line" of data row `row` (the first is 1) of a CSV file as
    read_csv_blocks yields it: the file line it starts on, counting the blank
    lines that are skipped. Reads the file again, so it is for error messages."""
    with path.open(newline="", encoding="utf-8") as fh:
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


def _column(column: Sequence, alone: bool) -> np.ndarray:
    """A column as write_csv takes it: a numeric array as it is, any other column as
    its str fields, each distinct one quoted once."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        return column
    quoted = {}
    for field in set(column):
        if not isinstance(field, str):
            raise TypeError(f"a CSV column holds a numeric array or str fields, not {type(field).__name__}")
        quoted[field] = _quoted(field, alone)
    if any(q is not f for f, q in quoted.items()):
        column = list(map(quoted.__getitem__, column))
    return np.asarray(column, dtype=object)


def _fields(block: np.ndarray) -> list[str]:
    """The CSV fields of a block of rows of a _column. Each distinct number of the
    block is formatted once: a float by repr of its bit pattern (so -0.0 and 0.0
    stay apart), an integer or bool by str."""
    if block.dtype == object:
        return block.tolist()
    if block.dtype.kind == "f":
        bits, index = np.unique(block.astype(np.float64).view(np.uint64), return_inverse=True)
        text = map(repr, bits.view(np.float64).tolist())
    else:
        distinct, index = np.unique(block, return_inverse=True)
        text = map(str, distinct.tolist())
    return np.array(list(text), dtype=object)[index].tolist()


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """A CSV artifact: the header row, then row i of every column, in the bytes of
    csv's default dialect (minimal quoting, CRLF line ends), written in UTF-8.
    Columns are formatted as _column and _fields say, CSV_BLOCK_ROWS rows at a time."""
    lengths = {len(c) for c in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header names for columns of lengths {[len(c) for c in columns]}")
    columns = [_column(c, len(columns) == 1) for c in columns]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_quoted(name, len(header) == 1) for name in header) + "\r\n")
        n, k = max(lengths, default=0), len(columns)
        for a in range(0, n, CSV_BLOCK_ROWS):
            rows, m = slice(a, a + CSV_BLOCK_ROWS), min(CSV_BLOCK_ROWS, n - a)
            parts = [","] * (2 * k * m)  # row by row: field, separator, ..., field, line end
            for j, column in enumerate(columns):
                parts[2 * j :: 2 * k] = _fields(column[rows])
            parts[2 * k - 1 :: 2 * k] = ["\r\n"] * m
            fh.write("".join(parts))


def read_json(path: str | Path, what: str) -> object:
    """The JSON document in path; a file that cannot be read or parsed is an InputError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def number_keys(code: dict[str, int], keys: Distinct) -> np.ndarray:
    """Each field's number in code, after numbering the texts new to it in order of first appearance."""
    for key in keys.text:
        code.setdefault(key, len(code))
    return np.array([code[key] for key in keys.text], np.intp)[keys.index]


def parse_column(fn: Callable[[str], object], column: CsvColumn, dtype) -> tuple[np.ndarray, int]:
    """fn applied to every field, each distinct one once, and the index of the first
    field it rejects (len(column) if none); rejected fields read 0."""
    fields = column.distinct()
    try:
        return np.fromiter(map(fn, fields.text), dtype, len(fields.text))[fields.index], len(column)
    except (ValueError, OverflowError):
        pass
    out = np.zeros(len(fields.text), dtype)
    rejected = np.zeros(len(fields.text), bool)
    for k, field in enumerate(fields.text):
        try:
            out[k] = fn(field)
        except (ValueError, OverflowError):
            rejected[k] = True
    return out[fields.index], fields.first_of(rejected)


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
