"""Shared plumbing: input errors, UTC timestamp handling, bulk CSV reading,
artifact writing, derived RNG streams."""
from __future__ import annotations

import csv
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """A CSV artifact: the header row, then rows, in csv's default dialect (CRLF line ends)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, doc: object, indent: int | None = 2) -> None:
    """A JSON artifact with sorted keys and a final newline; indent=None is the compact form."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


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
