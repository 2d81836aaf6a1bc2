"""Shared plumbing: input errors, UTC timestamp handling, bulk CSV reading,
artifact writing, derived RNG streams.

Every float field of an artifact is the float's repr (its shortest round-trip
text), and only this module makes it: write_csv for a float column, cells for
a float array, cell for one float. For an array, an exact numpy path works out
the repr of the distinct floats from 1e-4 to 1e15 in integer and double-double
arithmetic (_shortest), and repr itself formats the rest."""
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

# _LOW_BYTES[k] keeps the low k bytes of a uint64 (k = 0..8)
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

# The odd multiplier of the hash that keys a field of 8 bytes or more (2^64
# over the golden ratio): from 0, each 8-byte word of the field is xored in,
# then the key is multiplied and its high half xored into its low half; last,
# the field's length is xored in and the key multiplied once more.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def sorted_runs(order: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, run) of items that order sorts into runs of equal items, new flagging each
    sorted position that starts a run: the smallest index of each run, in run order, and
    each item's run."""
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if order.size else order
    run = np.empty(order.size, dtype=np.intp)
    run[order] = np.cumsum(new) - 1
    return first, run


def key_runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sorted_runs of the distinct keys: the index of each key's first appearance, in key
    order, and each item's rank among the distinct keys, as np.unique's return_index and
    return_inverse give them, from the default argsort rather than a stable one."""
    order = np.argsort(key)
    sorted_key = key.take(order)
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    return sorted_runs(order, new)


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
        uint64 key a field. When every field has at most 7 bytes the key is exact: the
        bytes and the length (so "A" and "A\\0" differ). A wider column is keyed by a
        hash of each field's zero-padded 8-byte words and its length, and every field
        is then checked byte for byte against the first field of its key. Only the
        first key of each run of equal keys is sorted, when the runs halve the sort.
        A dict of the fields tells them apart when the words would take more than 8
        bytes a byte of the block (a few long fields among many short ones) and when
        two different fields share a hash."""
        length = self.end - self.start
        n, width = len(self), int(length.max(initial=0))
        size = -(-width // 8)  # the 8-byte words of the widest field
        words = None
        if width < 8:
            key = self.windows(8).view("<u8")[:, 0] & _LOW_BYTES[length] | length.astype(np.uint64) << 56
        elif n * size <= len(self.block):
            words = self.windows(8 * size).view("<u8")
            key = np.zeros(n, np.uint64)
            for j, word in enumerate(words.T):
                word &= _LOW_BYTES[np.clip(length - 8 * j, 0, 8)]
                key ^= word
                key *= _HASH_MULTIPLIER
                key ^= key >> 32
            key ^= length.astype(np.uint64)
            key *= _HASH_MULTIPLIER
        else:
            return self._by_dict()
        head = np.empty(n, bool)  # the first field of each run of equal keys
        head[:1] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        runs = 2 * heads.size <= n
        first, inverse = key_runs(key[heads] if runs else key)
        if runs:
            first = heads[first]
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        index = rank[inverse.reshape(-1)]
        if runs:
            index = np.repeat(index, np.diff(heads, append=n))
        first = first[order]
        if words is not None:
            same = first[index]
            if not ((length[same] == length).all() and (words[same] == words).all()):
                return self._by_dict()
        text = [self.block[a:b].decode() for a, b in zip(self.start[first].tolist(), self.end[first].tolist())]
        return Distinct(text, index, first)

    def _by_dict(self) -> Distinct:
        """distinct() by a dict of the fields' bytes."""
        seen: dict[bytes, int] = {}
        spans = zip(self.start.tolist(), self.end.tolist())
        index = np.fromiter((seen.setdefault(self.block[a:b], len(seen)) for a, b in spans), np.intp, len(self))
        return Distinct([field.decode() for field in seen], index, np.unique(index, return_index=True)[1])


def read_csv_blocks(path: Path, required: Sequence[str], what: str) -> Iterator[dict[str, CsvColumn]]:
    """The rows of a UTF-8 CSV file a block at a time, each block as its columns by header name.

    Reads as csv.DictReader does: the first line is the header, blank lines
    are skipped, a short row reads "" in the columns it lacks and fields past
    the header are dropped. A file without quote characters is split on its
    bytes ("\\r", "\\n" and "\\r\\n" end a line), which gives csv.reader's fields;
    any other file goes through csv.reader. A file that is not UTF-8 is an
    InputError naming the line of its first undecodable byte, and so is a file
    that cannot be opened, naming the path (and the header, if it is missing).
    """
    try:
        quoted = _scan_csv(path)
    except FileNotFoundError:
        raise InputError(f"{what} CSV not found: {path} (expected header {','.join(required)})") from None
    except OSError as exc:
        raise InputError(f"cannot read {what} CSV {path}: {exc.strerror}") from None
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
    """The first `width` columns of the non-blank lines of a block that ends with a line end.

    A block of width - 1 commas a line, as in every file this program writes,
    is split by one reshape of its comma positions: the check that it is one
    is that they number width - 1 a line and that each line's share of them,
    in order, starts and ends inside it. Any other block goes through
    _ragged_columns."""
    data = np.frombuffer(block, np.uint8)
    end = np.flatnonzero((data == 10) | (data == 13))
    begin = np.concatenate(([0], end[:-1] + 1))
    filled = end > begin
    begin, end = begin[filled], end[filled]
    commas = np.flatnonzero(data == 44)
    if commas.size == (width - 1) * end.size:
        sep = commas.reshape(end.size, width - 1)
        if (sep[:, :1] >= begin[:, None]).all() and (sep[:, -1:] < end[:, None]).all():
            cuts = np.vstack((begin - 1, sep.T, end))  # row j + 1 ends field j, which starts after row j
            return [CsvColumn(block, cuts[j] + 1, cuts[j + 1]) for j in range(width)]
    return _ragged_columns(block, begin, end, commas, width)


def _ragged_columns(block: bytes, begin: np.ndarray, end: np.ndarray, commas: np.ndarray,
                    width: int) -> list[CsvColumn]:
    """_columns of a block whose lines may hold any number of commas, given the
    begin and end of its non-blank lines and the positions of its commas."""
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


class CodedColumn:
    """A CSV column given as its distinct str fields and one integer code a row:
    row i holds text[code[i]]. write_csv looks the fields up a block of rows at a
    time, so a column of few distinct fields costs its codes, not a field a row."""

    def __init__(self, text: Sequence[str], code: np.ndarray) -> None:
        self.text, self.code = np.asarray(text, dtype=object), code

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.text[self.code[rows]]


def _column(column: Sequence | CodedColumn, alone: bool) -> np.ndarray | CodedColumn:
    """A column as write_csv takes it: a numeric array as it is, a coded column with
    its texts quoted, any other column as its str fields, each distinct one quoted once."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        return column
    if isinstance(column, CodedColumn):
        return CodedColumn(_column(column.text, alone), column.code)
    quoted = {}
    for field in set(column):
        if not isinstance(field, str):
            raise TypeError(f"a CSV column holds a numeric array or str fields, not {type(field).__name__}")
        quoted[field] = _quoted(field, alone)
    if any(q is not f for f, q in quoted.items()):
        column = list(map(quoted.__getitem__, column))
    return np.asarray(column, dtype=object)


def cells(values: np.ndarray) -> list[str]:
    """The float CSV fields of an array, as cell gives them one at a time."""
    return _fields(np.asarray(values, dtype=np.float64))


def _fields(block: np.ndarray) -> list[str]:
    """The CSV fields of a block of rows of a _column. Each distinct number of the
    block is formatted once: a float by _float_texts of its bit pattern (so -0.0
    and 0.0 stay apart), an integer or bool by str."""
    if block.dtype == object:
        return block.tolist()
    if block.dtype.kind == "f":
        bits, index = np.unique(block.astype(np.float64).view(np.uint64), return_inverse=True)
        text = _float_texts(bits.view(np.float64))
    else:
        distinct, index = np.unique(block, return_inverse=True)
        text = np.array(list(map(str, distinct.tolist())), dtype=object)
    return text[index].tolist()


# Below this many distinct floats, repr of each costs less than the fixed cost of
# _shortest's hundred-odd array operations: on a host where repr takes ~1 us a
# float, the two break even near 300 floats.
FLOAT_TEXTS_MIN = 300
# Distinct floats _shortest takes at once: bounds its scratch memory to about 1 MB
# (a few hundred bytes a float), whatever the block size.
FLOAT_TEXTS_CHUNK = 4096


def _float_texts(distinct: np.ndarray) -> np.ndarray:
    """repr of each float64 of distinct, as an object array of str. The floats that
    _shortest works out take its path, FLOAT_TEXTS_CHUNK at a time; the rest, and
    all of a short array, go to repr. It is fast on floats in bit-pattern order, as
    np.unique leaves them: _layout lays out each run of one sign and decimal point
    at once."""
    texts = np.empty(distinct.size, dtype=object)
    if distinct.size < FLOAT_TEXTS_MIN:
        texts[:] = list(map(repr, distinct.tolist()))
        return texts
    for a in range(0, distinct.size, FLOAT_TEXTS_CHUNK):
        chunk, out = distinct[a : a + FLOAT_TEXTS_CHUNK], texts[a : a + FLOAT_TEXTS_CHUNK]
        done, text = _shortest(chunk)
        out[done] = text
        out[~done] = list(map(repr, chunk[~done].tolist()))
    return texts


_MANTISSA = np.uint64((1 << 52) - 1)
_POW10 = 10.0 ** np.arange(21)  # exact doubles
_VELTKAMP = float(2**27 + 1)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as high + low, each with at most 26 significant bits (Veltkamp's split)."""
    c = a * _VELTKAMP
    high = c - (c - a)
    return high, a - high


_POW10_HALVES = _halves(_POW10)
# A candidate whose distance from a float is this close to half the float's spacing
# (both scaled as in _shortest, where the spacing is at least 1.1) is left to repr.
_GUARD = 1e-9


def _quad_table() -> np.ndarray:
    """Entry q < 10**4 holds the 4 ASCII digits of q, entry 10**4 + q the same with
    the trailing zeros as NUL bytes; each as the uint32 of those 4 bytes."""
    q = np.arange(10**4)
    digits = np.stack([q // 10**p % 10 for p in (3, 2, 1, 0)], axis=1).astype(np.uint8) + 48
    followed = q[:, None] % 10 ** np.arange(4, 0, -1) != 0  # a nonzero digit at or after this one
    return np.concatenate((digits, digits * followed)).view("<u4")[:, 0]


_QUADS = _quad_table()
_TEXT_WIDTH = 23  # "-0.000" and 17 digits


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which floats of x this works out, and for those their repr, as an object array of str.

    repr writes the fewest significant digits that read back as the float (the
    nearest such digits when several do), in positional form from 1e-4 to 1e16.
    This works them out for each v with 1e-4 <= |v| < 1e15 that is not a power
    of two, so that both of v's neighbours are one spacing away:
    - With 10**e <= |v| < 10**(e + 1), N = |v| * 10**(16 - e) is exact as an
      integer n of 17 digits plus frac: 10**(16 - e) is an exact double, and
      Dekker's product of Veltkamp halves gives the product's rounding error.
    - The candidates are N rounded half to even to 17, 16 and 15 digits, and
      the fewest that read back win: those less than half of v's spacing from
      v, both scaled by 10**(16 - e). A 17-digit candidate is at most 0.5 from
      N, and half the spacing is at least 0.55 here.
    - Left to repr are a candidate within _GUARD of that bound, where the
      rounding of the scaled distance could decide (no 15- or 16-digit decimal
      is on it: the points halfway between floats here need 17 digits), and a
      v next to a power of ten whose e the logarithm got wrong.
    """
    mag = np.abs(x)
    bits = mag.view(np.uint64)
    rows = np.flatnonzero((mag >= 1e-4) & (mag < 1e15) & (bits & _MANTISSA != 0))
    v = mag[rows]
    k = 16 - np.floor(np.log10(v)).astype(np.intp)  # 16 - e
    high = v * _POW10[k]
    vh, vl = _halves(v)
    ph, pl = _POW10_HALVES[0][k], _POW10_HALVES[1][k]
    low = ((vh * ph - high) + vh * pl + vl * ph) + vl * pl  # v * 10**k == high + low
    whole = np.floor(low)
    frac = low - whole
    integer = high.astype(np.int64)  # when e is right, high >= 2**53 is an even integer
    n = integer + whole.astype(np.int64)
    sure = (n >= 10**16) & (n < 10**17)  # e is right
    digits = integer + np.rint(low).astype(np.int64)  # N to 17 digits, half to even as high is even
    half = np.ldexp(_POW10[k], (v.view(np.uint64) >> 52).astype(np.intp) - 1076)  # half of v's spacing, times 10**k
    for unit, tie in ((10, 5), (100, 50)):  # 16, then 15 digits: fewer that read back win
        q = n // unit  # (floor_divide by a scalar is several times faster than divmod)
        r = n - q * unit
        q += (r > tie) | ((r == tie) & ((frac > 0) | (q & 1 == 1)))
        q *= unit
        gap = np.abs((q - n) - frac)
        shorter = gap < half - _GUARD
        sure &= shorter | (gap > half + _GUARD)
        digits = np.where(shorter, q, digits)
    done = np.zeros(x.size, dtype=bool)
    done[rows[sure]] = True
    carry = digits[sure] == 10**17  # rounded up to the next power of ten
    digits = np.where(carry, 10**16, digits[sure])
    point = 17 - k[sure] + carry  # the digits before the decimal point, if positive
    negative = x[done] < 0
    return done, _layout(digits, point, negative)


def _layout(digits: np.ndarray, point: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The text of each (-)0.d1d2...d17 * 10**point, d1d2...d17 being a 17-digit integer
    of digits and -4 < point < 17, as repr lays it out: "-" if negative, the digits
    before the point ("0" if none), ".", and the rest without trailing zeros but
    one. An object array of str."""
    quads = np.empty((digits.size, 5), "<u4")
    q, tail = digits, np.full(digits.size, 10**4)  # tail: only zeros follow, so zeros are NUL
    for j in range(4, 0, -1):
        rest = q // 10**4
        quad = q - rest * 10**4
        quads[:, j] = _QUADS.take(quad + tail)
        tail *= quad == 0
        q = rest
    quads[:, 0] = _QUADS.take(q + tail)
    chars = quads.view(np.uint8)  # "000" and the 17 digits, trailing zeros NUL; NUL | 48 is "0"
    text = np.zeros((digits.size, _TEXT_WIDTH), np.uint8)
    key = point * 2 + negative
    cuts = (np.flatnonzero(np.diff(key)) + 1).tolist()
    edges = [0, *cuts, digits.size] if digits.size else []
    for a, b in zip(edges, edges[1:]):  # a run of one sign and point
        rows, t, s = slice(a, b), int(point[a]), int(negative[a])
        f = 3 + t  # chars[f:] is the fraction, after the zeros it starts with when t < 0
        whole = max(t, 1)  # "0" before the point when t <= 0
        if s:
            text[rows, 0] = 45  # "-"
        text[rows, s : s + whole] = chars[rows, 3:f] | 48 if t > 0 else 48
        text[rows, s + whole] = 46  # "."
        text[rows, s + whole + 1] = chars[rows, f] | 48  # at least one digit follows the point
        text[rows, s + whole + 2 : s + whole + 21 - f] = chars[rows, f + 1 :]
    return text.astype(np.uint32).view(f"U{_TEXT_WIDTH}")[:, 0].astype(object)


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence | CodedColumn]) -> None:
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


def read_json(path: str | Path, what: str, header: Callable[[object], None] | None = None) -> object:
    """The JSON document in path. A file that cannot be read or parsed is an InputError naming
    it, and so is one holding NaN, Infinity or -Infinity, which json.loads takes by default but
    JSON has not. header, if given, checks the parsed document before those literals are
    rejected, and an InputError it raises is prefixed with the path: a version-1 model file,
    whose leaf thresholds were NaN, is told to re-train."""
    literals = []

    def constant(literal: str) -> float:
        literals.append(literal)
        return float(literal)

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=constant)
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None
    if header is not None:
        try:
            header(doc)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
    if literals:
        raise InputError(f"cannot read {what} {path}: {literals[0]} is not JSON")
    return doc


def write_json(path: str | Path, doc: object, indent: int | None = 2) -> None:
    """A strict JSON artifact with sorted keys and a final newline; indent=None is the compact
    form. A NaN or infinity in doc is a program fault: json.dumps raises ValueError."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False) + "\n")


_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _json_fits(kind, value: object) -> bool:
    """Whether value is a JSON value of kind, or of one kind of a union such as int | None:
    an integer is a number too, a boolean is neither, and an Enum takes its members' values."""
    for k in getattr(kind, "__args__", (kind,)):
        if issubclass(k, Enum):
            if value in [m.value for m in k]:
                return True
        elif isinstance(value, (int, float) if k is float else k) and (k is bool or not isinstance(value, bool)):
            return True
    return False


def _expected(kind) -> str:
    kinds = getattr(kind, "__args__", (kind,))
    return " or ".join(_JSON_KINDS.get(k) or f"one of {', '.join(repr(m.value) for m in k)}" for k in kinds)


def _scalar(doc: dict, name: str, kind, rule: str | None = None, ok: Callable[[object], bool] = lambda v: True):
    """doc[name], which must be a JSON value of kind (see _json_fits) that ok accepts;
    rule says what is expected, by default the kind."""
    value = doc[name]
    if not (_json_fits(kind, value) and ok(value)):
        raise InputError(f"field {name!r}: expected {rule or _expected(kind)}, got {value!r}")
    return value


def build_params(cls: Callable[..., T], doc: object, where: str) -> T:
    """cls(**doc) for a parameter dataclass read from JSON. An unknown field, a value
    of the wrong JSON type, a NaN or infinity and a value cls rejects are InputErrors
    naming where and the field."""
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object, got {doc!r}")
    hints = get_type_hints(cls)
    for key, value in doc.items():
        if key not in hints:
            raise InputError(f"{where}: unknown field {key!r} (expected one of {', '.join(hints)})")
        if not _json_fits(hints[key], value):
            raise InputError(f"{where}: field {key!r}: expected {_expected(hints[key])}, got {value!r}")
        if isinstance(value, float) and not np.isfinite(value):  # no parameter is NaN or infinite
            raise InputError(f"{where}: field {key!r}: expected a finite number, got {value!r}")
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
    """Apply fn(0..count-1), optionally on a thread pool; output order is by index.
    The pool has at most one thread a task and one a usable CPU, whatever threads asks."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, count, cpus)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def env_log_level(default: str = "WARNING") -> int:
    name = os.environ.get("DEBRIS_EWS_LOG", default).upper()
    return getattr(logging, name, logging.WARNING)


def setup_logging() -> None:
    logging.basicConfig(
        level=env_log_level(),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
