"""The one reader and writer of the files that pipeline stages hand to each other.

Writers put the content in a `<name>.tmp` sibling, row by row, and os.replace
it over the target, so a stage that crashes mid-write leaves the previous file
or the new one, never a truncated file that a later stage trusts (no fsync: a
crashed process, not a power loss). Files are UTF-8 without newline
translation, JSON keys are sorted, and CSV uses the csv module's default dialect.
A write or a directory that cannot be made raises FileUnwritable. Readers
raise FileUnreadable when a file cannot be read and FormatError(path, line,
message) when it does not parse; a JSON-lines line cut short at the end of a
file raises its subclass TruncatedLine. The row readers stream: they read
line by line and hold one row at a time, so a bad line raises only when the
caller reaches it. read_jsonl_spans also gives each row's byte span, and
read_jsonl_at reads one such span back under the same rules, for a caller
that keeps where its rows are rather than the rows. read_csv_rows gives the
header and then each row as a list of cells, for a caller that picks its
columns by position; read_csv keys each row by the header. The row readers,
and read_json for a file that holds one JSON object, take an optional
`decode` that turns each row into a value; a KeyError, ValueError or
TypeError it raises becomes FormatError(path, line, "field <name>: ..."),
naming the field the decoder read last, dotted through nested objects
(`params.W2`); a whole JSON file is line 1. To find that field, a failed
decode is run a second time, so a decoder must be a pure function of its
row.
"""
from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import FileUnreadable, FileUnwritable, FormatError, TruncatedLine


def make_dir(path) -> None:
    """Create a directory and its parents unless it exists."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileUnwritable(f"cannot create directory {path}: {exc}") from exc


@contextmanager
def _writing(path):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    opened = False
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            opened = True
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if opened:  # else tmp may be someone else's, e.g. a directory in the way
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise FileUnwritable(f"cannot write {path}: {exc}") from exc
        raise


def write_text(path, text: str) -> None:
    with _writing(path) as fh:
        fh.write(text)


def write_json(path, data) -> None:
    write_text(path, json.dumps(data, indent=2, sort_keys=True))


def _row_encoder() -> Callable[[dict], str]:
    """json.dumps(row, sort_keys=True) as one function, its C encoder built once:
    JSONEncoder.encode builds a new one for every row."""
    encoder = json.JSONEncoder(sort_keys=True)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    markers: dict = {}  # the containers being encoded, for the circular-reference check
    # the arguments that JSONEncoder.iterencode(row, _one_shot=True) passes
    iterencode = json.encoder.c_make_encoder(
        markers, encoder.default, json.encoder.encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, True, False, True)

    def encode_row(row: dict) -> str:
        try:
            return "".join(iterencode(row, 0))
        except BaseException:
            markers.clear()  # a failed encode leaves its containers marked
            raise

    return encode_row


encode_row = _row_encoder()


def write_jsonl(path, rows: Iterable[dict]) -> None:
    with _writing(path) as fh:
        for row in rows:
            fh.write(encode_row(row) + "\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _decode_utf8(path, number: int, raw: bytes) -> str:
    """`raw`, whose first line is line `number` of the file, as text."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        number += raw.count(b"\n", 0, exc.start)
        raise FormatError(path, number, f"not UTF-8: {exc}") from exc


def _lines(path) -> Iterator[Tuple[int, int, int, str]]:
    """(line number, start and end byte offset, line with its newline) for each
    line of a UTF-8 file."""
    try:
        with open(path, "rb") as fh:
            end = 0
            for number, raw in enumerate(fh, start=1):
                start, end = end, end + len(raw)
                yield number, start, end, _decode_utf8(path, number, raw)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def read_text(path) -> str:
    """The text of a UTF-8 file, read in one call."""
    try:
        with open(path, "rb") as fh:
            return _decode_utf8(path, 1, fh.read())
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def read_json(path, decode: Optional[Callable[[dict], Any]] = None) -> Any:
    """The JSON value of a file, or decode(value) for a file that holds one object."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.lineno, f"bad JSON: {exc.msg} at column {exc.colno}") from exc
    if decode is None:
        return data
    if not isinstance(data, dict):
        raise FormatError(path, 1, "not a JSON object")
    return _decoded(path, 1, data, decode)


class _Row(dict):
    """A row that remembers the last field a decoder read from it or from an
    object nested in it."""

    def __init__(self, data: dict, prefix: str = "", last: Optional[list] = None):
        super().__init__(data)
        self.prefix = prefix
        self.last = [None] if last is None else last  # shared with the nested rows

    @property
    def field(self) -> Optional[str]:
        return self.last[0]

    def _nested(self, value):
        return _Row(value, self.last[0] + ".", self.last) if isinstance(value, dict) else value

    def __getitem__(self, key):
        self.last[0] = f"{self.prefix}{key}"  # before the lookup, which may fail
        return self._nested(super().__getitem__(key))

    def get(self, key, default=None):
        self.last[0] = f"{self.prefix}{key}"
        return self._nested(super().get(key, default))


def _field_error(path, number: int, row: dict, decode: Callable[[dict], Any],
                 exc: Exception) -> FormatError:
    """The FormatError for a row that `decode` failed on with `exc`."""
    # decode again on a row that tracks its reads (slower, so only on failure)
    # to name the field that failed
    tracked = _Row(row)
    try:
        decode(tracked)
    except (KeyError, ValueError, TypeError):
        pass
    reason = "missing" if isinstance(exc, KeyError) else exc
    return FormatError(path, number, f"field {tracked.field}: {reason}")


def _decoded(path, number: int, row: dict, decode: Optional[Callable[[dict], Any]]) -> Any:
    """decode(row), or the row itself without a decoder."""
    if decode is None:
        return row
    try:
        return decode(row)
    except (KeyError, ValueError, TypeError) as exc:
        raise _field_error(path, number, row, decode, exc) from exc


# The C scanner behind json.loads, called directly: json.loads spends about as
# long again in Python-level checks around it as the scan takes on a short row.
_scan_json = json.JSONDecoder().scan_once


def _json_object(path, number: int, line: str) -> Optional[dict]:
    """The object on a line of a JSON-lines file, or None for a blank line."""
    try:
        row, end = _scan_json(line, 0)
        exact = line[end:] in ("\n", "")  # else json.loads decides: spaces, junk, a BOM
    except (StopIteration, ValueError):
        exact = False
    if not exact:
        if not line.strip():
            return None
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            # only the last line of a file can lack its newline
            error = FormatError if line.endswith("\n") else TruncatedLine
            raise error(path, number, f"bad JSON: {exc.msg} at column {exc.colno}") from exc
    if not isinstance(row, dict):
        raise FormatError(path, number, "row is not a JSON object")
    return row


def read_jsonl_spans(
    path, decode: Optional[Callable[[dict], Any]] = None
) -> Iterator[Tuple[int, int, int, Any]]:
    """(line number, start and end byte offset, object or decode(object)) for
    each non-blank line of a JSON-lines file."""
    for number, start, end, line in _lines(path):
        row = _json_object(path, number, line)
        if row is not None:
            yield number, start, end, _decoded(path, number, row, decode)


def read_jsonl(path, decode: Optional[Callable[[dict], Any]] = None) -> Iterator[Tuple[int, Any]]:
    """(line number, object or decode(object)) for each non-blank line of a
    JSON-lines file: read_jsonl_spans without the spans, one generator deep."""
    try:
        with open(path, "rb") as fh:
            for number, raw in enumerate(fh, start=1):
                row = _json_object(path, number, _decode_utf8(path, number, raw))
                if row is not None:
                    yield number, _decoded(path, number, row, decode)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def read_jsonl_at(path, number: int, start: int, end: int,
                  decode: Optional[Callable[[dict], Any]] = None) -> Any:
    """The object or decode(object) of the row that read_jsonl_spans gave as line
    `number` at bytes [start, end), read again from the file; FormatError if
    those bytes do not hold a row now."""
    try:
        with open(path, "rb", buffering=0) as fh:  # one read: a buffer would only cost
            fh.seek(start)
            raw = fh.read(end - start)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    row = _json_object(path, number, _decode_utf8(path, number, raw))
    if row is None:
        raise FormatError(path, number, f"no row at bytes {start}-{end}")
    return _decoded(path, number, row, decode)


def read_csv_rows(path, delimiter: str = ",") -> Iterator[Tuple[int, list]]:
    """(line number, cells) for the header and then for each non-blank CSV row;
    a row whose width is not the header's raises FormatError. A byte order mark
    before the header, as spreadsheets write one, is no part of its first cell."""
    reader = csv.reader((line for *_, line in _lines(path)), delimiter=delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError(path, 1, "empty file, header row required")
        if header:
            header[0] = header[0].removeprefix("\ufeff")
        yield reader.line_num, header
        width = len(header)
        for values in filter(None, reader):
            if len(values) != width:
                message = f"{len(values)} columns, the header has {width}"
                raise FormatError(path, reader.line_num, message)
            yield reader.line_num, values
    except csv.Error as exc:
        raise FormatError(path, reader.line_num, str(exc)) from exc


def read_csv(
    path, delimiter: str = ",", decode: Optional[Callable[[dict], Any]] = None
) -> Iterator[Tuple[int, Any]]:
    """(line number, row keyed by the header or decode(row)) for each non-blank CSV row."""
    rows = read_csv_rows(path, delimiter)
    _, header = next(rows)
    for number, values in rows:
        yield number, _decoded(path, number, dict(zip(header, values)), decode)
