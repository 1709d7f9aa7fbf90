"""The one reader and writer of the files that pipeline stages hand to each other.

Writers put the content in a `<name>.tmp` sibling, row by row, and os.replace
it over the target, so a stage that crashes mid-write leaves the previous file
or the new one, never a truncated file that a later stage trusts (no fsync: a
crashed process, not a power loss). Files are UTF-8 without newline
translation, JSON keys are sorted, and CSV uses the csv module's default dialect.
A write or a directory that cannot be made raises FileUnwritable. Readers
raise FileUnreadable when a file cannot be read and FormatError(path, line,
message) when it does not parse; a JSON-lines line cut short at the end of a
file raises its subclass TruncatedLine. The row readers, and read_json for a
file that holds one JSON object, take an optional `decode` that turns each row
into a value; a KeyError, ValueError or TypeError it raises becomes
FormatError(path, line, "field <name>: ..."), naming the field the decoder
read last, dotted through nested objects (`params.W2`); a whole JSON file is
line 1. To find that field, a failed decode is run a second time, so a
decoder must be a pure function of its row.
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


# One encoder for every JSON-lines row, keys sorted: json.dumps with a keyword
# argument builds a new JSONEncoder on every call.
encode_row = json.JSONEncoder(sort_keys=True).encode


def write_jsonl(path, rows: Iterable[dict]) -> None:
    with _writing(path) as fh:
        for row in rows:
            fh.write(encode_row(row) + "\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _lines(path) -> Iterator[Tuple[int, str]]:
    """(line number, line with its newline) for each line of a UTF-8 file."""
    try:
        with open(path, "rb") as fh:
            for number, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError(path, number, f"not UTF-8: {exc}") from exc
                yield number, line
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def read_text(path) -> str:
    return "".join(line for _, line in _lines(path))


def read_json(path, decode: Optional[Callable[[dict], Any]] = None) -> Any:
    """The JSON value of a file, or decode(value) for a file that holds one object."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.lineno, f"bad JSON: {exc.msg} at column {exc.colno}") from exc
    if decode is not None and not isinstance(data, dict):
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


def _decoded(path, number: int, row: dict, decode: Optional[Callable[[dict], Any]]) -> Any:
    if decode is None:
        return row
    try:
        return decode(row)
    except (KeyError, ValueError, TypeError) as exc:
        # decode again on a row that tracks its reads (slower, so only on failure)
        # to name the field that failed
        tracked = _Row(row)
        try:
            decode(tracked)
        except (KeyError, ValueError, TypeError):
            pass
        reason = "missing" if isinstance(exc, KeyError) else exc
        raise FormatError(path, number, f"field {tracked.field}: {reason}") from exc


def read_jsonl(path, decode: Optional[Callable[[dict], Any]] = None) -> Iterator[Tuple[int, Any]]:
    """(line number, object or decode(object)) for each non-blank line of a JSON-lines file."""
    for number, line in _lines(path):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            # only the last line of a file can lack its newline
            error = FormatError if line.endswith("\n") else TruncatedLine
            raise error(path, number, f"bad JSON: {exc.msg} at column {exc.colno}") from exc
        if not isinstance(row, dict):
            raise FormatError(path, number, "row is not a JSON object")
        yield number, _decoded(path, number, row, decode)


def read_csv(
    path, delimiter: str = ",", decode: Optional[Callable[[dict], Any]] = None
) -> Iterator[Tuple[int, Any]]:
    """(line number, row keyed by the header or decode(row)) for each non-blank CSV row."""
    reader = csv.reader((line for _, line in _lines(path)), delimiter=delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError(path, 1, "empty file, header row required")
        for values in filter(None, reader):
            if len(values) != len(header):
                message = f"{len(values)} columns, the header has {len(header)}"
                raise FormatError(path, reader.line_num, message)
            row = dict(zip(header, values))
            yield reader.line_num, _decoded(path, reader.line_num, row, decode)
    except csv.Error as exc:
        raise FormatError(path, reader.line_num, str(exc)) from exc
