"""The one reader and writer of the files that pipeline stages hand to each other.

Writers put the content in a `<name>.tmp` sibling, row by row, and os.replace
it over the target, so a stage that crashes mid-write leaves the previous file
or the new one, never a truncated file that a later stage trusts (no fsync: a
crashed process, not a power loss). Files are UTF-8 without newline
translation, JSON keys are sorted, and CSV uses the csv module's default dialect.
Readers raise FileUnreadable when a file cannot be read and FormatError(path,
line, message) when it does not parse; a JSON-lines line cut short at the end
of a file raises its subclass TruncatedLine.
"""
from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Sequence, Tuple

from .errors import FileUnreadable, FormatError, TruncatedLine


@contextmanager
def _writing(path):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    with _writing(path) as fh:
        fh.write(text)


def write_json(path, data, indent=2) -> None:
    write_text(path, json.dumps(data, indent=indent, sort_keys=True))


def write_jsonl(path, rows: Iterable[dict]) -> None:
    with _writing(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


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


def read_json(path) -> Any:
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.lineno, f"bad JSON: {exc.msg} at column {exc.colno}") from exc


def read_jsonl(path) -> Iterator[Tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file."""
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
        yield number, row


def read_csv(path, delimiter: str = ",") -> Iterator[Tuple[int, Dict[str, str]]]:
    """(line number, row keyed by the header) for each non-blank row of a CSV file."""
    reader = csv.reader((line for _, line in _lines(path)), delimiter=delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError(path, 1, "empty file, header row required")
        for values in filter(None, reader):
            if len(values) != len(header):
                message = f"{len(values)} columns, the header has {len(header)}"
                raise FormatError(path, reader.line_num, message)
            yield reader.line_num, dict(zip(header, values))
    except csv.Error as exc:
        raise FormatError(path, reader.line_num, str(exc)) from exc
