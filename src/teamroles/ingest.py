"""Corpus parsing and journal-stratified sampling.

Input corpora are delimited tables or JSON-lines with one (paper, author)
row per line, read through `artifacts`: a file that cannot be read raises
FileUnreadable, and a line that does not parse as the format (bad JSON, a
row with the wrong number of columns) raises FormatError with the path and
line. Rows that parse but violate corpus invariants are collected into a
rejects report instead of being silently dropped.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from . import artifacts
from .errors import FileUnreadable, FormatError, PipelineError  # noqa: F401 (re-exported)
from .types import (
    CORPUS_YEAR_MAX,
    CORPUS_YEAR_MIN,
    ContributionRecord,
    Journal,
    PaperRecord,
    RoleLabel,
    UnknownJournal,
    as_flag,
    as_int,
    as_text,
    parse_journal,
)

REQUIRED_FIELDS = ("paper_id", "journal", "year", "author_name", "statement")
# a JSON value of another type (null, a number) is a bad_<field> reject, not its repr
TEXT_FIELDS = ("paper_id", "author_name", "statement")


class InsufficientPapers(PipelineError):
    def __init__(self, journal: Journal, available: int, requested: int):
        super().__init__(
            f"{journal.value}: {available} eligible papers, {requested} requested"
        )
        self.journal = journal
        self.available = available
        self.requested = requested


def _integer(value) -> int:
    """A string as int() parses it (every CSV cell is one), any other JSON value
    only if it is an int: a float or a bool is not truncated to one."""
    return int(value) if isinstance(value, str) else as_int(value)


@dataclass(frozen=True)
class CorpusFile:
    path: Path
    format: str = "delimited-table"  # or "json-lines"
    delimiter: str = ","

    def __post_init__(self):
        if self.format not in ("delimited-table", "json-lines"):
            raise ValueError(f"unknown corpus format: {self.format}")
        if len(self.delimiter) != 1:
            raise ValueError(f"must be one character, got {self.delimiter!r}")


@dataclass(frozen=True)
class SamplingPlan:
    per_journal: int = 250
    min_team: int = 2
    max_team: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.per_journal < 1:
            raise ValueError("per_journal must be >= 1")
        if self.min_team > self.max_team:
            raise ValueError("min_team must be <= max_team")


@dataclass(frozen=True)
class Reject:
    line: int
    row: dict
    reason: str


@dataclass
class ParseResult:
    records: List[ContributionRecord]
    rejects: List[Reject]


def _check_fields(path, line: int, fields) -> None:
    """FormatError naming the first required field that `fields` lacks."""
    for name in REQUIRED_FIELDS:
        if name not in fields:
            raise FormatError(path, line, f"field {name}: missing")


def _truthy(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("1", "true", "yes", "y", "t")


def parse_corpus(file: CorpusFile) -> ParseResult:
    """Parse a corpus file into ContributionRecords plus a rejects report.

    record count + reject count always equals the input row count.
    """
    records: List[ContributionRecord] = []
    rejects: List[Reject] = []
    # per-paper fallback when the source carries no position column
    position_counter: Dict[str, int] = {}
    # (paper_id, author_position) of every accepted row, so record_id is a key
    taken: Set[Tuple[str, int]] = set()

    if file.format == "json-lines":
        rows = artifacts.read_jsonl(file.path)
    else:
        rows = artifacts.read_csv(file.path, delimiter=file.delimiter)
    for lineno, row in rows:
        _check_fields(file.path, lineno, row)
        bad = [name for name in TEXT_FIELDS if not isinstance(row[name], str)]
        if bad:
            rejects.append(Reject(lineno, row, f"bad_{bad[0]}"))
            continue
        try:
            journal = parse_journal(str(row["journal"]))
        except UnknownJournal:
            rejects.append(Reject(lineno, row, "unknown_journal"))
            continue
        try:
            year = _integer(row["year"])
        except (TypeError, ValueError):
            rejects.append(Reject(lineno, row, "bad_year"))
            continue
        if not (CORPUS_YEAR_MIN <= year <= CORPUS_YEAR_MAX):
            rejects.append(Reject(lineno, row, "year_out_of_range"))
            continue
        statement = row["statement"].strip()
        if not statement:
            rejects.append(Reject(lineno, row, "empty_statement"))
            continue

        paper_id = row["paper_id"]
        if row.get("author_position") not in (None, ""):
            try:
                position = _integer(row["author_position"])
            except (TypeError, ValueError):
                rejects.append(Reject(lineno, row, "bad_author_position"))
                continue
        else:
            position = position_counter.get(paper_id, 0) + 1
        if position < 1:
            rejects.append(Reject(lineno, row, "bad_author_position"))
            continue
        position_counter[paper_id] = max(position_counter.get(paper_id, 0), position)

        gold_role: Optional[RoleLabel] = None
        if row.get("gold_role") not in (None, ""):
            try:
                gold_role = RoleLabel.from_string(str(row["gold_role"]))
            except ValueError:
                rejects.append(Reject(lineno, row, "bad_gold_role"))
                continue
        if (paper_id, position) in taken:
            rejects.append(Reject(lineno, row, "duplicate_position"))
            continue
        taken.add((paper_id, position))

        records.append(
            ContributionRecord(
                paper_id=paper_id,
                journal=journal,
                year=year,
                author_name=row["author_name"].strip(),
                author_position=position,
                is_corresponding=_truthy(row.get("is_corresponding", False)),
                statement=statement,
                gold_role=gold_role,
            )
        )
    if file.format != "json-lines" and not (records or rejects):
        # a table with no data rows still needs the columns: check its header
        _check_fields(file.path, *next(artifacts.read_csv_rows(file.path, file.delimiter)))
    return ParseResult(records, rejects)


def rows_by_paper(records: List[ContributionRecord]) -> Dict[str, List[ContributionRecord]]:
    """Per-author rows keyed by paper id, papers and rows in first-seen order."""
    by_paper: Dict[str, List[ContributionRecord]] = {}
    for rec in records:
        by_paper.setdefault(rec.paper_id, []).append(rec)
    return by_paper


def paper_record(rows: List[ContributionRecord]) -> PaperRecord:
    """One paper's rows as a PaperRecord, authors ordered by position.

    Raises IncompletePaper when the rows leave a position of the team uncovered.
    """
    rows = sorted(rows, key=lambda r: r.author_position)
    return PaperRecord(
        paper_id=rows[0].paper_id, journal=rows[0].journal, year=rows[0].year, authors=tuple(rows)
    )


def group_papers(records: List[ContributionRecord]) -> List[PaperRecord]:
    """Group per-author rows into PaperRecords, preserving first-seen order."""
    return [paper_record(rows) for rows in rows_by_paper(records).values()]


def sample_papers(papers: List[PaperRecord], plan: SamplingPlan) -> List[PaperRecord]:
    """Seeded per-journal sampling: shuffle eligible papers, take a prefix.

    Deterministic given the seed and independent of input ordering.
    """
    eligible: Dict[Journal, List[PaperRecord]] = {j: [] for j in Journal}
    for paper in papers:
        if plan.min_team <= paper.team_size <= plan.max_team:
            eligible[paper.journal].append(paper)

    rng = random.Random(plan.seed)
    selected: List[PaperRecord] = []
    for journal in Journal:
        pool = sorted(eligible[journal], key=lambda p: p.paper_id)
        if len(pool) < plan.per_journal:
            raise InsufficientPapers(journal, len(pool), plan.per_journal)
        rng.shuffle(pool)
        selected.extend(pool[: plan.per_journal])
    return selected


def expected_rows(journals: float, per_journal: float, avg_authors: float) -> float:
    """Expected labeled-row count for a sampling plan: journals x entries x mean team size."""
    if journals <= 0 or per_journal <= 0 or avg_authors <= 0:
        raise ValueError("all sizing inputs must be positive")
    return journals * per_journal * avg_authors


def record_to_json(rec: ContributionRecord) -> dict:
    return {
        "paper_id": rec.paper_id,
        "journal": rec.journal.value,
        "year": rec.year,
        "author_name": rec.author_name,
        "author_position": rec.author_position,
        "is_corresponding": rec.is_corresponding,
        "statement": rec.statement,
        "gold_role": rec.gold_role.value if rec.gold_role else None,
    }


def record_from_json(data: dict) -> ContributionRecord:
    return ContributionRecord(  # positional, in field order: keywords cost a third more
        as_text(data["paper_id"]),
        parse_journal(data["journal"]),
        int(data["year"]),
        as_text(data["author_name"]),
        int(data["author_position"]),
        as_flag(data["is_corresponding"]),
        as_text(data["statement"]),
        None if data.get("gold_role") is None else RoleLabel.from_string(data["gold_role"]),
    )


def write_corpus(records: List[ContributionRecord], path) -> None:
    artifacts.write_jsonl(path, (record_to_json(rec) for rec in records))


def read_corpus(path) -> List[ContributionRecord]:
    return [record for _, record in artifacts.read_jsonl(path, decode=record_from_json)]


def write_rejects(rejects: List[Reject], path) -> None:
    artifacts.write_jsonl(
        path, ({**rej.row, "reject_reason": rej.reason, "line": rej.line} for rej in rejects)
    )
