"""Core vocabulary types shared by the whole pipeline.

All types are immutable value objects; invariants are checked at
construction so downstream code can rely on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .errors import IncompletePaper, PipelineError

CORPUS_YEAR_MIN = 2003
CORPUS_YEAR_MAX = 2020


def as_text(value) -> str:
    """`value` if it is a string, else a TypeError: a decoded JSON field that should
    hold text may hold a number, a list or null."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def as_flag(value) -> bool:
    """`value` if it is a bool, else a TypeError (no truthiness: "no" is not True)."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def as_int(value) -> int:
    """`value` if it is an int, else a TypeError: no bool, and no float that int()
    would truncate (2.5 is not 2)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def as_number(value) -> float:
    """`value` if it is a finite int or float, else a TypeError (no bool, NaN or
    infinity); an int too large for a float is an OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return value


class RoleLabel(Enum):
    """Three-level author-role taxonomy, ordered by hierarchy rank."""

    LEADERSHIP = "Leadership"
    DIRECT_SUPPORT = "Direct Support"
    INDIRECT_SUPPORT = "Indirect Support"

    @property
    def rank(self) -> int:
        return _ROLE_RANK[self]

    @classmethod
    def from_string(cls, text: str) -> "RoleLabel":
        try:
            return _ROLE_BY_VALUE[text]  # as the stages write it
        except (KeyError, TypeError):
            pass
        try:
            return _ROLE_BY_KEY[as_text(text).strip().lower().replace("_", " ")]
        except KeyError:
            raise ValueError(f"unknown role label: {text!r}") from None


_ROLE_BY_VALUE = {label.value: label for label in RoleLabel}
_ROLE_BY_KEY = {label.value.lower(): label for label in RoleLabel}

_ROLE_RANK = {
    RoleLabel.LEADERSHIP: 2,
    RoleLabel.DIRECT_SUPPORT: 1,
    RoleLabel.INDIRECT_SUPPORT: 0,
}

# Canonical iteration order, highest rank first.
ROLE_ORDER = (RoleLabel.LEADERSHIP, RoleLabel.DIRECT_SUPPORT, RoleLabel.INDIRECT_SUPPORT)


class BinaryRole(Enum):
    LEADERSHIP = "Leadership"
    SUPPORT = "Support"

    @classmethod
    def from_string(cls, text: str) -> "BinaryRole":
        try:
            return _BINARY_BY_VALUE[text]  # as the stages write it
        except (KeyError, TypeError):
            pass
        try:
            return _BINARY_BY_KEY[as_text(text).strip().lower()]
        except KeyError:
            raise ValueError(f"unknown binary role: {text!r}") from None


_BINARY_BY_VALUE = {label.value: label for label in BinaryRole}
_BINARY_BY_KEY = {label.value.lower(): label for label in BinaryRole}


def to_binary(label: RoleLabel) -> BinaryRole:
    """Collapse the three-level taxonomy to Leadership vs Support."""
    if label is RoleLabel.LEADERSHIP:
        return BinaryRole.LEADERSHIP
    return BinaryRole.SUPPORT


def role_max(a: RoleLabel, b: RoleLabel) -> RoleLabel:
    """Higher of two roles under Leadership > Direct Support > Indirect Support."""
    return a if a.rank >= b.rank else b


class Journal(Enum):
    PNAS = "PNAS"
    NATURE = "Nature"
    SCIENCE = "Science"
    PLOS_ONE = "PLoS One"


# Case-insensitive alias table for journal normalization.
_JOURNAL_ALIASES = {
    "pnas": Journal.PNAS,
    "proceedings of the national academy of sciences": Journal.PNAS,
    "nature": Journal.NATURE,
    "science": Journal.SCIENCE,
    "plos one": Journal.PLOS_ONE,
    "plosone": Journal.PLOS_ONE,
}


class UnknownJournal(PipelineError, ValueError):
    """A journal name outside the alias table; a ValueError, so a row decoder that
    meets one reports the field."""


_JOURNAL_BY_VALUE = {journal.value: journal for journal in Journal}


def parse_journal(name: str) -> Journal:
    """Normalize a journal string to the canonical enum; unknown names are rejected."""
    try:
        return _JOURNAL_BY_VALUE[name]  # as corpus.jsonl holds it
    except (KeyError, TypeError):
        pass
    key = " ".join(as_text(name).strip().lower().split())
    try:
        return _JOURNAL_ALIASES[key]
    except KeyError:
        raise UnknownJournal(f"unknown journal: {name!r}") from None


class _ContributionFields(NamedTuple):
    paper_id: str
    journal: Journal
    year: int
    author_name: str
    author_position: int
    is_corresponding: bool
    statement: str
    gold_role: Optional[RoleLabel] = None


class ContributionRecord(_ContributionFields):
    """One author's self-reported statement on one paper.

    A tuple, because every stage builds one per corpus row and a tuple costs
    a third of a frozen dataclass to build; like one, it is immutable and
    checked when built.
    """

    __slots__ = ()

    def __new__(cls, paper_id, journal, year, author_name, author_position, is_corresponding,
                statement, gold_role=None):
        if author_position < 1:
            raise ValueError(f"author_position must be >= 1, got {author_position}")
        return tuple.__new__(cls, (paper_id, journal, year, author_name, author_position,
                                   is_corresponding, statement, gold_role))

    # _replace builds through _make, which would skip the check in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def record_id(self) -> str:
        return f"{self.paper_id}#{self.author_position}"


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    journal: Journal
    year: int
    authors: tuple  # ordered ContributionRecord tuple
    referenced_work_ids: frozenset = frozenset()
    topic_ids: frozenset = frozenset()

    def __post_init__(self):
        positions = [a.author_position for a in self.authors]
        if any(p > len(self.authors) for p in positions):
            raise IncompletePaper(
                f"paper {self.paper_id}: author_position exceeds team size {len(self.authors)}"
            )

    @property
    def team_size(self) -> int:
        return len(self.authors)


@dataclass(frozen=True)
class WorkEntry:
    """One publication in an author's history."""

    work_id: str
    year: int
    author_position: int
    is_corresponding: bool
    referenced_work_ids: frozenset
    topic_ids: frozenset
    citation_count: int
    institution_ids: frozenset

    def __post_init__(self):
        if self.citation_count < 0:
            raise ValueError(f"citation_count must be >= 0, got {self.citation_count}")


@dataclass(frozen=True)
class AuthorProfile:
    author_id: str
    works: tuple  # tuple of WorkEntry

    def __post_init__(self):
        ids = [w.work_id for w in self.works]
        if len(ids) != len(set(ids)):
            raise ValueError(f"profile {self.author_id} contains duplicate work ids")


# Canonical feature order (index 0-9). Model input and attribution output
# are both aligned to this order.
FEATURE_NAMES = (
    "contribution_to_references",
    "contribution_to_topics",
    "probability_of_leading",
    "probability_of_leading_correspondence",
    "career_age",
    "citation_count",
    "unique_topics",
    "total_publications",
    "citation_impact_per_year",
    "institutional_diversity",
)

# The features that are shares, each in [0, 1]; the rest are counts, >= 0.
RATIO_FEATURES = FEATURE_NAMES[:4]


def feature_problem(name: str, value: float) -> Optional[str]:
    """Why `value` cannot be feature `name`, or None if it can: every feature
    is finite and >= 0, and a ratio is at most 1."""
    if not math.isfinite(value):
        return f"feature {name} is not finite: {value}"
    if value < 0:
        return f"feature {name} is negative: {value}"
    if name in RATIO_FEATURES and value > 1.0:
        return f"ratio feature {name} exceeds 1: {value}"
    return None


@dataclass(frozen=True)
class FeatureVector:
    contribution_to_references: float
    contribution_to_topics: float
    probability_of_leading: float
    probability_of_leading_correspondence: float
    career_age: float
    citation_count: float
    unique_topics: float
    total_publications: float
    citation_impact_per_year: float
    institutional_diversity: float

    def __post_init__(self):
        for name in FEATURE_NAMES:
            problem = feature_problem(name, getattr(self, name))
            if problem is not None:
                raise ValueError(problem)

    def to_list(self) -> list:
        return [float(getattr(self, name)) for name in FEATURE_NAMES]

    @classmethod
    def from_list(cls, values) -> "FeatureVector":
        if len(values) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} values, got {len(values)}")
        return cls(*[float(v) for v in values])
