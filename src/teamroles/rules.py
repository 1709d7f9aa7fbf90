"""Keyword-hierarchy role assignment.

A statement is classified by prefix-matching verb stems against three
disjoint stem sets and taking the highest-ranked role among the matches.
Also serves as the deterministic oracle behind the mock chat backend.

The paper uses one keyword hierarchy, so the stems are module constants,
grouped by length once at import: a token costs one dict lookup per
distinct stem length instead of one prefix test per stem.
"""
from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterator, Set, Tuple

from .errors import PipelineError
from .types import RoleLabel

# Stem-prefix matching so "designing"/"designed"/"design" all hit; the
# alias table catches irregular past forms that do not share the stem.
DEFAULT_LEADERSHIP_STEMS = frozenset(
    {"design", "conceptualiz", "direct", "supervis", "coordinat", "interpret", "conduct", "writ"}
)
DEFAULT_DIRECT_STEMS = frozenset({"help", "assist", "prepar", "collect", "analyz"})
DEFAULT_INDIRECT_STEMS = frozenset(
    {"participat", "provid", "contribut", "comment", "edit", "discuss"}
)
DEFAULT_ALIASES = {"wrote": "writ"}

STEMS_BY_ROLE: Dict[RoleLabel, FrozenSet[str]] = {
    RoleLabel.LEADERSHIP: DEFAULT_LEADERSHIP_STEMS,
    RoleLabel.DIRECT_SUPPORT: DEFAULT_DIRECT_STEMS,
    RoleLabel.INDIRECT_SUPPORT: DEFAULT_INDIRECT_STEMS,
}

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class NoKeywordMatch(PipelineError):
    """No taxonomy stem present; caller should route the record to the LLM path."""


def _stem_tables(stems_by_role: Dict[RoleLabel, FrozenSet[str]]) -> list:
    """(length, {stem: (rank, stem, role)}) pairs, shortest stems first; the stem
    sets must be disjoint. The rank rides along so that classify_statement
    compares ints, not RoleLabels (an Enum hashes in Python code)."""
    by_length: Dict[int, Dict[str, Tuple[int, str, RoleLabel]]] = {}
    for role, stems in stems_by_role.items():
        for stem in stems:
            by_length.setdefault(len(stem), {})[stem] = (role.rank, stem, role)
    return sorted(by_length.items())


_STEM_TABLES = _stem_tables(STEMS_BY_ROLE)


def _tokenize(statement: str) -> list:
    # [a-z0-9]+ already splits at hyphens and strips punctuation
    return _TOKEN_RE.findall(statement.lower())


def _hits(statement: str) -> Iterator[Tuple[int, str, RoleLabel]]:
    """(rank, stem, role) of every stem that prefixes a word of the statement,
    once per distinct word."""
    for token in set(_tokenize(statement)):
        token = DEFAULT_ALIASES.get(token, token)
        for length, table in _STEM_TABLES:
            if length > len(token):
                break
            hit = table.get(token[:length])
            if hit is not None:
                yield hit


def match_stems(statement: str) -> Set[Tuple[str, RoleLabel]]:
    """All (stem, role) pairs whose stem prefixes some word of the statement."""
    return {(stem, role) for _, stem, role in _hits(statement)}


def classify_statement(statement: str) -> RoleLabel:
    """Highest-category-wins classification over all matched stems."""
    # hits order by rank first; a stem has one role, so no two RoleLabels are ever ordered
    best = max(_hits(statement), default=None)
    if best is None:
        raise NoKeywordMatch(f"no taxonomy stem in statement: {statement[:80]!r}")
    return best[2]
