"""Keyword-hierarchy role assignment.

A statement is classified by prefix-matching verb stems against three
disjoint stem sets and taking the highest-ranked role among the matches.
Also serves as the deterministic oracle behind the mock chat backend.

Each taxonomy groups its stems by length once, on first use, so a token
costs one dict lookup per distinct stem length instead of one prefix test
per stem.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Dict, FrozenSet, Set, Tuple

from .errors import PipelineError
from .types import RoleLabel, role_max

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

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class NoKeywordMatch(PipelineError):
    """No taxonomy stem present; caller should route the record to the LLM path."""


class TaxonomyOverlap(PipelineError):
    pass


@dataclass(frozen=True)
class KeywordTaxonomy:
    leadership_stems: FrozenSet[str] = DEFAULT_LEADERSHIP_STEMS
    direct_stems: FrozenSet[str] = DEFAULT_DIRECT_STEMS
    indirect_stems: FrozenSet[str] = DEFAULT_INDIRECT_STEMS
    aliases: Tuple[Tuple[str, str], ...] = tuple(sorted(DEFAULT_ALIASES.items()))

    def __post_init__(self):
        sets = [self.leadership_stems, self.direct_stems, self.indirect_stems]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                overlap = sets[i] & sets[j]
                if overlap:
                    raise TaxonomyOverlap(f"stem sets overlap: {sorted(overlap)}")

    @property
    def alias_map(self) -> Dict[str, str]:
        return dict(self.aliases)

    def stems_by_role(self) -> Dict[RoleLabel, FrozenSet[str]]:
        return {
            RoleLabel.LEADERSHIP: self.leadership_stems,
            RoleLabel.DIRECT_SUPPORT: self.direct_stems,
            RoleLabel.INDIRECT_SUPPORT: self.indirect_stems,
        }

    @cached_property
    def _tables(self) -> Tuple[list, Dict[str, str]]:
        """(length, {stem: role}) pairs, shortest stems first, and the alias map."""
        by_length: Dict[int, Dict[str, RoleLabel]] = {}
        for role, stems in self.stems_by_role().items():
            for stem in stems:
                by_length.setdefault(len(stem), {})[stem] = role
        return sorted(by_length.items()), self.alias_map


def _tokenize(statement: str) -> list:
    # [a-z0-9]+ already splits at hyphens and strips punctuation
    return _TOKEN_RE.findall(statement.lower())


def match_stems(statement: str, taxonomy: KeywordTaxonomy = KeywordTaxonomy()) -> Set[Tuple[str, RoleLabel]]:
    """All (stem, role) pairs whose stem prefixes some word of the statement."""
    tables, aliases = taxonomy._tables
    matches = set()
    for token in set(_tokenize(statement)):
        token = aliases.get(token, token)
        for length, table in tables:
            if length > len(token):
                break
            role = table.get(token[:length])
            if role is not None:
                matches.add((token[:length], role))
    return matches


def classify_statement(statement: str, taxonomy: KeywordTaxonomy = KeywordTaxonomy()) -> RoleLabel:
    """Highest-category-wins classification over all matched stems."""
    matches = match_stems(statement, taxonomy)
    if not matches:
        raise NoKeywordMatch(f"no taxonomy stem in statement: {statement[:80]!r}")
    return reduce(role_max, (role for _, role in matches))
