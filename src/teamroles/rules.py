"""Keyword-hierarchy role assignment.

A word is a run of [a-z0-9] in the lowercased statement. A word matches a
role when one of the role's verb stems prefixes it, or, for an alias key
(an irregular form such as "wrote"), when one prefixes its alias target.
The highest-ranked role matched wins. Also serves as the deterministic
oracle behind the mock chat backend.

The paper uses one keyword hierarchy, so the stems are module constants,
compiled once at import into one regular expression that finds each
word's alias or else its highest-ranked stem.
"""
from __future__ import annotations

import re
from typing import Dict, FrozenSet, Mapping, Tuple

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

_NO_HIT = (-1, "", None)  # ranks below every role: no match, or an alias that no stem prefixes


class NoKeywordMatch(PipelineError):
    """No taxonomy stem present; caller should route the record to the LLM path."""


def compile_taxonomy(
    stems_by_role: Mapping[RoleLabel, FrozenSet[str]], aliases: Mapping[str, str]
) -> Tuple[re.Pattern, Dict[Tuple[str, str], tuple]]:
    """(pattern, hits) for disjoint stem sets and aliases, each a non-empty run of [a-z0-9].

    pattern.findall(statement.lower()) gives an (alias, stem) pair per word
    that matches, one of the two empty; hits maps it to (rank, stem, role). A
    match starts only where a word starts, and the first alternative that
    matches there wins: the alias that the whole word is, else the
    highest-ranked stem that prefixes it. Aliases get their own group because
    an alias key that is also a stem has one hit as a word and another as a
    prefix.
    """
    ranked = sorted(((role.rank, stem, role) for role, stems in stems_by_role.items()
                     for stem in stems), reverse=True)  # highest role first
    hits = {("", hit[1]): hit for hit in ranked}
    for alias, target in aliases.items():
        hits[alias, ""] = next((hit for hit in ranked if target.startswith(hit[1])), _NO_HIT)
    pattern = "(?<![a-z0-9])(?:({})(?![a-z0-9])|({}))".format(
        "|".join(map(re.escape, aliases)) or "(?!)",  # (?!) never matches
        "|".join(re.escape(stem) for _, stem, _ in ranked) or "(?!)",
    )
    return re.compile(pattern), hits


_PATTERN, _HITS = compile_taxonomy(STEMS_BY_ROLE, DEFAULT_ALIASES)


def classify_statement(statement: str) -> RoleLabel:
    """Highest-category-wins classification over all matched stems."""
    # hits order by rank first; a stem has one role, so no two RoleLabels are ever ordered
    role = max(map(_HITS.__getitem__, _PATTERN.findall(statement.lower())), default=_NO_HIT)[2]
    if role is None:
        raise NoKeywordMatch(f"no taxonomy stem in statement: {statement[:80]!r}")
    return role
