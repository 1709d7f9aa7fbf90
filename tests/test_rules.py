import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamroles import rules
from teamroles.rules import (
    DEFAULT_ALIASES,
    DEFAULT_DIRECT_STEMS,
    DEFAULT_INDIRECT_STEMS,
    DEFAULT_LEADERSHIP_STEMS,
    STEMS_BY_ROLE,
    NoKeywordMatch,
    _stem_tables,
    _tokenize,
    classify_statement,
    match_stems,
)
from teamroles.types import ROLE_ORDER, RoleLabel

ALL_STEM_WORDS = {
    RoleLabel.LEADERSHIP: ["designing", "conceptualized", "directed", "supervises",
                           "coordinating", "interpreted", "conducting", "writing", "wrote"],
    RoleLabel.DIRECT_SUPPORT: ["helping", "assisted", "prepared", "collecting", "analyzed"],
    RoleLabel.INDIRECT_SUPPORT: ["participated", "providing", "contributed", "commented",
                                 "editing", "discussed"],
}


def test_default_stem_lists():
    assert DEFAULT_LEADERSHIP_STEMS == {
        "design", "conceptualiz", "direct", "supervis", "coordinat", "interpret", "conduct", "writ"
    }
    assert DEFAULT_DIRECT_STEMS == {"help", "assist", "prepar", "collect", "analyz"}
    assert DEFAULT_INDIRECT_STEMS == {
        "participat", "provid", "contribut", "comment", "edit", "discuss"
    }


def test_match_stems_examples():
    assert match_stems("Designed the study") == {("design", RoleLabel.LEADERSHIP)}
    assert match_stems("analyzed and edited") == {
        ("analyz", RoleLabel.DIRECT_SUPPORT),
        ("edit", RoleLabel.INDIRECT_SUPPORT),
    }
    assert match_stems("ran the centrifuge") == set()


def test_match_stems_hyphens_and_case():
    assert ("design", RoleLabel.LEADERSHIP) in match_stems("co-DESIGNED... the work!")


def test_irregular_past_tense_alias():
    assert match_stems("wrote the manuscript") == {("writ", RoleLabel.LEADERSHIP)}
    assert match_stems("written by all authors") == {("writ", RoleLabel.LEADERSHIP)}


def test_classify_statement_paper_worked_example():
    # multi-category statement resolves to the highest category present
    assert classify_statement("designed research and provided comments") is RoleLabel.LEADERSHIP


def test_classify_statement_examples():
    assert classify_statement("collected samples and analyzed data") is RoleLabel.DIRECT_SUPPORT
    assert classify_statement("commented on the manuscript") is RoleLabel.INDIRECT_SUPPORT
    with pytest.raises(NoKeywordMatch):
        classify_statement("performed spectroscopy")


def test_taxonomy_disjointness_enforced():
    """A stem in two sets would silently take the role of whichever set is grouped last."""
    sets = list(STEMS_BY_ROLE.values())
    assert sum(len(stems) for stems in sets) == len(frozenset().union(*sets))


@given(st.permutations(["designed", "provided", "analyzed", "commented"]))
def test_order_independence(words):
    assert classify_statement(" ".join(words)) is RoleLabel.LEADERSHIP


def test_monotone_appending_leadership_word():
    for words in (["helped"], ["commented", "analyzed"], ["provided"]):
        base = " ".join(words)
        assert classify_statement(base + " and supervised") is RoleLabel.LEADERSHIP


def test_fuzz_highest_category_wins():
    """Random stem-word concatenations always resolve to the highest role present."""
    rng = random.Random(7)
    vocab = [(w, role) for role, words in ALL_STEM_WORDS.items() for w in words]
    for _ in range(10_000):
        picked = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        statement = " ".join(w for w, _ in picked)
        expected = max((role for _, role in picked), key=lambda r: r.rank)
        assert classify_statement(statement) is expected


def match_stems_reference(statement, stems_by_role=STEMS_BY_ROLE, aliases=DEFAULT_ALIASES):
    """Every stem of every role tried on every token with startswith: the matcher
    before the stems were grouped into per-length tables."""
    matches = set()
    for token in _tokenize(statement):
        token = aliases.get(token, token)
        for role, stems in stems_by_role.items():
            for stem in stems:
                if token.startswith(stem):
                    matches.add((stem, role))
    return matches


def patched_taxonomy(stems_by_role, aliases):
    """The module's stem tables and aliases swapped for another taxonomy's."""
    return mock.patch.multiple(
        rules, _STEM_TABLES=_stem_tables(stems_by_role), DEFAULT_ALIASES=aliases
    )


# a small alphabet, so stems often prefix one another and tokens
words = st.text("abe", min_size=1, max_size=5)


@st.composite
def taxonomies(draw):
    """(disjoint stem sets by role, aliases)"""
    stems = draw(st.lists(words, unique=True, max_size=10))
    roles = draw(st.lists(st.sampled_from(ROLE_ORDER), min_size=len(stems), max_size=len(stems)))
    by_role = {role: frozenset(s for s, r in zip(stems, roles) if r is role) for role in ROLE_ORDER}
    return by_role, draw(st.dictionaries(words, words, max_size=3))


statements = st.lists(st.text("abeAB", max_size=6), max_size=8).map(" -".join)


@given(taxonomies(), statements)
def test_match_stems_equals_the_per_stem_loop(taxonomy, statement):
    with patched_taxonomy(*taxonomy):
        assert match_stems(statement) == match_stems_reference(statement, *taxonomy)


@given(st.lists(st.sampled_from(sorted(DEFAULT_LEADERSHIP_STEMS | DEFAULT_DIRECT_STEMS
                                       | DEFAULT_INDIRECT_STEMS | {"wrote", "the", "ran"})),
                max_size=6),
       st.lists(st.text("aeinorsdg", max_size=4), min_size=6, max_size=6))
def test_default_match_stems_equals_the_per_stem_loop(stems, suffixes):
    statement = " ".join(stem + suffix for stem, suffix in zip(stems, suffixes))
    assert match_stems(statement) == match_stems_reference(statement)


def test_stem_that_prefixes_another_stem():
    stems_by_role = {
        RoleLabel.LEADERSHIP: frozenset({"editor"}),
        RoleLabel.DIRECT_SUPPORT: frozenset({"help"}),
        RoleLabel.INDIRECT_SUPPORT: frozenset({"edit"}),
    }
    with patched_taxonomy(stems_by_role, {"ed": "editor"}):
        assert match_stems("editorial edits") == {
            ("editor", RoleLabel.LEADERSHIP), ("edit", RoleLabel.INDIRECT_SUPPORT)
        }
        assert match_stems("ed") == {
            ("editor", RoleLabel.LEADERSHIP), ("edit", RoleLabel.INDIRECT_SUPPORT)
        }
        assert classify_statement("edited") is RoleLabel.INDIRECT_SUPPORT
