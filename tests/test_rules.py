import random
import re
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
    classify_statement,
    compile_taxonomy,
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
    assert match_stems_reference("Designed the study") == {("design", RoleLabel.LEADERSHIP)}
    assert classify_statement("Designed the study") is RoleLabel.LEADERSHIP
    assert match_stems_reference("analyzed and edited") == {
        ("analyz", RoleLabel.DIRECT_SUPPORT),
        ("edit", RoleLabel.INDIRECT_SUPPORT),
    }
    assert classify_statement("analyzed and edited") is RoleLabel.DIRECT_SUPPORT
    assert match_stems_reference("ran the centrifuge") == set()
    with pytest.raises(NoKeywordMatch):
        classify_statement("ran the centrifuge")


def test_match_stems_hyphens_and_case():
    assert ("design", RoleLabel.LEADERSHIP) in match_stems_reference("co-DESIGNED... the work!")
    assert classify_statement("co-DESIGNED... the work!") is RoleLabel.LEADERSHIP
    # a word is a run of [a-z0-9], and a stem matches only at its start
    with pytest.raises(NoKeywordMatch):
        classify_statement("2design redesigned")
    assert classify_statement("ödesign") is RoleLabel.LEADERSHIP


def test_irregular_past_tense_alias():
    assert match_stems_reference("wrote the manuscript") == {("writ", RoleLabel.LEADERSHIP)}
    assert match_stems_reference("written by all authors") == {("writ", RoleLabel.LEADERSHIP)}
    assert classify_statement("wrote the manuscript") is RoleLabel.LEADERSHIP
    assert classify_statement("edited what others wrote") is RoleLabel.LEADERSHIP
    with pytest.raises(NoKeywordMatch):  # an alias matches whole words only
        classify_statement("wrotes")


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


def tokenize(statement):
    """The words of a statement: runs of [a-z0-9] once it is lowercased."""
    return re.findall(r"[a-z0-9]+", statement.lower())


def match_stems_reference(statement, stems_by_role=STEMS_BY_ROLE, aliases=DEFAULT_ALIASES):
    """Every stem of every role tried on every word with startswith, a word that
    is an alias key standing for its alias target: all (stem, role) pairs whose
    stem prefixes some word of the statement."""
    matches = set()
    for token in tokenize(statement):
        token = aliases.get(token, token)
        for role, stems in stems_by_role.items():
            for stem in stems:
                if token.startswith(stem):
                    matches.add((stem, role))
    return matches


def classify_reference(statement, stems_by_role=STEMS_BY_ROLE, aliases=DEFAULT_ALIASES):
    """The highest role among the reference's matches, or None for no match."""
    roles = [role for _, role in match_stems_reference(statement, stems_by_role, aliases)]
    return max(roles, key=lambda role: role.rank, default=None)


def classify_or_none(statement):
    try:
        return classify_statement(statement)
    except NoKeywordMatch:
        return None


def patched_taxonomy(stems_by_role, aliases):
    """classify_statement's pattern and hits swapped for another taxonomy's."""
    pattern, hits = compile_taxonomy(stems_by_role, aliases)
    return mock.patch.multiple(rules, _PATTERN=pattern, _HITS=hits)


# a small alphabet, so stems often prefix one another, alias keys and words
words = st.text("abe", min_size=1, max_size=5)


@st.composite
def taxonomies(draw):
    """(disjoint stem sets by role, aliases); an alias key may be a stem, a stem
    may prefix it, and its target may have no stem"""
    stems = draw(st.lists(words, unique=True, max_size=10))
    roles = draw(st.lists(st.sampled_from(ROLE_ORDER), min_size=len(stems), max_size=len(stems)))
    by_role = {role: frozenset(s for s, r in zip(stems, roles) if r is role) for role in ROLE_ORDER}
    return by_role, draw(st.dictionaries(words, words, max_size=3))


statements = st.lists(st.text("abeAB", max_size=6), max_size=8).map(" -".join)


@given(taxonomies(), statements)
def test_classify_statement_equals_the_per_stem_loop(taxonomy, statement):
    with patched_taxonomy(*taxonomy):
        assert classify_or_none(statement) is classify_reference(statement, *taxonomy)


# words of the default taxonomy, and what may stand beside them in a word or between words
default_words = sorted(DEFAULT_LEADERSHIP_STEMS | DEFAULT_DIRECT_STEMS | DEFAULT_INDIRECT_STEMS
                       | set(DEFAULT_ALIASES) | {"the", "ran", "wrot"})
# "\u212a" (the Kelvin sign) lowercases to "k"; "İ" lowercases to "i" and a combining dot
affixes = st.text(st.sampled_from("aeinorsdg09-é ÉıİK\u212a"), max_size=4)


@given(st.lists(st.tuples(affixes, st.sampled_from(default_words), affixes), max_size=6),
       st.sampled_from([" ", "-", "", "é", "1", "_", "."]))
def test_default_classify_statement_equals_the_per_stem_loop(parts, separator):
    statement = separator.join(prefix + word + suffix for prefix, word, suffix in parts)
    assert classify_or_none(statement) is classify_reference(statement)


def test_stem_that_prefixes_another_stem():
    stems_by_role = {
        RoleLabel.LEADERSHIP: frozenset({"editor"}),
        RoleLabel.DIRECT_SUPPORT: frozenset({"help"}),
        RoleLabel.INDIRECT_SUPPORT: frozenset({"edit"}),
    }
    aliases = {"ed": "editor"}
    for statement in ("editorial edits", "ed"):
        assert match_stems_reference(statement, stems_by_role, aliases) == {
            ("editor", RoleLabel.LEADERSHIP), ("edit", RoleLabel.INDIRECT_SUPPORT)
        }
    with patched_taxonomy(stems_by_role, aliases):
        assert classify_statement("editorial edits") is RoleLabel.LEADERSHIP
        assert classify_statement("ed") is RoleLabel.LEADERSHIP
        assert classify_statement("edited") is RoleLabel.INDIRECT_SUPPORT


def test_alias_key_that_is_also_a_stem():
    """The word itself is the alias's; a longer word that the stem prefixes is the stem's."""
    stems_by_role = {RoleLabel.LEADERSHIP: frozenset({"lead"}),
                     RoleLabel.DIRECT_SUPPORT: frozenset(),
                     RoleLabel.INDIRECT_SUPPORT: frozenset({"help"})}
    with patched_taxonomy(stems_by_role, {"lead": "helper", "led": "nothing"}):
        assert classify_statement("lead") is RoleLabel.INDIRECT_SUPPORT
        assert classify_statement("leading") is RoleLabel.LEADERSHIP
        with pytest.raises(NoKeywordMatch):  # the alias target has no stem
            classify_statement("led")
