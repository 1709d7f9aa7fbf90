import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamroles.llm import BatchOutcome
from teamroles.openalex import Authorship
from teamroles.types import (
    FEATURE_NAMES,
    ROLE_ORDER,
    BinaryRole,
    ContributionRecord,
    FeatureVector,
    Journal,
    PaperRecord,
    RoleLabel,
    UnknownJournal,
    WorkEntry,
    as_int,
    parse_journal,
    role_max,
    to_binary,
)


def test_as_int_takes_an_int_and_no_bool_or_float():
    assert as_int(3) == 3 and as_int(-2) == -2
    for value in (True, 2.0, 2.5, "3", None):
        with pytest.raises(TypeError, match="expected an integer"):
            as_int(value)


def test_to_binary_mapping():
    assert to_binary(RoleLabel.LEADERSHIP) is BinaryRole.LEADERSHIP
    assert to_binary(RoleLabel.DIRECT_SUPPORT) is BinaryRole.SUPPORT
    assert to_binary(RoleLabel.INDIRECT_SUPPORT) is BinaryRole.SUPPORT


def test_role_order_strict():
    ranks = [r.rank for r in ROLE_ORDER]
    assert ranks == sorted(ranks, reverse=True)
    assert len(set(ranks)) == 3


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (RoleLabel.LEADERSHIP, RoleLabel.INDIRECT_SUPPORT, RoleLabel.LEADERSHIP),
        (RoleLabel.DIRECT_SUPPORT, RoleLabel.DIRECT_SUPPORT, RoleLabel.DIRECT_SUPPORT),
        (RoleLabel.INDIRECT_SUPPORT, RoleLabel.DIRECT_SUPPORT, RoleLabel.DIRECT_SUPPORT),
    ],
)
def test_role_max_examples(a, b, expected):
    assert role_max(a, b) is expected


def test_role_max_algebra_all_pairs():
    for a, b in itertools.product(RoleLabel, repeat=2):
        assert role_max(a, b) is role_max(b, a)
        assert role_max(a, a) is a
        for c in RoleLabel:
            assert role_max(role_max(a, b), c) is role_max(a, role_max(b, c))


def test_binary_of_max_is_leadership_iff_either_is():
    for a, b in itertools.product(RoleLabel, repeat=2):
        collapsed = to_binary(role_max(a, b))
        either = a is RoleLabel.LEADERSHIP or b is RoleLabel.LEADERSHIP
        assert (collapsed is BinaryRole.LEADERSHIP) == either


def test_role_serialization_round_trip():
    for label in RoleLabel:
        assert RoleLabel.from_string(label.value) is label
    for label in BinaryRole:
        assert BinaryRole.from_string(label.value) is label
    for text in ("direct support", "  DIRECT SUPPORT\n", "Direct_Support", "direct_support "):
        assert RoleLabel.from_string(text) is RoleLabel.DIRECT_SUPPORT
    assert RoleLabel.from_string("\tleadership") is RoleLabel.LEADERSHIP
    assert BinaryRole.from_string(" SUPPORT ") is BinaryRole.SUPPORT
    with pytest.raises(ValueError, match=r"^unknown role label: 'Boss'$"):
        RoleLabel.from_string("Boss")
    with pytest.raises(ValueError, match=r"^unknown binary role: 'Leadership_'$"):
        BinaryRole.from_string("Leadership_")  # only the three-level parser reads _ as a space
    for parse in (RoleLabel.from_string, BinaryRole.from_string, parse_journal):
        with pytest.raises(TypeError, match=r"^expected a string, got 5$"):
            parse(5)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("PNAS", Journal.PNAS),
        ("nature", Journal.NATURE),
        ("PLoS ONE", Journal.PLOS_ONE),
        ("PLOS One", Journal.PLOS_ONE),
        ("  Science ", Journal.SCIENCE),
        ("PLoS  One", Journal.PLOS_ONE),
    ],
)
def test_parse_journal_aliases(name, expected):
    assert parse_journal(name) is expected


def test_parse_journal_rejects_unknown():
    with pytest.raises(UnknownJournal):
        parse_journal("Journal of Irreproducible Results")


def test_contribution_record_position_validated():
    with pytest.raises(ValueError):
        ContributionRecord("W1", Journal.PNAS, 2010, "A", 0, False, "designed")


def test_records_are_immutable_and_checked_however_built():
    rec = ContributionRecord("W1", Journal.PNAS, 2010, "A", 1, False, "designed")
    outcome = BatchOutcome("W1#1", RoleLabel.LEADERSHIP, None, None)
    work = WorkEntry("H1", 2010, 1, False, frozenset(), frozenset(), 3, frozenset())
    authorship = Authorship("A1", "A", 1, False, frozenset())
    for value, name in ((rec, "author_position"), (outcome, "label"), (work, "citation_count"),
                        (authorship, "author_id")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(ValueError):
        rec._replace(author_position=0)
    with pytest.raises(ValueError):
        ContributionRecord(paper_id="W1", journal=Journal.PNAS, year=2010, author_name="A",
                           author_position=0, is_corresponding=False, statement="designed")
    with pytest.raises(ValueError, match="citation_count must be >= 0, got -1"):
        WorkEntry("H1", 2010, 1, False, frozenset(), frozenset(), -1, frozenset())
    with pytest.raises(ValueError, match="citation_count must be >= 0, got -1"):
        WorkEntry(work_id="H1", year=2010, author_position=1, is_corresponding=False,
                  referenced_work_ids=frozenset(), topic_ids=frozenset(), citation_count=-1,
                  institution_ids=frozenset())
    with pytest.raises(ValueError, match="citation_count must be >= 0, got -1"):
        work._replace(citation_count=-1)
    assert work._replace(citation_count=0).citation_count == 0


def test_paper_record_position_within_team():
    rec = ContributionRecord("W1", Journal.PNAS, 2010, "A", 3, False, "designed")
    with pytest.raises(ValueError):
        PaperRecord("W1", Journal.PNAS, 2010, authors=(rec,))


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=10,
        max_size=10,
    ).map(lambda vs: [min(v, 1.0) for v in vs[:4]] + vs[4:])
)
def test_feature_vector_round_trip(values):
    fv = FeatureVector.from_list(values)
    assert fv.to_list() == [float(v) for v in values]


def test_feature_vector_rejects_nan_and_bad_ratio():
    good = [0.0] * 10
    with pytest.raises(ValueError):
        FeatureVector.from_list([math.nan] + good[1:])
    with pytest.raises(ValueError):
        FeatureVector.from_list([1.5] + good[1:])
    with pytest.raises(ValueError):
        FeatureVector.from_list(good[:4] + [-1.0] + good[5:])


def test_feature_order_documented():
    assert FEATURE_NAMES[0] == "contribution_to_references"
    assert FEATURE_NAMES[8] == "citation_impact_per_year"
    assert FEATURE_NAMES[9] == "institutional_diversity"
    assert len(FEATURE_NAMES) == 10
