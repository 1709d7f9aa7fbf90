import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamroles.errors import EmptyInput
from teamroles.features import (
    InvalidFeatures,
    NormalizationRanges,
    apply_normalization,
    author_features,
    extract_features,
    fit_normalization,
    normalize_array,
)
from teamroles.types import (
    FEATURE_NAMES,
    AuthorProfile,
    ContributionRecord,
    FeatureVector,
    Journal,
    PaperRecord,
    WorkEntry,
)


def work(work_id="H1", year=2005, position=2, corresponding=False, refs=(), topics=(),
         citations=0, institutions=()):
    return WorkEntry(
        work_id=work_id,
        year=year,
        author_position=position,
        is_corresponding=corresponding,
        referenced_work_ids=frozenset(refs),
        topic_ids=frozenset(topics),
        citation_count=citations,
        institution_ids=frozenset(institutions),
    )


def paper(refs=(), topics=(), year=2015):
    author = ContributionRecord("W1", Journal.PNAS, year, "A", 1, False, "designed")
    return PaperRecord("W1", Journal.PNAS, year, (author,),
                       frozenset(refs), frozenset(topics))


EMPTY = AuthorProfile("A0", ())


# a focal paper published after every work of the profiles below
LATER = paper(year=2030)


def feature(name, profile, focal=LATER):
    """Feature `name` of the profile's author on `focal`."""
    return getattr(extract_features(profile, focal), name)


def test_contribution_to_references():
    focal = paper(refs=[f"R{i}" for i in range(20)])
    profile = AuthorProfile("A1", (work(refs=["R0", "R1", "R2", "R3", "R4", "X1"]),))
    assert feature("contribution_to_references", profile, focal) == 0.25
    assert feature("contribution_to_references", EMPTY, focal) == 0.0
    assert feature("contribution_to_references", profile, paper(refs=[])) == 0.0


def test_contribution_to_references_matches_brute_force():
    rng = np.random.default_rng(0)
    universe = [f"R{i}" for i in range(40)]
    for _ in range(50):
        focal_refs = list(rng.choice(universe, size=rng.integers(0, 15), replace=False))
        works = tuple(
            work(work_id=f"H{k}", refs=rng.choice(universe, size=rng.integers(0, 10), replace=False))
            for k in range(rng.integers(0, 4))
        )
        profile = AuthorProfile("A1", works)
        # naive oracle: per-reference membership scan
        hits = 0
        for ref in focal_refs:
            if any(ref in w.referenced_work_ids for w in works):
                hits += 1
        expected = hits / len(focal_refs) if focal_refs else 0.0
        assert feature("contribution_to_references", profile, paper(refs=focal_refs)) == expected


def test_contribution_to_topics():
    focal = paper(topics=["A", "B", "C", "D"])
    profile = AuthorProfile("A1", (work(topics=["A"]), work(work_id="H2", topics=["C", "Z"])))
    assert feature("contribution_to_topics", profile, focal) == 0.5
    full = AuthorProfile("A1", (work(topics=["A", "B", "C", "D"]),))
    assert feature("contribution_to_topics", full, focal) == 1.0
    disjoint = AuthorProfile("A1", (work(topics=["Z"]),))
    assert feature("contribution_to_topics", disjoint, focal) == 0.0


def test_probability_of_leading():
    works = tuple(work(work_id=f"H{i}", position=1 if i < 3 else 2) for i in range(12))
    assert feature("probability_of_leading", AuthorProfile("A1", works)) == 0.25
    all_first = tuple(work(work_id=f"H{i}", position=1) for i in range(5))
    assert feature("probability_of_leading", AuthorProfile("A1", all_first)) == 1.0
    assert feature("probability_of_leading", EMPTY) == 0.0


def test_probability_of_leading_correspondence():
    works = tuple(work(work_id=f"H{i}", corresponding=i < 6) for i in range(10))
    assert feature("probability_of_leading_correspondence", AuthorProfile("A1", works)) == 0.6
    none = tuple(work(work_id=f"H{i}") for i in range(4))
    assert feature("probability_of_leading_correspondence", AuthorProfile("A1", none)) == 0.0
    assert feature("probability_of_leading_correspondence", EMPTY) == 0.0


def test_career_age():
    profile = AuthorProfile("A1", (work(year=2003), work(work_id="H2", year=2020)))
    assert feature("career_age", profile) == 17
    assert feature("career_age", AuthorProfile("A1", (work(year=2010),))) == 0


def test_citation_count():
    works = (work(citations=10), work(work_id="H2", citations=0), work(work_id="H3", citations=5))
    assert feature("citation_count", AuthorProfile("A1", works)) == 15
    assert feature("citation_count", EMPTY) == 0
    assert feature("citation_count", AuthorProfile("A1", (work(citations=100),))) == 100


def test_unique_topics():
    works = (work(topics=["A", "B"]), work(work_id="H2", topics=["B", "C"]))
    assert feature("unique_topics", AuthorProfile("A1", works)) == 3
    assert feature("unique_topics", EMPTY) == 0
    same = tuple(work(work_id=f"H{i}", topics=["T"]) for i in range(5))
    assert feature("unique_topics", AuthorProfile("A1", same)) == 1


def test_total_publications():
    works = tuple(work(work_id=f"H{i}") for i in range(12))
    assert feature("total_publications", AuthorProfile("A1", works)) == 12
    assert feature("total_publications", EMPTY) == 0


def test_citation_impact_per_year():
    works = (work(year=2000, citations=30), work(work_id="H2", year=2017, citations=6))
    assert feature("citation_impact_per_year", AuthorProfile("A1", works)) == 36 / 18
    single = AuthorProfile("A1", (work(year=2010, citations=10),))
    assert feature("citation_impact_per_year", single) == 10.0
    zero = AuthorProfile("A1", (work(year=2010, citations=0),))
    assert feature("citation_impact_per_year", zero) == 0.0


def test_institutional_diversity():
    works = (
        work(institutions=["X"]),
        work(work_id="H2", institutions=["X", "Y"]),
        work(work_id="H3", institutions=["Z"]),
    )
    assert feature("institutional_diversity", AuthorProfile("A1", works)) == 3
    assert feature("institutional_diversity", EMPTY) == 0
    one = tuple(work(work_id=f"H{i}", institutions=["X"]) for i in range(3))
    assert feature("institutional_diversity", AuthorProfile("A1", one)) == 1


def test_extract_features_empty_profile_all_zero():
    fv = extract_features(EMPTY, paper(refs=["R1"], topics=["T"]))
    assert fv.to_list() == [0.0] * 10


def test_extract_features_hand_computed():
    focal = paper(refs=["R1", "R2", "R3", "R4"], topics=["T1", "T2"], year=2015)
    works = (
        work(work_id="H1", year=2005, position=1, corresponding=True,
             refs=["R1", "R2"], topics=["T1"], citations=20, institutions=["I1"]),
        work(work_id="H2", year=2010, position=3, corresponding=False,
             refs=["R9"], topics=["T9"], citations=4, institutions=["I1", "I2"]),
        # post-focal work must be excluded from the history
        work(work_id="H3", year=2016, position=1, corresponding=True,
             refs=["R3", "R4"], topics=["T2"], citations=100, institutions=["I9"]),
    )
    fv = extract_features(AuthorProfile("A1", works), focal)
    assert fv == FeatureVector(
        contribution_to_references=0.5,
        contribution_to_topics=0.5,
        probability_of_leading=0.5,
        probability_of_leading_correspondence=0.5,
        career_age=5.0,
        citation_count=24.0,
        unique_topics=2.0,
        total_publications=2.0,
        citation_impact_per_year=4.0,
        institutional_diversity=2.0,
    )


def test_extract_features_full_overlap_ratios_one():
    focal = paper(refs=["R1", "R2"], topics=["T1"], year=2015)
    profile = AuthorProfile("A1", (work(refs=["R1", "R2"], topics=["T1"], year=2010),))
    fv = extract_features(profile, focal)
    assert fv.contribution_to_references == 1.0
    assert fv.contribution_to_topics == 1.0


def test_extract_features_pure():
    focal = paper(refs=["R1"], topics=["T1"])
    profile = AuthorProfile("A1", (work(refs=["R1"], topics=["T1"]),))
    assert extract_features(profile, focal) == extract_features(profile, focal)


@st.composite
def profiles(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    works_ = []
    for k in range(n):
        works_.append(
            work(
                work_id=f"H{k}",
                year=draw(st.integers(min_value=1980, max_value=2014)),
                position=draw(st.integers(min_value=1, max_value=9)),
                corresponding=draw(st.booleans()),
                refs=draw(st.sets(st.sampled_from([f"R{i}" for i in range(20)]), max_size=8)),
                topics=draw(st.sets(st.sampled_from([f"T{i}" for i in range(8)]), max_size=4)),
                citations=draw(st.integers(min_value=0, max_value=500)),
                institutions=draw(st.sets(st.sampled_from(["I1", "I2", "I3"]), max_size=3)),
            )
        )
    return AuthorProfile("A1", tuple(works_))


@settings(max_examples=300)
@given(
    profiles(),
    st.sets(st.sampled_from([f"R{i}" for i in range(20)]), max_size=10),
    st.sets(st.sampled_from([f"T{i}" for i in range(8)]), max_size=5),
)
def test_ratio_features_bounded(profile, refs, topics):
    fv = extract_features(profile, paper(refs=refs, topics=topics, year=2015))
    for name in FEATURE_NAMES[:4]:
        assert 0.0 <= getattr(fv, name) <= 1.0
    for name in FEATURE_NAMES[4:]:
        assert getattr(fv, name) >= 0.0


def scalar_row(profile, focal):
    """The ten features recomputed from scratch on the works before the focal
    year, with Python ints and int/int division; ten zeros if there are none."""
    history = [w for w in profile.works if w.year < focal.year]
    if not history:
        return [0.0] * len(FEATURE_NAMES)
    n = len(history)
    refs = set().union(*(w.referenced_work_ids for w in history))
    topics = set().union(*(w.topic_ids for w in history))
    institutions = set().union(*(w.institution_ids for w in history))
    years = [w.year for w in history]
    age = max(years) - min(years)
    citations = sum(w.citation_count for w in history)

    def share(focal_ids, history_ids):
        return len(focal_ids & history_ids) / len(focal_ids) if focal_ids else 0.0

    return [
        share(focal.referenced_work_ids, refs),
        share(focal.topic_ids, topics),
        sum(w.author_position == 1 for w in history) / n,
        sum(w.is_corresponding for w in history) / n,
        age,
        citations,
        len(topics),
        n,
        citations / (age + 1),
        len(institutions),
    ]


REFS = [f"R{i}" for i in range(12)]
TOPICS = [f"T{i}" for i in range(6)]


@st.composite
def histories_and_focals(draw):
    """An unsorted history with repeated years and possibly empty reference and
    topic sets, and focal papers in any order whose years fall before, on and
    after the works' years."""
    years = st.integers(min_value=2000, max_value=2006)
    works_ = tuple(
        work(
            work_id=f"H{k}",
            year=draw(years),
            position=draw(st.integers(min_value=1, max_value=4)),
            corresponding=draw(st.booleans()),
            refs=draw(st.sets(st.sampled_from(REFS), max_size=6)),
            topics=draw(st.sets(st.sampled_from(TOPICS), max_size=3)),
            # sums of large counts pass 2**53, where float(sum) / years is not sum / years
            citations=draw(st.one_of(st.integers(min_value=0, max_value=500),
                                     st.integers(min_value=2 ** 52, max_value=2 ** 53))),
            institutions=draw(st.sets(st.sampled_from(["I1", "I2", "I3"]), max_size=2)),
        )
        for k in range(draw(st.integers(min_value=0, max_value=8)))
    )
    focal_years = st.integers(min_value=1999, max_value=2007)
    if works_:
        focal_years = st.one_of(focal_years, st.sampled_from([w.year for w in works_]))
    focals = draw(st.lists(
        st.builds(paper, st.sets(st.sampled_from(REFS), max_size=6),
                  st.sets(st.sampled_from(TOPICS), max_size=3), focal_years),
        max_size=8,
    ))
    return AuthorProfile("A1", works_), focals


@given(histories_and_focals())
def test_author_features_rows_are_the_scalar_features_bit_for_bit(case):
    profile, focals = case
    X = author_features(profile, focals)
    expected = np.array([scalar_row(profile, focal) for focal in focals], dtype=float)
    assert X.shape == (len(focals), len(FEATURE_NAMES))
    assert X.tobytes() == expected.reshape(X.shape).tobytes()


def test_author_features_warns_in_focal_order_not_year_order(caplog):
    profile = AuthorProfile("A1", (work(year=2010),))
    focals = [paper(year=2009), paper(year=2012), paper(year=2005), paper(year=2010)]
    with caplog.at_level(logging.WARNING, logger="teamroles.features"):
        author_features(profile, focals)
    assert [r.getMessage() for r in caplog.records] == [
        f"author A1 has no history before {year}; zero features" for year in (2009, 2005, 2010)
    ]


def test_bad_feature_is_a_typed_error_naming_author_and_paper():
    profile = AuthorProfile("A7", (work(year=2005, citations=1),
                                   work(work_id="H2", year=2010, citations=math.inf)))
    later = dataclasses.replace(paper(year=2015), paper_id="W2")
    message = "author A7 on paper W2: feature citation_count is not finite: inf"
    with pytest.raises(InvalidFeatures, match=message):
        author_features(profile, [paper(year=2008), later])
    with pytest.raises(InvalidFeatures, match=message):
        extract_features(profile, later)


def test_contribution_monotone_in_overlap():
    focal = paper(refs=[f"R{i}" for i in range(10)])
    last = -1.0
    for n_overlap in range(11):
        profile = AuthorProfile("A1", (work(refs=[f"R{i}" for i in range(n_overlap)]),))
        value = feature("contribution_to_references", profile, focal)
        assert value >= last
        last = value


def test_normalization_endpoints():
    ranges = NormalizationRanges(mins=(2.0,) * 10, maxs=(6.0,) * 10)
    lo = apply_normalization(FeatureVector.from_list([0.5] * 4 + [2.0] * 6), ranges)
    hi = apply_normalization(FeatureVector.from_list([1.0] * 4 + [6.0] * 6), ranges)
    assert all(v == 0.0 for v in lo.to_list()[4:])
    assert all(v == 1.0 for v in hi.to_list()[4:])


def test_normalization_constant_feature_maps_to_zero():
    ranges = NormalizationRanges(mins=(3.0,) * 10, maxs=(3.0,) * 10)
    out = apply_normalization(FeatureVector.from_list([0.0] * 4 + [3.0] * 6), ranges)
    assert out.to_list() == [0.0] * 10


def test_normalization_clamps_out_of_range():
    ranges = NormalizationRanges(mins=(0.0,) * 10, maxs=(1.0,) * 10)
    out = apply_normalization(FeatureVector.from_list([0.5] * 4 + [99.0] * 6), ranges)
    assert all(v == 1.0 for v in out.to_list()[4:])


def test_fit_then_apply_maps_columns_onto_unit_interval():
    rng = np.random.default_rng(3)
    matrix = [
        FeatureVector.from_list(
            list(rng.uniform(0, 1, size=4)) + list(rng.uniform(0, 50, size=6))
        )
        for _ in range(40)
    ]
    ranges = fit_normalization(np.array([fv.to_list() for fv in matrix]))
    normalized = np.array([apply_normalization(fv, ranges).to_list() for fv in matrix])
    assert np.all(normalized >= 0.0) and np.all(normalized <= 1.0)
    assert np.allclose(normalized.min(axis=0), 0.0)
    assert np.allclose(normalized.max(axis=0), 1.0)


def test_fit_normalization_on_an_empty_matrix_is_empty_input():
    with pytest.raises(EmptyInput, match="cannot fit normalization on an empty matrix"):
        fit_normalization(np.empty((0, len(FEATURE_NAMES))))


def test_normalize_array_matches_scalar_path():
    rng = np.random.default_rng(4)
    matrix = [
        FeatureVector.from_list(list(rng.uniform(0, 1, 4)) + list(rng.uniform(0, 9, 6)))
        for _ in range(10)
    ]
    raw = np.array([fv.to_list() for fv in matrix])
    ranges = fit_normalization(raw)
    arr = normalize_array(raw, ranges)
    scalar = np.array([apply_normalization(fv, ranges).to_list() for fv in matrix])
    assert np.array_equal(arr, scalar)

