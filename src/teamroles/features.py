"""The ten bibliometric features and min-max normalization.

Each feature is a pure function of (author history, focal paper).
extract_features restricts the profile to works published strictly before
the focal year, so no feature sees post-publication information.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import PipelineError
from .types import FEATURE_NAMES, AuthorProfile, FeatureVector, PaperRecord

log = logging.getLogger(__name__)


class EmptyProfile(PipelineError):
    pass


class UnfittedRanges(PipelineError):
    pass


def contribution_to_references(profile: AuthorProfile, focal: PaperRecord) -> float:
    """Share of the focal paper's references that appear in the author's history."""
    if not focal.referenced_work_ids:
        return 0.0
    history_refs = set()
    for work in profile.works:
        history_refs |= work.referenced_work_ids
    overlap = focal.referenced_work_ids & history_refs
    return len(overlap) / len(focal.referenced_work_ids)


def contribution_to_topics(profile: AuthorProfile, focal: PaperRecord) -> float:
    """Share of the focal paper's topics covered by the author's history."""
    if not focal.topic_ids:
        return 0.0
    history_topics = set()
    for work in profile.works:
        history_topics |= work.topic_ids
    overlap = focal.topic_ids & history_topics
    return len(overlap) / len(focal.topic_ids)


def probability_of_leading(profile: AuthorProfile) -> float:
    if not profile.works:
        return 0.0
    first = sum(1 for w in profile.works if w.author_position == 1)
    return first / len(profile.works)


def probability_of_leading_correspondence(profile: AuthorProfile) -> float:
    if not profile.works:
        return 0.0
    corresponding = sum(1 for w in profile.works if w.is_corresponding)
    return corresponding / len(profile.works)


def career_age(profile: AuthorProfile) -> int:
    """Last publication year minus first publication year."""
    if not profile.works:
        raise EmptyProfile(profile.author_id)
    years = [w.year for w in profile.works]
    return max(years) - min(years)


def citation_count(profile: AuthorProfile) -> int:
    return sum(w.citation_count for w in profile.works)


def unique_topics(profile: AuthorProfile) -> int:
    topics = set()
    for work in profile.works:
        topics |= work.topic_ids
    return len(topics)


def total_publications(profile: AuthorProfile) -> int:
    return len(profile.works)


def citation_impact_per_year(profile: AuthorProfile) -> float:
    """Total citations over active years; a single-year career counts as one year."""
    if not profile.works:
        raise EmptyProfile(profile.author_id)
    years_active = career_age(profile) + 1
    return citation_count(profile) / years_active


def institutional_diversity(profile: AuthorProfile) -> int:
    institutions = set()
    for work in profile.works:
        institutions |= work.institution_ids
    return len(institutions)


def extract_features(profile: AuthorProfile, focal: PaperRecord) -> FeatureVector:
    """All ten features in canonical index order.

    Degenerate histories (no prior works) yield zeros rather than errors so
    batch featurization never aborts on sparse authors.
    """
    history = profile.before(focal.year)
    if history.works:
        age = career_age(history)
        impact = citation_impact_per_year(history)
    else:
        log.warning("author %s has no history before %d; zero features", profile.author_id, focal.year)
        age = 0
        impact = 0.0
    return FeatureVector(
        contribution_to_references=contribution_to_references(history, focal),
        contribution_to_topics=contribution_to_topics(history, focal),
        probability_of_leading=probability_of_leading(history),
        probability_of_leading_correspondence=probability_of_leading_correspondence(history),
        career_age=float(age),
        citation_count=float(citation_count(history)),
        unique_topics=float(unique_topics(history)),
        total_publications=float(total_publications(history)),
        citation_impact_per_year=impact,
        institutional_diversity=float(institutional_diversity(history)),
    )


@dataclass(frozen=True)
class NormalizationRanges:
    """Per-feature (min, max) learned on training data only."""

    mins: Tuple[float, ...]
    maxs: Tuple[float, ...]

    def __post_init__(self):
        if len(self.mins) != len(self.maxs):
            raise ValueError("mins and maxs must have equal length")
        for lo, hi in zip(self.mins, self.maxs):
            if lo > hi:
                raise ValueError(f"min {lo} exceeds max {hi}")

    def to_dict(self) -> dict:
        return {"mins": list(self.mins), "maxs": list(self.maxs)}

    @classmethod
    def from_dict(cls, data: dict) -> "NormalizationRanges":
        """The ranges to_dict wrote for a whole feature vector: one (min, max) per feature."""
        return cls(_per_feature(data["mins"]), _per_feature(data["maxs"]))


def _per_feature(values) -> Tuple[float, ...]:
    if len(values) != len(FEATURE_NAMES):
        raise ValueError(f"{len(values)} values, expected one per feature ({len(FEATURE_NAMES)})")
    floats = tuple(float(v) for v in values)
    if not all(map(math.isfinite, floats)):
        raise ValueError("not finite")
    return floats


def fit_normalization(X: np.ndarray) -> NormalizationRanges:
    """The ranges of a raw feature matrix, one row per example."""
    if len(X) == 0:
        raise UnfittedRanges("cannot fit normalization on an empty matrix")
    return NormalizationRanges(tuple(X.min(axis=0)), tuple(X.max(axis=0)))


def apply_normalization(vector: FeatureVector, ranges: NormalizationRanges) -> FeatureVector:
    """(value - min) / (max - min), clamped to [0,1]; constant features map to 0."""
    values = []
    for value, lo, hi in zip(vector.to_list(), ranges.mins, ranges.maxs):
        if hi == lo:
            values.append(0.0)
        else:
            values.append(min(1.0, max(0.0, (value - lo) / (hi - lo))))
    return FeatureVector.from_list(values)


def normalize_array(x: np.ndarray, ranges: NormalizationRanges) -> np.ndarray:
    """Vectorized apply_normalization over rows of a raw feature matrix."""
    mins = np.array(ranges.mins)
    maxs = np.array(ranges.maxs)
    span = maxs - mins
    safe = np.where(span == 0, 1.0, span)
    out = (x - mins) / safe
    out = np.where(span == 0, 0.0, out)
    return np.clip(out, 0.0, 1.0)
