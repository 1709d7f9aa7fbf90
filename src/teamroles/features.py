"""The ten bibliometric features, the check every feature matrix must pass,
and min-max normalization.

Every feature of an (author, focal paper) pair reads only the author's
works published strictly before the focal year, so no feature sees
post-publication information. author_features computes them for all of
an author's focal papers in one sweep over the year-sorted history.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyInput, PipelineError
from .types import (
    FEATURE_NAMES,
    RATIO_FEATURES,
    AuthorProfile,
    FeatureVector,
    PaperRecord,
    feature_problem,
)

log = logging.getLogger(__name__)


class InvalidFeatures(PipelineError):
    """A computed feature or a model input is not finite, or a computed
    feature is negative or a ratio above 1."""


# per column: the largest valid value (1 for a ratio, no bound for a count)
_COLUMN_MAX = np.array([1.0 if name in RATIO_FEATURES else np.inf for name in FEATURE_NAMES])


def first_feature_problem(X: np.ndarray) -> Optional[Tuple[int, str, str]]:
    """(row, feature name, feature_problem) of the first cell of a raw feature
    matrix, in row-major order, that feature_problem rejects; None if there is none."""
    bad = ~np.isfinite(X) | (X < 0.0) | (X > _COLUMN_MAX)
    if not bad.any():
        return None
    row = int(bad.any(axis=1).argmax())
    column = int(bad[row].argmax())
    name = FEATURE_NAMES[column]
    return row, name, feature_problem(name, float(X[row, column]))


def author_features(profile: AuthorProfile, focals: Sequence[PaperRecord]) -> np.ndarray:
    """The ten features of the profile's author on each focal paper: one row
    per focal, in the given order and FEATURE_NAMES order.

    One sweep: the works, sorted by year once, are added to running unions
    and counts while the focals are visited in year order, so a row costs
    only its two intersections with the focal's references and topics. A
    focal with no works before its year gets zero features and a warning;
    the warnings come in the given order. A row that fails the feature
    checks raises InvalidFeatures naming the author and the paper.
    """
    works = sorted(profile.works, key=attrgetter("year"))
    X = np.empty((len(focals), len(FEATURE_NAMES)))
    refs, topics, institutions = set(), set(), set()
    n = first = corresponding = citations = 0
    for i in sorted(range(len(focals)), key=lambda i: focals[i].year):
        focal = focals[i]
        while n < len(works) and works[n].year < focal.year:
            work = works[n]
            refs |= work.referenced_work_ids
            topics |= work.topic_ids
            institutions |= work.institution_ids
            first += work.author_position == 1
            corresponding += work.is_corresponding
            citations += work.citation_count
            n += 1
        age = works[n - 1].year - works[0].year if n else 0
        focal_refs, focal_topics = focal.referenced_work_ids, focal.topic_ids
        X[i] = (
            len(focal_refs & refs) / len(focal_refs) if focal_refs else 0.0,
            len(focal_topics & topics) / len(focal_topics) if focal_topics else 0.0,
            first / n if n else 0.0,
            corresponding / n if n else 0.0,
            age,
            citations,
            len(topics),
            n,
            citations / (age + 1),  # years active; a single-year career counts as one
            len(institutions),
        )
    for focal in focals:
        if not works or works[0].year >= focal.year:
            log.warning("author %s has no history before %d; zero features",
                        profile.author_id, focal.year)
    bad = first_feature_problem(X)
    if bad is not None:
        row, _, problem = bad
        raise InvalidFeatures(f"author {profile.author_id} on paper {focals[row].paper_id}: {problem}")
    return X


def extract_features(profile: AuthorProfile, focal: PaperRecord) -> FeatureVector:
    """author_features for one focal paper."""
    return FeatureVector.from_list(author_features(profile, [focal])[0])


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
        raise EmptyInput("cannot fit normalization on an empty matrix")
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
