"""Labeled-example assembly and the stratified train/test split."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from . import artifacts
from .errors import PipelineError
from .types import FEATURE_NAMES, BinaryRole, FeatureVector


class ClassTooSmall(PipelineError):
    def __init__(self, label):
        super().__init__(f"class {label} has fewer than 2 examples")
        self.label = label


@dataclass(frozen=True)
class LabeledExample:
    author_id: str
    paper_id: str
    features: FeatureVector
    label: BinaryRole


@dataclass(frozen=True)
class SplitResult:
    train: List[LabeledExample]
    test: List[LabeledExample]
    seed: int
    ratio: float


def check_ratio(ratio: float) -> float:
    """`ratio` if it is a test fraction strictly between 0 and 1, else a ValueError."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    return ratio


def stratified_split(
    examples: Sequence[LabeledExample],
    ratio: float,
    seed: int,
    group_by_author: bool = False,
) -> SplitResult:
    """Per-class split: the test partition gets round(ratio * class_count) examples.

    `ratio` is the test fraction. With group_by_author=True whole authors
    are assigned to one side, across classes, so no author has examples in
    both train and test and every example is in exactly one of them.
    Authors are visited in a seeded shuffle of their sorted ids, and an
    author goes to test while each class it has examples of is still below
    its test quota; since an author's examples move together, a class's test
    count can miss round(ratio * class_count). Off by default to match the
    plain example-level split.
    """
    check_ratio(ratio)

    rng = random.Random(seed)
    by_class: Dict[BinaryRole, List[LabeledExample]] = {}
    for ex in examples:
        by_class.setdefault(ex.label, []).append(ex)
    for label, members in by_class.items():
        if len(members) < 2:
            raise ClassTooSmall(label)
    n_test = {label: math.floor(ratio * len(members) + 0.5) for label, members in by_class.items()}

    train: List[LabeledExample] = []
    test: List[LabeledExample] = []
    if group_by_author:
        groups: Dict[str, List[LabeledExample]] = {}
        for ex in examples:
            groups.setdefault(ex.author_id, []).append(ex)
        keys = sorted(groups)
        rng.shuffle(keys)
        picked = dict.fromkeys(by_class, 0)
        for key in keys:
            group = groups[key]
            if all(picked[ex.label] < n_test[ex.label] for ex in group):
                test.extend(group)
                for ex in group:
                    picked[ex.label] += 1
            else:
                train.extend(group)
        return SplitResult(train, test, seed, ratio)

    for label in sorted(by_class, key=lambda b: b.value):
        members = by_class[label]
        order = list(range(len(members)))
        rng.shuffle(order)
        test.extend(members[i] for i in order[: n_test[label]])
        train.extend(members[i] for i in order[n_test[label]:])
    return SplitResult(train, test, seed, ratio)


FEATURE_TABLE_HEADER = ["author_id", "paper_id", *FEATURE_NAMES, "label"]


def write_examples(examples: Sequence[LabeledExample], path) -> None:
    rows = (
        [ex.author_id, ex.paper_id, *[repr(v) for v in ex.features.to_list()], ex.label.value]
        for ex in examples
    )
    artifacts.write_csv(path, FEATURE_TABLE_HEADER, rows)


def example_from_row(row: dict) -> LabeledExample:
    return LabeledExample(
        author_id=row["author_id"],
        paper_id=row["paper_id"],
        features=FeatureVector.from_list([float(row[n]) for n in FEATURE_NAMES]),
        label=BinaryRole.from_string(row["label"]),
    )


def read_examples(path) -> List[LabeledExample]:
    return [example for _, example in artifacts.read_csv(path, decode=example_from_row)]


def write_split_manifest(result: SplitResult, path) -> None:
    counts = {"train": {}, "test": {}}
    for name, part in (("train", result.train), ("test", result.test)):
        for label in BinaryRole:
            counts[name][label.value] = sum(1 for ex in part if ex.label is label)
    manifest = {
        "schema_version": 1,
        "seed": result.seed,
        "ratio": result.ratio,
        "counts": counts,
        "n_train": len(result.train),
        "n_test": len(result.test),
    }
    artifacts.write_json(path, manifest)
