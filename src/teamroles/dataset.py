"""The labeled feature table, its CSV file and the stratified train/test split.

After `featurize`, the rows travel as one FeatureTable: ids and labels
per row and the raw features in one float matrix, which `train`,
`evaluate` and `explain` use as it is.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import artifacts
from .errors import FormatError, PipelineError
from .features import first_feature_problem
from .types import FEATURE_NAMES, BinaryRole


class ClassTooSmall(PipelineError):
    """A class has fewer rows than a split (2) or a training set (1) needs."""

    def __init__(self, label: BinaryRole, count: int, needed: int, where: str = ""):
        super().__init__(f"too few {label.value} rows{where}: {count}, need {needed}")
        self.label = label


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Labeled (author, paper) rows in one float matrix.

    Row i is author_ids[i] on paper_ids[i], with raw (unnormalized)
    features X[i] in FEATURE_NAMES order and label labels[i].
    """

    author_ids: Tuple[str, ...]
    paper_ids: Tuple[str, ...]
    X: np.ndarray  # (n, len(FEATURE_NAMES)) float64
    labels: Tuple[BinaryRole, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, indices: Sequence[int]) -> "FeatureTable":
        """The rows at `indices`, in that order."""
        return FeatureTable(
            tuple(self.author_ids[i] for i in indices),
            tuple(self.paper_ids[i] for i in indices),
            self.X[np.asarray(indices, dtype=np.intp)],
            tuple(self.labels[i] for i in indices),
        )


@dataclass(frozen=True)
class SplitResult:
    train: FeatureTable
    test: FeatureTable
    seed: int
    ratio: float
    group_by_author: bool


def check_ratio(ratio: float) -> float:
    """`ratio` if it is a test fraction strictly between 0 and 1, else a ValueError."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    return ratio


def stratified_split(
    table: FeatureTable,
    ratio: float,
    seed: int,
    group_by_author: bool = False,
) -> SplitResult:
    """Per-class split: the test partition gets round(ratio * class_count) rows,
    but at least 1 and at most class_count - 1, so each side holds every class.

    `ratio` is the test fraction. With group_by_author=True whole authors
    are assigned to one side, across classes, so no author has rows in
    both train and test and every row is in exactly one of them.
    Authors are visited in a seeded shuffle of their sorted ids, and an
    author goes to test while each class it has rows of is still below
    its test quota, and its move leaves train a row of every class. Since
    an author's rows move together, a class's test count can fall short of
    its quota. A class left with no test row then takes the first author in
    that order who is in train, has a row of it and can move by the same
    rule; if there is none, ClassTooSmall. Off by default to match the
    plain row-level split.
    """
    check_ratio(ratio)

    rng = random.Random(seed)
    labels = table.labels
    by_class: Dict[BinaryRole, List[int]] = {label: [] for label in BinaryRole}
    for i, label in enumerate(labels):
        by_class[label].append(i)
    for label, members in by_class.items():
        if len(members) < 2:
            raise ClassTooSmall(label, len(members), 2)
    n_test = {label: min(max(math.floor(ratio * len(members) + 0.5), 1), len(members) - 1)
              for label, members in by_class.items()}

    train: List[int] = []
    test: List[int] = []
    if group_by_author:
        groups: Dict[str, List[int]] = {}
        for i, author in enumerate(table.author_ids):
            groups.setdefault(author, []).append(i)
        keys = sorted(groups)
        rng.shuffle(keys)
        picked = dict.fromkeys(by_class, 0)
        tested = set()

        def fits(key) -> Counter:
            """The class counts of an author's rows if the author is in train and
            moving them to test leaves train a row of every class, else none."""
            moved = Counter(labels[i] for i in groups[key])
            keeps = all(len(rows) - picked[c] > moved[c] for c, rows in by_class.items())
            return moved if keeps and key not in tested else Counter()

        def move(key):
            tested.add(key)
            for i in groups[key]:
                picked[labels[i]] += 1

        for key in keys:
            if all(picked[labels[i]] < n_test[labels[i]] for i in groups[key]) and fits(key):
                move(key)
        # a class left with no test row takes the first author in train who has a row of it
        for label in by_class:
            if not picked[label]:
                key = next((key for key in keys if fits(key)[label]), None)
                if key is None:
                    raise ClassTooSmall(label, 0, 1, " in test")
                move(key)
        for key in keys:
            (test if key in tested else train).extend(groups[key])
    else:
        for label in sorted(by_class, key=lambda b: b.value):
            members = by_class[label]
            rng.shuffle(members)
            test.extend(members[: n_test[label]])
            train.extend(members[n_test[label]:])
    return SplitResult(table.take(train), table.take(test), seed, ratio, group_by_author)


FEATURE_TABLE_HEADER = ["author_id", "paper_id", *FEATURE_NAMES, "label"]


def write_examples(table: FeatureTable, path) -> None:
    rows = (  # one row of X at a time: X.tolist() would hold every row's floats at once
        [author_id, paper_id, *map(repr, values.tolist()), label.value]
        for author_id, paper_id, values, label
        in zip(table.author_ids, table.paper_ids, table.X, table.labels)
    )
    artifacts.write_csv(path, FEATURE_TABLE_HEADER, rows)


# Rows parsed per block: bounds the cell strings held at once to about a
# megabyte while each column's cells still go to numpy in one call.
_BLOCK_ROWS = 1024
# The fields of a row with their parsers, in the order a bad cell is looked for.
_FIELDS = (("author_id", str), ("paper_id", str), *((name, float) for name in FEATURE_NAMES),
           ("label", BinaryRole.from_string))


def read_examples(path) -> FeatureTable:
    """The table write_examples wrote, its cells parsed a block of rows at a
    time, column by column. A row of the wrong width, or a cell that is
    missing or does not parse, raises FormatError naming its line; after
    them, so does a value that is not finite, is negative or is a ratio
    above 1. Either error is the first of its kind in file order."""
    rows = artifacts.read_csv_rows(path)
    _, header = next(rows)
    column = {name: i for i, name in enumerate(header)}
    author_ids: List[str] = []
    paper_ids: List[str] = []
    labels: List[BinaryRole] = []
    blocks = [np.empty((0, len(FEATURE_NAMES)))]  # so a file with no rows gives n = 0
    problem = None  # the first bad value, raised once every cell has parsed
    while True:
        block: List[tuple] = []
        try:
            block.extend(islice(rows, _BLOCK_ROWS))  # keeps the rows read before a width error
            if not block:
                break
            numbers, cells = zip(*block)
            columns = list(zip(*cells))
            # np.array converts each string with float(), as _FIELDS does
            X = np.array([columns[column[name]] for name in FEATURE_NAMES], dtype=float).T
            labels += map(BinaryRole.from_string, columns[column["label"]])
            author_ids += columns[column["author_id"]]
            paper_ids += columns[column["paper_id"]]
        except (FormatError, KeyError, ValueError) as exc:
            for number, cells in block:  # the rows read so far, for the first bad cell
                for name, parse in _FIELDS:
                    try:
                        parse(cells[column[name]])
                    except KeyError:
                        raise FormatError(path, number, f"field {name}: missing") from exc
                    except ValueError as bad:
                        raise FormatError(path, number, f"field {name}: {bad}") from exc
            raise
        blocks.append(X)
        bad = first_feature_problem(X) if problem is None else None
        if bad is not None:
            row, name, text = bad
            problem = FormatError(path, numbers[row], f"field {name}: {text}")
    if problem is not None:
        raise problem
    return FeatureTable(tuple(author_ids), tuple(paper_ids), np.concatenate(blocks),
                        tuple(labels))


def write_split_manifest(result: SplitResult, path) -> None:
    counts = {"train": {}, "test": {}}
    for name, part in (("train", result.train), ("test", result.test)):
        for label in BinaryRole:
            counts[name][label.value] = part.labels.count(label)
    manifest = {
        "schema_version": 1,
        "seed": result.seed,
        "ratio": result.ratio,
        "group_by_author": result.group_by_author,
        "counts": counts,
        "n_train": len(result.train),
        "n_test": len(result.test),
    }
    artifacts.write_json(path, manifest)
