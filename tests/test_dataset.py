import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamroles.dataset import (
    ClassTooSmall,
    FeatureTable,
    read_examples,
    stratified_split,
    write_examples,
    write_split_manifest,
)
from teamroles.types import BinaryRole


def example(i, label, author=None):
    """One (author_id, paper_id, features, label) row for FeatureTable.from_rows."""
    return (author or f"A{i}", f"W{i}", [0.0] * 4 + [float(i)] * 6, label)


def make_examples(n_lead, n_support):
    rows = [example(i, BinaryRole.LEADERSHIP) for i in range(n_lead)]
    rows += [example(n_lead + i, BinaryRole.SUPPORT) for i in range(n_support)]
    return FeatureTable.from_rows(rows)


def test_split_partition_and_sizes():
    examples = make_examples(40, 60)
    result = stratified_split(examples, ratio=0.2, seed=0)
    assert len(result.test) == 20
    assert len(result.train) == 80
    assert sorted(result.train.paper_ids + result.test.paper_ids) == sorted(examples.paper_ids)


def test_split_stratification_per_class():
    examples = make_examples(40, 60)
    result = stratified_split(examples, ratio=0.2, seed=0)
    lead_test = result.test.labels.count(BinaryRole.LEADERSHIP)
    support_test = result.test.labels.count(BinaryRole.SUPPORT)
    assert lead_test == 8
    assert support_test == 12


def test_split_rounding_half_up():
    # 0.2 * 13 = 2.6 -> 3; 0.2 * 12 = 2.4 -> 2
    result = stratified_split(make_examples(13, 12), ratio=0.2, seed=0)
    lead_test = result.test.labels.count(BinaryRole.LEADERSHIP)
    support_test = result.test.labels.count(BinaryRole.SUPPORT)
    assert (lead_test, support_test) == (3, 2)


def test_split_deterministic_and_seed_sensitive():
    examples = make_examples(30, 30)
    a = stratified_split(examples, ratio=0.25, seed=7)
    b = stratified_split(examples, ratio=0.25, seed=7)
    c = stratified_split(examples, ratio=0.25, seed=8)
    assert a.test.paper_ids == b.test.paper_ids
    assert a.test.paper_ids != c.test.paper_ids


def test_split_class_too_small():
    examples = make_examples(1, 50)
    with pytest.raises(ClassTooSmall):
        stratified_split(examples, ratio=0.2, seed=0)


def test_split_invalid_ratio():
    examples = make_examples(5, 5)
    for ratio in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            stratified_split(examples, ratio=ratio, seed=0)


def test_split_group_by_author_no_leakage():
    # two examples per author; grouping must keep them together
    rows = []
    for i in range(30):
        label = BinaryRole.LEADERSHIP if i % 2 else BinaryRole.SUPPORT
        rows.append(example(2 * i, label, author=f"A{i}"))
        rows.append(example(2 * i + 1, label, author=f"A{i}"))
    examples = FeatureTable.from_rows(rows)
    result = stratified_split(examples, ratio=0.3, seed=1, group_by_author=True)
    train_authors = set(result.train.author_ids)
    test_authors = set(result.test.author_ids)
    assert not (train_authors & test_authors)
    assert len(result.train) + len(result.test) == len(examples)


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=2, max_size=20),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=10_000),
)
def test_split_group_by_author_keeps_mixed_authors_on_one_side(authors, ratio, seed):
    # every author has both Leadership and Support examples, so each class has two or more
    rows = []
    for a, (n_lead, n_support) in enumerate(authors):
        for label, n in ((BinaryRole.LEADERSHIP, n_lead), (BinaryRole.SUPPORT, n_support)):
            rows += [example(len(rows), label, author=f"A{a}") for _ in range(n)]
    examples = FeatureTable.from_rows(rows)
    result = stratified_split(examples, ratio=ratio, seed=seed, group_by_author=True)
    assert not (set(result.train.author_ids) & set(result.test.author_ids))
    assert sorted(result.train.paper_ids + result.test.paper_ids) == sorted(examples.paper_ids)


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=10_000),
)
def test_split_properties(n_lead, n_support, ratio, seed):
    examples = make_examples(n_lead, n_support)
    result = stratified_split(examples, ratio=ratio, seed=seed)
    assert len(result.train) + len(result.test) == len(examples)
    ids = sorted(result.train.paper_ids + result.test.paper_ids)
    assert ids == sorted(examples.paper_ids)
    for label, total in ((BinaryRole.LEADERSHIP, n_lead), (BinaryRole.SUPPORT, n_support)):
        got = result.test.labels.count(label)
        assert got == math.floor(ratio * total + 0.5)


def split_reference(rows, ratio, seed, group_by_author):
    """The split over a list of rows that stratified_split replaced: the
    paper ids of its train and test parts."""
    rng = random.Random(seed)
    by_class = {}
    for row in rows:
        by_class.setdefault(row[3], []).append(row)
    n_test = {label: math.floor(ratio * len(members) + 0.5) for label, members in by_class.items()}
    train, test = [], []
    if group_by_author:
        groups = {}
        for row in rows:
            groups.setdefault(row[0], []).append(row)
        keys = sorted(groups)
        rng.shuffle(keys)
        picked = dict.fromkeys(by_class, 0)
        for key in keys:
            if all(picked[row[3]] < n_test[row[3]] for row in groups[key]):
                test.extend(groups[key])
                for row in groups[key]:
                    picked[row[3]] += 1
            else:
                train.extend(groups[key])
    else:
        for label in sorted(by_class, key=lambda b: b.value):
            members = by_class[label]
            order = list(range(len(members)))
            rng.shuffle(order)
            test.extend(members[i] for i in order[: n_test[label]])
            train.extend(members[i] for i in order[n_test[label]:])
    return tuple(row[1] for row in train), tuple(row[1] for row in test)


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=4, max_size=40),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
)
def test_split_matches_the_list_based_reference(authors_and_leads, ratio, seed, group_by_author):
    rows = [
        example(i, BinaryRole.LEADERSHIP if lead else BinaryRole.SUPPORT, author=f"A{author}")
        for i, (author, lead) in enumerate(authors_and_leads)
    ]
    n = len(rows)  # two more rows of each class, so neither class is too small
    rows += [example(n + i, label) for i, label in enumerate([BinaryRole.LEADERSHIP] * 2
                                                              + [BinaryRole.SUPPORT] * 2)]
    result = stratified_split(FeatureTable.from_rows(rows), ratio, seed, group_by_author)
    assert (result.train.paper_ids, result.test.paper_ids) == split_reference(
        rows, ratio, seed, group_by_author
    )
    by_paper = {row[1]: row for row in rows}
    for part in (result.train, result.test):
        assert [by_paper[p][2] for p in part.paper_ids] == part.X.tolist()
        assert tuple(by_paper[p][3] for p in part.paper_ids) == part.labels


def test_examples_round_trip(tmp_path):
    examples = make_examples(3, 4)
    path = tmp_path / "features.csv"
    write_examples(examples, path)
    table = read_examples(path)
    assert table.author_ids == examples.author_ids
    assert table.paper_ids == examples.paper_ids
    assert table.labels == examples.labels
    assert table.X.dtype == np.float64 and np.array_equal(table.X, examples.X)


def test_examples_csv_byte_deterministic(tmp_path):
    examples = make_examples(5, 5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_examples(examples, a)
    write_examples(examples, b)
    assert a.read_bytes() == b.read_bytes()


def test_split_manifest_counts(tmp_path):
    result = stratified_split(make_examples(40, 60), ratio=0.2, seed=0)
    path = tmp_path / "split_manifest.json"
    write_split_manifest(result, path)
    manifest = json.loads(path.read_text())
    assert manifest["n_train"] == 80
    assert manifest["n_test"] == 20
    assert manifest["counts"]["test"]["Leadership"] == 8
    assert manifest["counts"]["test"]["Support"] == 12
