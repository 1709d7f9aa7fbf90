import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamroles.dataset import (
    ClassTooSmall,
    LabeledExample,
    read_examples,
    stratified_split,
    write_examples,
    write_split_manifest,
)
from teamroles.types import BinaryRole, FeatureVector


def example(i, label, author=None):
    features = FeatureVector.from_list([0.0] * 4 + [float(i)] * 6)
    return LabeledExample(author or f"A{i}", f"W{i}", features, label)


def make_examples(n_lead, n_support):
    examples = [example(i, BinaryRole.LEADERSHIP) for i in range(n_lead)]
    examples += [example(n_lead + i, BinaryRole.SUPPORT) for i in range(n_support)]
    return examples


def test_split_partition_and_sizes():
    examples = make_examples(40, 60)
    result = stratified_split(examples, ratio=0.2, seed=0)
    assert len(result.test) == 20
    assert len(result.train) == 80
    assert sorted(e.paper_id for e in result.train + result.test) == sorted(
        e.paper_id for e in examples
    )


def test_split_stratification_per_class():
    examples = make_examples(40, 60)
    result = stratified_split(examples, ratio=0.2, seed=0)
    lead_test = sum(1 for e in result.test if e.label is BinaryRole.LEADERSHIP)
    support_test = sum(1 for e in result.test if e.label is BinaryRole.SUPPORT)
    assert lead_test == 8
    assert support_test == 12


def test_split_rounding_half_up():
    # 0.2 * 13 = 2.6 -> 3; 0.2 * 12 = 2.4 -> 2
    result = stratified_split(make_examples(13, 12), ratio=0.2, seed=0)
    lead_test = sum(1 for e in result.test if e.label is BinaryRole.LEADERSHIP)
    support_test = sum(1 for e in result.test if e.label is BinaryRole.SUPPORT)
    assert (lead_test, support_test) == (3, 2)


def test_split_deterministic_and_seed_sensitive():
    examples = make_examples(30, 30)
    a = stratified_split(examples, ratio=0.25, seed=7)
    b = stratified_split(examples, ratio=0.25, seed=7)
    c = stratified_split(examples, ratio=0.25, seed=8)
    assert [e.paper_id for e in a.test] == [e.paper_id for e in b.test]
    assert [e.paper_id for e in a.test] != [e.paper_id for e in c.test]


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
    examples = []
    for i in range(30):
        label = BinaryRole.LEADERSHIP if i % 2 else BinaryRole.SUPPORT
        examples.append(example(2 * i, label, author=f"A{i}"))
        examples.append(example(2 * i + 1, label, author=f"A{i}"))
    result = stratified_split(examples, ratio=0.3, seed=1, group_by_author=True)
    train_authors = {e.author_id for e in result.train}
    test_authors = {e.author_id for e in result.test}
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
    examples = []
    for a, (n_lead, n_support) in enumerate(authors):
        for label, n in ((BinaryRole.LEADERSHIP, n_lead), (BinaryRole.SUPPORT, n_support)):
            examples += [example(len(examples), label, author=f"A{a}") for _ in range(n)]
    result = stratified_split(examples, ratio=ratio, seed=seed, group_by_author=True)
    assert not ({e.author_id for e in result.train} & {e.author_id for e in result.test})
    assert sorted(e.paper_id for e in result.train + result.test) == sorted(
        e.paper_id for e in examples
    )


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
    ids = sorted(e.paper_id for e in result.train + result.test)
    assert ids == sorted(e.paper_id for e in examples)
    for label, total in ((BinaryRole.LEADERSHIP, n_lead), (BinaryRole.SUPPORT, n_support)):
        got = sum(1 for e in result.test if e.label is label)
        assert got == math.floor(ratio * total + 0.5)


def test_examples_round_trip(tmp_path):
    examples = make_examples(3, 4)
    path = tmp_path / "features.csv"
    write_examples(examples, path)
    assert read_examples(path) == examples


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
