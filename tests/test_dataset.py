import collections
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feature_table
from teamroles import artifacts
from teamroles.dataset import (
    ClassTooSmall,
    FeatureTable,
    read_examples,
    stratified_split,
    write_examples,
    write_split,
    write_split_manifest,
)
from teamroles.errors import FormatError
from teamroles.features import first_feature_problem
from teamroles.types import FEATURE_NAMES, BinaryRole


def example(i, label, author=None):
    """One (author_id, paper_id, features, label) row for feature_table."""
    return (author or f"A{i}", f"W{i}", [0.0] * 4 + [float(i)] * 6, label)


def make_examples(n_lead, n_support):
    rows = [example(i, BinaryRole.LEADERSHIP) for i in range(n_lead)]
    rows += [example(n_lead + i, BinaryRole.SUPPORT) for i in range(n_support)]
    return feature_table(rows)


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
    examples = feature_table(rows)
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
    examples = feature_table(rows)
    result = stratified_split(examples, ratio=ratio, seed=seed, group_by_author=True)
    assert not (set(result.train.author_ids) & set(result.test.author_ids))
    assert sorted(result.train.paper_ids + result.test.paper_ids) == sorted(examples.paper_ids)


LEAD, SUPPORT = BinaryRole.LEADERSHIP, BinaryRole.SUPPORT
# Five authors with two Support rows each, then authors with rows of both classes. At ratio
# 0.2 a Support-only author fills the Support quota of 2, which shuts out every mixed author.
SHUT_OUT = [(f"S{i // 2}", SUPPORT) for i in range(10)] + [
    ("M0", LEAD), ("M0", SUPPORT), ("M1", LEAD), ("M1", SUPPORT)]
# At ratio 0.9 the Leadership quota is 2 of 3, so Y then X would put all three in test.
TAKEN_WHOLE = [("X", LEAD), ("X", LEAD), ("Y", LEAD)] + [(f"S{i}", SUPPORT) for i in range(6)]


@pytest.mark.parametrize("rows, ratio", [(SHUT_OUT, 0.2), (TAKEN_WHOLE, 0.9)],
                         ids=["no-test-row", "no-train-row"])
@pytest.mark.parametrize("seed", range(8))
def test_grouped_split_gives_each_side_a_row_of_every_class(rows, ratio, seed):
    table = feature_table(example(i, label, author) for i, (author, label) in enumerate(rows))
    result = stratified_split(table, ratio, seed, group_by_author=True)
    assert set(result.train.labels) == set(result.test.labels) == set(BinaryRole)
    assert not set(result.train.author_ids) & set(result.test.author_ids)


def test_grouped_split_with_one_author_holding_a_class_raises():
    rows = [("X", LEAD), ("X", LEAD), ("X", SUPPORT)] + [(f"S{i}", SUPPORT) for i in range(6)]
    table = feature_table(example(i, label, author) for i, (author, label) in enumerate(rows))
    for seed in range(8):
        with pytest.raises(ClassTooSmall, match="too few Leadership rows in test: 0, need 1"):
            stratified_split(table, 0.2, seed, group_by_author=True)


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
        assert got == min(max(math.floor(ratio * total + 0.5), 1), total - 1)
        assert 0 < got < total


def split_reference(rows, ratio, seed, group_by_author):
    """The split over a list of rows that stratified_split replaced: the
    paper ids of its train and test parts."""
    rng = random.Random(seed)
    by_class = {}
    for row in rows:
        by_class.setdefault(row[3], []).append(row)
    n_test = {label: min(max(math.floor(ratio * len(members) + 0.5), 1), len(members) - 1)
              for label, members in by_class.items()}
    train, test = [], []
    if group_by_author:
        groups = {}
        for row in rows:
            groups.setdefault(row[0], []).append(row)
        keys = sorted(groups)
        rng.shuffle(keys)
        tested = []

        def can_test(key):
            """Whether the author is in train and train keeps every class without them."""
            rest = {row[3] for row in rows if row[0] != key and row[0] not in tested}
            return key not in tested and rest == set(by_class)

        for key in keys:
            counts = collections.Counter(row[3] for k in tested for row in groups[k])
            if all(counts[row[3]] < n_test[row[3]] for row in groups[key]) and can_test(key):
                tested.append(key)
        for label in by_class:  # a class with no test row takes an author from train
            if not any(row[3] == label for k in tested for row in groups[k]):
                key = next((key for key in keys if can_test(key)
                            and any(row[3] == label for row in groups[key])), None)
                if key is None:
                    raise ClassTooSmall(label, 0, 1, " in test")
                tested.append(key)
        test = [row for key in keys if key in tested for row in groups[key]]
        train = [row for key in keys if key not in tested for row in groups[key]]
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
    try:
        expected = split_reference(rows, ratio, seed, group_by_author)
    except ClassTooSmall as exc:
        with pytest.raises(ClassTooSmall, match=str(exc)):
            stratified_split(feature_table(rows), ratio, seed, group_by_author)
        return
    result = stratified_split(feature_table(rows), ratio, seed, group_by_author)
    assert (result.train.paper_ids, result.test.paper_ids) == expected
    assert set(result.train.labels) == set(result.test.labels) == set(BinaryRole)
    by_paper = {row[1]: row for row in rows}
    for part in (result.train, result.test):
        assert [by_paper[p][2] for p in part.paper_ids] == part.X.tolist()
        assert tuple(by_paper[p][3] for p in part.paper_ids) == part.labels


# ids as a writer may quote them: commas, quotes and line breaks inside a cell
_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               min_size=1, max_size=6)
_ratios = st.floats(min_value=0.0, max_value=1.0)
_counts = st.floats(min_value=0.0, max_value=1e12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(_ids, _ids, st.lists(_ratios, min_size=4, max_size=4),
                       st.lists(_counts, min_size=6, max_size=6), st.booleans()),
             min_size=0, max_size=30),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
)
def test_write_split_copies_rows_as_write_examples_writes_them(
        tmp_path_factory, drawn, ratio, seed, group_by_author):
    """For any table that write_examples wrote, the split's rows copied as read
    are the bytes that write_examples writes for each side: the rewrite that
    write_split replaced is its reference."""
    rows = [(author, paper, ratios + counts, BinaryRole.LEADERSHIP if lead else BinaryRole.SUPPORT)
            for author, paper, ratios, counts, lead in drawn]
    rows += [example(i, label) for i, label in enumerate([BinaryRole.LEADERSHIP] * 2
                                                           + [BinaryRole.SUPPORT] * 2)]
    out = tmp_path_factory.mktemp("split")
    write_examples(feature_table(rows), out / "features.csv")
    text: list = []
    table = read_examples(out / "features.csv", text)
    try:
        result = stratified_split(table, ratio, seed, group_by_author)
    except ClassTooSmall:
        return
    write_split(result, text, out / "train.csv", out / "test.csv")
    for part, name in ((result.train, "train.csv"), (result.test, "test.csv")):
        write_examples(part, out / "expected.csv")
        assert (out / name).read_bytes() == (out / "expected.csv").read_bytes()


def test_examples_round_trip(tmp_path):
    examples = make_examples(3, 4)
    path = tmp_path / "features.csv"
    write_examples(examples, path)
    table = read_examples(path)
    assert table.author_ids == examples.author_ids
    assert table.paper_ids == examples.paper_ids
    assert table.labels == examples.labels
    assert table.X.dtype == np.float64 and np.array_equal(table.X, examples.X)


def read_examples_reference(path) -> FeatureTable:
    """The row-by-row reader read_examples replaced, kept as its oracle: one dict
    per row through the row decoder, then the value check over the table."""

    def decode_row(row: dict) -> tuple:
        return (
            row["author_id"],
            row["paper_id"],
            [float(row[name]) for name in FEATURE_NAMES],
            BinaryRole.from_string(row["label"]),
        )

    numbered = list(artifacts.read_csv(path, decode=decode_row))
    table = feature_table(row for _, row in numbered)
    bad = first_feature_problem(table.X)
    if bad is not None:
        row, name, problem = bad
        raise FormatError(path, numbered[row][0], f"field {name}: {problem}")
    return table


def set_cell(row, name, text):
    return lambda rows: rows[row + 1].__setitem__(rows[0].index(name), text)


def set_row(row, cells):
    return lambda rows: rows.__setitem__(row + 1, cells)


def drop_column(name):
    def damage(rows):
        index = rows[0].index(name)
        for cells in rows:
            del cells[index]
    return damage


def swap_columns(a, b):
    def damage(rows):
        i, j = rows[0].index(a), rows[0].index(b)
        for cells in rows:
            cells[i], cells[j] = cells[j], cells[i]
    return damage


def insert_blank_rows(*rows):
    return lambda table: [table.insert(row + 1, []) for row in sorted(rows, reverse=True)]


@pytest.mark.parametrize(
    "damages, error",
    [
        ([], None),
        ([swap_columns("label", "career_age"), swap_columns("author_id", "paper_id")], None),
        ([set_cell(2000, "career_age", "abc"), set_cell(1500, "label", "Boss")],
         "line 1502: field label: unknown binary role"),
        ([set_cell(5, "label", "Boss"), set_cell(5, "citation_count", "abc")],
         "line 7: field citation_count: could not convert"),
        ([set_cell(100, "career_age", "x"), set_row(900, ["a", "b"])],
         "line 102: field career_age: could not convert"),
        ([set_row(100, ["a", "b"]), set_cell(900, "career_age", "x")],
         "line 102: 2 columns, the header has 13"),
        ([set_cell(10, "contribution_to_references", "nan"),
          set_cell(2400, "citation_count", "abc")],
         "line 2402: field citation_count: could not convert"),
        ([set_cell(2450, "probability_of_leading", "1.5"), insert_blank_rows(3, 1200)],
         "line 2454: field probability_of_leading: ratio feature"),
        ([drop_column("label")], "line 2: field label: missing"),
        ([set_cell(5, "career_age", "-1"), set_row(1500, ["a"])],
         "line 1502: 1 columns, the header has 13"),
        ([drop_column("author_id"), set_cell(0, "career_age", "x")],
         "line 2: field author_id: missing"),
    ],
    ids=["clean", "columns-reordered", "label-before-float", "float-before-label-in-a-row",
         "float-before-short-row", "short-row-before-float", "parse-before-value",
         "value-after-blank-lines", "missing-column", "short-row-after-value",
         "missing-id-before-float"],
)
def test_read_examples_matches_the_row_by_row_reference(tmp_path, damages, error):
    """On a table longer than two of read_examples' blocks, with damage placed on
    both sides of a block boundary, read_examples returns the reference's table or
    raises its error, text and line alike."""
    rng = np.random.default_rng(3)
    n = 2500
    X = np.hstack([rng.uniform(0.0, 1.0, (n, 4)), rng.exponential(5.0, (n, 6))])
    labels = [BinaryRole.LEADERSHIP if u < 0.4 else BinaryRole.SUPPORT for u in rng.random(n)]
    path = tmp_path / "features.csv"
    write_examples(feature_table(
        (f"A{i % 97}", f"W{i}", x, label) for i, (x, label) in enumerate(zip(X.tolist(), labels))
    ), path)
    rows = [line.split(",") if line else [] for line in path.read_bytes().decode().split("\r\n")[:-1]]
    for damage in damages:
        damage(rows)
    path.write_bytes("".join(",".join(cells) + "\r\n" for cells in rows).encode())

    def outcome(read):
        try:
            table = read(path)
        except FormatError as exc:
            return str(exc)
        return table.author_ids, table.paper_ids, table.X.tobytes(), table.labels

    got = outcome(read_examples)
    assert got == outcome(read_examples_reference)
    if error is None:
        assert not isinstance(got, str) and got[2] == X.tobytes()
    else:
        assert f"{path} {error}" in got


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
