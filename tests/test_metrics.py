import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamroles.metrics import (
    EmptyInput,
    classification_report,
    f1_score,
    l_ratio,
    label_distribution,
    report_to_dict,
    report_to_text,
    save_report,
)
from teamroles.types import ROLE_ORDER, BinaryRole, RoleLabel

L, D, I = RoleLabel.LEADERSHIP, RoleLabel.DIRECT_SUPPORT, RoleLabel.INDIRECT_SUPPORT


def test_f1_score_harmonic_mean():
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)
    # published-style row: P=0.995, R=0.991 -> F1 0.993
    assert f1_score(0.995, 0.991) == pytest.approx(0.993, abs=5e-4)


@settings(max_examples=200)
@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_f1_bounded_by_min_and_max(p, r):
    f1 = f1_score(p, r)
    assert 0.0 <= f1 <= 1.0
    assert f1 <= max(p, r) + 1e-12
    if p > 0 and r > 0:
        assert f1 >= min(p, r) * min(p, r) / max(p, r) - 1e-12


def test_report_perfect_predictions():
    gold = [L, D, I, L, D]
    report = classification_report(gold, gold)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    for label in ROLE_ORDER:
        assert report.per_class[label].f1 == 1.0


def test_report_hand_computed_confusion():
    gold = [L, L, L, D, D, I]
    pred = [L, D, L, D, D, L]
    report = classification_report(gold, pred)
    assert report.confusion == ((2, 1, 0), (0, 2, 0), (1, 0, 0))
    assert report.per_class[L].precision == pytest.approx(2 / 3)
    assert report.per_class[L].recall == pytest.approx(2 / 3)
    assert report.per_class[D].precision == pytest.approx(2 / 3)
    assert report.per_class[D].recall == 1.0
    assert report.per_class[I].f1 == 0.0
    assert report.accuracy == pytest.approx(4 / 6)
    assert report.zero_support_labels == ()


def test_macro_f1_is_mean_of_class_f1():
    gold = [L, L, D, D, I, I]
    pred = [L, D, D, D, I, L]
    report = classification_report(gold, pred)
    class_f1s = [report.per_class[label].f1 for label in ROLE_ORDER]
    assert report.macro_f1 == pytest.approx(sum(class_f1s) / 3)


def test_zero_support_label():
    gold = [L, L, D]
    pred = [L, L, D]
    report = classification_report(gold, pred)
    assert I in report.zero_support_labels
    assert report.per_class[I].f1 == 0.0
    assert report.per_class[I].support == 0


def test_report_binary_labels():
    gold = [BinaryRole.LEADERSHIP, BinaryRole.SUPPORT, BinaryRole.SUPPORT]
    pred = [BinaryRole.LEADERSHIP, BinaryRole.LEADERSHIP, BinaryRole.SUPPORT]
    report = classification_report(gold, pred, labels=list(BinaryRole))
    assert set(report.per_class) == set(BinaryRole)
    assert report.accuracy == pytest.approx(2 / 3)


def test_report_errors():
    with pytest.raises(ValueError, match="1 gold vs 2 predicted"):
        classification_report([L], [L, D])
    with pytest.raises(EmptyInput):
        classification_report([], [])


def test_label_distribution():
    counts = label_distribution([L, L, D, I, I, I])
    assert counts == {L: 2, D: 1, I: 3}
    assert label_distribution([]) == {L: 0, D: 0, I: 0}


def test_l_ratio():
    assert l_ratio([L, D, I, D]) == 0.25
    assert l_ratio([L, L]) == 1.0
    assert l_ratio([D, I]) == 0.0
    with pytest.raises(EmptyInput, match="team has no members"):
        l_ratio([])


def test_report_round_trip_and_text(tmp_path):
    gold = [L, D, I, L]
    pred = [L, D, L, L]
    report = classification_report(gold, pred)
    path = tmp_path / "metrics.json"
    save_report(report, path)
    data = json.loads(path.read_text())
    assert data["macro"]["f1"] == pytest.approx(report.macro_f1)
    assert data["per_class"]["Leadership"]["support"] == 2

    text = report_to_text(report)
    assert "macro avg" in text
    assert "accuracy" in text
    for label in ROLE_ORDER:
        assert label.value in text


def test_report_to_dict_confusion_shape():
    report = classification_report([L, D], [D, D])
    data = report_to_dict(report)
    assert len(data["confusion"]) == 3
    assert all(len(row) == 3 for row in data["confusion"])
    assert sum(sum(row) for row in data["confusion"]) == 2


@settings(max_examples=100)
@given(st.lists(st.sampled_from(ROLE_ORDER), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=1_000_000))
def test_report_invariants(gold, seed):
    import random

    rng = random.Random(seed)
    pred = [rng.choice(ROLE_ORDER) for _ in gold]
    report = classification_report(gold, pred)
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.macro_f1 <= 1.0
    assert sum(m.support for m in report.per_class.values()) == len(gold)
    assert sum(sum(row) for row in report.confusion) == len(gold)
