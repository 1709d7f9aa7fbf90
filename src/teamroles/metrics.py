"""Per-class precision/recall/F1, macro averages, label distributions, L-Ratio.

The report is generic over hashable label types so it serves both the
three-level taxonomy and the binary Leadership/Support task. Macro F1 is
the unweighted mean of per-class F1 scores (not the harmonic mean of
macro precision and recall).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from . import artifacts
from .errors import EmptyInput
from .types import ROLE_ORDER, RoleLabel


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class ClassificationReport:
    labels: Tuple[Hashable, ...]
    per_class: Dict[Hashable, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    confusion: Tuple[Tuple[int, ...], ...]  # [true][predicted]
    zero_support_labels: Tuple[Hashable, ...]


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def classification_report(
    gold: Sequence, predicted: Sequence, labels: Sequence = None
) -> ClassificationReport:
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold vs {len(predicted)} predicted")
    if not gold:
        raise EmptyInput("no examples to score")
    if labels is None:
        if all(isinstance(g, RoleLabel) for g in gold):
            labels = list(ROLE_ORDER)
        else:
            labels = sorted(set(gold) | set(predicted), key=str)
    labels = tuple(labels)
    index = {label: i for i, label in enumerate(labels)}

    k = len(labels)
    confusion = [[0] * k for _ in range(k)]
    for g, p in zip(gold, predicted):
        confusion[index[g]][index[p]] += 1

    per_class: Dict[Hashable, ClassMetrics] = {}
    zero_support = []
    for label in labels:
        i = index[label]
        tp = confusion[i][i]
        fp = sum(confusion[j][i] for j in range(k)) - tp
        fn = sum(confusion[i]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        support = sum(confusion[i])
        if support == 0:
            zero_support.append(label)
        per_class[label] = ClassMetrics(precision, recall, f1_score(precision, recall), support)

    metrics = list(per_class.values())
    correct = sum(confusion[i][i] for i in range(k))
    return ClassificationReport(
        labels=labels,
        per_class=per_class,
        macro_precision=sum(m.precision for m in metrics) / k,
        macro_recall=sum(m.recall for m in metrics) / k,
        macro_f1=sum(m.f1 for m in metrics) / k,
        accuracy=correct / len(gold),
        confusion=tuple(tuple(row) for row in confusion),
        zero_support_labels=tuple(zero_support),
    )


def label_distribution(labels: Sequence[RoleLabel]) -> Dict[RoleLabel, int]:
    counts = {label: 0 for label in ROLE_ORDER}
    for label in labels:
        counts[label] += 1
    return counts


def l_ratio(team_labels: Sequence[RoleLabel]) -> float:
    """Proportion of a team's authors classified as Leadership."""
    if not team_labels:
        raise EmptyInput("team has no members")
    leaders = sum(1 for label in team_labels if label is RoleLabel.LEADERSHIP)
    return leaders / len(team_labels)


def _label_name(label) -> str:
    return label.value if hasattr(label, "value") else str(label)


def report_to_dict(report: ClassificationReport) -> dict:
    return {
        "schema_version": 1,
        "labels": [_label_name(l) for l in report.labels],
        "per_class": {
            _label_name(label): {
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": m.support,
            }
            for label, m in report.per_class.items()
        },
        "macro": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "accuracy": report.accuracy,
        "confusion": [list(row) for row in report.confusion],
        "zero_support_labels": [_label_name(l) for l in report.zero_support_labels],
    }


def report_to_text(report: ClassificationReport) -> str:
    lines = [f"{'':24s} {'prec':>6s} {'recall':>6s} {'f1':>6s} {'support':>8s}"]
    for label, m in report.per_class.items():
        lines.append(
            f"{_label_name(label):24s} {m.precision:6.3f} {m.recall:6.3f} {m.f1:6.3f} {m.support:8d}"
        )
    lines.append(
        f"{'macro avg':24s} {report.macro_precision:6.3f} "
        f"{report.macro_recall:6.3f} {report.macro_f1:6.3f} {sum(m.support for m in report.per_class.values()):8d}"
    )
    lines.append(f"accuracy: {report.accuracy:.3f}")
    return "\n".join(lines)


def save_report(report: ClassificationReport, path) -> None:
    artifacts.write_json(path, report_to_dict(report))
