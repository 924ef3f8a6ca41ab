"""Scoring of association decisions: confusion matrix and one-vs-rest metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IoFailure, UnknownObjectId, write_output


@dataclass
class ConfusionMatrix:
    labels: list[str]  # row/column order; may include ingest.NEW_TRACK as a predicted-only column
    counts: np.ndarray  # square, rows = true label, cols = predicted label

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(assignments: list[tuple[int, str]], truth: dict[int, str]) -> ConfusionMatrix:
    """Build the matrix from (object_id, predicted_vid) pairs and a truth map."""
    for object_id, _ in assignments:
        if object_id not in truth:
            raise UnknownObjectId(f"object_id {object_id} absent from truth")
    labels = sorted({truth[oid] for oid, _ in assignments})
    predicted_only = sorted({p for _, p in assignments} - set(labels))
    labels = labels + predicted_only
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for object_id, predicted in assignments:
        counts[index[truth[object_id]], index[predicted]] += 1
    return ConfusionMatrix(labels=labels, counts=counts)


def metrics(cm: ConfusionMatrix) -> list[dict]:
    """One report row per label: its one-vs-rest TP, FP, FN and TN, then
    precision, recall, accuracy and F1, each 0.0 where its denominator is 0."""
    tp = np.diagonal(cm.counts)
    fp = cm.counts.sum(axis=0) - tp
    fn = cm.counts.sum(axis=1) - tp
    tn = cm.total - tp - fp - fn

    def ratio(num: np.ndarray, den) -> np.ndarray:
        return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    accuracy = ratio(tp + tn, cm.total)
    f1 = ratio(2 * precision * recall, precision + recall)
    columns = (tp, fp, fn, tn, precision, recall, accuracy, f1)
    keys = ("vessel_id", "tp", "fp", "fn", "tn", "precision", "recall", "accuracy", "f1")
    return [dict(zip(keys, row)) for row in zip(cm.labels, *(c.tolist() for c in columns))]


def macro_averages(per_vessel: list[dict]) -> dict[str, float]:
    return {
        key: float(np.mean([m[key] for m in per_vessel])) if per_vessel else 0.0
        for key in ("precision", "recall", "accuracy", "f1")
    }


def report_dict(cm: ConfusionMatrix, per_vessel: list[dict], meta: dict | None = None) -> dict:
    return {
        "labels": cm.labels,
        "confusion_matrix": cm.counts.tolist(),
        "per_vessel": per_vessel,
        "macro": macro_averages(per_vessel),
        "meta": meta or {},
    }


def report_text(cm: ConfusionMatrix, per_vessel: list[dict]) -> str:
    lines = [f"{'Vessel':<16}{'Precision':>10}{'Recall':>10}{'Accuracy':>10}{'F1 score':>10}"]
    for m in per_vessel:
        lines.append(
            f"{m['vessel_id']:<16}{m['precision']:>10.3f}{m['recall']:>10.3f}"
            f"{m['accuracy']:>10.3f}{m['f1']:>10.3f}"
        )
    macro = macro_averages(per_vessel)
    lines.append(
        f"{'macro':<16}{macro['precision']:>10.3f}{macro['recall']:>10.3f}"
        f"{macro['accuracy']:>10.3f}{macro['f1']:>10.3f}"
    )
    return "\n".join(lines) + "\n"


def write_report(
    cm: ConfusionMatrix,
    per_vessel: list[dict],
    path: str | Path,
    meta: dict | None = None,
) -> None:
    """Write report.json and a Figure-3b-style report.txt next to it. A
    `path` that is its own .txt sibling is an IoFailure before anything is
    written, since the text report would overwrite the JSON one."""
    path = Path(path)
    text_path = path.with_suffix(".txt")
    if text_path == path:
        raise IoFailure(f"cannot write report {path}: its text report {text_path} is the same file")
    write_output(path, json.dumps(report_dict(cm, per_vessel, meta), sort_keys=True, indent=1))
    write_output(text_path, report_text(cm, per_vessel))
