"""Per-label detection metrics: precision, recall, F1, accuracy.

The F1 convention matters for rare labels: an all-negative prediction
against all-negative truth scores accuracy 1 but F1 0, so F1 exposes
detectors that never fire.  Any 0/0 ratio is defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .serialize import au_columns, write_csv

#: Decision threshold for turning probabilities into labels; ties count
#: as positive.
THRESHOLD = 0.5


@dataclass(frozen=True)
class MetricsReport:
    precision: np.ndarray  # (m,)
    recall: np.ndarray     # (m,)
    f1: np.ndarray         # (m,)
    accuracy: np.ndarray   # (m,)

    @property
    def avg_f1(self) -> float:
        return float(self.f1.mean())

    @property
    def avg_accuracy(self) -> float:
        return float(self.accuracy.mean())


def binarize(probabilities: np.ndarray) -> np.ndarray:
    return (np.asarray(probabilities) >= THRESHOLD).astype(np.float64)


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    out = np.zeros_like(numerator, dtype=np.float64)
    np.divide(numerator, denominator, out=out, where=denominator > 0)
    return out


def f1_accuracy(pred: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """Confusion-count metrics per label column of two binary (n, m) arrays."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 2:
        raise ShapeError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    for name, arr in (("pred", pred), ("truth", truth)):
        if not np.isin(arr, (0.0, 1.0)).all():
            raise ShapeError(f"{name} entries must be binary")
    tp = (pred * truth).sum(axis=0)
    fp = (pred * (1.0 - truth)).sum(axis=0)
    fn = ((1.0 - pred) * truth).sum(axis=0)
    tn = ((1.0 - pred) * (1.0 - truth)).sum(axis=0)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    accuracy = _ratio(tp + tn, tp + fp + fn + tn)
    return MetricsReport(precision, recall, f1, accuracy)


def save_metrics_csv(path, report: MetricsReport) -> None:
    """One row per label (1-based names) plus an unweighted Avg row."""
    columns = (report.precision, report.recall, report.f1, report.accuracy)
    rows = [[name, *(repr(float(col[j])) for col in columns)]
            for j, name in enumerate(au_columns(report.f1.shape[0]))]
    rows.append(["Avg", *(repr(float(col.mean())) for col in columns)])
    write_csv(path, ["au", "precision", "recall", "f1", "accuracy"], rows, "metrics file")
