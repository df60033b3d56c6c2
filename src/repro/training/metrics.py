"""Classification metrics for intrusion detection.

Conventions match the paper (and the IDS literature it compares
against): the **attack class is positive** (label 1), metrics are
reported in percent, and the false-negative rate — the
safety-critical "missed attack" rate — accompanies precision/recall/F1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError

__all__ = ["ConfusionMatrix", "confusion_matrix", "ids_metrics"]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts with attack (1) as the positive class."""

    true_negative: int
    false_positive: int
    false_negative: int
    true_positive: int

    @property
    def total(self) -> int:
        return self.true_negative + self.false_positive + self.false_negative + self.true_positive

    @property
    def accuracy(self) -> float:
        return (self.true_positive + self.true_negative) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denominator = self.true_positive + self.false_positive
        return self.true_positive / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positive + self.false_negative
        return self.true_positive / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def false_negative_rate(self) -> float:
        """FNR = FN / (FN + TP) = 1 - recall; the missed-attack rate."""
        denominator = self.true_positive + self.false_negative
        return self.false_negative / denominator if denominator else 0.0


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    """Binary confusion matrix; labels must be 0 (normal) / 1 (attack)."""
    y_true = np.asarray(y_true).astype(np.int64)
    y_pred = np.asarray(y_pred).astype(np.int64)
    if y_true.shape != y_pred.shape:
        raise TrainingError(f"shape mismatch: y_true {y_true.shape}, y_pred {y_pred.shape}")
    for name, values in (("y_true", y_true), ("y_pred", y_pred)):
        bad = set(np.unique(values)) - {0, 1}
        if bad:
            raise TrainingError(f"{name} contains non-binary labels {sorted(bad)}")
    return ConfusionMatrix(
        true_negative=int(np.sum((y_true == 0) & (y_pred == 0))),
        false_positive=int(np.sum((y_true == 0) & (y_pred == 1))),
        false_negative=int(np.sum((y_true == 1) & (y_pred == 0))),
        true_positive=int(np.sum((y_true == 1) & (y_pred == 1))),
    )


def ids_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, float]:
    """The paper's Table I metric set, in percent.

    Returns ``{"precision", "recall", "f1", "fnr", "accuracy"}`` — all
    multiplied by 100 to match the table formatting.
    """
    cm = confusion_matrix(y_true, y_pred)
    return {
        "precision": 100.0 * cm.precision,
        "recall": 100.0 * cm.recall,
        "f1": 100.0 * cm.f1,
        "fnr": 100.0 * cm.false_negative_rate,
        "accuracy": 100.0 * cm.accuracy,
    }
