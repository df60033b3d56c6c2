"""Training loops and IDS evaluation metrics.

:class:`~repro.training.trainer.Trainer` provides the mini-batch QAT
recipe used for every model in the reproduction (Adam, class-balanced
cross-entropy, early stopping on validation F1);
:mod:`~repro.training.metrics` implements the exact metric set of the
paper's Table I (precision, recall, F1, false-negative rate, with the
attack class as the positive class).
"""

from repro.training.metrics import (
    ConfusionMatrix,
    confusion_matrix,
    ids_metrics,
)
from repro.training.pipeline import IDSModelResult, train_ids_model
from repro.training.trainer import TrainConfig, Trainer, TrainHistory

__all__ = [
    "ConfusionMatrix",
    "IDSModelResult",
    "TrainConfig",
    "TrainHistory",
    "Trainer",
    "confusion_matrix",
    "ids_metrics",
    "train_ids_model",
]
