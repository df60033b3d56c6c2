"""Mini-batch trainer with early stopping.

One recipe serves every model in the reproduction (QMLPs at all bit
widths and the trainable baselines): Adam on class-weighted
cross-entropy, optional gradient clipping for the recurrent baselines,
early stopping on validation F1 with best-state restoration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.autograd import functional as F
from repro.autograd.module import Module
from repro.autograd.optim import Adam, clip_grad_norm
from repro.autograd.tensor import Tensor, no_grad
from repro.errors import ConfigError, TrainingError
from repro.training.metrics import ids_metrics
from repro.utils.logutil import get_logger
from repro.utils.rng import new_rng

__all__ = ["TrainConfig", "TrainHistory", "Trainer"]

_LOG = get_logger("training")


@dataclass
class TrainConfig:
    """Hyper-parameters of the QAT training recipe."""

    epochs: int = 20
    batch_size: int = 256
    lr: float = 1e-3
    clip_norm: float | None = None
    early_stopping_patience: int | None = 5
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive or None, got {self.clip_norm}")
        if self.early_stopping_patience is not None and self.early_stopping_patience < 1:
            raise ConfigError(
                f"early_stopping_patience must be >= 1 or None, got {self.early_stopping_patience}"
            )


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    val_f1: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_f1: float = -1.0
    wall_seconds: float = 0.0

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


def _check_labels(split: str, labels: np.ndarray) -> None:
    """Raise :class:`TrainingError` naming the first label that is not a
    non-negative integer (a class index)."""
    classes = labels.astype(np.int64)
    invalid = (classes != labels) | (classes < 0)
    if invalid.any():
        row = int(invalid.argmax())
        raise TrainingError(
            f"{split} label {labels[row].item()!r} at row {row} is not a class index "
            "(a non-negative integer)"
        )


def _class_weights(labels: np.ndarray) -> np.ndarray:
    """Inverse-frequency class weights normalised to mean 1."""
    counts = np.bincount(labels.astype(np.int64), minlength=2).astype(np.float64)
    if np.any(counts == 0):
        raise TrainingError(
            f"training labels contain a missing class (counts {counts.tolist()}); "
            "widen the capture or lower the split fraction"
        )
    weights = counts.sum() / (len(counts) * counts)
    return weights / weights.mean()


class Trainer:
    """Train and evaluate classification models on (X, y) numpy data."""

    def __init__(self, config: TrainConfig | None = None):
        self.config = config or TrainConfig()

    # ------------------------------------------------------------------
    # Inference helpers
    # ------------------------------------------------------------------
    @staticmethod
    def predict_logits(model: Module, features: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Forward a dataset in eval mode, batched; returns (N, C) logits."""
        model.eval()
        outputs = []
        with no_grad():
            for start in range(0, len(features), batch_size):
                batch = Tensor(features[start : start + batch_size])
                outputs.append(model(batch).data)
        return np.concatenate(outputs, axis=0)

    @classmethod
    def predict(cls, model: Module, features: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Predicted class labels."""
        return cls.predict_logits(model, features, batch_size).argmax(axis=1)

    @classmethod
    def evaluate(cls, model: Module, features: np.ndarray, labels: np.ndarray) -> dict[str, float]:
        """The paper's metric set on a dataset split."""
        return ids_metrics(labels, cls.predict(model, features))

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def fit(
        self,
        model: Module,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
    ) -> TrainHistory:
        """Train ``model``; restores the best-validation-F1 state on exit.

        When no validation split is given, early stopping is disabled
        and the final state is kept.
        """
        config = self.config
        y_train = np.asarray(y_train)
        if len(x_train) != len(y_train):
            raise TrainingError("x_train and y_train lengths differ")
        has_val = x_val is not None and y_val is not None
        _check_labels("training", y_train)
        if has_val:
            _check_labels("validation", np.asarray(y_val))

        optimizer = Adam(model.parameters(), lr=config.lr)
        class_weights = _class_weights(y_train)
        rng = new_rng(config.seed, "trainer-shuffle")
        history = TrainHistory()
        best_state: dict[str, np.ndarray] | None = None
        patience_left = config.early_stopping_patience
        started = time.perf_counter()

        for epoch in range(config.epochs):
            model.train()
            order = rng.permutation(len(x_train))
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(order), config.batch_size):
                batch_idx = order[start : start + config.batch_size]
                if len(batch_idx) < 2:
                    # A 1-row tail is skipped; keeping it would move the
                    # trained weights of every split that leaves one.
                    continue
                optimizer.zero_grad()
                logits = model(Tensor(x_train[batch_idx]))
                loss = F.cross_entropy(logits, y_train[batch_idx], class_weights=class_weights)
                loss.backward()
                if config.clip_norm is not None:
                    clip_grad_norm(optimizer.parameters, config.clip_norm)
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            mean_loss = epoch_loss / max(batches, 1)
            if not np.isfinite(mean_loss):
                raise TrainingError(f"training diverged at epoch {epoch} (loss={mean_loss})")
            history.train_loss.append(mean_loss)

            if has_val:
                val_logits = self.predict_logits(model, x_val)
                val_loss = F.cross_entropy(Tensor(val_logits), y_val).item()
                val_f1 = ids_metrics(y_val, val_logits.argmax(axis=1))["f1"]
                history.val_loss.append(val_loss)
                history.val_f1.append(val_f1)
                if config.verbose:
                    _LOG.info(
                        "epoch %d: loss %.4f, val loss %.4f, val F1 %.3f",
                        epoch, mean_loss, val_loss, val_f1,
                    )
                if val_f1 > history.best_val_f1:
                    history.best_val_f1 = val_f1
                    history.best_epoch = epoch
                    best_state = model.state_dict()
                    patience_left = config.early_stopping_patience
                elif config.early_stopping_patience is not None:
                    patience_left -= 1
                    if patience_left <= 0:
                        if config.verbose:
                            _LOG.info("early stopping at epoch %d", epoch)
                        break
            elif config.verbose:
                _LOG.info("epoch %d: loss %.4f", epoch, mean_loss)

        if best_state is not None:
            model.load_state_dict(best_state)
        model.eval()
        history.wall_seconds = time.perf_counter() - started
        return history
