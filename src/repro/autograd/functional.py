"""Softmax family and the cross-entropy loss.

Everything here is composed from :class:`~repro.autograd.tensor.Tensor`
primitives so gradients are derived automatically; log-sum-exp uses the
standard max-shifted formulation for numerical stability.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ShapeError

__all__ = ["softmax", "log_softmax", "logsumexp", "cross_entropy"]


def logsumexp(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = logits - shift
    return shifted.exp().sum(axis=axis, keepdims=True).log() + shift


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax distribution along ``axis``."""
    return logits - logsumexp(logits, axis=axis)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax distribution along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    class_weights: np.ndarray | None = None,
) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``labels`` (N,).

    Parameters
    ----------
    class_weights:
        Optional per-class weights (C,), used to counter class imbalance
        (attack frames are a minority of CAN traffic).  Weighted losses
        are normalised by the total weight of the batch, matching
        ``torch.nn.CrossEntropyLoss``.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits batch {logits.shape[0]}"
        )
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[(np.arange(logits.shape[0]), labels.astype(np.int64))]
    if class_weights is None:
        return -picked.mean()
    weights = np.asarray(class_weights, dtype=np.float64)[labels.astype(np.int64)]
    total = float(weights.sum())
    return -(picked * Tensor(weights)).sum() * (1.0 / total)
