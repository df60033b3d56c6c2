"""Softmax family and the cross-entropy loss.

The softmax family is composed from :class:`~repro.autograd.tensor.Tensor`
primitives so gradients are derived automatically; log-sum-exp uses the
standard max-shifted formulation for numerical stability.

:func:`cross_entropy` is one fused node instead: its forward and its
hand-written backward replay the numpy calls of the loss composed from
:func:`log_softmax` (index the picked log-probabilities, weight, sum,
negate, normalise) in the same order, so the loss and the logits
gradient are byte-identical to that composition, which the tests keep
as the reference.
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

    Raises :class:`~repro.errors.ShapeError` for a label that is not an
    integer in ``[0, C)``, naming the first one.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits batch {batch}"
        )
    classes = labels.astype(np.int64)
    invalid = (classes != labels) | (classes < 0) | (classes >= num_classes)
    if invalid.any():
        row = int(invalid.argmax())
        raise ShapeError(
            f"label {labels[row].item()!r} at row {row} is not a class index in [0, {num_classes})"
        )
    rows = np.arange(batch, dtype=np.int64)
    data = logits.data
    shift = data.max(axis=-1, keepdims=True)
    exp = np.exp(data - shift)
    total_exp = exp.sum(axis=-1, keepdims=True)
    log_probs = data - (np.log(total_exp) + shift)
    picked = log_probs[rows, classes]
    if class_weights is None:
        norm = 1.0 / float(batch)
        loss = -(picked.sum() * norm)
    else:
        weights = np.asarray(class_weights, dtype=np.float64)[classes]
        norm = 1.0 / float(weights.sum())
        loss = -(picked * weights).sum() * norm

    def backward(grad: np.ndarray) -> None:
        # d loss / d picked, as the composed chain's mul/neg/sum nodes
        # hand it down.
        picked_grad = -grad * norm if class_weights is None else -(grad * norm) * weights
        grad_logits = np.zeros(data.shape, dtype=np.float64)
        np.add.at(grad_logits, (rows, classes), picked_grad)
        # The log-sum-exp path: sum, divide by the exp total, times exp.
        grad_logits += (-grad_logits).sum(axis=1, keepdims=True) / total_exp * exp
        logits._accumulate_owned(grad_logits)

    return Tensor._make(np.asarray(loss), (logits,), backward, "cross_entropy")
