"""Range observer for activation quantisation.

During quantisation-aware training the activation quantiser must pick a
clipping range.  Brevitas tracks runtime statistics with an observer;
:class:`EMAObserver` keeps an exponential moving average of the batch
maximum of ``|x|``, robust to early-training outliers (the Brevitas/TF
default).

Observers only *collect*; the quantiser converts the observed range to a
scale.  After :meth:`freeze`, the range is fixed (inference behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantError

__all__ = ["EMAObserver"]


class _Observer:
    """Common state: the currently observed absolute range."""

    def __init__(self) -> None:
        self.range = 0.0
        self.frozen = False
        self.num_batches = 0

    def observe(self, values: np.ndarray) -> None:
        """Update the range estimate from a batch of activation values."""
        if self.frozen:
            return
        batch_range = self._batch_range(np.asarray(values))
        self._update(batch_range)
        self.num_batches += 1

    def _batch_range(self, values: np.ndarray) -> float:
        if values.size == 0:
            raise QuantError("observer received an empty batch")
        return float(np.abs(values).max())

    def _update(self, batch_range: float) -> None:
        raise NotImplementedError

    def freeze(self) -> None:
        """Stop updating (called when the model enters eval mode)."""
        self.frozen = True

    def unfreeze(self) -> None:
        """Resume updating (back to training mode)."""
        self.frozen = False

    def state(self) -> dict[str, float]:
        """Persistable observer state."""
        return {"range": self.range, "num_batches": self.num_batches}

    def load_state(self, state: dict[str, float]) -> None:
        """Restore persisted state."""
        self.range = float(state["range"])
        self.num_batches = int(state.get("num_batches", 0))


class EMAObserver(_Observer):
    """Exponential moving average of per-batch maxima.

    ``range <- (1 - momentum) * range + momentum * batch_max``, with the
    first batch initialising the range directly.
    """

    def __init__(self, momentum: float = 0.1):
        super().__init__()
        if not 0.0 < momentum <= 1.0:
            raise QuantError(f"EMA momentum must be in (0, 1], got {momentum}")
        self.momentum = momentum

    def _update(self, batch_range: float) -> None:
        if self.num_batches == 0 and self.range == 0.0:
            self.range = batch_range
        else:
            self.range = (1 - self.momentum) * self.range + self.momentum * batch_range
