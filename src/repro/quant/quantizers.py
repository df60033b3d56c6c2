"""Symmetric uniform quantisers with straight-through gradients.

Terminology (matches Brevitas/FINN):

* *bit width* ``b`` — number of bits of the integer representation.
* *signed* — signed ranges are symmetric around zero; unsigned ranges
  start at zero (used after ReLU).
* *narrow range* — signed range ``[-(2^(b-1)-1), 2^(b-1)-1]`` instead of
  ``[-2^(b-1), 2^(b-1)-1]``; keeps the grid symmetric so that a single
  scale maps integers to reals without a zero point.
* *scale* — positive real mapping integers to reals, ``x ≈ x_int * s``.

Rounding is **round-half-up** (``floor(x + 0.5)``) rather than numpy's
banker's rounding: half-up makes threshold conversion in
:mod:`repro.finn.thresholds` a clean inequality and matches hardware
adders.

Every scale is a power of two: multiplying/dividing by a po2 is exact
in float64, which makes the fake-quantised network *bit-exact* against
integer-only execution — the invariant the FINN verifier and the
property-based tests lean on.

The layers of :mod:`repro.quant.layers` train through one fused node
each, built on :meth:`QuantConfig.fake_quantize`.  The Tensor
``quantize`` methods, composed from :func:`round_half_up` and the STE
ops, are the reference the tests hold those nodes to byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import QuantError
from repro.quant.calibration import EMAObserver

__all__ = [
    "int_range",
    "po2_scale",
    "round_half_up",
    "round_half_up_array",
    "WeightQuantizer",
    "ActQuantizer",
]


def int_range(bit_width: int, signed: bool, narrow_range: bool = True) -> tuple[int, int]:
    """Return the ``(qmin, qmax)`` integer range of a quantiser.

    >>> int_range(4, signed=True)
    (-7, 7)
    >>> int_range(4, signed=True, narrow_range=False)
    (-8, 7)
    >>> int_range(4, signed=False)
    (0, 15)
    """
    if bit_width < 1 or bit_width > 32:
        raise QuantError(f"bit_width must be in [1, 32], got {bit_width}")
    if signed:
        if bit_width == 1:
            # 1-bit signed is the binarised {-1, +1} grid.
            return (-1, 1)
        qmax = 2 ** (bit_width - 1) - 1
        qmin = -qmax if narrow_range else -(qmax + 1)
        return (qmin, qmax)
    return (0, 2**bit_width - 1)


def po2_scale(abs_max: float, qmax: int) -> float:
    """Smallest power-of-two scale covering ``abs_max`` with ``qmax`` levels.

    Choosing ``2^ceil(log2(abs_max / qmax))`` guarantees
    ``abs_max / scale <= qmax`` so nothing clips beyond rounding.

    >>> po2_scale(1.0, 7)
    0.25
    """
    if abs_max <= 0.0:
        return 1.0
    return 2.0 ** math.ceil(math.log2(abs_max / qmax))


def round_half_up(x: Tensor) -> Tensor:
    """Differentiable round-half-up with straight-through gradient."""
    return (x + 0.5).floor_ste()


def round_half_up_array(x: np.ndarray) -> np.ndarray:
    """numpy round-half-up (no autograd), used by integer execution paths."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


@dataclass
class QuantConfig:
    """Shared quantiser configuration."""

    bit_width: int
    signed: bool
    narrow_range: bool = True

    def __post_init__(self) -> None:
        # Validates the range.
        int_range(self.bit_width, self.signed, self.narrow_range)

    @property
    def qmin(self) -> int:
        return int_range(self.bit_width, self.signed, self.narrow_range)[0]

    @property
    def qmax(self) -> int:
        return int_range(self.bit_width, self.signed, self.narrow_range)[1]

    def scale_for(self, abs_max: float) -> float:
        """Convert an observed absolute range into a power-of-two scale."""
        return po2_scale(abs_max, self.qmax)

    def fake_quantize(self, values: np.ndarray, scale: float) -> np.ndarray:
        """``clip(floor(values * (1/scale) + 0.5), qmin, qmax) * scale``.

        These are the forward numpy calls of the composed STE chain
        (multiply by the reciprocal, round half up, clip, rescale) in its
        order, so every value rounds as it does there.
        """
        return np.clip(np.floor(values * (1.0 / scale) + 0.5), self.qmin, self.qmax) * scale


class WeightQuantizer:
    """Fake-quantise a weight tensor from its own statistics.

    The per-tensor scale is recomputed from ``max(|W|)`` on every
    forward pass, which is Brevitas' default weight-scaling behaviour: as
    the float weights shrink or grow during training, the integer grid
    follows.
    """

    def __init__(self, bit_width: int):
        self.config = QuantConfig(bit_width, signed=True)

    @property
    def bit_width(self) -> int:
        return self.config.bit_width

    def scale_of(self, weight_data: np.ndarray) -> np.ndarray:
        """Scale for a weight array of shape (out, in)."""
        return np.float64(self.config.scale_for(float(np.abs(weight_data).max())))

    def quantize(self, weight: Tensor) -> tuple[Tensor, np.ndarray]:
        """Return the fake-quantised weight tensor and the scale used
        (the composed reference for ``QuantLinear``'s fused node)."""
        scale = self.scale_of(weight.data)
        scaled = weight * Tensor(1.0 / scale)
        q = round_half_up(scaled).clamp_ste(self.config.qmin, self.config.qmax)
        return q * Tensor(scale), scale

    def int_weights(self, weight_data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integer weights and scale for export (no autograd)."""
        scale = self.scale_of(weight_data)
        q = np.clip(
            round_half_up_array(weight_data / scale), self.config.qmin, self.config.qmax
        ).astype(np.int64)
        return q, scale


class ActQuantizer:
    """Fake-quantise activations using an observed range.

    Parameters
    ----------
    bit_width:
        Integer bits of the activation representation.
    signed:
        False after ReLU and at the input (range ``[0, qmax]``), True
        for symmetric signed activations.

    The range is tracked by an :class:`EMAObserver` of batch maxima.
    """

    def __init__(self, bit_width: int, signed: bool = False, narrow_range: bool = False):
        self.config = QuantConfig(bit_width, signed=signed, narrow_range=narrow_range)
        self.observer = EMAObserver()

    @property
    def bit_width(self) -> int:
        return self.config.bit_width

    @property
    def signed(self) -> bool:
        return self.config.signed

    @property
    def scale(self) -> float:
        """Current activation scale derived from the observed range."""
        return self.config.scale_for(self.observer.range)

    def observe(self, values: np.ndarray) -> None:
        """Feed a batch of pre-quantisation activations to the observer."""
        self.observer.observe(values)

    def observe_scale(self, values: np.ndarray, training: bool) -> float:
        """Observe ``values`` as a forward pass does; return the scale to
        quantise them with.

        Training batches update the observer.  A quantiser that has seen
        no batch observes this one instead, so a fresh quantiser called
        outside training is still calibrated.  Through a module in eval
        mode the observer is frozen: a never-calibrated module observes
        nothing and quantises with scale 1.0.
        """
        if training:
            self.observe(values)
        if self.observer.range <= 0.0 and self.observer.num_batches == 0:
            self.observe(values)
        return self.scale

    def quantize(self, x: Tensor, training: bool) -> Tensor:
        """Fake-quantise ``x``; updates the observer when ``training``
        (the composed reference for the fused activation nodes)."""
        scale = self.observe_scale(x.data, training)
        scaled = x * Tensor(1.0 / scale)
        q = round_half_up(scaled).clamp_ste(self.config.qmin, self.config.qmax)
        return q * Tensor(scale)

    def quantize_array(self, x: np.ndarray) -> np.ndarray:
        """Fake-quantise a plain array with the frozen scale (inference)."""
        scale = self.scale
        q = np.clip(round_half_up_array(x / scale), self.config.qmin, self.config.qmax)
        return q * scale

    def int_array(self, x: np.ndarray) -> np.ndarray:
        """Integer representation of a plain array under the frozen scale."""
        scale = self.scale
        return np.clip(
            round_half_up_array(x / scale), self.config.qmin, self.config.qmax
        ).astype(np.int64)

    def state(self) -> dict[str, float]:
        """Persistable quantiser state (observer range)."""
        return self.observer.state()

    def load_state(self, state: dict[str, float]) -> None:
        """Restore persisted state."""
        self.observer.load_state(state)
