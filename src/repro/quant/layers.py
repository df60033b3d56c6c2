"""Quantisation-aware layers (drop-in Brevitas equivalents).

A quantised MLP is written exactly like the paper's Brevitas model:

>>> from repro.autograd import Sequential
>>> model = Sequential(
...     QuantIdentity(bit_width=8, signed=False),
...     QuantLinear(79, 64, weight_bit_width=4, seed=1),
...     QuantReLU(bit_width=4),
...     QuantLinear(64, 2, weight_bit_width=4, seed=2),
... )

Forward passes fake-quantise; gradients use straight-through estimators;
``model.eval()`` freezes the activation observers so inference (and the
FINN export) sees stable scales.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd import init as initialisers
from repro.autograd.module import Module, Parameter
from repro.autograd.tensor import Tensor
from repro.errors import ConfigError, ShapeError
from repro.quant.quantizers import ActQuantizer, WeightQuantizer
from repro.utils.rng import new_rng

__all__ = ["QuantLinear", "QuantReLU", "QuantIdentity"]


class _QuantActModule(Module):
    """Shared plumbing for activation-quantising modules."""

    def __init__(self, quantizer: ActQuantizer):
        super().__init__()
        self.quantizer = quantizer

    def train(self, mode: bool = True) -> "Module":
        result = super().train(mode)
        if mode:
            self.quantizer.observer.unfreeze()
        else:
            self.quantizer.observer.freeze()
        return result

    @property
    def bit_width(self) -> int:
        return self.quantizer.bit_width

    @property
    def scale(self) -> float:
        return self.quantizer.scale

    def extra_state(self) -> dict[str, np.ndarray]:
        state = self.quantizer.state()
        return {key: np.asarray(value) for key, value in state.items()}

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        self.quantizer.load_state({key: float(np.asarray(v)) for key, v in state.items()})


class QuantIdentity(_QuantActModule):
    """Quantise the values flowing through, without a nonlinearity.

    Placed at the network input so that downstream integer hardware
    receives integer data (bit-vectors of a CAN frame quantise exactly).
    """

    def __init__(self, bit_width: int = 8, signed: bool = False):
        super().__init__(ActQuantizer(bit_width, signed=signed, narrow_range=False))

    def forward(self, x: Tensor) -> Tensor:
        return self.quantizer.quantize(x, training=self.training)

    def __repr__(self) -> str:
        return f"QuantIdentity(bits={self.bit_width}, signed={self.quantizer.signed})"


class QuantReLU(_QuantActModule):
    """ReLU followed by unsigned uniform quantisation.

    The composition is what FINN converts into a ``MultiThreshold``
    node: an unsigned ``b``-bit staircase over the accumulator.
    """

    def __init__(self, bit_width: int = 4):
        super().__init__(ActQuantizer(bit_width, signed=False, narrow_range=False))

    def forward(self, x: Tensor) -> Tensor:
        return self.quantizer.quantize(x.relu(), training=self.training)

    def __repr__(self) -> str:
        return f"QuantReLU(bits={self.bit_width})"


class QuantLinear(Module):
    """Affine layer with fake-quantised weights.

    The float master weights are trained as usual; every forward pass
    quantises them to ``weight_bit_width`` bits (symmetric, narrow
    range) with a scale recomputed from their current magnitude.  The
    bias stays in float — FINN absorbs it into the thresholding stage.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_bit_width: int = 4,
        bias: bool = True,
        narrow_range: bool = True,
        seed: int = 0,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigError(
                f"QuantLinear dims must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight_quant = WeightQuantizer(weight_bit_width, narrow_range=narrow_range)
        rng = new_rng(seed, f"quantlinear-{in_features}x{out_features}")
        self.weight = Parameter(initialisers.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias: Parameter | None = Parameter(rng.uniform(-bound, bound, size=out_features))
        else:
            self.bias = None

    @property
    def weight_bit_width(self) -> int:
        return self.weight_quant.bit_width

    def quantized_weight(self) -> tuple[Tensor, np.ndarray]:
        """Fake-quantised weight tensor plus the scale in use."""
        return self.weight_quant.quantize(self.weight)

    def int_weight(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer weights and scale for export (no autograd)."""
        return self.weight_quant.int_weights(self.weight.data)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"QuantLinear expected {self.in_features} inputs, got {x.shape[-1]}"
            )
        weight_q, _ = self.quantized_weight()
        out = x @ weight_q.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"QuantLinear(in={self.in_features}, out={self.out_features}, "
            f"wbits={self.weight_bit_width}, bias={self.bias is not None})"
        )
