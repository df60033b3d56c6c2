"""Quantisation-aware layers (drop-in Brevitas equivalents).

A quantised MLP is written exactly like the paper's Brevitas model:

>>> from repro.autograd import Sequential
>>> model = Sequential(
...     QuantIdentity(bit_width=8),
...     QuantLinear(79, 64, weight_bit_width=4, seed=1),
...     QuantReLU(bit_width=4),
...     QuantLinear(64, 2, weight_bit_width=4, seed=2),
... )

Forward passes fake-quantise; gradients use straight-through estimators;
``model.eval()`` freezes the activation observers so inference (and the
FINN export) sees stable scales.

Each forward returns **one** autograd node with a hand-written backward:
``QuantLinear`` quantises its weight, multiplies and adds the bias in
one node, and ``QuantReLU`` / ``QuantIdentity`` rectify (ReLU only),
observe and quantise in one.  Every forward and backward replays the
numpy calls of the composed chain (:meth:`WeightQuantizer.quantize` /
:meth:`ActQuantizer.quantize`, then ``@ W.T + b``) in the same order on
the same operand layouts, so values and gradients are byte-identical
to it; the tests hold the two to that.  The STE backward keeps both
scale multiplies (``g * s * (1/s)``): for a power-of-two ``s`` that is
the identity only while nothing underflows or overflows.
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

    def _quantize_node(
        self, x: Tensor, values: np.ndarray, mask: np.ndarray | None, op: str
    ) -> Tensor:
        """One node quantising ``values`` (``x``'s data, rectified when
        ``mask`` is given); its STE gradient is ``g * s * (1/s)``, times
        ``mask`` when given."""
        scale = self.quantizer.observe_scale(values, self.training)
        out = self.quantizer.config.fake_quantize(values, scale)

        def backward(grad: np.ndarray) -> None:
            grad_x = grad * scale
            grad_x *= 1.0 / scale
            if mask is not None:
                grad_x *= mask
            x._accumulate_owned(grad_x)

        return Tensor._make(out, (x,), backward, op)


class QuantIdentity(_QuantActModule):
    """Quantise the values flowing through, unsigned, without a nonlinearity.

    Placed at the network input so that downstream integer hardware
    receives integer data (bit-vectors of a CAN frame quantise exactly).
    An input that needs no gradient gives a node with no parents.
    """

    def __init__(self, bit_width: int = 8):
        super().__init__(ActQuantizer(bit_width, signed=False, narrow_range=False))

    def forward(self, x: Tensor) -> Tensor:
        return self._quantize_node(x, x.data, None, "quant_identity")

    def __repr__(self) -> str:
        return f"QuantIdentity(bits={self.bit_width})"


class QuantReLU(_QuantActModule):
    """ReLU followed by unsigned uniform quantisation.

    The composition is what FINN converts into a ``MultiThreshold``
    node: an unsigned ``b``-bit staircase over the accumulator.
    """

    def __init__(self, bit_width: int = 4):
        super().__init__(ActQuantizer(bit_width, signed=False, narrow_range=False))

    def forward(self, x: Tensor) -> Tensor:
        mask = x.data > 0
        return self._quantize_node(x, np.where(mask, x.data, 0.0), mask, "quant_relu")

    def __repr__(self) -> str:
        return f"QuantReLU(bits={self.bit_width})"


class QuantLinear(Module):
    """Affine layer with fake-quantised weights.

    The float master weights are trained as usual; every forward pass
    quantises them to ``weight_bit_width`` bits (symmetric, narrow
    range) with a scale recomputed from their current magnitude.  The
    bias stays in float — FINN absorbs it into the thresholding stage.
    Inputs are ``(N, in_features)`` batches.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_bit_width: int = 4,
        bias: bool = True,
        seed: int = 0,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigError(
                f"QuantLinear dims must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight_quant = WeightQuantizer(weight_bit_width)
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

    def int_weight(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer weights and scale for export (no autograd)."""
        return self.weight_quant.int_weights(self.weight.data)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"QuantLinear expected (N, {self.in_features}) inputs, got shape {x.shape}"
            )
        weight, bias = self.weight, self.bias
        scale = self.weight_quant.scale_of(weight.data)
        weight_q = self.weight_quant.config.fake_quantize(weight.data, scale)
        out = x.data @ weight_q.T
        if bias is not None:
            out = out + bias.data

        def backward(grad: np.ndarray) -> None:
            if bias is not None:
                bias._accumulate_owned(grad.sum(axis=0))
            if x.requires_grad:
                x._accumulate_owned(grad @ weight_q)
            if weight.requires_grad:
                # The composed chain copies the transposed product into C
                # order before its scale multiplies; keep that layout.
                grad_w = np.multiply((x.data.T @ grad).T, scale, order="C")
                grad_w *= 1.0 / scale
                weight._accumulate_owned(grad_w)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor._make(out, parents, backward, "quant_linear")

    def __repr__(self) -> str:
        return (
            f"QuantLinear(in={self.in_features}, out={self.out_features}, "
            f"wbits={self.weight_bit_width}, bias={self.bias is not None})"
        )
