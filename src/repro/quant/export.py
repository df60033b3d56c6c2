"""Extract integer weights and quantisation metadata from a trained QNN.

This is the boundary between training-world (autograd tensors, fake
quantisation) and hardware-world (:mod:`repro.finn`).  The exporter
walks a feed-forward module sequence of the canonical FINN-able shape::

    QuantIdentity, (QuantLinear, QuantReLU)*, QuantLinear

(Dropout/Flatten are skipped — identity at inference) and emits a
:class:`QNNExport` holding, per layer, the integer weight matrix, the
weight scale, the float bias and the activation quantisation parameters.
Everything downstream (threshold conversion, folding, cycle simulation)
consumes only this structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.layers import Dropout, Flatten, Sequential
from repro.autograd.module import Module
from repro.errors import CompileError
from repro.quant.layers import QuantIdentity, QuantLinear, QuantReLU

__all__ = ["ActQuantExport", "LayerExport", "QNNExport", "export_qnn"]


@dataclass
class ActQuantExport:
    """Activation quantiser parameters frozen at export time."""

    bit_width: int
    signed: bool
    narrow_range: bool
    scale: float

    @property
    def num_levels(self) -> int:
        """Number of representable levels (steps of the staircase)."""
        return 2**self.bit_width

    def to_dict(self) -> dict:
        return {
            "bit_width": self.bit_width,
            "signed": self.signed,
            "narrow_range": self.narrow_range,
            "scale": self.scale,
        }


@dataclass
class LayerExport:
    """One fully-connected compute layer of the exported network."""

    name: str
    weight_int: np.ndarray  # (out, in) int64
    weight_scale: np.ndarray  # scalar or (out, 1)
    bias: np.ndarray  # (out,) float64 (zeros when the layer had no bias)
    weight_bits: int
    activation: ActQuantExport | None  # None for the final (logit) layer

    @property
    def in_features(self) -> int:
        return int(self.weight_int.shape[1])

    @property
    def out_features(self) -> int:
        return int(self.weight_int.shape[0])

    @property
    def num_weights(self) -> int:
        return int(self.weight_int.size)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "weight_int": self.weight_int.tolist(),
            "weight_scale": np.asarray(self.weight_scale).tolist(),
            "bias": self.bias.tolist(),
            "weight_bits": self.weight_bits,
            "activation": self.activation.to_dict() if self.activation else None,
        }


@dataclass
class QNNExport:
    """A complete exported quantised MLP."""

    input_quant: ActQuantExport
    layers: list[LayerExport] = field(default_factory=list)

    @property
    def input_features(self) -> int:
        return self.layers[0].in_features

    @property
    def topology(self) -> list[int]:
        """Layer widths, e.g. ``[79, 64, 64, 32, 2]``."""
        return [self.layers[0].in_features] + [layer.out_features for layer in self.layers]

    def to_dict(self) -> dict:
        return {
            "input_quant": self.input_quant.to_dict(),
            "layers": [layer.to_dict() for layer in self.layers],
        }

    # ------------------------------------------------------------------
    # Reference integer-domain execution
    # ------------------------------------------------------------------
    def execute_float(self, x: np.ndarray) -> np.ndarray:
        """Run the exported network in the fake-quantised float domain.

        This reproduces the QAT model's eval-mode forward exactly and is
        the golden reference the FINN verifier compares against.
        """
        from repro.quant.quantizers import round_half_up_array

        iq = self.input_quant
        qmin = 0 if not iq.signed else -(2 ** (iq.bit_width - 1) - (1 if iq.narrow_range else 0))
        qmax = (2**iq.bit_width - 1) if not iq.signed else 2 ** (iq.bit_width - 1) - 1
        value = np.clip(round_half_up_array(np.asarray(x, dtype=np.float64) / iq.scale), qmin, qmax) * iq.scale
        for layer in self.layers:
            weight = layer.weight_int * np.asarray(layer.weight_scale)
            value = value @ weight.T + layer.bias
            act = layer.activation
            if act is not None:
                value = np.maximum(value, 0.0)
                levels = 2**act.bit_width - 1
                value = np.clip(round_half_up_array(value / act.scale), 0, levels) * act.scale
        return value


def _iterate_layers(model: Module):
    if isinstance(model, Sequential):
        yield from model
    elif hasattr(model, "layers"):
        yield from model.layers
    else:
        raise CompileError(
            f"cannot export {type(model).__name__}: expected a Sequential "
            "or a module with a .layers list"
        )


def export_qnn(model: Module) -> QNNExport:
    """Export a trained quantised MLP to :class:`QNNExport`.

    The model must follow the canonical FINN-able topology (see module
    docstring).  The model is switched to eval mode so observer ranges
    freeze before scales are read.
    """
    model.eval()
    layers = [layer for layer in _iterate_layers(model) if not isinstance(layer, (Dropout, Flatten))]
    if not layers or not isinstance(layers[0], QuantIdentity):
        raise CompileError("exported model must start with QuantIdentity (input quantiser)")
    input_quant = ActQuantExport(
        bit_width=layers[0].quantizer.bit_width,
        signed=layers[0].quantizer.signed,
        narrow_range=layers[0].quantizer.config.narrow_range,
        scale=layers[0].quantizer.scale,
    )

    exported: list[LayerExport] = []
    index = 1
    layer_number = 0
    while index < len(layers):
        layer = layers[index]
        if not isinstance(layer, QuantLinear):
            raise CompileError(
                f"expected QuantLinear at position {index}, found {type(layer).__name__}"
            )
        weight_int, weight_scale = layer.int_weight()
        bias = layer.bias.data.copy() if layer.bias is not None else np.zeros(layer.out_features)
        activation: ActQuantExport | None = None
        if index + 1 < len(layers):
            nxt = layers[index + 1]
            if not isinstance(nxt, QuantReLU):
                raise CompileError(
                    f"expected QuantReLU after layer {layer_number}, found {type(nxt).__name__}"
                )
            activation = ActQuantExport(
                bit_width=nxt.quantizer.bit_width,
                signed=False,
                narrow_range=False,
                scale=nxt.quantizer.scale,
            )
            index += 2
        else:
            index += 1
        exported.append(
            LayerExport(
                name=f"fc{layer_number}",
                weight_int=weight_int,
                weight_scale=np.asarray(weight_scale),
                bias=bias,
                weight_bits=layer.weight_bit_width,
                activation=activation,
            )
        )
        layer_number += 1

    if exported and exported[-1].activation is not None:
        raise CompileError("final layer must be a QuantLinear without activation")
    if not exported:
        raise CompileError("model contains no QuantLinear layers")
    return QNNExport(input_quant=input_quant, layers=exported)
