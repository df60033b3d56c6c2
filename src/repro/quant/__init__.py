"""Quantisation-aware training — the library's Brevitas substitute.

The paper trains its MLP with AMD/Xilinx Brevitas: weights and
activations are *fake-quantised* in the forward pass (rounded to a small
integer grid, then rescaled to floats) while gradients flow through
straight-through estimators.  This package reproduces that machinery:

* :mod:`~repro.quant.quantizers` — symmetric uniform weight/activation
  quantisers with power-of-two scales.
* :mod:`~repro.quant.calibration` — the EMA range observer that tracks
  activation statistics during training.
* :mod:`~repro.quant.layers` — ``QuantLinear``, ``QuantReLU`` and
  ``QuantIdentity`` drop-in modules.
* :mod:`~repro.quant.export` — extraction of integer weights and
  quantisation parameters for the FINN-style compiler.

Power-of-two scales make every fake-quantised value exactly
representable in float64, which is what lets :mod:`repro.finn.verify`
prove bit-exactness between the trained model and the generated
hardware IP.
"""

from repro.quant.calibration import EMAObserver
from repro.quant.export import ActQuantExport, LayerExport, QNNExport, export_qnn
from repro.quant.layers import QuantIdentity, QuantLinear, QuantReLU
from repro.quant.quantizers import (
    ActQuantizer,
    WeightQuantizer,
    int_range,
    po2_scale,
    round_half_up,
)

__all__ = [
    "ActQuantExport",
    "ActQuantizer",
    "EMAObserver",
    "LayerExport",
    "QNNExport",
    "QuantIdentity",
    "QuantLinear",
    "QuantReLU",
    "WeightQuantizer",
    "export_qnn",
    "int_range",
    "po2_scale",
    "round_half_up",
]
