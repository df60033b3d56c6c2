"""The paper's quantised MLP intrusion detector.

Architecture (Sec. I of the paper): a custom multi-layer perceptron,
quantisation-aware trained with Brevitas, one binary classifier per
attack type.  The paper does not print the exact layer widths; the
reproduction uses ``79 -> 64 -> 64 -> 32 -> 2`` — the whole-frame bit
encoding on the input and three hidden layers, sized to land in the
paper's reported envelope (a few-thousand-LUT accelerator using <4 % of
the XCZU7EV, ~11 k parameters).  Width and depth are configurable for
the design-space exploration.

All weights and activations share one uniform bit width knob each
("4-bit uniform quantisation achieved best performance ... chosen for
deployment"); the input quantiser is 8-bit, which is exact on the
binary frame encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autograd.layers import Sequential
from repro.errors import ConfigError
from repro.quant.layers import QuantIdentity, QuantLinear, QuantReLU
from repro.utils.rng import derive_seed

__all__ = ["QMLPConfig", "build_qmlp"]

#: The input quantiser's bit width.
_INPUT_BITS = 8
#: Output classes: every detector is a binary (attack / regular) classifier.
_NUM_CLASSES = 2


@dataclass(frozen=True)
class QMLPConfig:
    """Hyper-parameters of a quantised MLP IDS model."""

    input_features: int = 79
    hidden: tuple[int, ...] = (64, 64, 32)
    weight_bits: int = 4
    act_bits: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_features < 1:
            raise ConfigError(f"QMLP needs at least one input, got {self.input_features}")
        if not self.hidden:
            raise ConfigError("QMLP needs at least one hidden layer")
        for bits in (self.weight_bits, self.act_bits):
            if not 1 <= bits <= 16:
                raise ConfigError(f"bit widths must be in [1, 16], got {bits}")

    @property
    def topology(self) -> list[int]:
        """Layer widths including input and output."""
        return [self.input_features, *self.hidden, _NUM_CLASSES]

    @property
    def num_weights(self) -> int:
        """Total weight count (excludes biases)."""
        widths = self.topology
        return sum(a * b for a, b in zip(widths[:-1], widths[1:]))

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``W4A4 79-64-64-32-2``."""
        dims = "-".join(str(w) for w in self.topology)
        return f"W{self.weight_bits}A{self.act_bits} {dims}"


def build_qmlp(config: QMLPConfig | None = None) -> Sequential:
    """Build the quantised MLP described by ``config``.

    The returned :class:`~repro.autograd.layers.Sequential` follows the
    canonical FINN-able topology (``QuantIdentity`` then
    ``QuantLinear``/``QuantReLU`` pairs, final ``QuantLinear`` head), so
    it can be handed to :func:`repro.quant.export.export_qnn` and the
    FINN compiler directly after training.
    """
    config = config or QMLPConfig()
    layers = [QuantIdentity(bit_width=_INPUT_BITS)]
    widths = config.topology
    for index, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        layer_seed = derive_seed(config.seed, f"qmlp-layer-{index}")
        layers.append(
            QuantLinear(
                fan_in,
                fan_out,
                weight_bit_width=config.weight_bits,
                seed=layer_seed,
            )
        )
        if index < len(widths) - 2:  # every layer but the head
            layers.append(QuantReLU(bit_width=config.act_bits))
    return Sequential(*layers)
