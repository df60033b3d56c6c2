"""Quantisation bit-width sweep (the paper's pre-deployment DSE).

For each candidate uniform bit width, train one detector per attack,
compile it, and record test metrics together with hardware cost.  The
selection rule mirrors the paper: pick the narrowest bit width whose
accuracy is within a small tolerance of the best observed — quantisation
is free accuracy-wise until it suddenly isn't, and the knee is the
deployment point (4-bit in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.finn.ipgen import compile_model
from repro.finn.resources import ResourceEstimate
from repro.models.qmlp import QMLPConfig
from repro.soc.device import ZCU104
from repro.training.pipeline import train_ids_model
from repro.training.trainer import TrainConfig
from repro.utils.logutil import get_logger
from repro.utils.rng import derive_seed

__all__ = ["BitwidthPoint", "run_bitwidth_sweep", "select_deployment_point", "DSE_BIT_WIDTHS"]

_LOG = get_logger("dse.bitwidth")

#: Bit widths explored in the paper's design-space exploration.
DSE_BIT_WIDTHS = (2, 3, 4, 6, 8)


@dataclass
class BitwidthPoint:
    """One sweep point: a bit width with its accuracy and cost."""

    bits: int
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)  # attack -> metric set
    resources: ResourceEstimate = field(default_factory=ResourceEstimate)
    max_utilization_pct: float = 0.0

    @property
    def mean_f1(self) -> float:
        """Mean F1 across attacks — the sweep's accuracy axis."""
        return sum(m["f1"] for m in self.metrics.values()) / len(self.metrics)


def run_bitwidth_sweep(
    bit_widths: tuple[int, ...] = DSE_BIT_WIDTHS,
    attacks: tuple[str, ...] = ("dos", "fuzzy"),
    duration: float = 12.0,
    epochs: int = 8,
    seed: int = 0,
    target_fps: float = 1e6,
) -> list[BitwidthPoint]:
    """Train/compile each bit-width point; returns points in sweep order."""
    if not bit_widths or not attacks:
        raise ConfigError("sweep needs at least one bit width and one attack")
    points: list[BitwidthPoint] = []
    for bits in bit_widths:
        point = BitwidthPoint(bits=bits)
        for attack in attacks:
            result = train_ids_model(
                attack,
                model_config=QMLPConfig(
                    weight_bits=bits, act_bits=bits, seed=derive_seed(seed, f"model-{attack}")
                ),
                train_config=TrainConfig(epochs=epochs, seed=derive_seed(seed, f"train-{attack}-{bits}")),
                duration=duration,
                seed=derive_seed(seed, f"data-{attack}"),
            )
            point.metrics[attack] = result.metrics
            ip = compile_model(result.model, name=f"{attack}-{bits}bit", target_fps=target_fps)
            # Cost of one detector; both attacks share the architecture, so
            # keep the max across attacks as the representative cost.
            if ip.resources.lut > point.resources.lut:
                point.resources = ip.resources
                point.max_utilization_pct = ZCU104.max_utilization(ip.resources)
            _LOG.info(
                "W%dA%d %s: F1 %.2f, LUT %.0f", bits, bits, attack,
                result.metrics["f1"], ip.resources.lut,
            )
        points.append(point)
    return points


def select_deployment_point(points: list[BitwidthPoint], tolerance: float = 0.25) -> BitwidthPoint:
    """The paper's selection rule: narrowest bits within ``tolerance`` F1
    points of the best mean F1 observed across the sweep."""
    if not points:
        raise ConfigError("cannot select from an empty sweep")
    best_f1 = max(point.mean_f1 for point in points)
    eligible = [point for point in points if point.mean_f1 >= best_f1 - tolerance]
    return min(eligible, key=lambda point: point.bits)
