"""Experiment E5 — throughput and the near-line-rate claim.

"our QMLP coupled ECU can process over 8300 messages per second at
highest payload capacity, achieving near-line-rate detection on
high-speed critical CAN networks."

Line rate is a property of the bus: at 1 Mbit/s (high-speed CAN
maximum), a worst-case-stuffed 8-byte frame occupies ~135 bit times, so
the wire can never deliver more than ~7400 frames/s.  The experiment
computes that bound exactly (via the frame codec) and measures the ECU
against it under *both* throughput conventions:

* **inverse latency** — the paper's derivation (1 / per-message
  latency), which assumes no overlap between pipeline stages;
* **sustained (II-gated)** — the steady-state rate of the pipelined
  receive path, bounded by its slowest stage (CPU software path, driver
  MMIO, or core initiation interval), the same definition
  ``SimReport.throughput_fps`` uses for the core alone.

The experiment also scales the claim out to the multi-segment gateway
deployment: a 3-channel gateway is monitored once with a detector IP
per channel and once with all channels time-multiplexing *one* IP
behind a round-robin arbiter, so the table shows what sharing the
accelerator costs in aggregate sustained rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.can.bus import BITRATE_HS_CAN, BITRATE_HS_CAN_MAX
from repro.can.frame import max_frame_bits
from repro.datasets.features import BitFeatureEncoder
from repro.experiments.context import ExperimentContext
from repro.soc.arbiter import SharedAcceleratorArbiter
from repro.soc.ecu import IDSEnabledECU
from repro.soc.gateway import GatewayReport, build_segment_gateway
from repro.utils.rng import derive_seed
from repro.utils.tables import Table

__all__ = ["ThroughputResult", "run_throughput", "render_throughput"]


@dataclass
class ThroughputResult:
    """ECU processing rate vs. wire line rates."""

    ecu_throughput_fps: float  #: sustained, II-gated (the honest rate figure)
    ecu_inverse_latency_fps: float  #: 1/mean-latency (the paper's convention)
    hw_core_fps: float
    line_rate_500k_fps: float
    line_rate_1m_fps: float
    paper_claim_fps: float = 8300.0
    gateway_channels: int = 0  #: segments in the gateway scale-out run
    gateway_per_ip_fps: float = 0.0  #: aggregate sustained, one IP per channel
    gateway_shared_ip_fps: float = 0.0  #: aggregate sustained, one shared IP
    #: per-channel effective drain rates under the shared-IP arbiter
    gateway_shared_ip_channel_fps: dict[str, float] = field(default_factory=dict)

    @property
    def near_line_rate_1m(self) -> bool:
        """Does the ECU keep up with a saturated 1 Mbit/s bus?"""
        return self.ecu_throughput_fps >= self.line_rate_1m_fps

    @property
    def meets_paper_claim(self) -> bool:
        return self.ecu_throughput_fps >= self.paper_claim_fps


def _monitor_gateway(
    context: ExperimentContext,
    channels: int,
    duration: float,
    arbiter: SharedAcceleratorArbiter | None,
) -> GatewayReport:
    """One N-segment gateway run (channel 0 DoS-flooded), fresh ECUs."""
    seed = derive_seed(context.settings.seed, "throughput-gateway")
    gateway = build_segment_gateway(
        context.ip("dos"),
        channels=channels,
        flood_window=(0.0, duration),
        vehicle_seed=seed,
        ecu_seed=seed,
        name="throughput-gateway",
    )
    return gateway.monitor(duration=duration, with_metrics=False, arbiter=arbiter)


def run_throughput(
    context: ExperimentContext,
    eval_frames: int = 4000,
    gateway_channels: int = 3,
    gateway_duration: float = 1.0,
) -> ThroughputResult:
    """Measure sustained ECU throughput and compute wire bounds.

    Beyond the single-ECU figures, runs the ``gateway_channels``-segment
    gateway twice — per-channel IPs vs one round-robin-shared IP — so
    the result carries both deployments' aggregate sustained rates.
    """
    ip = context.ip("dos")
    ecu = IDSEnabledECU(
        ip,
        BitFeatureEncoder(),
        name="throughput-ecu",
        seed=derive_seed(context.settings.seed, "throughput"),
    )
    report = ecu.process_capture(context.capture("dos")[:eval_frames], with_metrics=False)
    bits_per_frame = max_frame_bits(dlc=8)  # highest payload capacity, worst-case stuffing
    per_ip = shared = None
    if gateway_channels:  # 0 skips the scale-out runs (single-ECU figures only)
        per_ip = _monitor_gateway(context, gateway_channels, gateway_duration, arbiter=None)
        shared = _monitor_gateway(
            context, gateway_channels, gateway_duration, arbiter=SharedAcceleratorArbiter()
        )
    return ThroughputResult(
        ecu_throughput_fps=report.throughput_fps,
        ecu_inverse_latency_fps=report.inverse_latency_fps,
        hw_core_fps=ip.throughput_fps,
        line_rate_500k_fps=BITRATE_HS_CAN / bits_per_frame,
        line_rate_1m_fps=BITRATE_HS_CAN_MAX / bits_per_frame,
        gateway_channels=gateway_channels,
        gateway_per_ip_fps=per_ip.aggregate_sustained_fps if per_ip else 0.0,
        gateway_shared_ip_fps=shared.aggregate_sustained_fps if shared else 0.0,
        gateway_shared_ip_channel_fps=(
            {
                c.name: c.effective_drain_fps
                for c in shared.channels
                if c.effective_drain_fps is not None
            }
            if shared
            else {}
        ),
    )


def render_throughput(result: ThroughputResult) -> Table:
    table = Table(
        ["Quantity", "Rate (msg/s)", "Note"],
        title="Throughput vs. CAN line rate (8-byte payload, worst-case stuffing)",
    )
    table.add_row(["CAN line rate @ 500 kbit/s", f"{result.line_rate_500k_fps:,.0f}", "wire bound"])
    table.add_row(["CAN line rate @ 1 Mbit/s", f"{result.line_rate_1m_fps:,.0f}", "wire bound (HS-CAN max)"])
    table.add_row(["paper claim", f"{result.paper_claim_fps:,.0f}", ">8300 msg/s"])
    table.add_row(
        [
            "QMLP-coupled ECU (1/latency)",
            f"{result.ecu_inverse_latency_fps:,.0f}",
            "paper's convention (no stage overlap)",
        ]
    )
    table.add_row(
        [
            "QMLP-coupled ECU (sustained)",
            f"{result.ecu_throughput_fps:,.0f}",
            "II-gated; "
            + ("near line rate" if result.near_line_rate_1m else "below 1 Mbit/s line rate"),
        ]
    )
    table.add_row(["FPGA core alone", f"{result.hw_core_fps:,.0f}", "accelerator steady-state"])
    if result.gateway_channels:
        n = result.gateway_channels
        table.add_row(
            [
                f"{n}-channel gateway (per-channel IPs)",
                f"{result.gateway_per_ip_fps:,.0f}",
                "aggregate sustained, one IP per segment",
            ]
        )
        table.add_row(
            [
                f"{n}-channel gateway (shared IP)",
                f"{result.gateway_shared_ip_fps:,.0f}",
                f"round-robin arbitration, each channel 1/{n} of the slots",
            ]
        )
    return table
