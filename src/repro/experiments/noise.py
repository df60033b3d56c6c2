"""Experiment E12 — noise robustness: detection vs wire bit-error rate.

The paper's IDS is evaluated on clean captures; a deployed automotive
harness is not clean.  This harness sweeps the wire-level fault layer
(:mod:`repro.can.faults`) across bit-error rates spanning a benign bus
(1e-6, well under a frame per thousand corrupted) to a badly damaged
harness (1e-3, where a meaningful fraction of every window is error
frames and retransmissions), and drives one attack campaign through
the gateway at each point.

What the table answers: *does detection degrade gracefully?*  At every
BER the run must complete without crashes, every observed frame stays
labelled (corrupted attempts are flagged and excluded from
predictions, never silently classified), and detection rate/latency
shift smoothly rather than collapsing — the IDS loses only the frames
physics took from it.

The BER=0 row runs the clean fast path (``faults=None``) and anchors
the sweep: its counters are byte-identical to a pre-fault-layer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.can.campaign import SCENARIOS, ScenarioRegistry, scenario_detector
from repro.can.faults import WireFaultModel
from repro.errors import ConfigError
from repro.experiments.context import ExperimentContext
from repro.soc.gateway import GatewayReport, build_campaign_gateway
from repro.utils.rng import derive_seed
from repro.utils.tables import Table

__all__ = [
    "DEFAULT_BERS",
    "NoisePoint",
    "NoiseSweepResult",
    "render_noise_sweep",
    "run_noise_sweep",
]

#: Swept bit-error rates: the clean anchor plus four decades spanning a
#: healthy harness to a badly damaged one.
DEFAULT_BERS: tuple[float, ...] = (0.0, 1e-6, 1e-5, 1e-4, 1e-3)


@dataclass(frozen=True)
class NoisePoint:
    """One BER point: what the wire did and what the IDS still caught."""

    bit_error_rate: float
    frames_observed: int  #: wire records, corrupted attempts included
    frames_corrupted: int
    retransmissions: int
    bus_off_events: int
    frames_processed: int  #: clean frames the IDS actually classified
    phases_injecting: int
    phases_detected: int
    worst_detection_latency_s: float | None
    f1: float  #: frame-weighted F1 over serviced frames (percent)
    p99_latency_s: float

    @property
    def corruption_rate(self) -> float:
        if self.frames_observed == 0:
            return 0.0
        return self.frames_corrupted / self.frames_observed

    @property
    def detection_rate(self) -> float:
        if self.phases_injecting == 0:
            return 0.0
        return self.phases_detected / self.phases_injecting


@dataclass(frozen=True)
class NoiseSweepResult:
    """E12's outcome: one :class:`NoisePoint` per swept BER."""

    scenario: str
    detector: str
    duration: float
    points: tuple[NoisePoint, ...]

    def point(self, ber: float) -> NoisePoint:
        for candidate in self.points:
            if candidate.bit_error_rate == ber:
                return candidate
        raise ConfigError(f"no sweep point at BER {ber!r}")


def _fold_report(ber: float, report: GatewayReport, injecting: int) -> NoisePoint:
    idle = all(channel.idle for channel in report.channels)
    return NoisePoint(
        bit_error_rate=ber,
        frames_observed=report.total_frames,
        frames_corrupted=report.total_corrupted,
        retransmissions=report.total_retransmissions,
        bus_off_events=report.total_bus_off,
        frames_processed=report.total_processed,
        phases_injecting=injecting,
        phases_detected=report.phases_detected,
        worst_detection_latency_s=report.worst_detection_latency_s,
        f1=report.f1,
        p99_latency_s=0.0 if idle else report.p99_latency_s,
    )


def run_noise_sweep(
    context: ExperimentContext,
    bers: tuple[float, ...] = DEFAULT_BERS,
    scenario: str = "baseline-spoof-rpm",
    registry: ScenarioRegistry = SCENARIOS,
    duration: float | None = None,
    engine: str = "columnar",
) -> NoiseSweepResult:
    """Sweep one campaign's detection outcome across wire bit-error rates.

    Every BER point replays the *same* campaign on the same vehicle
    seed — only the fault model changes — so differences between rows
    are attributable to wire noise alone.  The BER=0 point passes
    ``faults=None`` and therefore exercises the byte-identical clean
    path.  Graceful-degradation invariants (no NaNs, every frame
    flagged or classified, conservation of observed frames) are
    asserted here, so a regression fails the experiment rather than
    producing a quietly wrong table.
    """
    if not bers:
        raise ConfigError("noise sweep needs at least one bit-error rate")
    campaign = registry.build(scenario, duration=duration)
    detector = scenario_detector(campaign)
    ip = context.ip(detector)
    seed = derive_seed(context.settings.seed, "noise-sweep")
    injecting = sum(1 for phase in campaign.phases if phase.injects)

    points: list[NoisePoint] = []
    for ber in bers:
        faults = WireFaultModel(seed=seed, bit_error_rate=ber) if ber > 0 else None
        gateway = build_campaign_gateway(
            ip,
            campaign,
            vehicle_seed=seed,
            ecu_seed=derive_seed(seed, "noise-ecu"),
            name=f"noise-{campaign.name}-{ber:g}",
        )
        report = gateway.monitor(
            duration=campaign.duration,
            truth=campaign.truth_windows(),
            engine=engine,
            faults=faults,
        )
        point = _fold_report(ber, report, injecting)
        # Graceful degradation, enforced: the sweep either holds these
        # invariants at every BER or fails loudly.
        for channel in report.channels:
            if channel.report is None:
                continue
            if not math.isfinite(channel.report.mean_latency_s):
                raise ConfigError(
                    f"non-finite latency at BER {ber:g} on {channel.name!r}"
                )
            serviced = len(channel.report.predictions)
            if serviced + channel.corrupted_frames + channel.report.fifo_dropped != (
                channel.report.num_frames
            ):
                raise ConfigError(
                    f"frame accounting leak at BER {ber:g} on {channel.name!r}"
                )
            if np.any((channel.report.predictions != 0) & (channel.report.predictions != 1)):
                raise ConfigError(f"unlabelled prediction at BER {ber:g}")
        if not math.isfinite(point.f1) or not math.isfinite(point.p99_latency_s):
            raise ConfigError(f"non-finite metric at BER {ber:g}")
        points.append(point)
    return NoiseSweepResult(
        scenario=scenario,
        detector=detector,
        duration=campaign.duration,
        points=tuple(points),
    )


def render_noise_sweep(result: NoiseSweepResult) -> Table:
    """The detection-vs-BER table."""
    table = Table(
        [
            "BER",
            "Frames",
            "Corrupted",
            "Retrans",
            "Bus-off",
            "Phases hit",
            "Det. latency",
            "F1",
            "p99 lat.",
        ],
        title=(
            f"E12 — noise robustness ({result.scenario}, "
            f"{result.detector} detector, {result.duration:g} s)"
        ),
    )
    for point in result.points:
        worst = point.worst_detection_latency_s
        table.add_row(
            [
                f"{point.bit_error_rate:g}",
                point.frames_observed,
                f"{point.frames_corrupted} ({100.0 * point.corruption_rate:.2f}%)",
                point.retransmissions,
                point.bus_off_events,
                f"{point.phases_detected}/{point.phases_injecting}",
                f"{1e3 * worst:.1f} ms" if worst is not None else "-",
                f"{point.f1:.1f}",
                f"{1e3 * point.p99_latency_s:.2f} ms",
            ]
        )
    return table
