"""Multi-channel CAN gateway with per-channel IDS-enabled ECUs.

The companion architectures (the lightweight IDS-ECU and SecCAN papers)
place the IDS inline on *live multi-channel traffic*: a central gateway
bridges several CAN segments (powertrain, body, telematics) and every
segment is scanned by its own detector instance.  This module makes
that deployment simulable at scale: each channel pairs a
:class:`~repro.can.bus.BusSimulator` with an
:class:`~repro.soc.ecu.IDSEnabledECU`, traffic is generated per segment
and pushed through the ECU's streaming engine, and the gateway
aggregates throughput, drops and alerts across channels.

**Channel model.**  Each channel is its own receive path:
:meth:`IDSGateway.monitor` drains every active channel's traffic
through that channel's ECU with one
:meth:`~repro.soc.ecu.IDSEnabledECU.process_stream` call.  Channel state
is fully per-ECU, so every channel's report equals what its ECU would
produce draining that segment alone, in any order: a flooded segment
spends its own FIFO budget and drops its own frames, while quieter
segments keep their verdicts and their zero drop counts, exactly as N
independent receive paths behave in hardware.

**Arbitration model.**  With per-channel accelerator IPs every channel
drains at its own sustained rate.  Pass a
:class:`~repro.soc.arbiter.SharedAcceleratorArbiter` to model all
channels time-multiplexing *one* IP over the AXI interconnect instead:
the arbiter plans each channel's slot share (round-robin or
fixed-priority) and the gateway streams that channel at the granted
``effective_drain_fps`` — the arbitration wait is folded into
the drain rate, so FIFO admission, drops and queueing delay all see
the slower shared service.

A channel whose bus produces no traffic in the window yields an *idle*
:class:`ChannelResult` (0 frames, 0 load, no report) rather than
aborting the run: a quiet body segment is an ordinary overnight state,
not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.can.attacks import DoSAttacker
from repro.can.bus import BusSimulator
from repro.can.faults import WireFaultModel
from repro.can.log import CaptureArray
from repro.errors import SoCError
from repro.soc.arbiter import ArbitrationGrant, SharedAcceleratorArbiter
from repro.soc.ecu import ECUReport, IDSEnabledECU

__all__ = [
    "ChannelResult",
    "ENGINES",
    "GatewayReport",
    "IDSGateway",
    "PhaseOutcome",
    "build_campaign_gateway",
    "build_segment_gateway",
    "gateway_from_buses",
]

#: Supported bus-simulation engines for :meth:`IDSGateway.monitor`.
#: ``"columnar"`` runs each channel's window through the vectorised
#: arbitration-replay kernel (:meth:`~repro.can.bus.BusSimulator.capture`),
#: which is bit-exact against the event engine; ``"event"`` keeps the
#: reference per-frame simulator (:meth:`~repro.can.bus.BusSimulator.run`)
#: for A/B verification.  Both return the same result columns.
ENGINES = ("columnar", "event")


@dataclass(frozen=True)
class PhaseOutcome:
    """One attack phase's verdict on one channel: did the IDS catch it?

    The gateway computes these when :meth:`IDSGateway.monitor` is given
    per-channel ground-truth windows (``truth=``, from
    :meth:`repro.can.campaign.Campaign.truth_windows`): each attack
    frame's verdict is attributed to the phase that actually *produced*
    it (campaign compilation names every attacker after its phase), so
    overlapping phases never credit each other's detections, while
    ``alerts`` counts every flagged frame inside the phase window.
    """

    phase: str  #: phase label (campaign phase name)
    channel: str
    start: float
    end: float  #: window end, including any label slack for delayed frames
    frames_observed: int  #: frames the channel captured inside the window
    attack_frames: int  #: ground-truth attack frames attributed to this phase
    serviced_attack_frames: int  #: attack frames that survived the RX FIFO
    #: serviced frames flagged inside the window — IDS *activity* during
    #: the phase, whatever provoked it (includes false alarms and
    #: overlapping phases' evidence)
    alerts: int
    #: flagged attack frames attributed to this phase; under queueing a
    #: frame can complete past the window end, so this is not a subset
    #: of ``alerts``
    true_alerts: int
    detection_latency_s: float | None  #: first true alert - phase start
    #: wire-corrupted attempts observed inside the window — counted (the
    #: IDS saw bus activity) but excluded from predictions and alerts
    corrupted_frames: int = 0

    @property
    def detected(self) -> bool:
        """At least one attack-labelled frame in the window was flagged."""
        return self.true_alerts > 0

    @property
    def window_recall(self) -> float:
        """Fraction of *serviced* attack frames in the window flagged."""
        if self.serviced_attack_frames == 0:
            return 0.0
        return self.true_alerts / self.serviced_attack_frames


@dataclass(frozen=True)
class ChannelResult:
    """What one gateway channel saw and did during a monitoring run.

    ``report`` is ``None`` for an idle channel (no traffic in the
    window); ``grant`` is set when a shared-accelerator arbiter was in
    force and records the slot share this channel was granted.
    ``capture`` is the channel's observed traffic in columnar form —
    what downstream phase attribution and labelling consume — and
    ``phase_outcomes`` carries the per-phase verdicts when ground-truth
    windows were supplied to the run.
    """

    name: str
    bus_load: float  #: fraction of wire time occupied on this segment
    report: ECUReport | None
    effective_drain_fps: float | None = None  #: drain rate the channel ran at
    grant: ArbitrationGrant | None = None  #: shared-IP slot grant, if any
    capture: CaptureArray | None = None  #: observed traffic (None when idle)
    phase_outcomes: tuple[PhaseOutcome, ...] = ()  #: campaign phase verdicts
    #: wire-fault attribution (see :mod:`repro.can.faults`): corrupted
    #: attempts observed, successful retransmissions behind them, and
    #: attempts that drove a sender into bus-off
    corrupted_frames: int = 0
    retransmissions: int = 0
    bus_off_frames: int = 0

    @property
    def idle(self) -> bool:
        """True when the segment produced no traffic in the window."""
        return self.report is None

    @property
    def num_frames(self) -> int:
        return self.report.num_frames if self.report is not None else 0

    @property
    def num_processed(self) -> int:
        return self.report.num_processed if self.report is not None else 0

    @property
    def dropped(self) -> int:
        return self.report.fifo_dropped if self.report is not None else 0

    @property
    def num_alerts(self) -> int:
        return len(self.report.alerts) if self.report is not None else 0


@dataclass
class GatewayReport:
    """Aggregate view over all channels of one monitoring run."""

    name: str
    duration: float
    channels: list[ChannelResult] = field(default_factory=list)
    arbitration_policy: str | None = None  #: shared-IP policy, if any
    engine: str = "columnar"  #: bus-simulation engine the run used

    @property
    def total_frames(self) -> int:
        return sum(c.num_frames for c in self.channels)

    @property
    def total_processed(self) -> int:
        return sum(c.num_processed for c in self.channels)

    @property
    def total_dropped(self) -> int:
        return sum(c.dropped for c in self.channels)

    @property
    def total_alerts(self) -> int:
        return sum(c.num_alerts for c in self.channels)

    @property
    def total_corrupted(self) -> int:
        """Wire-corrupted attempts observed across all segments."""
        return sum(c.corrupted_frames for c in self.channels)

    @property
    def total_retransmissions(self) -> int:
        """Successful retransmissions behind corrupted attempts."""
        return sum(c.retransmissions for c in self.channels)

    @property
    def total_bus_off(self) -> int:
        """Attempts that drove their sender into bus-off."""
        return sum(c.bus_off_frames for c in self.channels)

    @property
    def aggregate_offered_fps(self) -> float:
        """Frames/second offered to the gateway across all segments."""
        return self.total_frames / self.duration

    @property
    def aggregate_processed_fps(self) -> float:
        """Frames/second actually inspected across all segments."""
        return self.total_processed / self.duration

    @property
    def aggregate_sustained_fps(self) -> float:
        """Sum of the per-channel sustained drain rates (capacity).

        Under shared-IP arbitration each channel's rate is its granted
        share, so this is the shared pipeline's aggregate capacity, not
        N independent copies of it.
        """
        return sum(
            c.report.throughput_fps for c in self.channels if c.report is not None
        )

    @property
    def drop_rate(self) -> float:
        """Fraction of offered frames lost to RX-FIFO overflow."""
        return self.total_dropped / self.total_frames if self.total_frames else 0.0

    @property
    def phase_outcomes(self) -> list[PhaseOutcome]:
        """Every channel's phase verdicts, flattened (campaign runs)."""
        return [outcome for c in self.channels for outcome in c.phase_outcomes]

    @property
    def phases_detected(self) -> int:
        """Phases with at least one true alert (of those that inject frames)."""
        return sum(1 for outcome in self.phase_outcomes if outcome.detected)

    @property
    def worst_detection_latency_s(self) -> float | None:
        """Slowest first-alert latency across detected phases (None: none)."""
        latencies = [
            outcome.detection_latency_s
            for outcome in self.phase_outcomes
            if outcome.detection_latency_s is not None
        ]
        return max(latencies) if latencies else None

    @property
    def f1(self) -> float:
        """Frame-weighted mean F1 (percent) over non-idle channels; 0 if none."""
        scored = [
            (c.report.metrics["f1"], c.num_processed)
            for c in self.channels
            if c.report is not None and c.report.metrics is not None
        ]
        total = sum(weight for _, weight in scored)
        if not total:
            return 0.0
        return sum(value * weight for value, weight in scored) / total

    @property
    def p99_latency_s(self) -> float:
        """Worst per-channel p99 end-to-end latency (queueing included).

        NaN when every channel was idle.
        """
        values = [c.report.p99_latency_s for c in self.channels if c.report is not None]
        return max(values) if values else float("nan")

    def channel(self, name: str) -> ChannelResult:
        """Look one channel's result up by name."""
        for result in self.channels:
            if result.name == name:
                return result
        raise SoCError(f"no channel {name!r} in gateway report")

    def summary(self) -> str:
        mode = (
            "per-channel IPs"
            if self.arbitration_policy is None
            else f"shared IP ({self.arbitration_policy})"
        )
        lines = [
            f"Gateway {self.name!r}: {len(self.channels)} channels, "
            f"{self.duration:g} s of traffic [{mode}]",
            f"  offered:   {self.total_frames} frames "
            f"({self.aggregate_offered_fps:,.0f} msg/s aggregate)",
            f"  inspected: {self.total_processed} frames "
            f"({self.aggregate_processed_fps:,.0f} msg/s), "
            f"dropped {self.total_dropped} ({100.0 * self.drop_rate:.2f}%)",
            f"  capacity:  {self.aggregate_sustained_fps:,.0f} msg/s sustained "
            f"across channels, {self.total_alerts} alerts raised",
        ]
        for channel in self.channels:
            if channel.report is None:
                lines.append(f"  [{channel.name}] idle (no traffic in window)")
                continue
            report = channel.report
            extra = ""
            if channel.grant is not None:
                extra = (
                    f", drain {channel.effective_drain_fps:,.0f} msg/s "
                    f"({100.0 / channel.grant.slot_factor:.0f}% of shared-IP slots)"
                )
            wire_note = (
                f"{channel.corrupted_frames} corrupted, "
                if channel.corrupted_frames
                else ""
            )
            lines.append(
                f"  [{channel.name}] load {100.0 * channel.bus_load:.1f}%, "
                f"{report.num_frames} frames, "
                f"{report.fifo_dropped} dropped, "
                f"{wire_note}"
                f"{len(report.alerts)} alerts"
                + (
                    f", F1 {report.metrics['f1']:.2f}"
                    if report.metrics
                    else ""
                )
                + extra
            )
            for outcome in channel.phase_outcomes:
                latency = (
                    f"{1e3 * outcome.detection_latency_s:.1f} ms"
                    if outcome.detection_latency_s is not None
                    else "n/a"
                )
                lines.append(
                    f"    phase {outcome.phase}: "
                    f"{'DETECTED' if outcome.detected else 'missed'} "
                    f"(latency {latency}, "
                    f"{outcome.true_alerts}/{outcome.serviced_attack_frames} "
                    f"attack frames flagged)"
                )
        return "\n".join(lines)


def _phase_outcomes(
    channel: str,
    capture: CaptureArray,
    sources: np.ndarray,
    source_names: tuple[str, ...],
    report: ECUReport,
    windows: Sequence[tuple[str, float, float]],
    corrupted: np.ndarray | None = None,
) -> tuple[PhaseOutcome, ...]:
    """Attribute one channel's verdicts to its ground-truth phase windows.

    Campaign-compiled traffic names every attacker after its phase, so
    attack frames attribute purely by *source*, wherever arbitration
    queueing made them *complete* (under a flood, frames released inside
    the window routinely finish past its end): overlapping phases never
    credit each other's detections, and a phase that puts no frames on
    the wire (drop-mode suspension) honestly reports zero — never a
    neighbour's flood.  ``alerts`` is window-based — it counts IDS
    firings during the phase, whatever provoked them.

    Serviced frames are located via ``report.kept_indices`` (identity
    when the FIFO never dropped), so a phase whose attack frames were
    flood casualties is honestly reported: its ``attack_frames`` stay,
    its ``serviced_attack_frames`` shrink.  ``sources`` holds the bus
    engine's sender codes into ``source_names``; a phase matches the
    code of its name (none when no frame came from it).
    """
    kept = (
        report.kept_indices
        if report.kept_indices is not None
        else np.arange(len(capture))
    )
    serviced_ts = capture.timestamps[kept]
    serviced_labels = capture.labels[kept]
    serviced_sources = sources[kept]
    code_of = {name: code for code, name in enumerate(source_names)}
    predictions = report.predictions
    outcomes = []
    for phase_name, start, end in windows:
        code = code_of.get(phase_name, -1)
        observed = (capture.timestamps >= start) & (capture.timestamps < end)
        in_window = (serviced_ts >= start) & (serviced_ts < end)
        attack_all = (capture.labels == 1) & (sources == code)
        attack_serviced = (serviced_labels == 1) & (serviced_sources == code)
        alerts = in_window & (predictions == 1)
        true_alerts = (predictions == 1) & attack_serviced
        detection_latency = None
        if np.any(true_alerts):
            detection_latency = float(serviced_ts[true_alerts].min() - start)
        outcomes.append(
            PhaseOutcome(
                phase=phase_name,
                channel=channel,
                start=start,
                end=end,
                frames_observed=int(observed.sum()),
                attack_frames=int(attack_all.sum()),
                serviced_attack_frames=int(attack_serviced.sum()),
                alerts=int(alerts.sum()),
                true_alerts=int(true_alerts.sum()),
                detection_latency_s=detection_latency,
                corrupted_frames=(
                    int((observed & corrupted).sum()) if corrupted is not None else 0
                ),
            )
        )
    return tuple(outcomes)


class IDSGateway:
    """Several CAN segments, each monitored by its own IDS-ECU.

    Channels are independent buses running concurrently (the simulator
    serialises each segment separately, as a real multi-port gateway's
    controllers do); the ECUs may share detector IPs or carry
    per-segment models, and may share one accelerator via a
    :class:`~repro.soc.arbiter.SharedAcceleratorArbiter`.
    """

    def __init__(self, name: str = "can-gateway"):
        self.name = name
        self._channels: dict[str, tuple[BusSimulator, IDSEnabledECU]] = {}

    def attach_channel(self, name: str, bus: BusSimulator, ecu: IDSEnabledECU) -> None:
        """Register a monitored segment under a unique channel name."""
        if not name or not name.replace("-", "_").isidentifier():
            raise SoCError(f"channel name must be identifier-like, got {name!r}")
        if name in self._channels:
            raise SoCError(f"channel {name!r} already attached")
        self._channels[name] = (bus, ecu)

    def monitor(
        self,
        duration: float,
        drain_fps: float | None = None,
        with_metrics: bool = True,
        arbiter: SharedAcceleratorArbiter | None = None,
        truth: Mapping[str, Sequence[tuple[str, float, float]]] | None = None,
        engine: str = "columnar",
        faults: WireFaultModel | None = None,
    ) -> GatewayReport:
        """Run every segment for ``duration`` seconds and scan its traffic.

        Each active channel's frames stream through its ECU with real
        FIFO backpressure, one :meth:`IDSEnabledECU.process_stream` call
        per channel, so each channel's report is exactly that lone
        stream of its traffic.  ``drain_fps`` overrides the per-ECU
        sustained rate, e.g. to model a slower shared post-processing
        stage.

        ``arbiter`` models every active channel time-multiplexing one
        shared accelerator IP: each channel drains at its granted share
        of the (possibly ``drain_fps``-overridden) base rate instead of
        the full rate.

        ``truth`` maps channel names to ground-truth phase windows,
        ``(phase_name, start, end)`` from a campaign's
        :meth:`~repro.can.campaign.Campaign.truth_windows`, and turns on
        campaign-aware labelling: attack frames attribute to a phase by
        their *source* (campaign compilation names every attacker after
        its phase), and each channel's verdicts are reported as
        :class:`PhaseOutcome` rows on the channel result.

        ``engine`` picks the bus simulation path: ``"columnar"``
        (default) runs each channel's window through the vectorised
        arbitration-replay kernel
        (:meth:`~repro.can.bus.BusSimulator.capture`), bit-exact
        against the event engine, while ``"event"`` keeps the reference
        :meth:`~repro.can.bus.BusSimulator.run` loop.  Both return one
        :class:`~repro.can.fastbus.ArbitrationResult`, so everything
        after the simulation runs one code path.

        ``faults`` enables the wire-level fault layer on every segment:
        each channel simulates under ``faults.for_channel(name)`` (an
        independent per-channel corruption stream from one seed).
        Corrupted attempts are flagged by the bus engines, counted on
        the :class:`ChannelResult` (with retransmissions and bus-off
        attempts) and *excluded* from the ECU's predictions — the IDS
        degrades gracefully instead of classifying garbage.  Buses
        whose attached sources inject targeted faults (the bus-off
        attacker) produce the same attribution even with no ``faults``
        model passed here.
        """
        if not self._channels:
            raise SoCError("gateway has no channels attached")
        if duration <= 0:
            raise SoCError(f"duration must be positive, got {duration}")
        if drain_fps is not None and (not math.isfinite(drain_fps) or drain_fps <= 0):
            raise SoCError(f"drain_fps must be finite and positive, got {drain_fps}")
        if engine not in ENGINES:
            raise SoCError(f"unknown engine {engine!r}; choose from {ENGINES}")
        if truth is not None:
            for channel in truth:
                if channel not in self._channels:
                    raise SoCError(f"truth windows name unknown channel {channel!r}")

        # Phase 1: capture every segment's window, flagging idle ones.
        # For channels with truth windows, frame sources (which node
        # released each frame) ride along for phase attribution:
        # campaign-compiled attackers are named after their phase, so
        # overlapping phases stay distinguishable.
        traffic: dict[
            str, tuple[float, CaptureArray, tuple[np.ndarray, tuple[str, ...]] | None]
        ] = {}
        # Wire-fault attribution per channel: (corrupted mask | None,
        # retransmission count, bus-off attempt count).
        wire: dict[str, tuple[np.ndarray | None, int, int]] = {}
        for name, (bus, _) in self._channels.items():
            channel_faults = faults.for_channel(name) if faults is not None else None
            simulate = bus.run if engine == "event" else bus.capture
            window = simulate(duration, faults=channel_faults)
            wire[name] = (
                window.corrupted,
                int(window.retry_counts[~window.corrupted_mask].sum()),
                int(window.bus_off_mask.sum()),
            )
            traffic[name] = (
                window.bus_load(),
                window.capture,
                (window.sources, window.source_names)
                if truth is not None and truth.get(name)
                else None,
            )
        # A channel is active when it has at least one *clean* frame to
        # scan; a segment whose every observed frame was corrupted
        # degrades to an idle result carrying the fault counters.
        active = []
        for name, (_, capture, _) in traffic.items():
            corrupted_mask = wire[name][0]
            bad = int(corrupted_mask.sum()) if corrupted_mask is not None else 0
            if len(capture) - bad > 0:
                active.append(name)

        # Phase 2: plan drain rates (shared-IP arbitration, if any).
        grants: dict[str, ArbitrationGrant] = {}
        if arbiter is not None and active:
            base = {
                name: (
                    drain_fps
                    if drain_fps is not None
                    else self._channels[name][1].sustained_fps()
                )
                for name in active
            }
            grants = arbiter.plan(base)

        # Phase 3: drain each active channel through its own receive path.
        reports: dict[str, ECUReport] = {}
        for name in active:
            _, ecu = self._channels[name]
            reports[name] = ecu.process_stream(
                traffic[name][1],  # the channel's CaptureArray
                drain_fps=(
                    grants[name].effective_drain_fps if name in grants else drain_fps
                ),
                with_metrics=with_metrics,
                corrupted=wire[name][0],
            )

        # Phase 4: aggregate, attributing verdicts to truth windows.
        results: list[ChannelResult] = []
        for name in self._channels:
            load, capture, sources = traffic[name]
            corrupted_mask, retransmissions, bus_off_frames = wire[name]
            corrupted_frames = (
                int(corrupted_mask.sum()) if corrupted_mask is not None else 0
            )
            if name not in reports:
                results.append(
                    ChannelResult(
                        name=name,
                        bus_load=load,
                        report=None,
                        capture=capture if len(capture) else None,
                        corrupted_frames=corrupted_frames,
                        retransmissions=retransmissions,
                        bus_off_frames=bus_off_frames,
                    )
                )
                continue
            report = reports[name]
            outcomes: tuple[PhaseOutcome, ...] = ()
            if truth is not None and sources is not None:
                outcomes = _phase_outcomes(
                    name, capture, *sources, report, truth[name], corrupted_mask
                )
            results.append(
                ChannelResult(
                    name=name,
                    bus_load=load,
                    report=report,
                    effective_drain_fps=report.throughput_fps,
                    grant=grants.get(name),
                    capture=capture,
                    phase_outcomes=outcomes,
                    corrupted_frames=corrupted_frames,
                    retransmissions=retransmissions,
                    bus_off_frames=bus_off_frames,
                )
            )
        return GatewayReport(
            name=self.name,
            duration=duration,
            channels=results,
            arbitration_policy=arbiter.policy if arbiter is not None else None,
            engine=engine,
        )


def build_segment_gateway(
    ip,
    channels: int = 3,
    flood_window: tuple[float, float] | None = None,
    flood_interval: float = 0.0003,
    names: Sequence[str] | None = None,
    vehicle_seed: int = 0,
    ecu_seed: int = 0,
    fifo_capacity: int = 64,
    name: str = "segment-gateway",
) -> IDSGateway:
    """The canonical multi-segment scenario: N buses, channel 0 flooded.

    Builds a gateway of ``channels`` same-family vehicle segments
    (consecutive ``vehicle_seed`` values), each scanned by a fresh
    :class:`~repro.soc.ecu.IDSEnabledECU` carrying ``ip`` behind the
    deployed bit encoding; when ``flood_window`` is given, the first
    segment is DoS-flooded over that interval.  This is the shared
    fixture behind E5's gateway rows, the gateway tests and the
    gateway benchmark — one place to change the scenario.
    """
    from repro.datasets.carhacking import build_vehicle_bus

    if names is None:
        names = [f"segment{index}" for index in range(channels)]
    if len(names) != channels:
        raise SoCError(f"expected {channels} channel names, got {len(names)}")
    if len(set(names)) != channels:
        raise SoCError(f"channel names must be unique, got {list(names)}")
    buses: dict[str, BusSimulator] = {}
    for index, channel_name in enumerate(names):
        bus = build_vehicle_bus(vehicle_seed=vehicle_seed + index)
        if index == 0 and flood_window is not None:
            bus.attach(
                DoSAttacker([flood_window], interval=flood_interval, seed=vehicle_seed)
            )
        buses[channel_name] = bus
    return gateway_from_buses(
        ip, buses, ecu_seed=ecu_seed, fifo_capacity=fifo_capacity, name=name
    )


def gateway_from_buses(
    ip,
    buses: Mapping[str, BusSimulator],
    ecu_seed: int = 0,
    fifo_capacity: int = 64,
    name: str = "campaign-gateway",
) -> IDSGateway:
    """A gateway pairing each named bus with a fresh IDS-ECU carrying ``ip``.

    ``buses`` maps channel names to traffic sources (anything with the
    :class:`~repro.can.bus.BusSimulator` ``run``/``capture`` interface —
    the campaign sweep passes caching wrappers so both gateway
    deployments replay one simulated window).  Every ECU sits behind
    the deployed :class:`~repro.datasets.features.BitFeatureEncoder`.
    """
    from repro.datasets.features import BitFeatureEncoder

    gateway = IDSGateway(name)
    for index, (channel, bus) in enumerate(buses.items()):
        gateway.attach_channel(
            channel,
            bus,
            IDSEnabledECU(
                ip,
                BitFeatureEncoder(),
                name=f"{channel}-ids",
                seed=ecu_seed + index,
                fifo_capacity=fifo_capacity,
            ),
        )
    return gateway


def build_campaign_gateway(
    ip,
    campaign,
    vehicle_seed: int = 0,
    ecu_seed: int = 0,
    fifo_capacity: int = 64,
    name: str | None = None,
    profile: str = "full",
) -> IDSGateway:
    """A gateway with one IDS-ECU per channel of a compiled campaign.

    Compiles ``campaign`` (a :class:`repro.can.campaign.Campaign`) onto
    per-channel buses — each carrying the vehicle topology ``profile``
    (:data:`~repro.datasets.carhacking.VEHICLE_PROFILES`) — and pairs
    each with a fresh :class:`~repro.soc.ecu.IDSEnabledECU` carrying
    ``ip``.  Run it with ``gateway.monitor(duration=campaign.duration,
    truth=campaign.truth_windows())`` to get campaign-aware per-phase
    verdicts on every channel.  This is the fleet runner's per-vehicle
    construction path: one call builds one vehicle's gateway.
    """
    from repro.can.campaign import compile_campaign

    return gateway_from_buses(
        ip,
        compile_campaign(campaign, vehicle_seed=vehicle_seed, profile=profile),
        ecu_seed=ecu_seed,
        fifo_capacity=fifo_capacity,
        name=name or f"campaign-{campaign.name}",
    )
