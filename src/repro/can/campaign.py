"""Declarative attack campaigns over multi-segment vehicle topologies.

The Car-Hacking dataset — and the paper's evaluation — covers one
attacker, one window, one bus.  Deployment-grade evaluation (SecCAN,
the lightweight IDS-ECU architecture) needs *campaigns*: several
attackers, staggered or overlapping in time, spread across the gateway
segments the IDS actually monitors.  This module makes those scenarios
declarative:

* an :class:`AttackPhase` names one attacker (kind + parameters), its
  active window and its target channel;
* a :class:`Campaign` is a list of phases over a named multi-channel
  topology, with per-channel ground-truth windows derived from the
  phases;
* :func:`compile_campaign` lowers a campaign onto real
  :class:`~repro.can.bus.BusSimulator` instances — one per channel,
  each carrying the standard vehicle ID population — attaching
  injectors and splicing suspension/masquerade wrappers around the
  victim senders;
* a :class:`ScenarioRegistry` (module instance: :data:`SCENARIOS`)
  names the canonical scenarios, from single-attack baselines to
  overlapping mixed multi-segment campaigns, so experiments, tests and
  benchmarks sweep one shared catalogue.

Ground truth is attached at the source: every injected or tampered
frame carries the ``"T"`` label through the bus simulator into the
capture, and :meth:`Campaign.truth_windows` exposes the per-channel
phase windows (with slack for delayed frames) that the gateway uses to
attribute per-channel verdicts back to phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.can.attacks import (
    DEFAULT_SUSPENSION_DELAY,
    BurstDoSAttacker,
    BusOffAttacker,
    DoSAttacker,
    FuzzyAttacker,
    MasqueradeAttacker,
    RampDoSAttacker,
    ReplayAttacker,
    SpoofingAttacker,
    SuspensionAttacker,
)
from repro.can.bus import BITRATE_HS_CAN, BusSimulator
from repro.can.frame import CANFrame
from repro.errors import CANError, ConfigError
from repro.utils.rng import derive_seed

__all__ = [
    "ATTACK_KINDS",
    "AttackPhase",
    "Campaign",
    "PhaseWindow",
    "ScenarioRegistry",
    "SCENARIOS",
    "compile_campaign",
    "scenario_detector",
]

#: Attacker kinds a phase may name.
ATTACK_KINDS = (
    "dos",
    "fuzzy",
    "spoof",
    "replay",
    "burst-dos",
    "ramp-dos",
    "suspension",
    "masquerade",
    "bus-off",
)

#: Kinds that put labelled frames on the wire (suspension in drop mode
#: removes frames instead — its evidence is absence).
INJECTING_KINDS = ("dos", "fuzzy", "spoof", "replay", "burst-dos", "ramp-dos", "masquerade")

#: One per-channel ground-truth window: (phase name, start, end).  The
#: gateway attributes attack frames to the phase whose attacker sent
#: them and counts alerts inside the window (see
#: :func:`repro.soc.gateway._phase_outcomes`).
PhaseWindow = tuple[str, float, float]


@dataclass(frozen=True)
class AttackPhase:
    """One attacker, one window, one channel.

    ``params`` feed the attacker's constructor (e.g. ``target_id`` for
    spoof/masquerade/suspension, ``interval`` for floods, ``mode`` and
    ``delay`` for suspension); unknown parameters raise at compile time
    via the attacker's own validation.
    """

    kind: str
    start: float
    end: float
    channel: str = "segment0"
    params: Mapping[str, Any] = field(default_factory=dict)
    name: str = ""  #: optional label; campaigns default it to kind@channel#i

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise CANError(f"unknown attack kind {self.kind!r}; choose from {ATTACK_KINDS}")
        if self.start < 0 or self.end <= self.start:
            raise CANError(f"phase window ({self.start}, {self.end}) is empty or negative")
        if (
            self.kind in ("suspension", "masquerade", "bus-off")
            and "target_id" not in self.params
        ):
            raise CANError(f"{self.kind} phase needs params['target_id']")
        # The compiler owns these: the attacker's name IS the phase label
        # (source-based attribution depends on it), its window comes from
        # the phase, and its seed derives from the campaign.
        reserved = {"name", "seed", "windows", "window"} & set(self.params)
        if reserved:
            raise CANError(
                f"phase params may not set {sorted(reserved)}; "
                f"they are campaign-managed (name/seed/window come from the phase)"
            )

    @property
    def window(self) -> tuple[float, float]:
        return (self.start, self.end)

    @property
    def label_slack(self) -> float:
        """Seconds past ``end`` a frame this phase tampered may be released.

        Only delay-mode suspension releases frames after its window (a
        frame tampered at ``end - ε`` is released at ``end - ε + delay``);
        every injector clips its releases strictly inside the window.
        """
        if self.kind == "suspension" and self.params.get("mode", "drop") == "delay":
            return float(self.params.get("delay", DEFAULT_SUSPENSION_DELAY))
        return 0.0

    @property
    def injects(self) -> bool:
        """Does this phase put ``"T"``-labelled frames on the wire?"""
        if self.kind == "suspension":
            return self.params.get("mode", "drop") == "delay"
        return self.kind in INJECTING_KINDS


@dataclass(frozen=True)
class Campaign:
    """A named list of attack phases over a multi-channel topology."""

    name: str
    duration: float
    channels: tuple[str, ...]
    phases: tuple[AttackPhase, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise CANError(f"campaign duration must be positive, got {self.duration}")
        if not self.channels:
            raise CANError("campaign needs at least one channel")
        if len(set(self.channels)) != len(self.channels):
            raise CANError(f"duplicate channel names in {self.channels}")
        for channel in self.channels:
            if not channel or not channel.replace("-", "_").isidentifier():
                raise CANError(f"channel name must be identifier-like, got {channel!r}")
        for phase in self.phases:
            if phase.channel not in self.channels:
                raise CANError(
                    f"phase {phase.kind!r} targets unknown channel {phase.channel!r}; "
                    f"campaign has {self.channels}"
                )
            if phase.start >= self.duration:
                raise CANError(
                    f"phase {phase.kind!r} starts at {phase.start} s, "
                    f"beyond the {self.duration} s campaign"
                )

    def phase_name(self, index: int) -> str:
        """Stable display name of the ``index``-th phase."""
        phase = self.phases[index]
        return phase.name or f"{phase.kind}@{phase.channel}#{index}"

    def named_phases(self) -> Iterator[tuple[str, AttackPhase]]:
        for index, phase in enumerate(self.phases):
            yield self.phase_name(index), phase

    def phases_on(self, channel: str) -> list[AttackPhase]:
        return [phase for phase in self.phases if phase.channel == channel]

    def truth_windows(self) -> dict[str, list[PhaseWindow]]:
        """Per-channel ground truth: ``{channel: [(name, start, end)]}``.

        Window ends include each phase's :attr:`~AttackPhase.label_slack`
        so delayed (tampered) frames released just past the window still
        count in their phase's window.  Channels without phases map to
        ``[]``.
        """
        windows: dict[str, list[PhaseWindow]] = {channel: [] for channel in self.channels}
        for name, phase in self.named_phases():
            windows[phase.channel].append((name, phase.start, phase.end + phase.label_slack))
        return windows

    def shifted(self, offset: float) -> "Campaign":
        """The same campaign with every attack onset delayed by ``offset``.

        The staggered-fleet primitive: a population of vehicles running
        the same scenario should not all come under attack at the same
        virtual second.  The campaign duration grows by ``offset`` so
        the shifted phases keep their full window (and their trailing
        clean interval) inside the simulated horizon; clean traffic
        before the first phase simply lasts ``offset`` seconds longer.
        ``offset=0`` returns ``self`` unchanged.
        """
        if not (offset >= 0.0) or offset == float("inf"):
            raise ConfigError(f"onset offset must be finite and >= 0, got {offset}")
        if offset == 0:
            return self
        return Campaign(
            name=self.name,
            duration=self.duration + offset,
            channels=self.channels,
            phases=tuple(
                AttackPhase(
                    kind=phase.kind,
                    start=phase.start + offset,
                    end=phase.end + offset,
                    channel=phase.channel,
                    params=phase.params,
                    name=phase.name,
                )
                for phase in self.phases
            ),
            description=self.description,
        )

    def summary(self) -> str:
        lines = [
            f"Campaign {self.name!r}: {len(self.channels)} channel(s), "
            f"{len(self.phases)} phase(s) over {self.duration:g} s"
        ]
        if self.description:
            lines.append(f"  {self.description}")
        for name, phase in self.named_phases():
            lines.append(
                f"  [{phase.channel}] {name}: {phase.start:g}-{phase.end:g} s"
                + (f" {dict(phase.params)}" if phase.params else "")
            )
        return "\n".join(lines)


def _find_sender(bus: BusSimulator, can_id: int, channel: str):
    """Locate the (possibly already wrapped) sender of ``can_id`` on ``bus``."""
    for index, source in enumerate(bus.sources):
        if getattr(source, "can_id", None) == can_id:
            return index, source
    raise CANError(
        f"no sender of id 0x{can_id:03X} on channel {channel!r} to attack; "
        f"suspension/masquerade need a legitimate victim"
    )


def _replay_source(
    phase: AttackPhase,
    vehicle_seed: int,
    bitrate: float,
    seed: int,
    name: str,
    profile: str = "full",
) -> ReplayAttacker:
    """Build a replay injector from the channel's own clean traffic.

    Unless the phase supplies an explicit ``capture``/``offsets`` pair,
    the compiler records the victim channel's attack-free traffic (same
    vehicle seed → identical senders) for ``source_duration`` seconds
    and replays those frames — ids, payloads and pacing all legitimate,
    only *stale* — shifted to the phase window.
    """
    from repro.datasets.carhacking import build_vehicle_bus

    params = phase.params
    if "capture" in params:
        return ReplayAttacker(
            params["capture"],
            params["offsets"],
            windows=[phase.window],
            name=name,
            seed=seed,
        )
    source_duration = float(params.get("source_duration", min(phase.end - phase.start, 1.0)))
    # The columnar engine records the clean window (bit-exact against
    # the event engine, without per-frame record objects).
    clean = build_vehicle_bus(
        vehicle_seed=vehicle_seed, bitrate=bitrate, profile=profile
    ).capture(source_duration)
    if not len(clean):
        raise CANError(f"replay phase recorded no clean traffic in {source_duration} s")
    origin = clean.queued_at[0]
    frames = [
        CANFrame(int(clean.capture.can_ids[i]), clean.capture.payloads[i, : int(clean.capture.dlcs[i])].tobytes())
        for i in range(len(clean))
    ]
    offsets = (clean.queued_at - origin).tolist()
    return ReplayAttacker(frames, offsets, windows=[phase.window], name=name, seed=seed)


def _apply_phase(
    bus: BusSimulator,
    phase: AttackPhase,
    label: str,
    channel_vehicle_seed: int,
    bitrate: float,
    seed: int,
    profile: str = "full",
) -> None:
    """Attach (or splice) one phase's attacker onto a channel bus.

    The attacker is named after the phase ``label``, so every frame it
    injects (or tampers) records *which phase* produced it in the bus
    record's ``source`` — what the gateway's phase attribution uses to
    keep overlapping phases from crediting each other's detections.
    """
    params = dict(phase.params)
    params["name"] = label  # AttackPhase rejects a user-supplied name
    window = [phase.window]
    if phase.kind == "dos":
        bus.attach(DoSAttacker(window, seed=seed, **params))
    elif phase.kind == "fuzzy":
        bus.attach(FuzzyAttacker(window, seed=seed, **params))
    elif phase.kind == "spoof":
        bus.attach(SpoofingAttacker(window, seed=seed, **params))
    elif phase.kind == "burst-dos":
        bus.attach(BurstDoSAttacker(window, seed=seed, **params))
    elif phase.kind == "ramp-dos":
        bus.attach(RampDoSAttacker(window, seed=seed, **params))
    elif phase.kind == "replay":
        name = params.pop("name")
        bus.attach(
            _replay_source(phase, channel_vehicle_seed, bitrate, seed, name, profile)
        )
    elif phase.kind == "bus-off":
        # The victim stays attached: the attacker corrupts its frames on
        # the wire (via targeted wire faults) rather than replacing it.
        target_id = params.pop("target_id")
        _find_sender(bus, target_id, phase.channel)  # fail early if absent
        bus.attach(BusOffAttacker(window, target_id=target_id, seed=seed, **params))
    elif phase.kind == "suspension":
        target_id = params.pop("target_id")
        index, victim = _find_sender(bus, target_id, phase.channel)
        bus.sources[index] = SuspensionAttacker(
            victim, window, target_id=target_id, **params
        )
    elif phase.kind == "masquerade":
        target_id = params.pop("target_id")
        index, victim = _find_sender(bus, target_id, phase.channel)
        bus.sources[index] = MasqueradeAttacker(
            victim, window, target_id=target_id, seed=seed, **params
        )
    else:  # pragma: no cover - AttackPhase validates kinds
        raise CANError(f"unknown attack kind {phase.kind!r}")


def compile_campaign(
    campaign: Campaign,
    vehicle_seed: int = 0,
    bitrate: float = BITRATE_HS_CAN,
    profile: str = "full",
) -> dict[str, BusSimulator]:
    """Lower a campaign onto one :class:`BusSimulator` per channel.

    Each channel carries the vehicle ID population of ``profile``
    (:data:`~repro.datasets.carhacking.VEHICLE_PROFILES`), seeded
    ``vehicle_seed + channel_index`` so segments are same-family but
    distinct vehicles' worth of traffic, as in the gateway fixtures;
    phases attach their injectors, and suspension/masquerade phases
    splice their wrapper around the victim sender in place.  Attacker
    seeds derive from the campaign name and phase position, so a
    campaign is fully reproducible from
    ``(campaign, vehicle_seed, profile)``.
    """
    from repro.datasets.carhacking import build_vehicle_bus

    buses: dict[str, BusSimulator] = {}
    for index, channel in enumerate(campaign.channels):
        buses[channel] = build_vehicle_bus(
            vehicle_seed=vehicle_seed + index, bitrate=bitrate, profile=profile
        )
    for position, phase in enumerate(campaign.phases):
        channel_index = campaign.channels.index(phase.channel)
        seed = derive_seed(vehicle_seed, f"campaign-{campaign.name}-phase{position}")
        _apply_phase(
            buses[phase.channel],
            phase,
            campaign.phase_name(position),
            vehicle_seed + channel_index,
            bitrate,
            seed,
            profile,
        )
    return buses


def scenario_detector(campaign: Campaign) -> str:
    """The trained detector matching a campaign's attack mechanics.

    Walks the phases in order and returns the first kind with a trained
    counterpart: DoS-family floods map to ``"dos"``, fuzzing to
    ``"fuzzy"``, spoof/masquerade to the gauge they forge (``"gear"``
    for 0x43F, ``"rpm"`` otherwise).  Replay and suspension have no
    per-frame-signature detector — campaigns made only of those fall
    back to ``"dos"`` and honestly read as coverage gaps in the sweep
    table.
    """
    for phase in campaign.phases:
        if phase.kind in ("dos", "burst-dos", "ramp-dos"):
            return "dos"
        if phase.kind == "fuzzy":
            return "fuzzy"
        if phase.kind in ("spoof", "masquerade"):
            return "gear" if phase.params.get("target_id") == 0x43F else "rpm"
    return "dos"


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------


class ScenarioRegistry:
    """Named campaign factories: one catalogue for experiments and tests.

    A factory is any callable returning a :class:`Campaign`; it must
    accept a ``duration`` keyword (scenarios scale to the caller's time
    budget — tests run them short, benchmarks long).  Register with the
    decorator form::

        @SCENARIOS.register("my-scenario", "one-line description")
        def _my_scenario(duration: float = 4.0) -> Campaign: ...
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., Campaign]] = {}
        self._descriptions: dict[str, str] = {}

    def register(
        self, name: str, description: str
    ) -> Callable[[Callable[..., Campaign]], Callable[..., Campaign]]:
        if name in self._factories:
            raise CANError(f"scenario {name!r} already registered")

        def decorator(factory: Callable[..., Campaign]) -> Callable[..., Campaign]:
            self._factories[name] = factory
            self._descriptions[name] = description
            return factory

        return decorator

    def names(self) -> list[str]:
        return list(self._factories)

    def describe(self) -> dict[str, str]:
        """``{scenario name: one-line description}`` in registration order."""
        return dict(self._descriptions)

    def build(self, name: str, duration: float | None = None) -> Campaign:
        """Instantiate a registered scenario (optionally rescaled in time)."""
        if name not in self._factories:
            raise CANError(f"unknown scenario {name!r}; registered: {self.names()}")
        if duration is None:
            return self._factories[name]()
        return self._factories[name](duration=duration)

    def __len__(self) -> int:
        return len(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)


#: The canonical scenario catalogue.
SCENARIOS = ScenarioRegistry()

#: Channel names of the canonical 3-segment gateway topology.
GATEWAY_SEGMENTS = ("powertrain", "body", "telematics")


def _single(
    name: str,
    duration: float,
    kind: str,
    description: str,
    params: Mapping[str, Any] | None = None,
    cover: tuple[float, float] = (0.15, 0.65),
) -> Campaign:
    """One channel, one phase spanning the middle of the run."""
    start, end = duration * cover[0], duration * cover[1]
    return Campaign(
        name=name,
        duration=duration,
        channels=("powertrain",),
        phases=(AttackPhase(kind, start, end, "powertrain", dict(params or {})),),
        description=description,
    )


@SCENARIOS.register("baseline-dos", "single 0x000 flood burst on one segment (paper's DoS)")
def _baseline_dos(duration: float = 4.0) -> Campaign:
    return _single("baseline-dos", duration, "dos", "the paper's DoS capture, one burst")


@SCENARIOS.register("baseline-fuzzy", "single random-id/payload burst (paper's Fuzzy)")
def _baseline_fuzzy(duration: float = 4.0) -> Campaign:
    return _single("baseline-fuzzy", duration, "fuzzy", "the paper's Fuzzy capture, one burst")


@SCENARIOS.register("baseline-spoof-rpm", "single RPM (0x316) spoofing burst")
def _baseline_spoof(duration: float = 4.0) -> Campaign:
    return _single(
        "baseline-spoof-rpm", duration, "spoof",
        "the paper's RPM spoofing capture, one burst", {"target_id": 0x316},
    )


@SCENARIOS.register("baseline-replay", "replay of the channel's own stale clean traffic")
def _baseline_replay(duration: float = 4.0) -> Campaign:
    return _single(
        "baseline-replay", duration, "replay",
        "stale legitimate frames replayed at original pacing",
    )


@SCENARIOS.register("masquerade-rpm", "suppress the RPM sender and spoof at its cadence")
def _masquerade_rpm(duration: float = 4.0) -> Campaign:
    return _single(
        "masquerade-rpm", duration, "masquerade",
        "timing-plausible spoof: only payloads betray it", {"target_id": 0x316},
    )


@SCENARIOS.register("suspension-delay", "delay the gear sender's frames without reordering")
def _suspension_delay(duration: float = 4.0) -> Campaign:
    return _single(
        "suspension-delay", duration, "suspension",
        "gear (0x43F) frames arrive 30 ms late inside the window",
        {"target_id": 0x43F, "mode": "delay", "delay": 0.030},
    )


@SCENARIOS.register("suspension-drop", "silence the gear sender (frames vanish)")
def _suspension_drop(duration: float = 4.0) -> Campaign:
    return _single(
        "suspension-drop", duration, "suspension",
        "gear (0x43F) goes silent: evidence is absence, not frames",
        {"target_id": 0x43F, "mode": "drop"},
    )


@SCENARIOS.register("burst-dos", "on/off flood pulses ducking rate-window heuristics")
def _burst_dos(duration: float = 4.0) -> Campaign:
    return _single(
        "burst-dos", duration, "burst-dos",
        "50 ms flood pulses with 50 ms gaps",
        {"burst_on": 0.050, "burst_off": 0.050},
    )


@SCENARIOS.register("ramp-dos", "flood that intensifies from stealthy to saturating")
def _ramp_dos(duration: float = 4.0) -> Campaign:
    return _single(
        "ramp-dos", duration, "ramp-dos",
        "injection interval ramps 5 ms -> 0.3 ms across the window",
        {"interval_start": 0.005, "interval_end": 0.0003},
    )


@SCENARIOS.register("stealth-low-rate", "low-rate dominant-id injection below flood thresholds")
def _stealth_low_rate(duration: float = 4.0) -> Campaign:
    return _single(
        "stealth-low-rate", duration, "dos",
        "0x000 every 5 ms: per-frame evidence without bus saturation",
        {"interval": 0.005},
    )


@SCENARIOS.register(
    "staggered-cross-segment", "DoS, fuzzy and spoof take turns across the 3 gateway segments"
)
def _staggered_cross_segment(duration: float = 4.0) -> Campaign:
    step = duration / 4.0
    return Campaign(
        name="staggered-cross-segment",
        duration=duration,
        channels=GATEWAY_SEGMENTS,
        phases=(
            AttackPhase("dos", 0.5 * step, 1.5 * step, "powertrain"),
            AttackPhase("fuzzy", 1.5 * step, 2.5 * step, "body"),
            AttackPhase("spoof", 2.5 * step, 3.5 * step, "telematics", {"target_id": 0x316}),
        ),
        description="attacker hops segments: each channel sees one clean-bracketed burst",
    )


@SCENARIOS.register(
    "overlapping-mixed", "simultaneous DoS + fuzzy on one segment while another is spoofed"
)
def _overlapping_mixed(duration: float = 4.0) -> Campaign:
    return Campaign(
        name="overlapping-mixed",
        duration=duration,
        channels=("powertrain", "body"),
        phases=(
            AttackPhase("dos", duration * 0.20, duration * 0.60, "powertrain"),
            AttackPhase("fuzzy", duration * 0.35, duration * 0.75, "powertrain"),
            AttackPhase("spoof", duration * 0.30, duration * 0.70, "body", {"target_id": 0x43F}),
        ),
        description="overlapping mixed traffic: windows intersect on and across segments",
    )


@SCENARIOS.register(
    "multi-segment-storm", "every gateway segment flooded at once (worst-case aggregate)"
)
def _multi_segment_storm(duration: float = 4.0) -> Campaign:
    start, end = duration * 0.25, duration * 0.70
    return Campaign(
        name="multi-segment-storm",
        duration=duration,
        channels=GATEWAY_SEGMENTS,
        phases=tuple(
            AttackPhase("dos", start, end, channel) for channel in GATEWAY_SEGMENTS
        ),
        description="simultaneous floods: no quiet segment to borrow capacity from",
    )


@SCENARIOS.register(
    "bus-off-victim", "Cho-Shin bus-off attack: error-frame corruption silences the gear ECU"
)
def _bus_off_victim(duration: float = 4.0) -> Campaign:
    return _single(
        "bus-off-victim", duration, "bus-off",
        "every 0x43F transmission is corrupted: TEC walks +8/-1 into bus-off",
        {"target_id": 0x43F},
    )


@SCENARIOS.register(
    "bus-off-under-flood", "a DoS flood masks a bus-off attack on another segment"
)
def _bus_off_under_flood(duration: float = 4.0) -> Campaign:
    return Campaign(
        name="bus-off-under-flood",
        duration=duration,
        channels=("powertrain", "body"),
        phases=(
            AttackPhase("dos", duration * 0.20, duration * 0.70, "powertrain"),
            AttackPhase(
                "bus-off", duration * 0.25, duration * 0.65, "body",
                {"target_id": 0x316, "attempts_per_frame": 4},
            ),
        ),
        description="the flood draws attention while the RPM ECU is error-framed off its bus",
    )


@SCENARIOS.register(
    "masquerade-under-flood", "a flood on one segment masks a masquerade on another"
)
def _masquerade_under_flood(duration: float = 4.0) -> Campaign:
    return Campaign(
        name="masquerade-under-flood",
        duration=duration,
        channels=("powertrain", "body"),
        phases=(
            AttackPhase("dos", duration * 0.20, duration * 0.70, "powertrain"),
            AttackPhase(
                "masquerade", duration * 0.25, duration * 0.65, "body", {"target_id": 0x316}
            ),
        ),
        description="the loud attack draws attention (and FIFO budget) from the quiet one",
    )
