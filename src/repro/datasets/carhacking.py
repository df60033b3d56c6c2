"""Synthetic Car-Hacking dataset generator.

Reproduces the structure of the public Car-Hacking dataset:

* **Normal traffic** — a fixed population of periodic identifiers (the
  original capture of a Hyundai YF Sonata contains ~26-27 unique IDs)
  with periods between 10 ms and 1 s, payloads mixing alive-counters,
  random-walk sensor values and constant status bytes.
* **DoS capture** — identifier ``0x000`` with an 8-byte zero payload
  injected every 0.3 ms during attack windows.
* **Fuzzy capture** — fully random identifier/payload frames injected
  every 0.5 ms during attack windows.
* **Spoofing captures** — gear (0x43F) / RPM (0x316) frames with forged
  payloads injected every 1 ms.

Attack windows alternate with clean intervals (the original performs
attacks in 3-5 s bursts).  All traffic is serialised through the
arbitration-accurate bus simulator, so attack side effects (queueing
delay on legitimate frames during a DoS flood) are present in the
timestamps exactly as in a real capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.can.attacks import DoSAttacker, FuzzyAttacker, SpoofingAttacker
from repro.can.bus import BITRATE_HS_CAN, BusSimulator
from repro.can.log import (
    CANLogRecord,
    CaptureArray,
    read_car_hacking_csv,
    write_car_hacking_csv,
)
from repro.can.node import (
    PeriodicSender,
    constant_payload,
    counter_payload,
    sensor_payload,
)
from repro.errors import DatasetError
from repro.utils.rng import SeedSequence

__all__ = [
    "VehicleIdSpec",
    "VEHICLE_PROFILES",
    "default_vehicle",
    "build_vehicle_bus",
    "CarHackingCapture",
    "generate_capture",
    "ATTACK_TYPES",
]

ATTACK_TYPES = ("dos", "fuzzy", "gear", "rpm")

#: Vehicle topology profiles, from the full modelled ID population down
#: to an economy vehicle carrying only the fast powertrain cluster.
#: Profiles are strict subsets of :func:`default_vehicle`, and a sender
#: keeps its seed derivation (keyed by CAN id) across profiles — the
#: RPM sender of a "lite" vehicle emits exactly the frames it would on
#: the "full" vehicle with the same ``vehicle_seed``.  Both spoofing
#: targets (0x316 RPM, 0x43F gear) exist in every profile, so any
#: campaign scenario compiles onto any profile.
VEHICLE_PROFILES = ("full", "mid", "lite")

#: Slow status broadcasters dropped by the "mid" profile.
_SLOW_STATUS_IDS = frozenset({0x545, 0x587, 0x59B, 0x5A0, 0x5A2, 0x690})

#: Chassis/body messages additionally dropped by the "lite" profile.
_BODY_IDS = frozenset({0x220, 0x2C0, 0x350, 0x370, 0x440, 0x4B1, 0x4F0, 0x510})


@dataclass(frozen=True)
class VehicleIdSpec:
    """One periodic identifier of the modelled vehicle."""

    can_id: int
    period: float
    kind: str  # "counter" | "sensor" | "constant"


def default_vehicle(profile: str = "full") -> list[VehicleIdSpec]:
    """The modelled ID population (26 periodic identifiers).

    Identifiers and rate classes follow the ranges observed in the
    Car-Hacking capture: a handful of fast 10 ms powertrain messages,
    a body of 20-100 ms chassis/body messages and a few slow status
    broadcasters.

    ``profile`` selects a topology subset (:data:`VEHICLE_PROFILES`):
    ``"full"`` carries everything, ``"mid"`` drops the slow status
    broadcasters, ``"lite"`` keeps only the fast powertrain cluster.
    """
    if profile not in VEHICLE_PROFILES:
        raise DatasetError(
            f"unknown vehicle profile {profile!r}; choose from {VEHICLE_PROFILES}"
        )
    excluded: frozenset[int] = frozenset()
    if profile == "mid":
        excluded = _SLOW_STATUS_IDS
    elif profile == "lite":
        excluded = _SLOW_STATUS_IDS | _BODY_IDS
    return [spec for spec in _full_vehicle() if spec.can_id not in excluded]


def _full_vehicle() -> list[VehicleIdSpec]:
    return [
        # Fast powertrain (10 ms)
        VehicleIdSpec(0x130, 0.010, "sensor"),
        VehicleIdSpec(0x131, 0.010, "sensor"),
        VehicleIdSpec(0x140, 0.010, "counter"),
        VehicleIdSpec(0x153, 0.010, "sensor"),
        VehicleIdSpec(0x316, 0.010, "sensor"),  # RPM (spoofing target)
        VehicleIdSpec(0x329, 0.010, "sensor"),
        VehicleIdSpec(0x43F, 0.010, "counter"),  # gear (spoofing target)
        # Medium rate chassis/body (10-100 ms)
        VehicleIdSpec(0x18F, 0.010, "sensor"),
        VehicleIdSpec(0x1F1, 0.010, "counter"),
        VehicleIdSpec(0x220, 0.050, "sensor"),
        VehicleIdSpec(0x2A0, 0.010, "sensor"),
        VehicleIdSpec(0x2B0, 0.010, "sensor"),
        VehicleIdSpec(0x2C0, 0.050, "counter"),
        VehicleIdSpec(0x350, 0.050, "sensor"),
        VehicleIdSpec(0x370, 0.050, "constant"),
        VehicleIdSpec(0x440, 0.100, "sensor"),
        VehicleIdSpec(0x4B0, 0.010, "sensor"),
        VehicleIdSpec(0x4B1, 0.020, "counter"),
        VehicleIdSpec(0x4F0, 0.100, "sensor"),
        VehicleIdSpec(0x510, 0.100, "constant"),
        # Slow status (200 ms - 1 s)
        VehicleIdSpec(0x545, 0.200, "sensor"),
        VehicleIdSpec(0x587, 0.500, "constant"),
        VehicleIdSpec(0x59B, 0.200, "counter"),
        VehicleIdSpec(0x5A0, 0.500, "sensor"),
        VehicleIdSpec(0x5A2, 0.500, "constant"),
        VehicleIdSpec(0x690, 1.000, "constant"),
    ]


def _payload_model(spec: VehicleIdSpec, seeds: SeedSequence):
    if spec.kind == "counter":
        return counter_payload(dlc=8, counter_byte=0)
    if spec.kind == "sensor":
        return sensor_payload(dlc=8, active_bytes=3, walk_step=4, seed=seeds.seed(f"payload-{spec.can_id:x}"))
    if spec.kind == "constant":
        rng = seeds.rng(f"payload-{spec.can_id:x}")
        return constant_payload(bytes(int(b) for b in rng.integers(0, 256, size=8)))
    raise DatasetError(f"unknown payload kind {spec.kind!r} for id 0x{spec.can_id:X}")


def _attack_windows(
    duration: float, burst: float, gap: float, initial_gap: float
) -> list[tuple[float, float]]:
    """Alternating attack bursts: [gap][burst][gap][burst]..."""
    windows = []
    cursor = initial_gap
    while cursor < duration:
        end = min(cursor + burst, duration)
        if end > cursor:
            windows.append((cursor, end))
        cursor = end + gap
    return windows


def build_vehicle_bus(
    vehicle: Sequence[VehicleIdSpec] | None = None,
    vehicle_seed: int = 0,
    bitrate: float = BITRATE_HS_CAN,
    profile: str = "full",
) -> BusSimulator:
    """A bus with the vehicle's periodic senders attached (no attacker).

    The legitimate traffic is a property of the *vehicle*: buses built
    with the same ``vehicle_seed`` carry the same payload constants and
    sensor dynamics.  ``profile`` picks the topology subset the vehicle
    carries (:data:`VEHICLE_PROFILES`; ignored when an explicit
    ``vehicle`` list is given) — sender seeds key on CAN id, so shared
    ids emit identical frames across profiles.  Callers (capture
    generation, the multi-channel gateway scenario, the fleet runner)
    attach their own attackers on top.
    """
    vehicle_seeds = SeedSequence(vehicle_seed, scope="carhacking-vehicle")
    bus = BusSimulator(bitrate=bitrate)
    for spec in vehicle if vehicle is not None else default_vehicle(profile):
        bus.attach(
            PeriodicSender(
                can_id=spec.can_id,
                period=spec.period,
                payload_model=_payload_model(spec, vehicle_seeds),
                jitter=0.02,
                seed=vehicle_seeds.seed(f"sender-{spec.can_id:x}"),
            )
        )
    return bus


@dataclass
class CarHackingCapture:
    """A labelled capture plus its generation metadata.

    The frames live in a columnar :class:`~repro.can.log.CaptureArray`
    (``.capture``) — the interchange type for every training, streaming
    and experiment path.  ``capture[a:b]`` slicing is forwarded, so
    ``generate_capture(...)[:n]`` hands a zero-copy window straight to
    ``encode_batch``/``process_capture``.  The row-oriented ``.records``
    list is materialised lazily, for display and per-frame reference
    paths only.
    """

    capture: CaptureArray
    attack: str | None
    duration: float
    bitrate: float
    seed: int
    attack_windows: list[tuple[float, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.capture)

    def __getitem__(self, index: "int | slice | np.ndarray") -> CaptureArray:
        """Columnar view of the capture (zero-copy for slices)."""
        return self.capture[index]

    @property
    def records(self) -> list[CANLogRecord]:
        """Row-oriented view, materialised on first access and cached."""
        cached = self.__dict__.get("_records")
        if cached is None:
            cached = self.capture.to_records()
            self.__dict__["_records"] = cached
        return cached

    @property
    def num_attack(self) -> int:
        return int(self.capture.labels.sum())

    def save_csv(self, path: str | Path) -> Path:
        """Persist in the Car-Hacking CSV schema."""
        return write_car_hacking_csv(self.capture, path)

    @classmethod
    def load_csv(cls, path: str | Path, attack: str | None = None) -> "CarHackingCapture":
        """Load a capture (synthetic or the real dataset's files)."""
        capture = CaptureArray.from_records(read_car_hacking_csv(path))
        duration = (
            float(capture.timestamps[-1] - capture.timestamps[0]) if len(capture) else 0.0
        )
        return cls(capture=capture, attack=attack, duration=duration, bitrate=float("nan"), seed=-1)


def generate_capture(
    attack: str | None,
    duration: float = 20.0,
    seed: int = 0,
    bitrate: float = BITRATE_HS_CAN,
    attack_burst: float = 3.0,
    attack_gap: float = 7.0,
    initial_gap: float = 2.0,
    vehicle: Sequence[VehicleIdSpec] | None = None,
    vehicle_seed: int | None = None,
) -> CarHackingCapture:
    """Generate a labelled capture with the requested attack type.

    Parameters
    ----------
    attack:
        ``"dos"``, ``"fuzzy"``, ``"gear"``, ``"rpm"`` or None for an
        attack-free capture.
    duration:
        Capture length in seconds.  The original dataset's captures span
        30-40 minutes; 20-60 s of synthetic traffic yields tens of
        thousands of frames, plenty for the MLP-scale models here.
    attack_burst, attack_gap, initial_gap:
        Attack window pattern (bursts of ``attack_burst`` seconds with
        ``attack_gap`` clean seconds in between).
    vehicle_seed:
        Seed of the *vehicle* (payload constants, sensor dynamics,
        sender phases); defaults to ``seed``.  Captures sharing a
        vehicle seed record the same car under different sessions —
        the real dataset's situation.
    """
    if attack is not None and attack not in ATTACK_TYPES:
        raise DatasetError(f"unknown attack {attack!r}; expected one of {ATTACK_TYPES}")
    seeds = SeedSequence(seed, scope=f"carhacking-{attack or 'normal'}")
    # The legitimate traffic is a property of the *vehicle*, not of the
    # attack being recorded: captures generated with the same vehicle seed
    # share identifier payload constants and sensor dynamics, exactly like
    # the real dataset's captures, which all come from one car.
    bus = build_vehicle_bus(vehicle, seed if vehicle_seed is None else vehicle_seed, bitrate)
    windows = _attack_windows(duration, attack_burst, attack_gap, initial_gap) if attack else []
    if attack == "dos":
        bus.attach(DoSAttacker(windows, seed=seeds.seed("attacker")))
    elif attack == "fuzzy":
        bus.attach(FuzzyAttacker(windows, seed=seeds.seed("attacker")))
    elif attack == "gear":
        bus.attach(SpoofingAttacker(windows, target_id=0x43F, seed=seeds.seed("attacker")))
    elif attack == "rpm":
        bus.attach(SpoofingAttacker(windows, target_id=0x316, seed=seeds.seed("attacker")))
    # The columnar engine is bit-exact against BusSimulator.run (see
    # repro.can.fastbus), so the recorded capture is identical — only
    # the per-frame simulation cost is gone.  The CaptureArray is kept
    # as-is; no record list is ever materialised on this path.
    return CarHackingCapture(
        capture=bus.capture(duration).capture,
        attack=attack,
        duration=duration,
        bitrate=bitrate,
        seed=seed,
        attack_windows=windows,
    )


def generate_mixed_capture(
    attacks: Sequence[str] = ("dos", "fuzzy"),
    duration: float = 20.0,
    seed: int = 0,
    bitrate: float = BITRATE_HS_CAN,
    attack_burst: float = 2.0,
    attack_gap: float = 2.0,
    initial_gap: float = 1.0,
    vehicle: Sequence[VehicleIdSpec] | None = None,
    vehicle_seed: int | None = None,
) -> CarHackingCapture:
    """Generate a capture with several attack types interleaved.

    Supports the paper's "comprehensive IDS integration" scenario:
    multiple detector IPs monitoring the same bus while different
    attacks occur at different times.  The attack types take turns —
    burst ``i`` belongs to ``attacks[i % len(attacks)]`` — so windows
    never overlap and every burst has a single ground-truth attacker.
    """
    for attack in attacks:
        if attack not in ATTACK_TYPES:
            raise DatasetError(f"unknown attack {attack!r}; expected one of {ATTACK_TYPES}")
    if not attacks:
        raise DatasetError("mixed capture needs at least one attack type")
    seeds = SeedSequence(seed, scope=f"carhacking-mixed-{'-'.join(attacks)}")
    # Same-vehicle convention as generate_capture (see comment there).
    bus = build_vehicle_bus(vehicle, seed if vehicle_seed is None else vehicle_seed, bitrate)
    all_windows = _attack_windows(duration, attack_burst, attack_gap, initial_gap)
    per_attack: dict[str, list[tuple[float, float]]] = {attack: [] for attack in attacks}
    for index, window in enumerate(all_windows):
        per_attack[attacks[index % len(attacks)]].append(window)
    for attack, windows in per_attack.items():
        if not windows:
            continue
        attacker_seed = seeds.seed(f"attacker-{attack}")
        if attack == "dos":
            bus.attach(DoSAttacker(windows, seed=attacker_seed))
        elif attack == "fuzzy":
            bus.attach(FuzzyAttacker(windows, seed=attacker_seed))
        elif attack == "gear":
            bus.attach(SpoofingAttacker(windows, target_id=0x43F, seed=attacker_seed))
        elif attack == "rpm":
            bus.attach(SpoofingAttacker(windows, target_id=0x316, seed=attacker_seed))
    return CarHackingCapture(
        capture=bus.capture(duration).capture,
        attack="+".join(attacks),
        duration=duration,
        bitrate=bitrate,
        seed=seed,
        attack_windows=all_windows,
    )
