"""Controller Area Network substrate.

A bit-accurate CAN 2.0A/2.0B frame codec (CRC-15, bit stuffing, exact
wire lengths), an event-driven bus simulator with priority arbitration,
periodic ECU traffic sources and the attack injectors the Car-Hacking
dataset was recorded with (DoS floods, fuzzing, spoofing, replay).

The paper's system observes frames at an ECU's CAN interface; this
package is what generates those frames with realistic timing — including
the side effects attacks have on legitimate traffic (a DoS flood of
dominant-ID frames delays everyone else through arbitration, which the
simulator reproduces).  The wire-level fault layer
(:class:`WireFaultModel`, :class:`TargetedFault`,
:class:`BusOffAttacker`) adds the physical layer misbehaving: bit
errors, error frames, retransmission and bus-off fault confinement.
"""

from repro.can.attacks import (
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
from repro.can.bus import BusSimulator
from repro.can.fastbus import (
    ArbitrationResult,
    ScheduleArray,
    build_schedule,
    simulate_arbitration,
    standard_wire_bits,
)
from repro.can.campaign import (
    ATTACK_KINDS,
    AttackPhase,
    Campaign,
    SCENARIOS,
    ScenarioRegistry,
    compile_campaign,
)
from repro.can.faults import TargetedFault, WireFaultModel, resolve_bus_faults
from repro.can.frame import CANFrame, crc15
from repro.can.log import CANLogRecord, CaptureArray, read_car_hacking_csv, write_car_hacking_csv
from repro.can.node import PeriodicSender, TrafficSource

__all__ = [
    "ATTACK_KINDS",
    "ArbitrationResult",
    "AttackPhase",
    "BurstDoSAttacker",
    "BusOffAttacker",
    "BusSimulator",
    "CANFrame",
    "CANLogRecord",
    "Campaign",
    "CaptureArray",
    "DoSAttacker",
    "FuzzyAttacker",
    "MasqueradeAttacker",
    "PeriodicSender",
    "RampDoSAttacker",
    "ReplayAttacker",
    "SCENARIOS",
    "ScenarioRegistry",
    "ScheduleArray",
    "SpoofingAttacker",
    "SuspensionAttacker",
    "TargetedFault",
    "TrafficSource",
    "WireFaultModel",
    "build_schedule",
    "compile_campaign",
    "crc15",
    "read_car_hacking_csv",
    "resolve_bus_faults",
    "simulate_arbitration",
    "standard_wire_bits",
    "write_car_hacking_csv",
]
