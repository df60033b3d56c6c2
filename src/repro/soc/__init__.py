"""Zynq UltraScale+ ECU platform model.

The paper integrates its FINN-generated IP next to the ARM cores of a
ZCU104 acting as a standard ECU: CAN frames arrive at the interface,
are copied into a FIFO, and a Linux (PYNQ) driver feeds them to the
accelerator over AXI.  This package models that platform:

* :mod:`~repro.soc.device` — FPGA resource databases (XCZU7EV et al.).
* :mod:`~repro.soc.axi` — AXI-lite transaction costs from userspace.
* :mod:`~repro.soc.accelerator` — the memory-mapped IP wrapper.
* :mod:`~repro.soc.driver` — a PYNQ-style ``Overlay`` facade.
* :mod:`~repro.soc.ecu` — the receive-path pipeline (interface → FIFO
  → feature encode → accelerator → verdict) with latency accounting:
  an offline batch path, and a streaming path whose drop-oldest RX
  FIFO applies real backpressure.
* :mod:`~repro.soc.gateway` — multi-channel gateway: several buses,
  each drained through its own IDS-ECU's streaming path, with
  aggregate accounting.
* :mod:`~repro.soc.arbiter` — shared-accelerator arbitration: N
  channels time-multiplexing one IDS IP (round-robin/fixed-priority).
* :mod:`~repro.soc.power` — PMBus-style rail sampling and energy.
* :mod:`~repro.soc.latency` — the end-to-end per-message latency model.
* :mod:`~repro.soc.platforms` — GPU/Jetson/RPi comparison platforms.
"""

from repro.soc.accelerator import HWInferenceTrace, MemoryMappedAccelerator
from repro.soc.arbiter import ArbitrationGrant, SharedAcceleratorArbiter
from repro.soc.axi import AXILiteBus, AXIPort
from repro.soc.device import DEVICES, FPGADevice, ZCU104
from repro.soc.driver import Overlay
from repro.soc.ecu import (
    ECUReport,
    ECUStreamSession,
    IDSEnabledECU,
    simulate_fifo_admission,
)
from repro.soc.gateway import (
    ChannelResult,
    GatewayReport,
    IDSGateway,
    PhaseOutcome,
    build_campaign_gateway,
    build_segment_gateway,
)
from repro.soc.latency import LatencyBreakdown, LatencyModel
from repro.soc.platforms import PLATFORMS, PlatformModel
from repro.soc.power import PMBusSampler, PowerModel, PowerReport

__all__ = [
    "AXILiteBus",
    "AXIPort",
    "ArbitrationGrant",
    "ChannelResult",
    "DEVICES",
    "ECUReport",
    "ECUStreamSession",
    "FPGADevice",
    "GatewayReport",
    "HWInferenceTrace",
    "IDSEnabledECU",
    "IDSGateway",
    "SharedAcceleratorArbiter",
    "LatencyBreakdown",
    "LatencyModel",
    "MemoryMappedAccelerator",
    "Overlay",
    "PLATFORMS",
    "PhaseOutcome",
    "PMBusSampler",
    "PlatformModel",
    "PowerModel",
    "PowerReport",
    "build_campaign_gateway",
    "build_segment_gateway",
    "ZCU104",
    "simulate_fifo_admission",
]
