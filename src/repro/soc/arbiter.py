"""Shared-accelerator arbitration: N channels, one IDS IP.

The multi-model deployment puts several detectors on one overlay, but a
cost-constrained gateway can go further and point several *channels* at
a single accelerator: each CAN segment still has its own RX FIFO and
software path, while inferences time-multiplex over the one core behind
the AXI interconnect.  This module models that contention
deterministically, as a closed-form slowdown per channel rather than a
cycle-accurate interconnect replay:

* every inference occupies the shared core for one *service slot* (the
  channel's standalone service interval, plus an optional arbitration
  overhead for the AXI handover);
* under **round-robin** arbitration each of the ``N`` contending
  channels owns every N-th slot, so its effective service interval
  stretches by a factor of ``N``;
* under **fixed-priority** arbitration a channel of priority rank ``r``
  (0 = highest) waits for the ``r`` higher-priority channels each
  cycle, plus — arbitration being non-preemptive, like CAN itself —
  up to one in-flight lower-priority inference.  Its interval stretches
  by ``r + 1`` slots, ``+ 1`` more when lower-priority channels exist;
  because those per-channel worst-case waits overlap, the raw factors
  would grant more than one inference per service slot in aggregate, so
  they are uniformly scaled up until the granted slot shares
  (``sum of 1/slot_factor``) total at most 1 — the single core is never
  oversubscribed, and the priority ordering is preserved.

The result is an :class:`ArbitrationGrant` per channel whose
``effective_drain_fps`` is what the gateway feeds to
:func:`repro.soc.ecu.simulate_fifo_admission` (as the channel's
stream ``drain_fps``): the arbitration wait is folded into the
channel's drain rate, so FIFO occupancy, drops and queueing delay all
see the slower shared service without any change to the admission
model itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.errors import SoCError

__all__ = ["ARBITRATION_POLICIES", "ArbitrationGrant", "SharedAcceleratorArbiter"]

#: Supported time-multiplexing policies.
ARBITRATION_POLICIES = ("round-robin", "fixed-priority")


@dataclass(frozen=True)
class ArbitrationGrant:
    """One channel's share of the shared accelerator.

    Attributes
    ----------
    channel:
        Channel name the grant applies to.
    rank:
        Service-order position (priority rank for fixed-priority,
        plan order for round-robin).
    slot_factor:
        Effective service-interval multiplier (>= 1): how many service
        slots elapse between this channel's consecutive inferences
        under full contention.  Across all grants of one plan the slot
        shares (``1/slot_factor``) sum to at most 1: the shared core is
        never granted more than one inference per service slot.
    base_drain_fps:
        The channel's standalone sustained rate, had it owned the IP.
    effective_drain_fps:
        The arbitrated rate actually granted (<= ``base_drain_fps``).
    """

    channel: str
    rank: int
    slot_factor: float
    base_drain_fps: float
    effective_drain_fps: float

    @property
    def wait_slots(self) -> float:
        """Service slots spent waiting per inference (0 = no contention)."""
        return self.slot_factor - 1

    @property
    def slowdown(self) -> float:
        """``base_drain_fps / effective_drain_fps`` (>= 1)."""
        return self.base_drain_fps / self.effective_drain_fps


class SharedAcceleratorArbiter:
    """Deterministic time-multiplexing of one accelerator across channels.

    Parameters
    ----------
    policy:
        ``"round-robin"`` (equal slot shares) or ``"fixed-priority"``
        (lower priority number is served first; ties and channels with
        no explicit priority fall back to plan order).
    slot_overhead_s:
        Extra seconds per arbitration slot (AXI handover, driver
        context switch between channel buffers).  Added to each
        channel's standalone service interval before the slot factor
        is applied.
    priorities:
        Optional ``{channel: priority}`` map for the fixed-priority
        policy; unlisted channels rank below all listed ones.
    """

    def __init__(
        self,
        policy: str = "round-robin",
        slot_overhead_s: float = 0.0,
        priorities: Mapping[str, int] | None = None,
    ):
        if policy not in ARBITRATION_POLICIES:
            raise SoCError(
                f"unknown arbitration policy {policy!r}; choose from {ARBITRATION_POLICIES}"
            )
        if not math.isfinite(slot_overhead_s) or slot_overhead_s < 0:
            raise SoCError(f"slot overhead must be finite and >= 0, got {slot_overhead_s}")
        self.policy = policy
        self.slot_overhead_s = float(slot_overhead_s)
        self.priorities = dict(priorities or {})

    def _ranks(self, channels: list[str]) -> dict[str, int]:
        """Service-order rank per channel (0 = served first)."""
        if self.policy == "round-robin":
            return {name: position for position, name in enumerate(channels)}
        explicit = {name: self.priorities[name] for name in channels if name in self.priorities}
        ordered = sorted(
            channels,
            key=lambda name: (
                explicit.get(name, max(explicit.values(), default=0) + 1),
                channels.index(name),
            ),
        )
        return {name: rank for rank, name in enumerate(ordered)}

    def _slot_factor(self, rank: int, num_channels: int) -> int:
        if num_channels == 1:
            return 1
        if self.policy == "round-robin":
            return num_channels
        # Fixed priority, non-preemptive: rank r waits for the r
        # higher-priority channels each cycle, plus one in-flight
        # lower-priority inference when any channel ranks below it.
        return rank + 1 + (1 if rank < num_channels - 1 else 0)

    def plan(self, base_drain_fps: Mapping[str, float]) -> dict[str, ArbitrationGrant]:
        """Grant each channel its arbitrated drain rate.

        ``base_drain_fps`` maps channel name to the sustained rate the
        channel would achieve alone on the IP; iteration order is the
        plan order (the gateway passes channels in attach order).
        """
        if not base_drain_fps:
            raise SoCError("cannot arbitrate zero channels")
        channels = list(base_drain_fps)
        for name, fps in base_drain_fps.items():
            if not math.isfinite(fps) or fps <= 0:
                raise SoCError(
                    f"channel {name!r} base drain rate must be finite and positive, got {fps}"
                )
        ranks = self._ranks(channels)
        raw = {name: self._slot_factor(ranks[name], len(channels)) for name in channels}
        # Conservation: the worst-case waits the raw factors model can
        # overlap (fixed priority: 2,3,3 for three channels grants 7/6
        # of a slot per slot), so scale every factor until the granted
        # shares sum to at most one inference per service slot.
        utilisation = sum(1.0 / factor for factor in raw.values())
        scale = max(1.0, utilisation)
        grants: dict[str, ArbitrationGrant] = {}
        for name in channels:
            base = float(base_drain_fps[name])
            factor = raw[name] * scale
            effective_interval = factor * (1.0 / base + self.slot_overhead_s)
            grants[name] = ArbitrationGrant(
                channel=name,
                rank=ranks[name],
                slot_factor=factor,
                base_drain_fps=base,
                effective_drain_fps=1.0 / effective_interval,
            )
        return grants

    def __repr__(self) -> str:
        return (
            f"SharedAcceleratorArbiter(policy={self.policy!r}, "
            f"slot_overhead_s={self.slot_overhead_s!r})"
        )
