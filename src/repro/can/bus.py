"""Event-driven CAN bus simulator with priority arbitration.

The simulator merges the release streams of every attached traffic
source and serialises them onto a single shared medium:

* the bus transmits one frame at a time;
* whenever the bus goes idle, all nodes with a pending frame arbitrate
  and the lowest identifier wins (CSMA/CR with dominant bits);
* losers stay pending and re-arbitrate at the next idle point.

This is what turns a 0.3 ms DoS injection stream into the observable
dataset phenomenon: 0x000 frames always win, and legitimate frames pile
up behind them with growing queueing latency.

:meth:`BusSimulator.capture` runs a window on the columnar kernel
(:mod:`repro.can.fastbus`); :meth:`BusSimulator.run` is the event-driven
reference the kernel is held to.  Both read every source's
``frames_array`` columns; the reference merges them source by source,
without the sender bank, and runs one event loop, faulted or not.  Both
return one :class:`~repro.can.fastbus.ArbitrationResult`: the captured
frames plus each frame's release and arbitration-win instants, source
and wire length, so downstream code can study attack-induced delay as
well as message content.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.can.fastbus import ArbitrationResult, ScheduleArray
from repro.can.faults import FaultPlan, WireFaultModel, resolve_bus_faults
from repro.can.frame import CANFrame
from repro.can.log import CaptureArray
from repro.can.node import TrafficSource
from repro.errors import CANError

__all__ = ["BusSimulator"]

#: Classic high-speed CAN bitrates (bit/s).
BITRATE_HS_CAN = 500_000
BITRATE_HS_CAN_MAX = 1_000_000


class BusSimulator:
    """Single-segment CAN bus shared by several traffic sources.

    Parameters
    ----------
    bitrate:
        Bus speed in bit/s.  High-speed CAN runs at 500 kbit/s typically
        and 1 Mbit/s maximum — the paper's line-rate claims use the
        latter.
    """

    def __init__(self, bitrate: float = BITRATE_HS_CAN):
        if not math.isfinite(bitrate) or bitrate <= 0:
            raise CANError(f"bitrate must be positive and finite, got {bitrate}")
        self.bitrate = float(bitrate)
        self.sources: list[TrafficSource] = []

    def attach(self, source: TrafficSource) -> None:
        """Add a traffic source (ECU or attacker) to the bus."""
        self.sources.append(source)

    def run(
        self, duration: float, faults: WireFaultModel | None = None
    ) -> ArbitrationResult:
        """Simulate ``duration`` seconds on the event-driven reference loop.

        Concatenates every source's own ``frames_array`` in attach order
        and stable-sorts the rows by release.  This skips the sender bank
        :meth:`capture` goes through, so an A/B against :meth:`capture`
        checks the bank end to end.  Each row's wire length is
        ``CANFrame(can_id, data).bit_length()``, one CRC-15/stuffing pass
        per frame, and one event loop arbitrates through a heap of
        pending frames.  The result has the same columns as
        :meth:`capture`; ``started_at`` is what this loop records and
        ``wire_bits`` what ``bit_length`` returns, so A/B tests hold the
        kernel to every column.

        Frames still queued or in flight at the horizon are dropped (the
        capture simply ends), matching a real logging session: every
        returned frame has ``timestamp <= duration`` (reception
        completed within the window).

        ``faults`` enables the wire-level fault layer
        (:mod:`repro.can.faults`): corrupted attempts appear as extra
        rows flagged ``corrupted`` (each charging an error frame of wire
        time before the retransmission re-arbitrates), successful frames
        carry their ``retries`` count, and bus-off nodes fall silent.
        Attached sources exposing ``targeted_faults()`` (the bus-off
        attacker) contribute hooks even when ``faults`` is None.
        """
        if not math.isfinite(duration) or duration <= 0:
            raise CANError(f"duration must be positive and finite, got {duration}")
        parts = [source.frames_array(duration) for source in self.sources]
        schedule = ScheduleArray.concatenate([p for p in parts if len(p)]).sorted_by_release()
        wire = [
            CANFrame(can_id, payload[:dlc].tobytes()).bit_length()
            for can_id, dlc, payload in zip(
                schedule.can_ids.tolist(), schedule.dlcs.tolist(), schedule.payloads
            )
        ]
        # A bus with nothing to model runs on a zero-rate model's plan,
        # which corrupts and withholds nothing.
        model = resolve_bus_faults(self.sources, faults) or WireFaultModel()
        plan = model.plan(schedule, np.array(wire, dtype=np.int64), self.bitrate)
        return _event_loop(schedule, wire, plan, self.bitrate, duration)

    def capture(
        self, duration: float, faults: WireFaultModel | None = None
    ) -> ArbitrationResult:
        """Simulate ``duration`` seconds on the columnar fast path.

        Bit-exact against :meth:`run` (same winners, same timestamps,
        same horizon drops — see :mod:`repro.can.fastbus`), but the
        schedule is emitted and recorded as numpy columns, wire lengths
        come from one vectorised call, and arbitration is one sweep over
        plain floats and ints: no per-frame CRC passes or frame objects,
        and no heap for a frame that is alone when it starts.
        :meth:`run` remains the event-driven reference for A/B
        verification.  ``faults`` mirrors :meth:`run` exactly,
        corruption draws and bus-off times included.
        """
        from repro.can.fastbus import build_schedule, simulate_arbitration

        if not math.isfinite(duration) or duration <= 0:
            raise CANError(f"duration must be positive and finite, got {duration}")
        return simulate_arbitration(
            build_schedule(self.sources, duration),
            self.bitrate,
            duration,
            faults=resolve_bus_faults(self.sources, faults),
        )


def _event_loop(
    schedule: ScheduleArray,
    wire: list[int],
    plan: FaultPlan,
    bitrate: float,
    duration: float,
) -> ArbitrationResult:
    """The reference event loop: arbitration, error frames, retransmission.

    Whenever the bus goes idle, every frame released by then joins a
    heap keyed ``(can_id, entry release, push sequence, row)`` and the
    lowest key wins the wire.  The :class:`~repro.can.faults.FaultPlan`
    adds three things: rows of a bus-off node never enter arbitration; a
    corrupted attempt occupies the wire for the frame plus an error
    frame, then re-enters the heap at its completion time, ordering
    exactly like a fresh release; and the attempt that exhausts its
    node's TEC is its last.  A clean plan changes none of this, and the
    result then leaves the fault columns unset, as the clean sweep does.
    """
    n = len(schedule)
    ids = schedule.can_ids.tolist()
    release_f = schedule.release_times.tolist()
    durations = [bits / bitrate for bits in wire]
    error_s = plan.error_s
    left = plan.attempts.tolist()
    attempts_total = plan.attempts.tolist()
    queued = plan.queued.tolist()
    transmit = plan.transmit.tolist()

    rows: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    corrupted: list[bool] = []
    retries: list[int] = []
    bus_off: list[bool] = []
    # Arbitration pool: (can_id, entry release, push sequence, row).
    pending: list[tuple[int, float, int, int]] = []
    index = 0
    sequence = 0
    bus_free_at = 0.0
    while True:
        if not pending:
            while index < n and not queued[index]:
                index += 1  # bus-off node: the frame is never offered
            if index >= n:
                break
            # Bus idle and nothing queued: jump to the next release.
            start_candidate = max(bus_free_at, release_f[index])
        else:
            start_candidate = max(bus_free_at, pending[0][1])
        # Everyone released by the idle point participates in arbitration.
        while index < n and release_f[index] <= start_candidate:
            if queued[index]:
                heapq.heappush(pending, (ids[index], release_f[index], sequence, index))
                sequence += 1
            index += 1
        if not pending:
            continue
        can_id, entry_release, _, winner = heapq.heappop(pending)
        start = max(bus_free_at, entry_release)
        if left[winner] > 0:
            end = start + durations[winner] + error_s
        else:
            end = start + durations[winner]
        if end > duration:
            # The capture horizon falls while this attempt is (or would
            # be) on the wire: it never completes within the window, and
            # the serialised bus stays busy past the horizon, so nothing
            # behind it can complete either.
            break
        rows.append(winner)
        starts.append(start)
        ends.append(end)
        if left[winner] > 0:
            left[winner] -= 1
            dead = left[winner] == 0 and not transmit[winner]
            corrupted.append(True)
            retries.append(attempts_total[winner] - 1 - left[winner])
            bus_off.append(dead)
            if not dead:
                heapq.heappush(pending, (can_id, end, sequence, winner))
                sequence += 1
        else:
            corrupted.append(False)
            retries.append(attempts_total[winner])
            bus_off.append(False)
        bus_free_at = end

    served = np.array(rows, dtype=np.int64)
    faulted = not plan.clean
    return ArbitrationResult(
        capture=CaptureArray(
            timestamps=np.array(ends, dtype=np.float64),
            can_ids=schedule.can_ids[served],
            dlcs=schedule.dlcs[served],
            payloads=schedule.payloads[served],
            labels=schedule.labels[served],
        ),
        sources=schedule.sources[served],
        source_names=schedule.source_names,
        queued_at=schedule.release_times[served],
        started_at=np.array(starts, dtype=np.float64),
        wire_bits=np.array([wire[row] for row in rows], dtype=np.int64),
        schedule_indices=served,
        bitrate=float(bitrate),
        duration=float(duration),
        corrupted=np.array(corrupted, dtype=bool) if faulted else None,
        retries=np.array(retries, dtype=np.int64) if faulted else None,
        bus_off=np.array(bus_off, dtype=bool) if faulted else None,
    )
