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
reference the kernel is held to.  Both return one
:class:`~repro.can.fastbus.ArbitrationResult`: the captured frames plus
each frame's release and arbitration-win instants, source and wire
length, so downstream code can study attack-induced delay as well as
message content.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro.can.fastbus import ArbitrationResult, ScheduleArray
from repro.can.faults import FaultPlan, WireFaultModel, resolve_bus_faults
from repro.can.log import MAX_PAYLOAD_BYTES, CaptureArray
from repro.can.node import ScheduledFrame, TrafficSource
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

        Merges every source's scalar ``frames()`` stream by release time
        and arbitrates through a heap of pending frames, with one
        CRC-15/stuffing pass (``CANFrame.bit_length``) per frame.  The
        result has the same columns as :meth:`capture`; ``started_at``
        is what this loop records and ``wire_bits`` what ``bit_length``
        returns, so A/B tests hold the kernel to every column.  Extended
        and RTR frames raise :class:`CANError`: the capture columns
        record standard data frames only.

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
        effective = resolve_bus_faults(self.sources, faults)
        releases: list[ScheduledFrame] = []
        for source in self.sources:
            releases.extend(source.frames(duration))
        releases.sort(key=lambda s: s.release_time)
        schedule = _release_columns(releases)
        if effective is not None:
            wire = [scheduled.frame.bit_length() for scheduled in releases]
            plan = effective.plan(schedule, np.array(wire, dtype=np.int64), self.bitrate)
            if not plan.clean:
                return _run_faulted(releases, schedule, wire, duration, self.bitrate, plan)
            # A clean plan (zero-rate model, no targets drawn) changes
            # nothing: fall through to the clean loop.

        rows: list[int] = []
        starts: list[float] = []
        ends: list[float] = []
        bits: list[int] = []
        # Arbitration pool: (can_id, release_time, sequence, row).
        pending: list[tuple[int, float, int, int]] = []
        index = 0
        sequence = 0
        bus_free_at = 0.0

        while index < len(releases) or pending:
            if not pending:
                # Bus idle and nothing queued: jump to the next release.
                next_release = releases[index].release_time
                start_candidate = max(bus_free_at, next_release)
            else:
                start_candidate = max(bus_free_at, pending[0][1])
            # Everyone released by the idle point participates in arbitration.
            while index < len(releases) and releases[index].release_time <= start_candidate:
                scheduled = releases[index]
                heapq.heappush(
                    pending,
                    (scheduled.frame.can_id, scheduled.release_time, sequence, index),
                )
                sequence += 1
                index += 1
            if not pending:
                continue
            _, release, _, row = heapq.heappop(pending)
            frame_bits = releases[row].frame.bit_length()
            start = max(bus_free_at, release)
            end = start + frame_bits / self.bitrate
            if end > duration:
                # The capture horizon falls while this frame is (or
                # would be) on the wire: it never completes within the
                # window, and the serialised bus stays busy past the
                # horizon, so nothing behind it can complete either.
                break
            rows.append(row)
            starts.append(start)
            ends.append(end)
            bits.append(frame_bits)
            bus_free_at = end
        return _window(schedule, rows, starts, ends, bits, self.bitrate, duration)

    def capture(
        self, duration: float, faults: WireFaultModel | None = None
    ) -> ArbitrationResult:
        """Simulate ``duration`` seconds on the columnar fast path.

        Bit-exact against :meth:`run` (same winners, same timestamps,
        same horizon drops — see :mod:`repro.can.fastbus`), but the
        schedule is emitted and recorded as numpy columns, wire lengths
        come from one vectorised call, and arbitration is one sweep over
        plain floats and ints: no per-frame generator yields, CRC passes
        or frame objects, and no heap for a frame that is alone when it
        starts.  :meth:`run` remains the event-driven reference for A/B
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


def _release_columns(releases: Sequence[ScheduledFrame]) -> ScheduleArray:
    """The merged releases as schedule columns, row for row.

    The rows the event engine's results gather from, and the schedule
    its side of the shared fault plan is defined over (the same values
    the columnar engine's merged schedule holds; senders are coded in
    release order here, so only their names match).  A frame the
    capture columns cannot record (extended or RTR) raises
    :class:`CANError`.
    """
    ids: list[int] = []
    chunks: list[bytes] = []
    for scheduled in releases:
        frame = scheduled.frame
        if frame.extended or frame.rtr:
            kind = "an extended" if frame.extended else "an RTR"
            raise CANError(
                f"{scheduled.source} released {kind} frame ({frame!r}); "
                "captures record standard data frames only"
            )
        ids.append(frame.can_id)
        chunks.append(frame.data.ljust(MAX_PAYLOAD_BYTES, b"\0"))
    n = len(releases)
    code_of: dict[str, int] = {}
    return ScheduleArray(
        release_times=np.array([s.release_time for s in releases], dtype=np.float64),
        can_ids=np.array(ids, dtype=np.int64),
        dlcs=np.array([s.frame.dlc for s in releases], dtype=np.int64),
        payloads=np.frombuffer(b"".join(chunks), dtype=np.uint8)
        .reshape(n, MAX_PAYLOAD_BYTES)
        .copy(),
        labels=np.array([1 if s.label == "T" else 0 for s in releases], dtype=np.int64),
        sources=np.array(
            [code_of.setdefault(s.source, len(code_of)) for s in releases], dtype=np.int64
        ),
        source_names=tuple(code_of),
    )


def _window(
    schedule: ScheduleArray,
    rows: list[int],
    starts: list[float],
    ends: list[float],
    bits: list[int],
    bitrate: float,
    duration: float,
    **faults: np.ndarray,
) -> ArbitrationResult:
    """The records an event loop served, in service order, as columns.

    ``faults`` carries the faulted loop's ``corrupted``/``retries``/
    ``bus_off`` columns.
    """
    served = np.array(rows, dtype=np.int64)
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
        wire_bits=np.array(bits, dtype=np.int64),
        schedule_indices=served,
        bitrate=float(bitrate),
        duration=float(duration),
        **faults,
    )


def _run_faulted(
    releases: list[ScheduledFrame],
    schedule: ScheduleArray,
    wire: list[int],
    duration: float,
    bitrate: float,
    plan: FaultPlan,
) -> ArbitrationResult:
    """The faulted event loop: error frames, retransmission, bus-off.

    Same arbitration semantics as the clean loop, with three additions
    driven by the precomputed :class:`~repro.can.faults.FaultPlan`:
    rows of a bus-off node never enter arbitration; a corrupted attempt
    occupies the wire for the frame plus an error frame, then re-queues
    at its completion time for re-arbitration; the heap key gains the
    entry release and a push sequence so retransmissions order exactly
    like fresh releases.
    """
    n = len(releases)
    release_f = [s.release_time for s in releases]
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
            next_release = release_f[index]
            start_candidate = max(bus_free_at, next_release)
        else:
            start_candidate = max(bus_free_at, pending[0][1])
        while index < n and release_f[index] <= start_candidate:
            if queued[index]:
                scheduled = releases[index]
                heapq.heappush(
                    pending,
                    (scheduled.frame.can_id, release_f[index], sequence, index),
                )
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
            break  # horizon falls while this (attempt) is on the wire
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
    return _window(
        schedule,
        rows,
        starts,
        ends,
        [wire[row] for row in rows],
        bitrate,
        duration,
        corrupted=np.array(corrupted, dtype=bool),
        retries=np.array(retries, dtype=np.int64),
        bus_off=np.array(bus_off, dtype=bool),
    )
