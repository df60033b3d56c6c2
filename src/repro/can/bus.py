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

Records carry both the release time and the reception-complete
timestamp, so downstream code can study attack-induced delay as well as
message content.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.can.faults import FaultPlan, WireFaultModel, resolve_bus_faults
from repro.can.frame import CANFrame
from repro.can.node import ScheduledFrame, TrafficSource
from repro.errors import CANError

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.can.fastbus import ArbitrationResult
    from repro.can.log import CaptureArray

__all__ = ["BusRecord", "BusSimulator", "bus_load"]

#: Classic high-speed CAN bitrates (bit/s).
BITRATE_HS_CAN = 500_000
BITRATE_HS_CAN_MAX = 1_000_000


@dataclass(frozen=True)
class BusRecord:
    """One frame as observed on the bus by a monitoring node.

    Attributes
    ----------
    timestamp:
        Reception-complete time (what a CAN controller timestamps).
    queued_at:
        When the sender released the frame for transmission.
    started_at:
        When the frame actually won arbitration and started transmitting.
    """

    timestamp: float
    frame: CANFrame
    label: str
    source: str
    queued_at: float
    started_at: float
    #: Wire-fault attribution (see :mod:`repro.can.faults`): this record
    #: is a corrupted attempt (ends in an error frame, not an ACK)...
    corrupted: bool = False
    #: ...preceded by this many earlier attempts of the same frame...
    retries: int = 0
    #: ...and, for a corrupted attempt, whether it drove its sender into
    #: bus-off (the frame is never retransmitted afterwards).
    bus_off: bool = False

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for the bus (arbitration losses)."""
        return self.started_at - self.queued_at


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
    ) -> list[BusRecord]:
        """Simulate ``duration`` seconds and return observed frames in order.

        Frames still queued or in flight at the horizon are dropped (the
        capture simply ends), matching a real logging session: every
        returned record has ``timestamp <= duration`` (reception
        completed within the window).

        ``faults`` enables the wire-level fault layer
        (:mod:`repro.can.faults`): corrupted attempts appear as extra
        records flagged ``corrupted`` (each charging an error frame of
        wire time before the retransmission re-arbitrates), successful
        frames carry their ``retries`` count, and bus-off nodes fall
        silent.  Attached sources exposing ``targeted_faults()`` (the
        bus-off attacker) contribute hooks even when ``faults`` is None.
        """
        if not math.isfinite(duration) or duration <= 0:
            raise CANError(f"duration must be positive and finite, got {duration}")
        effective = resolve_bus_faults(self.sources, faults)
        releases: list[ScheduledFrame] = []
        for source in self.sources:
            releases.extend(source.frames(duration))
        releases.sort(key=lambda s: s.release_time)
        if effective is not None:
            plan = _fault_plan_for_releases(releases, self.bitrate, effective)
            if not plan.clean:
                return _run_faulted(releases, duration, self.bitrate, plan)
            # A clean plan (zero-rate model, no targets drawn) changes
            # nothing: fall through to the clean loop.

        records: list[BusRecord] = []
        # Arbitration pool: (can_id, release_time, sequence) -> scheduled frame.
        pending: list[tuple[int, float, int, ScheduledFrame]] = []
        index = 0
        sequence = 0
        bus_free_at = 0.0

        while index < len(releases) or pending:
            if not pending:
                # Bus idle and nothing queued: jump to the next release.
                next_release = releases[index].release_time
                start_candidate = max(bus_free_at, next_release)
            else:
                start_candidate = max(bus_free_at, pending[0][3].release_time)
            # Everyone released by the idle point participates in arbitration.
            while index < len(releases) and releases[index].release_time <= start_candidate:
                scheduled = releases[index]
                heapq.heappush(
                    pending,
                    (scheduled.frame.can_id, scheduled.release_time, sequence, scheduled),
                )
                sequence += 1
                index += 1
            if not pending:
                continue
            _, _, _, winner = heapq.heappop(pending)
            start = max(bus_free_at, winner.release_time)
            end = start + winner.frame.duration(self.bitrate)
            if end > duration:
                # The capture horizon falls while this frame is (or
                # would be) on the wire: it never completes within the
                # window, and the serialised bus stays busy past the
                # horizon, so nothing behind it can complete either.
                break
            records.append(
                BusRecord(
                    timestamp=end,
                    frame=winner.frame,
                    label=winner.label,
                    source=winner.source,
                    queued_at=winner.release_time,
                    started_at=start,
                )
            )
            bus_free_at = end
        return records

    def capture(
        self, duration: float, faults: WireFaultModel | None = None
    ) -> "ArbitrationResult":
        """Simulate ``duration`` seconds on the columnar fast path.

        Bit-exact against :meth:`run` (same winners, same timestamps,
        same horizon drops — see :mod:`repro.can.fastbus`), but the
        schedule is emitted and recorded as numpy columns, and
        arbitrated by one sweep over plain floats and ints: no
        per-frame generator yields, CRC passes or record objects, and
        no heap for a frame that is alone when it starts.  Returns the
        columnar :class:`~repro.can.fastbus.ArbitrationResult`; :meth:`run`
        remains the event-driven reference for A/B verification.
        ``faults`` mirrors :meth:`run` exactly, corruption draws and
        bus-off times included.
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


def _fault_plan_for_releases(
    releases: Sequence[ScheduledFrame], bitrate: float, faults: WireFaultModel
) -> FaultPlan:
    """The event engine's side of the shared fault plan.

    Builds the release-sorted schedule columns the plan is defined
    over; the values are identical to the columnar engine's
    (``standard_wire_bits`` is bit-exact against ``bit_length()``), so
    both engines draw the same corruptions.
    """
    n = len(releases)
    release_times = np.fromiter(
        (s.release_time for s in releases), dtype=np.float64, count=n
    )
    can_ids = np.fromiter((s.frame.can_id for s in releases), dtype=np.int64, count=n)
    wire_bits = np.fromiter(
        (s.frame.bit_length() for s in releases), dtype=np.int64, count=n
    )
    sources = np.asarray([s.source for s in releases], dtype=np.str_)
    return faults.plan(release_times, can_ids, wire_bits, sources, bitrate)


def _run_faulted(
    releases: list[ScheduledFrame],
    duration: float,
    bitrate: float,
    plan: FaultPlan,
) -> list[BusRecord]:
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
    durations = [s.frame.bit_length() / bitrate for s in releases]
    error_s = plan.error_s
    left = plan.attempts.tolist()
    attempts_total = plan.attempts.tolist()
    queued = plan.queued.tolist()
    transmit = plan.transmit.tolist()

    records: list[BusRecord] = []
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
        scheduled = releases[winner]
        if left[winner] > 0:
            left[winner] -= 1
            dead = left[winner] == 0 and not transmit[winner]
            records.append(
                BusRecord(
                    timestamp=end,
                    frame=scheduled.frame,
                    label=scheduled.label,
                    source=scheduled.source,
                    queued_at=release_f[winner],
                    started_at=start,
                    corrupted=True,
                    retries=attempts_total[winner] - 1 - left[winner],
                    bus_off=dead,
                )
            )
            if not dead:
                heapq.heappush(pending, (can_id, end, sequence, winner))
                sequence += 1
        else:
            records.append(
                BusRecord(
                    timestamp=end,
                    frame=scheduled.frame,
                    label=scheduled.label,
                    source=scheduled.source,
                    queued_at=release_f[winner],
                    started_at=start,
                    retries=attempts_total[winner],
                )
            )
        bus_free_at = end
    return records


def bus_load(
    records: "Sequence[BusRecord] | Iterable[BusRecord] | CaptureArray",
    duration: float,
    bitrate: float,
) -> float:
    """Fraction of bus time occupied by the recorded frames.

    Accepts either event-engine :class:`BusRecord` sequences (exact for
    any frame format, one Python CRC pass per record) or a columnar
    :class:`~repro.can.log.CaptureArray` — vectorised over the id/DLC/
    payload columns via :func:`repro.can.fastbus.standard_wire_bits`,
    identical occupancy for the standard data frames captures contain.

    >>> bus_load([], 1.0, 500_000)
    0.0
    """
    from repro.can.fastbus import _check_timing, standard_wire_bits
    from repro.can.log import CaptureArray

    _check_timing(bitrate, duration)
    if isinstance(records, CaptureArray):
        busy_bits = int(
            standard_wire_bits(records.can_ids, records.dlcs, records.payloads).sum()
        )
    else:
        busy_bits = sum(record.frame.bit_length() for record in records)
    return min(busy_bits / (bitrate * duration), 1.0)
