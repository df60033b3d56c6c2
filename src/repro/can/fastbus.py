"""Columnar bus engine: vectorised schedules and arbitration replay.

The event-driven :class:`~repro.can.bus.BusSimulator` is the *reference*
engine: per-frame generator yields, a heapq pop per frame, a CRC-15 /
bit-stuffing pass per frame, and a :class:`~repro.can.bus.BusRecord`
object per frame.  That is faithful but slow — once inference is
compiled (PR 4), campaign and gateway runs are dominated by the bus.

This module is the *compute* engine for the same physics:

* :class:`ScheduleArray` — a columnar frame schedule (release times,
  identifiers, payload bytes, labels, source names as numpy arrays).
  Traffic sources emit one via ``frames_array(until)``; sources that
  only implement the scalar iterator are materialised by
  :func:`schedule_from_frames` (the exotic fallback).
* :func:`standard_wire_bits` — exact CAN 2.0A wire lengths (CRC-15 +
  bit stuffing + trailer) for whole schedules at once.  Duplicate
  ``(id, dlc, payload)`` rows collapse first, so a DoS flood costs one
  CRC instead of tens of thousands; the unique rows step a byte at a
  time through a 256-entry CRC-15 table and a 9-state stuffing
  automaton (~150 numpy calls per DLC width, whatever the row count).
* :func:`simulate_arbitration` — arbitration replay as a columnar
  sweep.  Uncontended stretches (each frame completes before the next
  release) are resolved in vectorised runs; only genuinely contended
  busy periods fall back to a tight heap loop over primitive tuples.

**Bit-exactness.**  The kernel reproduces ``BusSimulator.run`` exactly:
same winners, same timestamps (the same IEEE operations in the same
order, not merely close), same capture-horizon drop semantics.  The
CI equivalence sweep (``tests/test_fastbus.py``) holds both engines to
that contract across mixed periodic/attacker topologies, bitrates and
horizon clipping.
"""

from __future__ import annotations

import heapq
from collections import deque
import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.can.frame import _CRC15_POLY, _TRAILER_BITS
from repro.errors import CANError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (log -> bus -> node)
    from repro.can.bus import BusRecord
    from repro.can.faults import WireFaultModel
    from repro.can.log import CaptureArray
    from repro.can.node import ScheduledFrame, TrafficSource

__all__ = [
    "ArbitrationResult",
    "ScheduleArray",
    "build_schedule",
    "release_grid",
    "schedule_columns",
    "schedule_from_frames",
    "simulate_arbitration",
    "standard_wire_bits",
]

#: Payload slots per frame (classic CAN maximum), kept in sync with
#: :data:`repro.can.log.MAX_PAYLOAD_BYTES` without importing it here.
_PAYLOAD_SLOTS = 8

#: Standard data frame header bits before the payload: SOF(1) + ID(11)
#: + RTR/IDE/r0(3) + DLC(4).
_HEADER_BITS = 19
_CRC_BITS = 15

#: Sentinel in :attr:`ScheduleArray.wire_bits`: compute vectorised.
WIRE_BITS_UNSET = -1


# ---------------------------------------------------------------------------
# Columnar schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleArray:
    """A columnar frame schedule: what a traffic source will release.

    One row per scheduled frame.  ``payloads`` rows are zero-padded to
    eight bytes (``dlcs`` keeps the true lengths); ``labels`` uses the
    capture convention (1 = attack/tampered ``"T"``, 0 = regular
    ``"R"``); ``sources`` carries the emitting node's name for phase
    attribution.  ``wire_bits`` is the exact stuffed wire length
    including the trailer, or :data:`WIRE_BITS_UNSET` for standard data
    frames whose length the kernel computes vectorised (the scalar
    fallback pre-fills it for extended/RTR frames, which the columnar
    length kernel does not model).
    """

    release_times: np.ndarray  #: (N,) float64 release instants
    can_ids: np.ndarray  #: (N,) int64 identifiers
    dlcs: np.ndarray  #: (N,) int64 true payload lengths
    payloads: np.ndarray  #: (N, 8) uint8 zero-padded payload bytes
    labels: np.ndarray  #: (N,) int64, 1 for attack ("T") frames
    sources: np.ndarray  #: (N,) unicode source names
    wire_bits: np.ndarray  #: (N,) int64 exact wire bits, -1 = compute

    def __post_init__(self) -> None:
        n = self.release_times.shape[0]
        # reprolint: disable=hot-path-purity -- iterates field names for shape validation, not frames
        for name in ("can_ids", "dlcs", "labels", "sources", "wire_bits"):
            if getattr(self, name).shape != (n,):
                raise CANError(f"ScheduleArray field {name} must have shape ({n},)")
        if self.payloads.shape != (n, _PAYLOAD_SLOTS):
            raise CANError(
                f"ScheduleArray payloads must have shape ({n}, {_PAYLOAD_SLOTS}), "
                f"got {self.payloads.shape}"
            )
        if self.payloads.dtype != np.uint8:
            raise CANError(f"ScheduleArray payloads must be uint8, got {self.payloads.dtype}")

    def __len__(self) -> int:
        return int(self.release_times.shape[0])

    @classmethod
    def empty(cls) -> "ScheduleArray":
        return cls(
            release_times=np.zeros(0, dtype=np.float64),
            can_ids=np.zeros(0, dtype=np.int64),
            dlcs=np.zeros(0, dtype=np.int64),
            payloads=np.zeros((0, _PAYLOAD_SLOTS), dtype=np.uint8),
            labels=np.zeros(0, dtype=np.int64),
            sources=np.zeros(0, dtype="<U1"),
            wire_bits=np.zeros(0, dtype=np.int64),
        )

    def take(self, indices: np.ndarray) -> "ScheduleArray":
        """Reorder / subset all columns with one index array."""
        return ScheduleArray(
            release_times=self.release_times[indices],
            can_ids=self.can_ids[indices],
            dlcs=self.dlcs[indices],
            payloads=self.payloads[indices],
            labels=self.labels[indices],
            sources=self.sources[indices],
            wire_bits=self.wire_bits[indices],
        )

    @classmethod
    def concatenate(cls, parts: Sequence["ScheduleArray"]) -> "ScheduleArray":
        """Stack schedules (source attach order — ties stay stable)."""
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            release_times=np.concatenate([p.release_times for p in parts]),
            can_ids=np.concatenate([p.can_ids for p in parts]),
            dlcs=np.concatenate([p.dlcs for p in parts]),
            payloads=np.concatenate([p.payloads for p in parts], axis=0),
            labels=np.concatenate([p.labels for p in parts]),
            sources=np.concatenate([p.sources for p in parts]),
            wire_bits=np.concatenate([p.wire_bits for p in parts]),
        )

    def sorted_by_release(self) -> "ScheduleArray":
        """Stable sort by release time (= the event engine's merge order)."""
        return self.take(np.argsort(self.release_times, kind="stable"))

    def resolved_wire_bits(self) -> np.ndarray:
        """Exact wire bits per frame, computing unset rows vectorised."""
        unset = self.wire_bits == WIRE_BITS_UNSET
        if not np.any(unset):
            return self.wire_bits
        bits = self.wire_bits.copy()
        bits[unset] = standard_wire_bits(
            self.can_ids[unset], self.dlcs[unset], self.payloads[unset]
        )
        return bits

    def scheduled_frames(self) -> "Iterable[ScheduledFrame]":
        """Materialise the scalar :class:`ScheduledFrame` stream.

        This is how the scalar ``frames()`` iterators are implemented on
        top of the columnar emitters, so both engines consume one draw
        path by construction.
        """
        from repro.can.frame import CANFrame
        from repro.can.node import ScheduledFrame

        releases = self.release_times.tolist()
        ids = self.can_ids.tolist()
        dlcs = self.dlcs.tolist()
        labels = self.labels.tolist()
        sources = self.sources.tolist()
        payload_bytes = self.payloads.tobytes()
        for k in range(len(releases)):
            data = payload_bytes[k * _PAYLOAD_SLOTS : k * _PAYLOAD_SLOTS + dlcs[k]]
            yield ScheduledFrame(
                releases[k],
                CANFrame(ids[k], data),
                "T" if labels[k] else "R",
                sources[k],
            )


def _check_dlcs(dlcs: np.ndarray) -> None:
    """Reject DLCs outside 0-8 with a :class:`CANError` naming the value."""
    if dlcs.size and (dlcs.min() < 0 or dlcs.max() > _PAYLOAD_SLOTS):
        bad = dlcs[(dlcs < 0) | (dlcs > _PAYLOAD_SLOTS)]
        raise CANError(f"DLC must be in [0, {_PAYLOAD_SLOTS}], got {int(bad.flat[0])}")


def schedule_columns(
    release_times: np.ndarray,
    can_ids: int | np.ndarray,
    payloads: np.ndarray,
    label: int,
    source: str,
    dlcs: int | np.ndarray | None = None,
    wire_bits: np.ndarray | None = None,
) -> ScheduleArray:
    """Assemble a :class:`ScheduleArray` from emitter columns.

    ``payloads`` is ``(N, dlc)`` uint8 (uniform length, padded here) or
    already ``(N, 8)`` with explicit per-frame ``dlcs``.  ``can_ids``
    and ``dlcs`` broadcast from scalars; ``label``/``source`` apply to
    every row (one emitter = one label and one node name).  DLCs
    outside 0-8 raise :class:`CANError`.
    """
    release_times = np.asarray(release_times, dtype=np.float64)
    n = release_times.shape[0]
    payloads = np.asarray(payloads, dtype=np.uint8)
    if payloads.ndim != 2 or payloads.shape[0] != n or payloads.shape[1] > _PAYLOAD_SLOTS:
        raise CANError(f"payloads must be (N, <={_PAYLOAD_SLOTS}) uint8, got {payloads.shape}")
    width = payloads.shape[1]
    if width < _PAYLOAD_SLOTS:
        padded = np.zeros((n, _PAYLOAD_SLOTS), dtype=np.uint8)
        padded[:, :width] = payloads
        payloads = padded
    if dlcs is None:
        dlcs = width
    dlc_column = np.asarray(dlcs, dtype=np.int64)
    _check_dlcs(dlc_column)
    return ScheduleArray(
        release_times=release_times,
        can_ids=np.broadcast_to(np.asarray(can_ids, dtype=np.int64), (n,)).copy()
        if np.ndim(can_ids) == 0
        else np.asarray(can_ids, dtype=np.int64),
        dlcs=np.broadcast_to(dlc_column, (n,)).copy() if dlc_column.ndim == 0 else dlc_column,
        payloads=payloads,
        labels=np.full(n, int(label), dtype=np.int64),
        sources=np.full(n, source),  # reprolint: disable=dtype-discipline -- unicode width inferred from the source name
        wire_bits=np.full(n, WIRE_BITS_UNSET, dtype=np.int64)
        if wire_bits is None
        else np.asarray(wire_bits, dtype=np.int64),
    )


def release_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Releases ``start, start + step, ...`` strictly below ``stop``.

    Uses the closed-form grid (``start + k * step``) rather than
    repeated accumulation; the trailing mask keeps the float boundary
    exact (never a release at or past ``stop``).
    """
    if step <= 0:
        raise CANError(f"grid step must be positive, got {step}")
    if stop <= start:
        return np.zeros(0, dtype=np.float64)
    count = max(int(np.ceil((stop - start) / step)), 0)
    while start + count * step < stop:  # float-rounding guard
        count += 1
    releases = start + step * np.arange(count, dtype=np.float64)
    return releases[releases < stop]


def schedule_from_frames(frames: "Iterable[ScheduledFrame]") -> ScheduleArray:
    """Materialise a scalar frame iterator (the exotic-source fallback).

    Extended/RTR frames get their exact wire length computed here (the
    vectorised length kernel models standard data frames only); their
    columnar capture rows carry identifier, DLC and payload exactly as
    :func:`repro.can.log.records_from_bus` would record them.
    """
    releases: list[float] = []
    ids: list[int] = []
    dlcs: list[int] = []
    chunks: list[bytes] = []
    labels: list[int] = []
    sources: list[str] = []
    wire: list[int] = []
    for scheduled in frames:
        frame = scheduled.frame
        releases.append(scheduled.release_time)
        ids.append(frame.can_id)
        dlcs.append(frame.dlc)
        chunks.append(frame.data + bytes(_PAYLOAD_SLOTS - frame.dlc))
        labels.append(1 if scheduled.label == "T" else 0)
        sources.append(scheduled.source)
        wire.append(
            frame.bit_length() if (frame.extended or frame.rtr) else WIRE_BITS_UNSET
        )
    n = len(releases)
    if n == 0:
        return ScheduleArray.empty()
    return ScheduleArray(
        release_times=np.array(releases, dtype=np.float64),
        can_ids=np.array(ids, dtype=np.int64),
        dlcs=np.array(dlcs, dtype=np.int64),
        payloads=np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(
            n, _PAYLOAD_SLOTS
        ).copy(),
        labels=np.array(labels, dtype=np.int64),
        sources=np.array(sources),
        wire_bits=np.array(wire, dtype=np.int64),
    )


def source_schedule(source: "TrafficSource", until: float) -> ScheduleArray:
    """One source's schedule in its own emission order (no re-sort).

    Columnar sources emit directly; scalar-only sources are
    materialised.  Wrappers use this to transform a victim's stream
    while preserving its yield order, exactly as the scalar wrappers
    iterate it.
    """
    emitter = getattr(source, "frames_array", None)
    if emitter is not None:
        return emitter(until)
    return schedule_from_frames(source.frames(until))


def build_schedule(sources: "Sequence[TrafficSource]", until: float) -> ScheduleArray:
    """Merge every source's schedule, sorted as the event engine sorts.

    Sources exposing ``frames_array`` emit columns directly; anything
    else is materialised from its scalar iterator.  Concatenation in
    attach order followed by a stable release-time sort reproduces the
    reference engine's merge exactly (ties keep attach order).
    """
    parts = [source_schedule(source, until) for source in sources]
    return ScheduleArray.concatenate([part for part in parts if len(part)]).sorted_by_release()


# ---------------------------------------------------------------------------
# Vectorised wire lengths (CRC-15 + bit stuffing over whole schedules)
# ---------------------------------------------------------------------------


#: Stuffing-automaton states: 0 before the first bit, else
#: ``4 * last_bit + run`` for a run of 1-4 equal bits.  A run never
#: reaches 5: the stuff bit sent there starts a run of its own.
_STUFF_STATES = 9


def _crc15_byte_table() -> np.ndarray:
    """``table[b]``: the CRC-15 of byte ``b``'s 8 bits from a zero register.

    Eight bit steps of :func:`repro.can.frame.crc15` collapse into one
    byte step: ``crc = ((crc << 8) & 0x7FFF) ^ table[(crc >> 7) ^ byte]``.
    """
    table = np.zeros(256, dtype=np.int64)
    for byte in range(256):
        crc = byte << 7
        for _ in range(8):
            crc = ((crc << 1) & 0x7FFF) ^ (_CRC15_POLY if crc & 0x4000 else 0)
        table[byte] = crc
    return table


def _stuff_step(state: int, value: int, width: int) -> tuple[int, int]:
    """``(next_state, stuff_bits)`` after sending ``width`` MSB-first bits.

    The rule of :func:`repro.utils.bitops.stuff_bits`: after five equal
    bits a complementary stuff bit goes out and counts toward the next
    run.
    """
    if state == 0:
        run_value, run_length = -1, 0
    else:
        run_value, run_length = (state - 1) // 4, (state - 1) % 4 + 1
    stuffed = 0
    for shift in range(width - 1, -1, -1):
        bit = (value >> shift) & 1
        run_length = run_length + 1 if bit == run_value else 1
        run_value = bit
        if run_length == 5:
            stuffed += 1
            run_value, run_length = 1 - bit, 1
    return 4 * run_value + run_length, stuffed


def _stuff_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Next-state and stuff-count tables per ``state * 256 + byte``, and
    the stuff counts of a final 2-bit tail per ``state * 4 + bits``."""
    next_state = np.zeros(_STUFF_STATES * 256, dtype=np.int64)
    stuff_count = np.zeros(_STUFF_STATES * 256, dtype=np.int64)
    tail_count = np.zeros(_STUFF_STATES * 4, dtype=np.int64)
    for state in range(_STUFF_STATES):
        for byte in range(256):
            next_state[state * 256 + byte], stuff_count[state * 256 + byte] = (
                _stuff_step(state, byte, 8)
            )
        for bits in range(4):
            tail_count[state * 4 + bits] = _stuff_step(state, bits, 2)[1]
    return next_state, stuff_count, tail_count


_CRC15_TABLE = _crc15_byte_table()
_STUFF_NEXT, _STUFF_COUNT, _STUFF_TAIL = _stuff_tables()


def _wire_bits_for_rows(rows: np.ndarray) -> np.ndarray:
    """Exact wire bits for unique packed rows ``[id_hi, id_lo, dlc, 8 bytes]``.

    Steps byte columns through the tables above, one DLC width at a
    time.  Left-padding the 19 header bits (SOF, id, RTR/IDE/r0, DLC)
    with 5 zero bits, which a zero-initialised CRC ignores, makes header
    plus payload ``3 + dlc`` whole bytes for the CRC.  Without the pad
    and followed by the CRC, the same bits are the stuffed region (SOF
    .. CRC, ``34 + 8 * dlc`` bits): ``4 + dlc`` whole bytes for the
    stuffing automaton, then a 2-bit tail.
    """
    out = np.zeros(rows.shape[0], dtype=np.int64)
    dlcs = rows[:, 2].astype(np.int64)
    # reprolint: disable=hot-path-purity -- loops over the <=9 distinct DLC widths, not frames
    for dlc in np.unique(dlcs):
        group = np.flatnonzero(dlcs == dlc)
        sub = rows[group]
        m = sub.shape[0]
        width = int(dlc)
        ids = (sub[:, 0].astype(np.int64) << 8) | sub[:, 1]
        # Padded header, payload, CRC (15 bits + 1 pad bit), zero byte.
        message = np.zeros((m, width + 6), dtype=np.uint8)
        message[:, 0] = ids >> 9  # 5 pad bits, SOF, id[10:9]
        message[:, 1] = (ids >> 1) & 0xFF  # id[8:1]
        message[:, 2] = ((ids & 1) << 7) | width  # id[0], RTR/IDE/r0 = 0, DLC
        message[:, 3 : 3 + width] = sub[:, 3 : 3 + width]
        crc = np.zeros(m, dtype=np.int64)
        # reprolint: disable=hot-path-purity -- per-byte-column CRC table steps, O(frame bytes) not O(frames)
        for column in range(3 + width):
            crc = ((crc << 8) & 0x7FFF) ^ _CRC15_TABLE[(crc >> 7) ^ message[:, column]]
        message[:, 3 + width] = crc >> 7
        message[:, 4 + width] = (crc << 1) & 0xFF
        # Drop the 5 pad bits: stream[:, k] holds stuffed-region bits 8k..8k+7.
        stream = ((message[:, :-1] & 0x07) << 5) | (message[:, 1:] >> 3)
        state = np.zeros(m, dtype=np.int64)
        stuffed = np.zeros(m, dtype=np.int64)
        # reprolint: disable=hot-path-purity -- per-byte-column stuffing automaton, O(frame bytes) not O(frames)
        for column in range(4 + width):
            index = state * 256 + stream[:, column]
            stuffed += _STUFF_COUNT[index]
            state = _STUFF_NEXT[index]
        stuffed += _STUFF_TAIL[state * 4 + (stream[:, 4 + width] >> 6)]
        out[group] = _HEADER_BITS + 8 * width + _CRC_BITS + stuffed + _TRAILER_BITS
    return out


def standard_wire_bits(
    can_ids: np.ndarray, dlcs: np.ndarray, payloads: np.ndarray
) -> np.ndarray:
    """Stuffed wire bits (incl. trailer) of standard data frames, batched.

    Bit-exact against ``CANFrame(id, data).bit_length()`` for every
    standard (11-bit, non-RTR) data frame.  Duplicate ``(id, dlc,
    payload)`` rows are collapsed first — a DoS flood of identical
    frames costs one CRC/stuffing pass, not one per frame.  Identifiers
    beyond 11 bits and DLCs outside 0-8 raise :class:`CANError`.
    """
    can_ids = np.asarray(can_ids, dtype=np.int64)
    dlcs = np.asarray(dlcs, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.uint8)
    n = can_ids.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any((can_ids < 0) | (can_ids > 0x7FF)):
        raise CANError("standard_wire_bits models 11-bit identifiers only")
    _check_dlcs(dlcs)
    width = 3 + _PAYLOAD_SLOTS
    rows = np.zeros((n, width), dtype=np.uint8)
    rows[:, 0] = can_ids >> 8
    rows[:, 1] = can_ids & 0xFF
    rows[:, 2] = dlcs
    rows[:, 3:] = payloads
    # Zero bytes beyond the DLC so padding never perturbs uniqueness.
    rows[:, 3:][np.arange(_PAYLOAD_SLOTS, dtype=np.int64) >= dlcs[:, None]] = 0
    # Dedup via a fixed-width bytes view: unique on |S11 sorts with
    # memcmp, an order of magnitude faster than axis-0 unique's
    # void-compare path on flood-scale schedules.
    keys = np.ascontiguousarray(rows).view(f"|S{width}").ravel()
    unique_keys, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return _wire_bits_for_rows(rows[first_index])[inverse]


# ---------------------------------------------------------------------------
# Arbitration replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArbitrationResult:
    """Everything one simulated capture window produced, in columns.

    ``capture`` timestamps are reception-complete times (what the event
    engine's :class:`~repro.can.bus.BusRecord` records); ``queued_at``
    and ``started_at`` carry the release and arbitration-win instants,
    ``sources`` the emitting node per surviving frame, ``wire_bits``
    the exact occupancy used for bus-load accounting, and
    ``schedule_indices`` each survivor's row in the merged schedule.

    Faulted runs (``faults=`` on :func:`simulate_arbitration`) add the
    wire-fault attribution columns: ``corrupted`` flags records that
    are corrupted attempts (one capture row per attempt — schedule rows
    may repeat), ``retries`` counts a record's earlier attempts, and
    ``bus_off`` marks the attempt that silenced its sender.  They stay
    ``None`` on the clean path (use the ``*_mask``/``retry_counts``
    accessors for a uniform view).
    """

    capture: "CaptureArray"
    sources: np.ndarray
    queued_at: np.ndarray
    started_at: np.ndarray
    wire_bits: np.ndarray
    schedule_indices: np.ndarray
    bitrate: float
    duration: float
    corrupted: np.ndarray | None = None
    retries: np.ndarray | None = None
    bus_off: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.capture)

    @property
    def corrupted_mask(self) -> np.ndarray:
        """Per-record corrupted flags (all-False on the clean path)."""
        if self.corrupted is not None:
            return self.corrupted
        return np.zeros(len(self), dtype=bool)

    @property
    def retry_counts(self) -> np.ndarray:
        """Per-record prior-attempt counts (all-zero on the clean path)."""
        if self.retries is not None:
            return self.retries
        return np.zeros(len(self), dtype=np.int64)

    @property
    def bus_off_mask(self) -> np.ndarray:
        """Per-record bus-off flags (all-False on the clean path)."""
        if self.bus_off is not None:
            return self.bus_off
        return np.zeros(len(self), dtype=bool)

    def bus_load(self) -> float:
        """Fraction of wire time occupied by the surviving frames."""
        return min(float(self.wire_bits.sum()) / (self.bitrate * self.duration), 1.0)

    @property
    def queueing_delays(self) -> np.ndarray:
        """Per-frame arbitration wait (started - queued)."""
        return self.started_at - self.queued_at

    def to_bus_records(self) -> "list[BusRecord]":
        """Materialise event-engine records (A/B comparisons, debugging)."""
        from repro.can.bus import BusRecord
        from repro.can.frame import CANFrame

        capture = self.capture
        corrupted = self.corrupted_mask
        retries = self.retry_counts
        bus_off = self.bus_off_mask
        records = []
        for k in range(len(capture)):
            dlc = int(capture.dlcs[k])
            records.append(
                BusRecord(
                    timestamp=float(capture.timestamps[k]),
                    frame=CANFrame(int(capture.can_ids[k]), capture.payloads[k, :dlc].tobytes()),
                    label="T" if capture.labels[k] else "R",
                    source=str(self.sources[k]),
                    queued_at=float(self.queued_at[k]),
                    started_at=float(self.started_at[k]),
                    corrupted=bool(corrupted[k]),
                    retries=int(retries[k]),
                    bus_off=bool(bus_off[k]),
                )
            )
        return records


def simulate_arbitration(
    schedule: ScheduleArray,
    bitrate: float,
    duration: float,
    faults: "WireFaultModel | None" = None,
) -> ArbitrationResult:
    """Replay CSMA/CR priority arbitration over a merged schedule.

    ``schedule`` must be release-sorted (ties in the attach/emission
    order the event engine uses — :func:`build_schedule` guarantees
    both).  The sweep partitions the timeline with a precomputed
    *independence chain* (``release[k+1] >= release[k] + duration[k]``,
    the same single IEEE comparison the event loop would make): maximal
    uncontended runs are emitted vectorised, and only genuinely
    contended busy periods run the heap loop — over primitive tuples,
    with every float operation identical to ``BusSimulator.run``, so
    winners, timestamps and horizon drops are bit-exact, not merely
    close.

    ``faults`` enables the wire-fault layer (:mod:`repro.can.faults`),
    bit-exact against ``BusSimulator.run(..., faults=)``: the shared
    :class:`~repro.can.faults.FaultPlan` decides corruptions before the
    sweep, clean uncontended stretches stay vectorised, and faulted or
    silenced rows drop to the heap loop.
    """
    if duration <= 0:
        raise CANError(f"duration must be positive, got {duration}")
    if bitrate <= 0:
        raise CANError(f"bitrate must be positive, got {bitrate}")
    if faults is not None:
        return _simulate_arbitration_faulted(schedule, bitrate, duration, faults)
    from repro.can.log import CaptureArray

    n = len(schedule)
    releases = schedule.release_times
    if n == 0:
        return ArbitrationResult(
            capture=CaptureArray(
                timestamps=np.zeros(0, dtype=np.float64),
                can_ids=np.zeros(0, dtype=np.int64),
                dlcs=np.zeros(0, dtype=np.int64),
                payloads=np.zeros((0, _PAYLOAD_SLOTS), dtype=np.uint8),
                labels=np.zeros(0, dtype=np.int64),
            ),
            sources=schedule.sources,
            queued_at=np.zeros(0, dtype=np.float64),
            started_at=np.zeros(0, dtype=np.float64),
            wire_bits=np.zeros(0, dtype=np.int64),
            schedule_indices=np.zeros(0, dtype=np.int64),
            bitrate=float(bitrate),
            duration=float(duration),
        )
    if np.any(np.diff(releases) < 0):
        raise CANError("simulate_arbitration needs a release-sorted schedule")

    wire_bits = schedule.resolved_wire_bits()
    durations = wire_bits / float(bitrate)
    #: completion time if frame k transmits the instant it is released
    solo_ends = releases + durations
    # chain[k]: frame k+1 releases at or after frame k's solo completion
    # — the exact comparison deciding whether the bus goes idle between
    # them.  chain[k] true for a frame that starts fresh means it is a
    # singleton busy period, resolvable without arbitration.
    chain = np.empty(n, dtype=bool)
    if n > 1:
        chain[:-1] = releases[1:] >= solo_ends[:-1]
    chain[-1] = True
    contended = np.flatnonzero(~chain)

    out_index = np.empty(n, dtype=np.int64)
    out_start = np.empty(n, dtype=np.float64)
    out_end = np.empty(n, dtype=np.float64)
    count = 0

    # Primitive views for the scalar busy-period loop (built lazily).
    releases_list: list[float] | None = None
    durations_list: list[float] | None = None
    ids_list: list[int] | None = None
    chain_list: list[bool] | None = None

    i = 0
    free = 0.0
    while i < n:
        if releases[i] >= free and chain[i]:
            # Vectorised run of singleton busy periods: every frame up
            # to the next contention point starts at its release and
            # completes solo (start = release, end = release + duration
            # — the identical operations the event loop performs).
            position = np.searchsorted(contended, i)
            j = int(contended[position]) if position < contended.size else n
            run = j - i
            out_index[count : count + run] = np.arange(i, j, dtype=np.int64)
            out_start[count : count + run] = releases[i:j]
            out_end[count : count + run] = solo_ends[i:j]
            count += run
            free = float(solo_ends[j - 1])
            i = j
            continue
        # Contended stretch: exact event-loop replay over primitives.
        if releases_list is None:
            releases_list = releases.tolist()
            durations_list = durations.tolist()
            ids_list = schedule.can_ids.tolist()
            chain_list = chain.tolist()
        assert durations_list is not None
        assert ids_list is not None
        assert chain_list is not None
        pending: list[tuple[int, int]] = []
        run_queue: deque[int] = deque()
        block_index: list[int] = []
        block_start: list[float] = []
        block_end: list[float] = []
        while True:
            if not pending:
                if i >= n or (releases_list[i] >= free and chain_list[i]):
                    break  # bus idle again and the next frame is a singleton
                next_release = releases_list[i]
                candidate = next_release if next_release > free else free
            else:
                root_release = releases_list[pending[0][1]]
                candidate = root_release if root_release > free else free
            # Everyone released by the idle point joins arbitration;
            # (can_id, index) orders exactly like the event engine's
            # (can_id, release_time, sequence) because admission is in
            # release-sorted order.
            while i < n and releases_list[i] <= candidate:
                heapq.heappush(pending, (ids_list[i], i))
                i += 1
            m, winner = heapq.heappop(pending)
            release = releases_list[winner]
            start = release if release > free else free
            end = start + durations_list[winner]
            block_index.append(winner)
            block_start.append(start)
            block_end.append(end)
            free = end
            # Batched same-priority run: while the winning identifier
            # keeps winning, serve its frames back-to-back without the
            # per-frame heap churn and candidate recomputation.  Two
            # invariants make this bit-exact with the plain loop above:
            # every heap entry's release is <= free (so candidate would
            # equal free), and an admitted frame's start is therefore
            # exactly free.  Same-id frames already in the heap carry
            # smaller schedule indices than anything admitted here, so
            # popping them before the run queue preserves (id, index)
            # order.  Breaking out at any point leaves (emitted, heap,
            # i, free) in a state the plain loop reaches too.
            while True:
                if (
                    not run_queue
                    and (not pending or pending[0][0] > m)
                    and i < n
                    and ids_list[i] == m
                    and releases_list[i] <= free
                ):
                    # Contiguous stretch of schedule rows all carrying id
                    # m: resolve the saturated prefix in one vectorised
                    # slice.  np.add.accumulate is sequential, so the
                    # back-to-back completions are the identical IEEE
                    # additions the scalar loop would perform.
                    j = i + 1
                    while j < n and ids_list[j] == m:
                        j += 1
                    if j - i >= 8:
                        limit = releases_list[j] if j < n else float("inf")
                        ends = np.add.accumulate(
                            np.concatenate(
                                (np.array([free], dtype=np.float64), durations[i:j])
                            )
                        )[1:]
                        begins = np.concatenate(
                            (np.array([free], dtype=np.float64), ends[:-1])
                        )
                        # Serve while each frame is released by its start
                        # and nothing outside the run would join
                        # arbitration first.
                        ok = (releases[i:j] <= begins) & (begins < limit)
                        served = j - i if bool(ok.all()) else int(np.argmin(ok))
                        if served:
                            block_index.extend(range(i, i + served))
                            block_start.extend(begins[:served].tolist())
                            block_end.extend(ends[:served].tolist())
                            free = float(ends[served - 1])
                            i += served
                            continue
                while i < n and releases_list[i] <= free:
                    cid = ids_list[i]
                    if cid == m:
                        run_queue.append(i)
                    else:
                        heapq.heappush(pending, (cid, i))
                    i += 1
                if pending and pending[0][0] <= m:
                    if pending[0][0] < m:
                        break  # a higher-priority id preempts the run
                    _, nxt = heapq.heappop(pending)
                elif run_queue:
                    nxt = run_queue.popleft()
                else:
                    break  # nothing released that id m outranks
                block_index.append(nxt)
                block_start.append(free)
                end = free + durations_list[nxt]
                block_end.append(end)
                free = end
            while run_queue:  # unserved run frames rejoin arbitration
                heapq.heappush(pending, (m, run_queue.popleft()))
        emitted = len(block_index)
        out_index[count : count + emitted] = block_index
        out_start[count : count + emitted] = block_start
        out_end[count : count + emitted] = block_end
        count += emitted

    # Horizon drop: completions are non-decreasing in service order, so
    # the event engine's break at the first over-horizon frame equals a
    # prefix cut here — frames in flight at the horizon never complete.
    kept = int(np.searchsorted(out_end[:count], duration, side="right"))
    survivors = out_index[:kept]
    capture = CaptureArray(
        timestamps=out_end[:kept].copy(),
        can_ids=schedule.can_ids[survivors],
        dlcs=schedule.dlcs[survivors],
        payloads=schedule.payloads[survivors],
        labels=schedule.labels[survivors],
    )
    return ArbitrationResult(
        capture=capture,
        sources=schedule.sources[survivors],
        queued_at=schedule.release_times[survivors],
        started_at=out_start[:kept].copy(),
        wire_bits=wire_bits[survivors],
        schedule_indices=survivors.copy(),
        bitrate=float(bitrate),
        duration=float(duration),
    )


def _simulate_arbitration_faulted(
    schedule: ScheduleArray,
    bitrate: float,
    duration: float,
    faults: "WireFaultModel",
) -> ArbitrationResult:
    """The faulted columnar sweep: error frames, retransmission, bus-off.

    The shared :class:`~repro.can.faults.FaultPlan` is resolved over the
    release-sorted columns first, so corruption draws and bus-off times
    are identical to the event engine's.  Rows the plan leaves alone
    keep the clean engine's vectorised singleton runs; rows with
    corrupted attempts — whose retransmissions re-enter arbitration at
    their error-frame completion — and rows of silenced nodes run the
    scalar heap loop, whose keys gain the entry release and a push
    sequence exactly as the faulted event loop's do.  Schedule rows may
    emit several records (one per attempt plus the final success);
    completion times stay non-decreasing, so the horizon prefix cut is
    unchanged.
    """
    from repro.can.log import CaptureArray

    n = len(schedule)
    releases = schedule.release_times
    if n == 0:
        empty = simulate_arbitration(schedule, bitrate, duration)
        return ArbitrationResult(
            capture=empty.capture,
            sources=empty.sources,
            queued_at=empty.queued_at,
            started_at=empty.started_at,
            wire_bits=empty.wire_bits,
            schedule_indices=empty.schedule_indices,
            bitrate=float(bitrate),
            duration=float(duration),
            corrupted=np.zeros(0, dtype=bool),
            retries=np.zeros(0, dtype=np.int64),
            bus_off=np.zeros(0, dtype=bool),
        )
    if np.any(np.diff(releases) < 0):
        raise CANError("simulate_arbitration needs a release-sorted schedule")

    wire_bits = schedule.resolved_wire_bits()
    durations = wire_bits / float(bitrate)
    plan = faults.plan(releases, schedule.can_ids, wire_bits, schedule.sources, bitrate)
    if plan.clean:
        # The model drew nothing over this window: the clean kernel is
        # bit-identical, so a zero-rate model costs only the plan.  The
        # resolved wire bits ride along so the length kernel runs once.
        return simulate_arbitration(
            dataclasses.replace(schedule, wire_bits=wire_bits), bitrate, duration
        )
    error_s = plan.error_s
    solo_ends = releases + durations
    chain = np.empty(n, dtype=bool)
    if n > 1:
        chain[:-1] = releases[1:] >= solo_ends[:-1]
    chain[-1] = True
    # Rows the plan touches (extra attempts, or silenced entirely) bound
    # the vectorised runs exactly like contention does.
    affected = (plan.attempts > 0) | ~plan.queued
    contended = np.flatnonzero(~chain | affected)

    capacity = n + plan.total_attempts
    out_index = np.empty(capacity, dtype=np.int64)
    out_start = np.empty(capacity, dtype=np.float64)
    out_end = np.empty(capacity, dtype=np.float64)
    out_corr = np.zeros(capacity, dtype=bool)
    out_retry = np.zeros(capacity, dtype=np.int64)
    out_boff = np.zeros(capacity, dtype=bool)
    count = 0

    # Primitive views for the scalar busy-period loop (built lazily).
    releases_list: list[float] | None = None
    durations_list: list[float] | None = None
    ids_list: list[int] | None = None
    chain_list: list[bool] | None = None
    affected_list: list[bool] | None = None
    queued_list: list[bool] | None = None
    left: list[int] | None = None
    attempts_total: list[int] | None = None
    transmit_list: list[bool] | None = None

    i = 0
    free = 0.0
    sequence = 0
    while i < n:
        if releases[i] >= free and chain[i] and not affected[i]:
            # Clean vectorised run, identical to the fault-free engine:
            # every row up to the next contended/affected index starts
            # at its release and completes solo.
            position = np.searchsorted(contended, i)
            j = int(contended[position]) if position < contended.size else n
            run = j - i
            out_index[count : count + run] = np.arange(i, j, dtype=np.int64)
            out_start[count : count + run] = releases[i:j]
            out_end[count : count + run] = solo_ends[i:j]
            count += run
            free = float(solo_ends[j - 1])
            i = j
            continue
        if releases_list is None:
            releases_list = releases.tolist()
            durations_list = durations.tolist()
            ids_list = schedule.can_ids.tolist()
            chain_list = chain.tolist()
            affected_list = affected.tolist()
            queued_list = plan.queued.tolist()
            left = plan.attempts.tolist()
            attempts_total = plan.attempts.tolist()
            transmit_list = plan.transmit.tolist()
        assert durations_list is not None
        assert ids_list is not None
        assert chain_list is not None
        assert affected_list is not None
        assert queued_list is not None
        assert left is not None
        assert attempts_total is not None
        assert transmit_list is not None
        # Faulted busy period: exact replay of the faulted event loop.
        pending: list[tuple[int, float, int, int]] = []
        block_index: list[int] = []
        block_start: list[float] = []
        block_end: list[float] = []
        block_corr: list[bool] = []
        block_retry: list[int] = []
        block_boff: list[bool] = []
        while True:
            if not pending:
                while i < n and not queued_list[i]:
                    i += 1  # bus-off node: the frame is never offered
                if i >= n or (
                    releases_list[i] >= free
                    and chain_list[i]
                    and not affected_list[i]
                ):
                    break  # bus idle again and the next row is a clean singleton
                next_release = releases_list[i]
                candidate = next_release if next_release > free else free
            else:
                root_release = pending[0][1]
                candidate = root_release if root_release > free else free
            while i < n and releases_list[i] <= candidate:
                if queued_list[i]:
                    heapq.heappush(
                        pending, (ids_list[i], releases_list[i], sequence, i)
                    )
                    sequence += 1
                i += 1
            if not pending:
                continue
            can_id, entry_release, _, winner = heapq.heappop(pending)
            start = entry_release if entry_release > free else free
            if left[winner] > 0:
                end = start + durations_list[winner] + error_s
                left[winner] -= 1
                dead = left[winner] == 0 and not transmit_list[winner]
                block_index.append(winner)
                block_start.append(start)
                block_end.append(end)
                block_corr.append(True)
                block_retry.append(attempts_total[winner] - 1 - left[winner])
                block_boff.append(dead)
                if not dead:
                    # The retransmission re-arbitrates from its error
                    # frame's completion.
                    heapq.heappush(pending, (can_id, end, sequence, winner))
                    sequence += 1
            else:
                end = start + durations_list[winner]
                block_index.append(winner)
                block_start.append(start)
                block_end.append(end)
                block_corr.append(False)
                block_retry.append(attempts_total[winner])
                block_boff.append(False)
            free = end
        emitted = len(block_index)
        out_index[count : count + emitted] = block_index
        out_start[count : count + emitted] = block_start
        out_end[count : count + emitted] = block_end
        out_corr[count : count + emitted] = block_corr
        out_retry[count : count + emitted] = block_retry
        out_boff[count : count + emitted] = block_boff
        count += emitted

    kept = int(np.searchsorted(out_end[:count], duration, side="right"))
    survivors = out_index[:kept]
    capture = CaptureArray(
        timestamps=out_end[:kept].copy(),
        can_ids=schedule.can_ids[survivors],
        dlcs=schedule.dlcs[survivors],
        payloads=schedule.payloads[survivors],
        labels=schedule.labels[survivors],
    )
    return ArbitrationResult(
        capture=capture,
        sources=schedule.sources[survivors],
        queued_at=schedule.release_times[survivors],
        started_at=out_start[:kept].copy(),
        wire_bits=wire_bits[survivors],
        schedule_indices=survivors.copy(),
        bitrate=float(bitrate),
        duration=float(duration),
        corrupted=out_corr[:kept].copy(),
        retries=out_retry[:kept].copy(),
        bus_off=out_boff[:kept].copy(),
    )
