"""Columnar bus engine: vectorised schedules and arbitration replay.

The event-driven :class:`~repro.can.bus.BusSimulator` is the *reference*
engine: per-frame generator yields, a heapq pop per frame, a CRC-15 /
bit-stuffing pass per frame, and a :class:`~repro.can.bus.BusRecord`
object per frame.  That is faithful but slow — once inference is
compiled (PR 4), campaign and gateway runs are dominated by the bus.

This module is the *compute* engine for the same physics:

* :class:`ScheduleArray` — a columnar frame schedule (release times,
  identifiers, payload bytes, labels, source names as numpy arrays).
  :func:`build_schedule` emits each run of a bus's periodic senders as
  one block through the sender bank (:func:`repro.can.node.bank_schedule`);
  other traffic sources emit one via ``frames_array(until)``, and
  sources that only implement the scalar iterator are materialised by
  :func:`schedule_from_frames` (the exotic fallback).
* :func:`standard_wire_bits` — exact CAN 2.0A wire lengths (CRC-15 +
  bit stuffing + trailer) for whole schedules at once.  Duplicate
  ``(id, dlc, payload)`` rows collapse first, so a DoS flood costs one
  CRC instead of tens of thousands; the unique rows step a byte at a
  time through a 256-entry CRC-15 table and a 9-state stuffing
  automaton (~150 numpy calls per DLC width, whatever the row count).
* :func:`simulate_arbitration` — arbitration replay as one scalar
  sweep over the release-sorted rows, on plain Python floats and ints.
  A frame alone when it starts skips the heap; contended frames go
  through a heap of ints packing ``(can_id, row)``.  Measured traffic
  has no long same-id runs to vectorise (a flood's served runs average
  ~4 frames), so the sweep has no vectorised path beside it.  Records
  are gathered into columns once, after the sweep.

**Bit-exactness.**  The kernel reproduces ``BusSimulator.run`` exactly:
same winners, same timestamps (the same IEEE operations in the same
order, not merely close), same capture-horizon drop semantics.  The
CI equivalence tests (``tests/test_fastbus.py``, with a property test
over small hand-built buses, and ``tests/test_faults.py``) hold both
engines to that contract across mixed periodic/attacker topologies,
bitrates, wire faults and horizon clipping.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
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


def _grid_count(start: float, stop: float, step: float) -> int:
    """How many of ``start + step * k`` (k = 0, 1, ...) lie strictly below ``stop``.

    The float rule of every release grid (:func:`release_grid` and the
    sender bank, :func:`repro.can.node.bank_schedule`): the closed-form
    ceiling, a guard for a ceiling that rounds low, then a trim of the
    releases whose float ``start + step * k`` reaches ``stop``.  The
    grid never decreases, so the releases below ``stop`` are a prefix.
    Bounds and step must be finite, and the step positive.
    """
    if not math.isfinite(step) or step <= 0:
        raise CANError(f"grid step must be positive and finite, got {step}")
    if not math.isfinite(start) or not math.isfinite(stop):
        raise CANError(f"grid bounds must be finite, got ({start}, {stop})")
    if stop <= start:
        return 0
    count = max(math.ceil((stop - start) / step), 0)
    while start + count * step < stop:  # float-rounding guard
        count += 1
    while count and start + step * (count - 1) >= stop:
        count -= 1
    return count


def release_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Releases ``start, start + step, ...`` strictly below ``stop``.

    Uses the closed-form grid (``start + k * step``) rather than
    repeated accumulation; :func:`_grid_count` keeps the float boundary
    exact (never a release at or past ``stop``).  Bounds and step must
    be finite.
    """
    return start + step * np.arange(_grid_count(start, stop, step), dtype=np.float64)


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

    Each run of consecutive plain :class:`~repro.can.node.PeriodicSender`
    sources (exact type) goes to one sender-bank call
    (:func:`~repro.can.node.bank_schedule`), which emits the whole run
    as one block.  Any other source (a wrapper, an attacker, a subclass)
    splits the run and emits through :func:`source_schedule`.  The
    blocks stay in attach order, so the concatenation followed by a
    stable release-time sort reproduces the reference engine's merge
    exactly (ties keep attach order).
    """
    from repro.can.node import PeriodicSender, bank_schedule

    parts: list[ScheduleArray] = []
    bank: list[PeriodicSender] = []
    # reprolint: disable=hot-path-purity -- iterates sources to split the sender bank's runs, not frames
    for source in sources:
        if type(source) is PeriodicSender:
            bank.append(source)
            continue
        if bank:
            parts.append(bank_schedule(bank, until))
            bank = []
        parts.append(source_schedule(source, until))
    if bank:
        parts.append(bank_schedule(bank, until))
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
    out_of_range = (can_ids < 0) | (can_ids > 0x7FF)
    if np.any(out_of_range):
        raise CANError(
            "standard_wire_bits models 11-bit identifiers only, "
            f"got {int(can_ids[out_of_range][0]):#x}"
        )
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


def _check_timing(bitrate: float, duration: float) -> None:
    """Reject a bitrate or capture horizon that is not positive and finite."""
    if not math.isfinite(bitrate) or bitrate <= 0:
        raise CANError(f"bitrate must be positive and finite, got {bitrate}")
    if not math.isfinite(duration) or duration <= 0:
        raise CANError(f"duration must be positive and finite, got {duration}")


def _check_releases(releases: np.ndarray) -> None:
    """The sweep needs finite release times in non-decreasing order."""
    if not np.isfinite(releases).all():
        bad = releases[~np.isfinite(releases)]
        raise CANError(f"release times must be finite, got {float(bad[0])}")
    if np.any(np.diff(releases) < 0):
        raise CANError("simulate_arbitration needs a release-sorted schedule")


def simulate_arbitration(
    schedule: ScheduleArray,
    bitrate: float,
    duration: float,
    faults: "WireFaultModel | None" = None,
) -> ArbitrationResult:
    """Replay CSMA/CR priority arbitration over a merged schedule.

    ``schedule`` must be release-sorted, ties in the attach/emission
    order the event engine uses (:func:`build_schedule` guarantees
    both).  One scalar sweep over plain floats and ints replays
    ``BusSimulator.run``: a frame alone when it starts skips the heap;
    otherwise every frame released by that instant joins a heap of ints
    packing ``(can_id, row)``, which orders like the event engine's
    ``(can_id, release, sequence)`` keys because rows enter in release
    order.  Each completion is the event loop's own float addition, so
    winners, timestamps and horizon drops are bit-exact, not merely
    close.  The sweep stops at the first completion past ``duration``,
    as the event loop does.

    ``faults`` enables the wire-fault layer (:mod:`repro.can.faults`),
    bit-exact against ``BusSimulator.run(..., faults=)``; see
    :func:`_simulate_arbitration_faulted`.
    """
    _check_timing(bitrate, duration)
    if faults is not None:
        return _simulate_arbitration_faulted(schedule, bitrate, duration, faults)
    releases = schedule.release_times
    _check_releases(releases)
    n = len(schedule)
    wire_bits = schedule.resolved_wire_bits()
    # A +inf sentinel release ends every admission scan without a bound check.
    rel = releases.tolist() + [math.inf]
    dur = (wire_bits / float(bitrate)).tolist()
    # One int per row packs (can_id, row): ints compare faster than tuples.
    shift = max(n, 1).bit_length()
    row_mask = (1 << shift) - 1
    keys = ((schedule.can_ids << shift) | np.arange(n, dtype=np.int64)).tolist()
    pending: list[int] = []
    order: list[int] = []
    ends: list[float] = []
    free = 0.0
    i = 0
    while True:
        if pending:
            # Backlog: every pending frame was released by the time the
            # bus frees, so the winner starts exactly then.  Frames
            # released meanwhile join, the last one through a single
            # heappushpop instead of a push and a pop.
            if rel[i] <= free:
                key = keys[i]
                i += 1
                while rel[i] <= free:
                    heapq.heappush(pending, key)
                    key = keys[i]
                    i += 1
                row = heapq.heappushpop(pending, key) & row_mask
            else:
                row = heapq.heappop(pending) & row_mask
            end = free + dur[row]
        elif i < n:
            release = rel[i]
            start = release if release > free else free
            row = i
            i += 1
            if rel[i] <= start:
                # Frames released by the start contend for the bus.
                heapq.heappush(pending, keys[row])
                while rel[i] <= start:
                    heapq.heappush(pending, keys[i])
                    i += 1
                row = heapq.heappop(pending) & row_mask
            end = start + dur[row]
        else:
            break
        if end > duration:
            break  # completions never decrease: nothing later fits either
        order.append(row)
        ends.append(end)
        free = end
    return _arbitration_result(schedule, wire_bits, order, ends, bitrate, duration)


def _simulate_arbitration_faulted(
    schedule: ScheduleArray,
    bitrate: float,
    duration: float,
    faults: "WireFaultModel",
) -> ArbitrationResult:
    """The faulted sweep: error frames, retransmission, bus-off.

    The shared :class:`~repro.can.faults.FaultPlan` is resolved over the
    release-sorted columns first, so corruption draws and bus-off times
    are identical to the event engine's; a plan that perturbs nothing
    hands over to the clean sweep.  Otherwise the same single sweep runs
    with the faulted event loop's additions: rows of a bus-off node are
    never offered, a corrupted attempt occupies the wire for the frame
    plus an error frame, and its retransmission re-enters arbitration at
    the error frame's end.  Heap keys stay ``(can_id, entry_release,
    sequence, row)``: a same-id frame released before that re-entry
    must still win.  A schedule row emits one record per attempt;
    completions still never decrease, so the sweep stops at the first
    one past ``duration``.
    """
    releases = schedule.release_times
    _check_releases(releases)
    wire_bits = schedule.resolved_wire_bits()
    plan = faults.plan(releases, schedule.can_ids, wire_bits, schedule.sources, bitrate)
    if plan.clean:
        # The model drew nothing over this window: the clean sweep is
        # bit-identical, so a zero-rate model costs only the plan.  The
        # resolved wire bits ride along so the length kernel runs once.
        return simulate_arbitration(
            dataclasses.replace(schedule, wire_bits=wire_bits), bitrate, duration
        )
    n = len(schedule)
    rel = releases.tolist() + [math.inf]
    dur = (wire_bits / float(bitrate)).tolist()
    ids = schedule.can_ids.tolist()
    queued = plan.queued.tolist()
    left = plan.attempts.tolist()
    attempts = plan.attempts.tolist()
    transmit = plan.transmit.tolist()
    error_s = plan.error_s
    pending: list[tuple[int, float, int, int]] = []
    order: list[int] = []
    ends: list[float] = []
    corrupted: list[bool] = []
    retries: list[int] = []
    bus_off: list[bool] = []
    free = 0.0
    i = 0
    sequence = 0
    while True:
        if pending:
            # Retransmissions re-enter when the bus frees, and fresh
            # entries were released by then: the winner starts at free.
            while rel[i] <= free:
                if queued[i]:
                    heapq.heappush(pending, (ids[i], rel[i], sequence, i))
                    sequence += 1
                i += 1
            row = heapq.heappop(pending)[3]
            start = free
        else:
            while i < n and not queued[i]:
                i += 1  # bus-off node: the frame is never offered
            if i >= n:
                break
            release = rel[i]
            start = release if release > free else free
            row = i
            i += 1
            if rel[i] <= start:
                heapq.heappush(pending, (ids[row], release, sequence, row))
                sequence += 1
                while rel[i] <= start:
                    if queued[i]:
                        heapq.heappush(pending, (ids[i], rel[i], sequence, i))
                        sequence += 1
                    i += 1
                row = heapq.heappop(pending)[3]
        if left[row]:
            end = start + dur[row] + error_s
            if end > duration:
                break
            left[row] -= 1
            dead = not left[row] and not transmit[row]
            order.append(row)
            ends.append(end)
            corrupted.append(True)
            retries.append(attempts[row] - 1 - left[row])
            bus_off.append(dead)
            if not dead:
                heapq.heappush(pending, (ids[row], end, sequence, row))
                sequence += 1
        else:
            end = start + dur[row]
            if end > duration:
                break
            order.append(row)
            ends.append(end)
            corrupted.append(False)
            retries.append(attempts[row])
            bus_off.append(False)
        free = end
    return dataclasses.replace(
        _arbitration_result(schedule, wire_bits, order, ends, bitrate, duration),
        corrupted=np.array(corrupted, dtype=bool),
        retries=np.array(retries, dtype=np.int64),
        bus_off=np.array(bus_off, dtype=bool),
    )


def _arbitration_result(
    schedule: ScheduleArray,
    wire_bits: np.ndarray,
    order: list[int],
    ends: list[float],
    bitrate: float,
    duration: float,
) -> ArbitrationResult:
    """Columns of the records a sweep served, in service order.

    Each frame started when the bus freed or at its release, whichever
    is later: ``max`` does no rounding, so rebuilding the start times
    here is exact.  ``np.maximum(a, b)`` keeps ``b`` on ties, as the
    event loop's ``max(bus_free_at, release)`` keeps its first argument.
    """
    from repro.can.log import CaptureArray

    survivors = np.array(order, dtype=np.int64)
    timestamps = np.array(ends, dtype=np.float64)
    queued_at = schedule.release_times[survivors]
    freed_at = np.zeros(survivors.size, dtype=np.float64)
    freed_at[1:] = timestamps[:-1]
    return ArbitrationResult(
        capture=CaptureArray(
            timestamps=timestamps,
            can_ids=schedule.can_ids[survivors],
            dlcs=schedule.dlcs[survivors],
            payloads=schedule.payloads[survivors],
            labels=schedule.labels[survivors],
        ),
        sources=schedule.sources[survivors],
        queued_at=queued_at,
        started_at=np.maximum(queued_at, freed_at),
        wire_bits=wire_bits[survivors],
        schedule_indices=survivors,
        bitrate=float(bitrate),
        duration=float(duration),
    )
