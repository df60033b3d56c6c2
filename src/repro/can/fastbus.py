"""Columnar bus engine: vectorised schedules and arbitration replay.

The event-driven :meth:`~repro.can.bus.BusSimulator.run` is the
*reference* engine: a heapq pop per frame and a CRC-15 / bit-stuffing
pass per frame.  That is faithful but slow:
once inference is compiled, campaign and gateway runs are dominated by
the bus.  Both engines return the same :class:`ArbitrationResult`
columns, so callers never branch on the engine.

This module is the *compute* engine for the same physics:

* :class:`ScheduleArray` — a columnar frame schedule (release times,
  identifiers, payload bytes, labels and sender codes as numpy arrays)
  of standard CAN 2.0A data frames.  A sender is an int64 code into the
  schedule's ``source_names`` tuple, one code per name, so the fault
  plan and phase attribution compare ints, and merging schedules
  remaps small name tables instead of copying unicode columns.
  :func:`build_schedule` emits each run of a bus's periodic senders as
  one block through the sender bank
  (:func:`repro.can.node.bank_schedule`); every other traffic source
  emits its own through ``frames_array(until)``.
* :func:`standard_wire_bits` — exact CAN 2.0A wire lengths (CRC-15 +
  bit stuffing + trailer) for whole schedules at once.  Every row is
  computed: measured floods repeat too few frames for a dedup sort to
  pay (39-66% of a flooded bus's rows are unique).  Each DLC width's
  messages lie column-major as byte planes, and each byte step reads
  one plane through a 256-entry CRC-15 table, then through one packed
  table of a 9-state stuffing automaton (~120 numpy calls for 8-byte
  frames, whatever the row count).
* :func:`simulate_arbitration` — arbitration replay as one scalar
  sweep over the release-sorted rows, on plain Python floats and ints,
  after one wire-length call for the window.  A frame alone when it
  starts skips the heap; contended frames go through a heap of ints
  packing ``(can_id, row)``.  Measured traffic has no long same-id runs
  to vectorise (a flood's served runs average ~4 frames), so the sweep
  has no vectorised path beside it.  Records are gathered into columns
  once, after the sweep.  Under wire faults the sweep keeps the same
  int keys: retransmissions wait in a second, usually empty heap keyed
  ``(can_id, entry time, push order)``, and the fault columns come
  from each record's attempt number after the sweep.

**Bit-exactness.**  The kernel reproduces ``BusSimulator.run`` exactly:
same winners, same timestamps (the same IEEE operations in the same
order, not merely close), same capture-horizon drop semantics.  The
CI equivalence tests (``tests/test_fastbus.py``, with a property test
over small hand-built buses, and ``tests/test_faults.py``) compare the
two engines' results column for column across mixed periodic/attacker
topologies, bitrates, wire faults and horizon clipping.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.can.frame import _CRC15_POLY, _TRAILER_BITS
from repro.errors import CANError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (bus -> node -> fastbus)
    from repro.can.faults import FaultPlan, WireFaultModel
    from repro.can.log import CaptureArray
    from repro.can.node import TrafficSource

__all__ = [
    "ArbitrationResult",
    "ScheduleArray",
    "build_schedule",
    "release_grid",
    "schedule_columns",
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


# ---------------------------------------------------------------------------
# Columnar schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleArray:
    """A columnar frame schedule: what a traffic source will release.

    One row per scheduled standard (11-bit, non-RTR) data frame, the
    only format a :class:`~repro.can.log.CaptureArray` records.
    ``payloads`` rows are zero-padded to eight bytes (``dlcs`` keeps
    the true lengths); ``labels`` uses the capture convention (1 =
    attack/tampered ``"T"``, 0 = regular ``"R"``); ``sources`` carries
    the emitting node for phase attribution as an int64 code into
    ``source_names``, which names each code once (a table may name a
    sender that emits no row here).  Wire lengths are not a column:
    :func:`simulate_arbitration` computes them once per window with
    :func:`standard_wire_bits`.
    """

    release_times: np.ndarray  #: (N,) float64 release instants
    can_ids: np.ndarray  #: (N,) int64 identifiers
    dlcs: np.ndarray  #: (N,) int64 true payload lengths
    payloads: np.ndarray  #: (N, 8) uint8 zero-padded payload bytes
    labels: np.ndarray  #: (N,) int64, 1 for attack ("T") frames
    sources: np.ndarray  #: (N,) int64 codes into ``source_names``
    source_names: tuple[str, ...]  #: the sender name of each code

    def __post_init__(self) -> None:
        n = self.release_times.shape[0]
        # reprolint: disable=hot-path-purity -- iterates field names for shape validation, not frames
        for name in ("can_ids", "dlcs", "labels", "sources"):
            if getattr(self, name).shape != (n,):
                raise CANError(f"ScheduleArray field {name} must have shape ({n},)")
        if self.sources.dtype != np.int64:
            raise CANError(
                f"ScheduleArray sources must be int64 codes into source_names, "
                f"got {self.sources.dtype}"
            )
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
            sources=np.zeros(0, dtype=np.int64),
            source_names=(),
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
            source_names=self.source_names,
        )

    @classmethod
    def concatenate(cls, parts: Sequence["ScheduleArray"]) -> "ScheduleArray":
        """Stack schedules (source attach order — ties stay stable).

        Sender tables merge by name, in order of first appearance, and
        each part's codes are remapped into the merged table.
        """
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        names = tuple(dict.fromkeys(name for p in parts for name in p.source_names))
        code_of = {name: code for code, name in enumerate(names)}
        remaps = [
            np.array([code_of[name] for name in p.source_names], dtype=np.int64)
            for p in parts
        ]
        return cls(
            release_times=np.concatenate([p.release_times for p in parts]),
            can_ids=np.concatenate([p.can_ids for p in parts]),
            dlcs=np.concatenate([p.dlcs for p in parts]),
            payloads=np.concatenate([p.payloads for p in parts], axis=0),
            labels=np.concatenate([p.labels for p in parts]),
            sources=np.concatenate([remap[p.sources] for remap, p in zip(remaps, parts)]),
            source_names=names,
        )

    def sorted_by_release(self) -> "ScheduleArray":
        """Stable sort by release time (= the event engine's merge order)."""
        return self.take(np.argsort(self.release_times, kind="stable"))


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
        sources=np.zeros(n, dtype=np.int64),
        source_names=(source,),
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


def build_schedule(sources: "Sequence[TrafficSource]", until: float) -> ScheduleArray:
    """Merge every source's schedule, sorted as the event engine sorts.

    Each run of consecutive plain :class:`~repro.can.node.PeriodicSender`
    sources (exact type) goes to one sender-bank call
    (:func:`~repro.can.node.bank_schedule`), which emits the whole run
    as one block.  Any other source (a wrapper, an attacker, a subclass)
    splits the run and emits through its own ``frames_array``, part of
    the :class:`~repro.can.node.TrafficSource` contract.  The blocks
    stay in attach order, so the concatenation followed by a stable
    release-time sort reproduces the reference engine's merge exactly
    (ties keep attach order).
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
        parts.append(source.frames_array(until))
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
    The register stays below 2**15, so uint16 holds it; the mask drops
    the bits the 8-bit shift carries past bit 14 (or out of the word).
    """
    table = np.zeros(256, dtype=np.uint16)
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


def _packed_stuff_tables() -> tuple[np.ndarray, np.ndarray]:
    """One byte step of the stuffing automaton as one uint8 lookup.

    ``step[state * 256 + byte]`` packs ``next_state * 8 + stuff_bits``;
    ``tail[state * 4 + bits]`` is the final 2-bit tail's stuff count.
    """
    next_state, stuff_count, tail_count = _stuff_tables()
    # A byte carries at most two stuff bits; the packing needs under eight.
    assert int(stuff_count.max()) < 8
    return (next_state * 8 + stuff_count).astype(np.uint8), tail_count.astype(np.uint8)


_CRC15_TABLE = _crc15_byte_table()
_STUFF_STEP, _STUFF_TAIL = _packed_stuff_tables()


def _wire_bits_for_width(can_ids: np.ndarray, payloads: np.ndarray, width: int) -> np.ndarray:
    """Exact wire bits for frames that all carry ``width`` payload bytes.

    Lays the messages out column-major: row ``k`` of ``planes`` holds
    byte ``k`` of every message, so each table step reads one contiguous
    plane.  Left-padding the 19 header bits (SOF, id, RTR/IDE/r0, DLC)
    with 5 zero bits, which a zero-initialised CRC ignores, makes header
    plus payload ``3 + width`` whole bytes for the CRC.  Without the pad
    and followed by the CRC, the same bits are the stuffed region (SOF
    .. CRC, ``34 + 8 * width`` bits): ``4 + width`` whole bytes for the
    stuffing automaton, then a 2-bit tail.  Payload bytes past
    ``width`` are never read.
    """
    m = can_ids.shape[0]
    # Padded header, payload, CRC (15 bits + 1 pad bit), zero byte.
    planes = np.empty((width + 6, m), dtype=np.uint8)
    planes[0] = can_ids >> 9  # 5 pad bits, SOF, id[10:9]
    planes[1] = (can_ids >> 1) & 0xFF  # id[8:1]
    planes[2] = ((can_ids & 1) << 7) | width  # id[0], RTR/IDE/r0 = 0, DLC
    planes[3 : 3 + width] = payloads[:, :width].T
    crc = np.zeros(m, dtype=np.uint16)
    index = np.empty(m, dtype=np.uint16)
    # reprolint: disable=hot-path-purity -- per-byte-plane CRC table steps, O(frame bytes) not O(frames)
    for plane in planes[: 3 + width]:
        np.right_shift(crc, 7, out=index)
        index ^= plane
        crc <<= 8
        crc &= 0x7FFF
        crc ^= _CRC15_TABLE.take(index)
    planes[3 + width] = crc >> 7
    planes[4 + width] = (crc << 1) & 0xFF
    planes[5 + width] = 0
    # Drop the 5 pad bits: stream[k] holds stuffed-region bits 8k..8k+7.
    stream = ((planes[:-1] & 0x07) << 5) | (planes[1:] >> 3)
    # steps[k] is the packed (next_state, stuff_bits) after stream byte k;
    # the automaton starts in state 0, so the first index is the byte.
    steps = np.empty((4 + width, m), dtype=np.uint8)
    _STUFF_STEP.take(stream[0], out=steps[0])
    # reprolint: disable=hot-path-purity -- per-byte-plane stuffing automaton, O(frame bytes) not O(frames)
    for column in range(1, 4 + width):
        np.right_shift(steps[column - 1], 3, out=index, dtype=np.uint16)
        index <<= 8
        index |= stream[column]
        _STUFF_STEP.take(index, out=steps[column])
    stuffed = (steps & 7).sum(axis=0, dtype=np.int64)
    stuffed += _STUFF_TAIL[(steps[-1] >> 3) * 4 + (stream[4 + width] >> 6)]
    return stuffed + (_HEADER_BITS + 8 * width + _CRC_BITS + _TRAILER_BITS)


def _check_wire_columns(can_ids: np.ndarray, dlcs: np.ndarray, payloads: np.ndarray) -> None:
    """Reject id, DLC and payload columns that do not line up row for row."""
    n = can_ids.shape[0] if can_ids.ndim == 1 else -1
    if dlcs.shape != (n,) or payloads.shape != (n, _PAYLOAD_SLOTS):
        raise CANError(
            f"standard_wire_bits needs can_ids (N,), dlcs (N,) and payloads "
            f"(N, {_PAYLOAD_SLOTS}); got {can_ids.shape}, {dlcs.shape} and {payloads.shape}"
        )


def standard_wire_bits(
    can_ids: np.ndarray, dlcs: np.ndarray, payloads: np.ndarray
) -> np.ndarray:
    """Stuffed wire bits (incl. trailer) of standard data frames, batched.

    Bit-exact against ``CANFrame(id, data).bit_length()`` for every
    standard (11-bit, non-RTR) data frame.  Every row is computed, one
    DLC width at a time (a batch of one width runs as one group);
    payload bytes past a row's DLC are ignored.  Columns that do not
    line up (``payloads`` not ``(N, 8)``), identifiers beyond 11 bits
    and DLCs outside 0-8 raise :class:`CANError`.
    """
    can_ids = np.asarray(can_ids, dtype=np.int64)
    dlcs = np.asarray(dlcs, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.uint8)
    _check_wire_columns(can_ids, dlcs, payloads)
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
    first = int(dlcs[0])
    if not np.any(dlcs != first):
        return _wire_bits_for_width(can_ids, payloads, first)
    out = np.empty(n, dtype=np.int64)
    # reprolint: disable=hot-path-purity -- loops over the <=9 distinct DLC widths, not frames
    for width in np.flatnonzero(np.bincount(dlcs)).tolist():
        group = np.flatnonzero(dlcs == width)
        out[group] = _wire_bits_for_width(can_ids[group], payloads[group], width)
    return out


# ---------------------------------------------------------------------------
# Arbitration replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArbitrationResult:
    """Everything one simulated capture window produced, in columns.

    The one result of both bus engines:
    :meth:`~repro.can.bus.BusSimulator.capture` (this module's sweep)
    and the event-driven reference
    :meth:`~repro.can.bus.BusSimulator.run` fill the same columns.
    ``capture`` timestamps are reception-complete times (what a CAN
    controller timestamps); ``queued_at`` and ``started_at`` carry the
    release and arbitration-win instants, ``sources`` the emitting node
    per surviving frame (an int64 code into ``source_names``, the
    schedule's sender table), ``wire_bits`` the exact occupancy used for
    bus-load accounting, and ``schedule_indices`` each survivor's row
    in the merged, release-sorted schedule.  Both engines merge the
    sources' schedules in attach order, so their sender codes and
    tables match too.

    Faulted runs (``faults=`` on either engine) add the
    wire-fault attribution columns: ``corrupted`` flags records that
    are corrupted attempts (one capture row per attempt — schedule rows
    may repeat), ``retries`` counts a record's earlier attempts, and
    ``bus_off`` marks the attempt that silenced its sender.  They stay
    ``None`` on the clean path (use the ``*_mask``/``retry_counts``
    accessors for a uniform view).
    """

    capture: "CaptureArray"
    sources: np.ndarray
    source_names: tuple[str, ...]
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
    as the event loop does.  Wire lengths come from one
    :func:`standard_wire_bits` call per window.

    ``faults`` enables the wire-fault layer (:mod:`repro.can.faults`),
    bit-exact against ``BusSimulator.run(..., faults=)``.  The shared
    :class:`~repro.can.faults.FaultPlan` is resolved over the
    release-sorted schedule first, so corruption draws and bus-off times
    are identical to the event engine's; a plan that perturbs nothing
    hands the wire lengths it was resolved over to the clean sweep, so
    a zero-rate model costs only the plan.  Otherwise
    :func:`_sweep_faulted` runs.
    """
    _check_timing(bitrate, duration)
    _check_releases(schedule.release_times)
    wire_bits = standard_wire_bits(schedule.can_ids, schedule.dlcs, schedule.payloads)
    if faults is not None:
        plan = faults.plan(schedule, wire_bits, bitrate)
        if not plan.clean:
            return _sweep_faulted(schedule, wire_bits, plan, bitrate, duration)
    return _sweep_clean(schedule, wire_bits, bitrate, duration)


def _sweep_clean(
    schedule: ScheduleArray, wire_bits: np.ndarray, bitrate: float, duration: float
) -> ArbitrationResult:
    """The clean sweep of :func:`simulate_arbitration`."""
    n = len(schedule)
    # A +inf sentinel release ends every admission scan without a bound check.
    rel = schedule.release_times.tolist() + [math.inf]
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


def _sweep_faulted(
    schedule: ScheduleArray,
    wire_bits: np.ndarray,
    plan: "FaultPlan",
    bitrate: float,
    duration: float,
) -> ArbitrationResult:
    """The faulted sweep: error frames, retransmission, bus-off.

    :func:`_sweep_clean` over the rows ``plan`` queues (a bus-off
    node's rows are dropped before the sweep), with the same packed
    ``(can_id << shift) | row`` keys and ``heappushpop`` fast path.  A
    corrupted attempt occupies the wire for the frame plus an error
    frame, and its retransmission re-enters arbitration at the error
    frame's end.  Retransmissions wait in a second heap keyed
    ``(can_id, entry time, push order, row)``, read only while it is
    non-empty: a fresh frame beats the waiting retransmission when its
    ``(can_id, release)`` is lower, as in the event engine's single
    heap of ``(can_id, entry_release, sequence, row)`` keys.  On a tie
    the retransmission wins: the fresh frame was released after the
    corrupted attempt began, so the event engine pushed it later.

    The sweep records each attempt's row and completion; a row's k-th
    record is its attempt k, so ``corrupted``, ``retries`` and
    ``bus_off`` follow from the plan after the sweep.  Completions
    still never decrease, so the sweep stops at the first one past
    ``duration``.
    """
    live = np.flatnonzero(plan.queued)
    n = int(live.size)
    rel = schedule.release_times[live].tolist() + [math.inf]
    dur = (wire_bits[live] / float(bitrate)).tolist()
    shift = max(n, 1).bit_length()
    row_mask = (1 << shift) - 1
    keys = ((schedule.can_ids[live] << shift) | np.arange(n, dtype=np.int64)).tolist()
    planned = plan.attempts[live]
    left = planned.tolist()
    transmit = plan.transmit[live]
    error_s = plan.error_s
    pending: list[int] = []
    resend: list[tuple[int, float, int, int]] = []
    order: list[int] = []
    ends: list[float] = []
    free = 0.0
    i = 0
    pushes = 0
    while True:
        if resend:
            # A retransmission waits (it entered when the bus freed), so
            # the winner starts at free; fresh frames released by then join.
            while rel[i] <= free:
                heapq.heappush(pending, keys[i])
                i += 1
            can_id, entry, _, row = resend[0]
            if pending and (pending[0] >> shift, rel[pending[0] & row_mask]) < (can_id, entry):
                row = heapq.heappop(pending) & row_mask
            else:
                heapq.heappop(resend)
            end = free + dur[row]
        elif pending:
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
                heapq.heappush(pending, keys[row])
                while rel[i] <= start:
                    heapq.heappush(pending, keys[i])
                    i += 1
                row = heapq.heappop(pending) & row_mask
            end = start + dur[row]
        else:
            break
        if left[row]:
            end += error_s
            if end > duration:
                break
            left[row] -= 1
            if left[row] or transmit[row]:
                heapq.heappush(resend, (keys[row] >> shift, end, pushes, row))
                pushes += 1
        elif end > duration:
            break  # completions never decrease: nothing later fits either
        order.append(row)
        ends.append(end)
        free = end
    served = np.array(order, dtype=np.int64)
    budget = planned[served]
    # Only a row with corrupted attempts is served more than once.
    attempt = np.zeros(served.size, dtype=np.int64)
    retried = np.flatnonzero(budget)
    attempt[retried] = _occurrence_rank(served[retried])
    corrupted = attempt < budget
    return _arbitration_result(
        schedule,
        wire_bits,
        live[served],
        ends,
        bitrate,
        duration,
        corrupted=corrupted,
        retries=attempt,
        bus_off=corrupted & (attempt == budget - 1) & ~transmit[served],
    )


def _occurrence_rank(values: np.ndarray) -> np.ndarray:
    """How many earlier entries of ``values`` equal each entry."""
    by_value = np.argsort(values, kind="stable")
    grouped = values[by_value]
    position = np.arange(values.size, dtype=np.int64)
    first = np.zeros(values.size, dtype=np.int64)
    first[1:] = np.where(grouped[1:] != grouped[:-1], position[1:], 0)
    np.maximum.accumulate(first, out=first)
    rank = np.empty(values.size, dtype=np.int64)
    rank[by_value] = position - first
    return rank


def _arbitration_result(
    schedule: ScheduleArray,
    wire_bits: np.ndarray,
    order: "list[int] | np.ndarray",
    ends: list[float],
    bitrate: float,
    duration: float,
    corrupted: np.ndarray | None = None,
    retries: np.ndarray | None = None,
    bus_off: np.ndarray | None = None,
) -> ArbitrationResult:
    """Columns of the records a sweep served, in service order.

    Each frame started when the bus freed or at its release, whichever
    is later: ``max`` does no rounding, so rebuilding the start times
    here is exact.  ``np.maximum(a, b)`` keeps ``b`` on ties, as the
    event loop's ``max(bus_free_at, release)`` keeps its first argument.
    The faulted sweep passes its ``corrupted``/``retries``/``bus_off``
    columns.
    """
    from repro.can.log import CaptureArray

    survivors = np.asarray(order, dtype=np.int64)
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
        source_names=schedule.source_names,
        queued_at=queued_at,
        started_at=np.maximum(queued_at, freed_at),
        wire_bits=wire_bits[survivors],
        schedule_indices=survivors,
        bitrate=float(bitrate),
        duration=float(duration),
        corrupted=corrupted,
        retries=retries,
        bus_off=bus_off,
    )
