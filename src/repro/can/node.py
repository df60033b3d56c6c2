"""Traffic sources: the ECUs that populate a CAN bus.

A :class:`TrafficSource` has one emission method, ``frames_array``: its
frame releases as one columnar :class:`~repro.can.fastbus.ScheduleArray`.
Both bus engines merge those columns and resolve arbitration.  The
periodic sender models the dominant pattern of real in-vehicle traffic:
fixed-period broadcast of sensor/actuator state with small clock jitter
and slowly evolving payloads (counters, ramping sensor readings,
constant config bytes) — the structure the Car-Hacking dataset exhibits
and the structure fuzzing attacks violate.

One sender bank, :func:`bank_schedule`, emits every
:class:`PeriodicSender` row: it builds the release grids of a run of
senders in one vectorised pass, and writes their payloads into one
``(N, 8)`` block through the payload models' vectorised ``batch``
hooks.  Each sender still draws its jitter and then its payloads from
its own RNG, in attach order.
:func:`~repro.can.fastbus.build_schedule` hands each run of a bus's
plain senders to one bank call; :meth:`PeriodicSender.frames_array` is
a bank of one.  The event-driven reference
(:meth:`~repro.can.bus.BusSimulator.run`) merges every source's own
``frames_array``, so the engine A/B tests hold the bank to per-sender
emission as well as the kernel to the event loop.
"""

from __future__ import annotations

import math
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.can.fastbus import (
    _PAYLOAD_SLOTS,
    ScheduleArray,
    _check_dlcs,
    _grid_count,
)
from repro.can.frame import MAX_STANDARD_ID
from repro.errors import CANError
from repro.utils.rng import new_rng

__all__ = [
    "TrafficSource",
    "PeriodicSender",
    "bank_schedule",
    "counter_payload",
    "sensor_payload",
    "constant_payload",
    "payload_batch",
    "sender_stream",
    "sensor_stream",
]


class TrafficSource(Protocol):
    """Anything that can enumerate its frame releases up to a horizon."""

    def frames_array(self, until: float) -> ScheduleArray:
        """Every release with ``release_time < until``, as columns.

        Rows are standard data frames in the source's emission order.
        """
        ...


PayloadModel = Callable[[int, np.random.Generator], bytes]


def sender_stream(seed: int, can_id: int, period: float) -> tuple[int, str]:
    """The ``(seed, name)`` stream of a :class:`PeriodicSender`'s generator."""
    return seed, f"sender-{can_id}-{period}"


def sensor_stream(seed: int) -> tuple[int, str]:
    """The ``(seed, name)`` stream of a :func:`sensor_payload`'s start values."""
    return seed, "sensor-init"


#: Vectorised payload hook: ``model.batch(sequences, rng)`` returns the
#: ``(N, dlc)`` uint8 payload block for N consecutive transmissions,
#: advancing any internal state exactly as N scalar calls would.
PayloadBatch = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def counter_payload(dlc: int = 8, counter_byte: int = 0) -> PayloadModel:
    """Payload with a wrapping message counter in one byte, zeros elsewhere.

    Many real ECUs embed an alive-counter; its regular increment is a
    strong normality signal.  Needs ``0 <= counter_byte < dlc <= 8``.
    """
    if not 0 <= counter_byte < dlc <= _PAYLOAD_SLOTS:
        raise CANError(
            f"counter_payload needs 0 <= counter_byte < dlc <= {_PAYLOAD_SLOTS}, "
            f"got counter_byte={counter_byte}, dlc={dlc}"
        )

    def model(sequence: int, _rng: np.random.Generator) -> bytes:
        payload = bytearray(dlc)
        payload[counter_byte] = sequence & 0xFF
        return bytes(payload)

    def batch(sequences: np.ndarray, _rng: np.random.Generator) -> np.ndarray:
        payloads = np.zeros((len(sequences), dlc), dtype=np.uint8)
        payloads[:, counter_byte] = (np.asarray(sequences) & 0xFF).astype(np.uint8)
        return payloads

    model.batch = batch
    return model


def sensor_payload(
    dlc: int = 8,
    active_bytes: int = 2,
    walk_step: int = 3,
    seed: int | np.random.Generator = 0,
) -> PayloadModel:
    """Random-walk sensor value in the first bytes, constants elsewhere.

    Models wheel speeds, RPM, temperatures: values drift smoothly rather
    than jumping, unlike fuzzed payloads.  Needs ``0 <= dlc <= 8``,
    ``0 <= active_bytes <= dlc`` and ``walk_step >= 0``.

    ``seed`` gives the walk's start values and the constant bytes, drawn
    here: an int seeds them from :func:`sensor_stream`, and a ready
    ``np.random.Generator`` is that stream itself (as
    ``np.random.default_rng`` takes either).  Any other seed, a
    ``bool`` included, raises :class:`~repro.errors.ConfigError`.  The
    walk's steps come from the sending ECU's generator.
    """
    if not 0 <= dlc <= _PAYLOAD_SLOTS:
        raise CANError(f"sensor_payload dlc must be in [0, {_PAYLOAD_SLOTS}], got {dlc}")
    if not 0 <= active_bytes <= dlc:
        raise CANError(
            f"sensor_payload active_bytes must be in [0, dlc={dlc}], got {active_bytes}"
        )
    if walk_step < 0:
        raise CANError(f"sensor_payload walk_step must be >= 0, got {walk_step}")
    init = seed if isinstance(seed, np.random.Generator) else new_rng(*sensor_stream(seed))
    # One draw for every byte: the walk's start values, then its
    # constants (the same stream as ``dlc`` scalar draws).
    initial = init.integers(0, 256, size=dlc).tolist()
    values = initial[:active_bytes]
    constants = np.array(initial[active_bytes:], dtype=np.uint8)

    def model(sequence: int, rng: np.random.Generator) -> bytes:
        for i in range(active_bytes):
            step = int(rng.integers(-walk_step, walk_step + 1))
            values[i] = int(np.clip(values[i] + step, 0, 255))
        return bytes(values) + constants.tobytes()

    def batch(sequences: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = len(sequences)
        steps = rng.integers(-walk_step, walk_step + 1, size=(n, active_bytes))
        payloads = np.empty((n, dlc), dtype=np.uint8)
        # The walk saturates at the byte range, so each column is a
        # clipped running sum — sequential by nature, but over plain
        # ints drawn in one RNG call it stays cheap.
        for column in range(active_bytes):
            value = values[column]
            walked = []
            for step in steps[:, column].tolist():
                value += step
                if value < 0:
                    value = 0
                elif value > 255:
                    value = 255
                walked.append(value)
            payloads[:, column] = walked
            values[column] = value
        payloads[:, active_bytes:] = constants
        return payloads

    model.batch = batch
    return model


def constant_payload(data: bytes) -> PayloadModel:
    """Fixed payload (status words, configuration echoes), at most 8 bytes."""
    if len(data) > _PAYLOAD_SLOTS:
        raise CANError(
            f"constant_payload takes at most {_PAYLOAD_SLOTS} bytes, got {len(data)}"
        )

    def model(_sequence: int, _rng: np.random.Generator) -> bytes:
        return data

    def batch(sequences: np.ndarray, _rng: np.random.Generator) -> np.ndarray:
        row = np.frombuffer(data, dtype=np.uint8)
        return np.broadcast_to(row, (len(sequences), row.size)).copy()

    model.batch = batch
    return model


def payload_batch(
    model: PayloadModel,
    sequences: np.ndarray,
    rng: np.random.Generator,
    out: np.ndarray,
) -> int | np.ndarray:
    """Write N transmissions' payloads into ``out``; return their DLCs.

    ``out`` is the zeroed ``(N, 8)`` uint8 slice the payloads go to.
    Uses the model's vectorised ``batch`` hook when present (one DLC for
    every row); models without one (user-supplied callables) fall back
    to one scalar call per frame, preserving per-frame variable payload
    lengths (an ``(N,)`` DLC array).
    """
    batch = getattr(model, "batch", None)
    if batch is not None:
        block = np.asarray(batch(sequences, rng), dtype=np.uint8)
        out[:, : block.shape[1]] = block
        return block.shape[1]
    rows = [model(int(sequence), rng) for sequence in sequences]
    packed = b"".join(row + bytes(_PAYLOAD_SLOTS - len(row)) for row in rows)
    out[:] = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), _PAYLOAD_SLOTS)
    return np.array([len(row) for row in rows], dtype=np.int64)


def bank_schedule(senders: Sequence["PeriodicSender"], until: float) -> ScheduleArray:
    """The sender bank: every row of ``senders`` up to ``until`` as one block.

    The only code that emits a :class:`PeriodicSender`'s rows.  Rows come
    out grouped by sender in the given (attach) order, each sender's in
    nominal release order; the caller sorts the merged bus schedule.

    * Row counts, and the ``phase``/``period`` checks, are
      :func:`~repro.can.fastbus.release_grid`'s; the nominal grids are
      one ``phase + period * k`` pass over repeated columns, the same
      IEEE operations as its ``start + step * arange(count)``.
    * One loop over the senders, in order, makes each one's jitter draw
      and then its payload draws from its own RNG, writing the payloads
      straight into one ``(N, 8)`` block.  A sender listed twice draws
      twice, as it would when called twice.
    * Jitter moves a release by ``u * period`` and clips it at 0.0,
      only for senders that have jitter: a jitter-free sender keeps its
      nominal grid, a negative ``phase`` included.
    """
    counts = [_grid_count(sender.phase, until, sender.period) for sender in senders]
    emitting = [(sender, n) for sender, n in zip(senders, counts) if n]
    if not emitting:
        return ScheduleArray.empty()
    rows = np.array([n for _, n in emitting], dtype=np.int64)
    total = int(rows.sum())
    firsts = np.cumsum(rows) - rows
    sequences = np.arange(total, dtype=np.int64) - np.repeat(firsts, rows)
    periods = np.repeat(np.array([s.period for s, _ in emitting], dtype=np.float64), rows)
    phases = np.repeat(np.array([s.phase for s, _ in emitting], dtype=np.float64), rows)
    nominal = phases + periods * sequences
    unit = np.zeros(total, dtype=np.float64)
    payloads = np.zeros((total, _PAYLOAD_SLOTS), dtype=np.uint8)
    dlcs = np.empty(total, dtype=np.int64)
    stop = 0
    for sender, n in emitting:
        start, stop = stop, stop + n
        if sender.jitter:
            unit[start:stop] = sender._rng.uniform(-sender.jitter, sender.jitter, size=n)
        dlcs[start:stop] = payload_batch(
            sender.payload_model, sequences[start:stop], sender._rng, payloads[start:stop]
        )
    _check_dlcs(dlcs)
    jittered = np.repeat(np.array([bool(s.jitter) for s, _ in emitting]), rows)
    names = tuple(dict.fromkeys(s.name for s, _ in emitting))
    code_of = {name: code for code, name in enumerate(names)}
    return ScheduleArray(
        release_times=np.where(jittered, np.maximum(nominal + unit * periods, 0.0), nominal),
        can_ids=np.repeat(np.array([s.can_id for s, _ in emitting], dtype=np.int64), rows),
        dlcs=dlcs,
        payloads=payloads,
        labels=np.zeros(total, dtype=np.int64),
        sources=np.repeat(np.array([code_of[s.name] for s, _ in emitting], dtype=np.int64), rows),
        source_names=names,
    )


class PeriodicSender:
    """An ECU broadcasting one CAN identifier at a fixed period.

    Parameters
    ----------
    can_id:
        Standard 11-bit identifier to transmit (0-0x7FF).
    period:
        Nominal seconds between releases (real IDs range ~10 ms-1 s).
    payload_model:
        Callable producing the payload for the n-th transmission.
    jitter:
        Uniform release jitter as a fraction of the period (scheduling
        noise of the sending ECU).
    phase:
        Release offset of the first frame; randomised from the seed when
        None so senders don't start in lockstep.
    seed:
        The sender's stream (its phase, jitter and payload draws): an
        int seeds it from :func:`sender_stream`, and a ready
        ``np.random.Generator`` is the stream itself (as
        ``np.random.default_rng`` takes either).  Any other seed, a
        ``bool`` included, raises :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self,
        can_id: int,
        period: float,
        payload_model: PayloadModel | None = None,
        jitter: float = 0.02,
        phase: float | None = None,
        name: str | None = None,
        seed: int | np.random.Generator = 0,
    ):
        if not 0 <= can_id <= MAX_STANDARD_ID:
            raise CANError(f"PeriodicSender can_id must be in [0, 0x7FF], got {can_id:#x}")
        if not math.isfinite(period) or period <= 0:
            raise CANError(f"period must be positive and finite, got {period}")
        if phase is not None and not math.isfinite(phase):
            raise CANError(f"phase must be finite, got {phase}")
        if not 0.0 <= jitter < 1.0:
            raise CANError(f"jitter fraction must be in [0, 1), got {jitter}")
        self.can_id = can_id
        self.period = period
        self.jitter = jitter
        self.payload_model = payload_model or counter_payload()
        self.name = name or f"ecu-0x{can_id:03X}"
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else new_rng(*sender_stream(seed, can_id, period))
        )
        self.phase = float(self._rng.uniform(0, period)) if phase is None else phase

    def frames_array(self, until: float) -> ScheduleArray:
        """This sender's whole-horizon schedule: a sender bank of one.

        :func:`bank_schedule` emits every sender row, so a victim that a
        suspension or masquerade wrapper reads through this method, and
        a sender the event-driven reference merges, emits exactly as a
        sender banked by :func:`~repro.can.fastbus.build_schedule`.
        """
        return bank_schedule((self,), until)
