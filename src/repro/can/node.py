"""Traffic sources: the ECUs that populate a CAN bus.

A :class:`TrafficSource` yields :class:`ScheduledFrame` release events;
the bus simulator merges all sources and resolves arbitration.  The
periodic sender models the dominant pattern of real in-vehicle traffic:
fixed-period broadcast of sensor/actuator state with small clock jitter
and slowly evolving payloads (counters, ramping sensor readings,
constant config bytes) — the structure the Car-Hacking dataset exhibits
and the structure fuzzing attacks violate.

Sources are *columnar-first*: :meth:`PeriodicSender.frames_array`
emits a whole-horizon :class:`~repro.can.fastbus.ScheduleArray` in a
handful of numpy calls (the release grid and jitter come from one RNG
draw; payload models expose a vectorised ``batch`` hook), and the
scalar :meth:`PeriodicSender.frames` iterator is materialised from it.
Both the event-driven reference bus and the columnar arbitration
kernel therefore consume the *same* draws — equivalence between the
engines is by construction, not by coincidence of draw ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

import numpy as np

from repro.can.frame import CANFrame
from repro.errors import CANError
from repro.utils.rng import new_rng

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.can.fastbus import ScheduleArray

__all__ = [
    "ScheduledFrame",
    "TrafficSource",
    "PeriodicSender",
    "counter_payload",
    "sensor_payload",
    "constant_payload",
    "payload_batch",
]


@dataclass(frozen=True)
class ScheduledFrame:
    """A frame released for transmission at ``release_time`` seconds."""

    release_time: float
    frame: CANFrame
    label: str  # "R" (regular) or "T" (attack/injected)
    source: str  # node name, for diagnostics


class TrafficSource(Protocol):
    """Anything that can enumerate its frame releases up to a horizon."""

    def frames(self, until: float) -> Iterator[ScheduledFrame]:
        """Yield scheduled frames with ``release_time < until``, in order."""
        ...


PayloadModel = Callable[[int, np.random.Generator], bytes]

#: Vectorised payload hook: ``model.batch(sequences, rng)`` returns the
#: ``(N, dlc)`` uint8 payload block for N consecutive transmissions,
#: advancing any internal state exactly as N scalar calls would.
PayloadBatch = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def counter_payload(dlc: int = 8, counter_byte: int = 0) -> PayloadModel:
    """Payload with a wrapping message counter in one byte, zeros elsewhere.

    Many real ECUs embed an alive-counter; its regular increment is a
    strong normality signal.
    """

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


def sensor_payload(dlc: int = 8, active_bytes: int = 2, walk_step: int = 3, seed: int = 0) -> PayloadModel:
    """Random-walk sensor value in the first bytes, constants elsewhere.

    Models wheel speeds, RPM, temperatures: values drift smoothly rather
    than jumping, unlike fuzzed payloads.
    """
    state = {"value": None}

    def _ensure_state() -> None:
        if state["value"] is None:
            init_rng = new_rng(seed, "sensor-init")
            state["value"] = [int(init_rng.integers(0, 256)) for _ in range(active_bytes)]
            state["constants"] = [int(init_rng.integers(0, 256)) for _ in range(dlc - active_bytes)]

    def model(sequence: int, rng: np.random.Generator) -> bytes:
        _ensure_state()
        values = state["value"]
        for i in range(active_bytes):
            step = int(rng.integers(-walk_step, walk_step + 1))
            values[i] = int(np.clip(values[i] + step, 0, 255))
        return bytes(values) + bytes(state["constants"])

    def batch(sequences: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _ensure_state()
        n = len(sequences)
        steps = rng.integers(-walk_step, walk_step + 1, size=(n, active_bytes))
        payloads = np.empty((n, dlc), dtype=np.uint8)
        values = state["value"]
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
        payloads[:, active_bytes:] = np.array(state["constants"], dtype=np.uint8)
        return payloads

    model.batch = batch
    return model


def constant_payload(data: bytes) -> PayloadModel:
    """Fixed payload (status words, configuration echoes)."""

    def model(_sequence: int, _rng: np.random.Generator) -> bytes:
        return data

    def batch(sequences: np.ndarray, _rng: np.random.Generator) -> np.ndarray:
        row = np.frombuffer(data, dtype=np.uint8)
        return np.broadcast_to(row, (len(sequences), row.size)).copy()

    model.batch = batch
    return model


def payload_batch(
    model: PayloadModel, sequences: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``(payloads (N, 8) uint8, dlcs (N,))`` for N transmissions.

    Uses the model's vectorised ``batch`` hook when present; models
    without one (user-supplied callables) fall back to one scalar call
    per frame, preserving per-frame variable payload lengths.
    """
    batch = getattr(model, "batch", None)
    if batch is not None:
        block = np.asarray(batch(sequences, rng), dtype=np.uint8)
        padded = np.zeros((block.shape[0], 8), dtype=np.uint8)
        padded[:, : block.shape[1]] = block
        return padded, np.full(block.shape[0], block.shape[1], dtype=np.int64)
    rows = [model(int(sequence), rng) for sequence in sequences]
    dlcs = np.array([len(row) for row in rows], dtype=np.int64)
    packed = b"".join(row + bytes(8 - len(row)) for row in rows)
    payloads = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), 8).copy()
    return payloads, dlcs


class PeriodicSender:
    """An ECU broadcasting one CAN identifier at a fixed period.

    Parameters
    ----------
    can_id:
        Identifier to transmit.
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
    """

    def __init__(
        self,
        can_id: int,
        period: float,
        payload_model: PayloadModel | None = None,
        jitter: float = 0.02,
        phase: float | None = None,
        name: str | None = None,
        seed: int = 0,
    ):
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
        self._rng = new_rng(seed, f"sender-{can_id}-{period}")
        self.phase = float(self._rng.uniform(0, period)) if phase is None else phase

    def frames_array(self, until: float) -> "ScheduleArray":
        """This sender's whole-horizon schedule as columnar arrays.

        The nominal grid, the jitter draw (one RNG call for every
        release) and the payload block (the model's ``batch`` hook) are
        all vectorised; :meth:`frames` materialises the same arrays, so
        both engines see identical releases and payloads.
        """
        from repro.can import fastbus

        nominal = fastbus.release_grid(self.phase, until, self.period)
        n = nominal.size
        if n == 0:
            return fastbus.ScheduleArray.empty()
        if self.jitter:
            offsets = self._rng.uniform(-self.jitter, self.jitter, size=n) * self.period
            releases = np.maximum(nominal + offsets, 0.0)
        else:
            releases = nominal
        payloads, dlcs = payload_batch(
            self.payload_model, np.arange(n, dtype=np.int64), self._rng
        )
        return fastbus.schedule_columns(
            releases,
            can_ids=self.can_id,
            payloads=payloads,
            dlcs=dlcs,
            label=0,
            source=self.name,
        )

    def frames(self, until: float) -> Iterator[ScheduledFrame]:
        yield from self.frames_array(until).scheduled_frames()
