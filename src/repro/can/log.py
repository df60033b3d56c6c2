"""Car-Hacking-dataset-compatible capture records and CSV I/O.

The public Car-Hacking dataset (Song, Woo & Kim 2020) ships CSV files
with rows of the form::

    Timestamp, ID (hex), DLC, DATA0, ..., DATA[DLC-1], Flag

where ``Flag`` is ``R`` for regular traffic and ``T`` for injected
frames.  This module reads and writes that exact schema, so the
synthetic captures produced by :mod:`repro.datasets.carhacking` and the
real dataset files are interchangeable everywhere in the library.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence, cast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.can.fastbus import ArbitrationResult

import numpy as np

from repro.can.frame import CANFrame
from repro.errors import DatasetError

__all__ = [
    "CANLogRecord",
    "CaptureArray",
    "read_car_hacking_csv",
    "write_car_hacking_csv",
]

LABEL_NORMAL = "R"
LABEL_ATTACK = "T"

#: Payload slots per frame in the columnar layout (classic CAN maximum).
MAX_PAYLOAD_BYTES = 8


@dataclass(frozen=True)
class CANLogRecord:
    """One captured frame: what an IDS sees at the CAN interface."""

    timestamp: float
    can_id: int
    dlc: int
    data: bytes
    label: str

    def __post_init__(self) -> None:
        if self.label not in (LABEL_NORMAL, LABEL_ATTACK):
            raise DatasetError(f"label must be 'R' or 'T', got {self.label!r}")
        if len(self.data) > MAX_PAYLOAD_BYTES:
            raise DatasetError(
                f"CAN payload is limited to {MAX_PAYLOAD_BYTES} bytes, got {len(self.data)}"
            )
        if self.dlc != len(self.data):
            raise DatasetError(f"dlc {self.dlc} != payload length {len(self.data)}")

    @property
    def is_attack(self) -> bool:
        return self.label == LABEL_ATTACK

    def to_frame(self) -> CANFrame:
        """Reconstruct the wire-level frame."""
        return CANFrame(self.can_id, self.data)


@dataclass(frozen=True)
class CaptureArray:
    """Columnar capture: one structured array per field, built once.

    The row-oriented :class:`CANLogRecord` list is the interchange
    format; this is the compute format.  Payloads are zero-padded to
    eight bytes (``dlcs`` preserves the true lengths), so encoders can
    run whole-capture numpy kernels instead of per-frame Python loops.
    """

    timestamps: np.ndarray  #: (N,) float64 reception timestamps
    can_ids: np.ndarray  #: (N,) int64 identifiers
    dlcs: np.ndarray  #: (N,) int64 true payload lengths
    payloads: np.ndarray  #: (N, 8) uint8, zero-padded payload bytes
    labels: np.ndarray  #: (N,) int64, 1 for attack ("T") frames

    def __post_init__(self) -> None:
        n = self.timestamps.shape[0]
        # reprolint: disable=hot-path-purity -- iterates field names for shape validation, not frames
        for name in ("can_ids", "dlcs", "labels"):
            if getattr(self, name).shape != (n,):
                raise DatasetError(f"CaptureArray field {name} must have shape ({n},)")
        if self.payloads.shape != (n, MAX_PAYLOAD_BYTES):
            raise DatasetError(
                f"CaptureArray payloads must have shape ({n}, {MAX_PAYLOAD_BYTES}), "
                f"got {self.payloads.shape}"
            )
        if self.payloads.dtype != np.uint8:
            raise DatasetError(f"CaptureArray payloads must be uint8, got {self.payloads.dtype}")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def __getitem__(
        self, index: int | np.integer | slice | np.ndarray
    ) -> "CaptureArray":
        """Slice / boolean-mask / fancy-index into a new CaptureArray."""
        if isinstance(index, (int, np.integer)):
            position = int(index) + len(self) if index < 0 else int(index)
            if not 0 <= position < len(self):
                raise IndexError(f"index {index} out of range for {len(self)}-frame capture")
            index = slice(position, position + 1)
        return CaptureArray(
            timestamps=self.timestamps[index],
            can_ids=self.can_ids[index],
            dlcs=self.dlcs[index],
            payloads=self.payloads[index],
            labels=self.labels[index],
        )

    @classmethod
    def coerce(
        cls, records: "CaptureArray | ArbitrationResult | Sequence[CANLogRecord]"
    ) -> "CaptureArray":
        """Pass through a CaptureArray, convert a record list.

        Also unwraps anything carrying a ``capture`` CaptureArray
        attribute — e.g. the :class:`~repro.can.fastbus.ArbitrationResult`
        both bus engines return — so simulated windows feed the
        ECU/gateway paths without a conversion step.
        """
        if isinstance(records, CaptureArray):
            return records
        inner = getattr(records, "capture", None)
        if isinstance(inner, CaptureArray):
            return inner
        return cls.from_records(cast("Sequence[CANLogRecord]", records))

    @classmethod
    def from_records(cls, records: Sequence[CANLogRecord]) -> "CaptureArray":
        """Build the columnar form in one pass over a record list."""
        n = len(records)
        timestamps = np.fromiter((r.timestamp for r in records), dtype=np.float64, count=n)
        can_ids = np.fromiter((r.can_id for r in records), dtype=np.int64, count=n)
        dlcs = np.fromiter((r.dlc for r in records), dtype=np.int64, count=n)
        padded = b"".join(r.data + bytes(MAX_PAYLOAD_BYTES - len(r.data)) for r in records)
        payloads = np.frombuffer(padded, dtype=np.uint8).reshape(n, MAX_PAYLOAD_BYTES).copy()
        labels = np.fromiter((1 if r.is_attack else 0 for r in records), dtype=np.int64, count=n)
        return cls(timestamps, can_ids, dlcs, payloads, labels)

    def to_records(self) -> list[CANLogRecord]:
        """Round-trip back to the row-oriented interchange form."""
        return [
            CANLogRecord(
                timestamp=float(self.timestamps[i]),
                can_id=int(self.can_ids[i]),
                dlc=int(self.dlcs[i]),
                data=self.payloads[i, : int(self.dlcs[i])].tobytes(),
                label=LABEL_ATTACK if self.labels[i] else LABEL_NORMAL,
            )
            for i in range(len(self))
        ]

    @classmethod
    def concatenate(cls, parts: Sequence["CaptureArray"]) -> "CaptureArray":
        """Stitch captures together (e.g. stream-chunk context carry)."""
        if not parts:
            raise DatasetError("cannot concatenate zero CaptureArrays")
        return cls(
            timestamps=np.concatenate([p.timestamps for p in parts]),
            can_ids=np.concatenate([p.can_ids for p in parts]),
            dlcs=np.concatenate([p.dlcs for p in parts]),
            payloads=np.concatenate([p.payloads for p in parts], axis=0),
            labels=np.concatenate([p.labels for p in parts]),
        )

    def iter_windows(
        self, window_s: float, origin: float | None = None
    ) -> Iterator["CaptureArray"]:
        """Yield consecutive virtual-time windows as zero-copy views.

        Window ``k`` covers ``[origin + k*window_s, origin + (k+1)*window_s)``
        with ``origin`` defaulting to the first timestamp.  Every window
        up to the one containing the last frame is yielded, including
        empty ones (the bus being silent is itself a signal to
        rate-based detectors); frames before ``origin`` are skipped.
        Each yield is a contiguous slice sharing this capture's buffers.
        """
        if window_s <= 0:
            raise DatasetError(f"window_s must be positive, got {window_s}")
        if len(self) == 0:
            return
        start = float(self.timestamps[0]) if origin is None else float(origin)
        last = float(self.timestamps[-1])
        if last < start:
            return
        count = int(np.floor((last - start) / window_s)) + 1
        edges = start + window_s * np.arange(count + 1, dtype=np.float64)
        bounds = np.searchsorted(self.timestamps, edges, side="left")
        for k in range(count):
            yield self[int(bounds[k]) : int(bounds[k + 1])]


def write_car_hacking_csv(
    records: "CaptureArray | Sequence[CANLogRecord]", path: str | Path
) -> Path:
    """Write a capture in the Car-Hacking dataset CSV schema.

    Accepts the columnar :class:`CaptureArray` directly (rows are
    formatted straight from the field arrays — no per-frame
    :class:`CANLogRecord` allocation) as well as a record list.
    """
    capture = CaptureArray.coerce(records)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    timestamps = capture.timestamps
    can_ids = capture.can_ids
    dlcs = capture.dlcs
    payloads = capture.payloads
    labels = capture.labels
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for i in range(len(capture)):
            dlc = int(dlcs[i])
            row = [f"{timestamps[i]:.6f}", f"{int(can_ids[i]):04x}", str(dlc)]
            row.extend(f"{byte:02x}" for byte in payloads[i, :dlc])
            row.append(LABEL_ATTACK if labels[i] else LABEL_NORMAL)
            writer.writerow(row)
    return path


def read_car_hacking_csv(path: str | Path, limit: int | None = None) -> list[CANLogRecord]:
    """Read a Car-Hacking-schema CSV (real dataset files drop in here).

    Handles the dataset's quirks: variable column counts (rows carry
    ``DLC`` data bytes), uppercase/lowercase hex, and optional header
    rows (skipped when the first cell is not numeric).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"capture file not found: {path}")
    records: list[CANLogRecord] = []
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for row_number, row in enumerate(reader):
            if not row:
                continue
            try:
                timestamp = float(row[0])
            except ValueError:
                if row_number == 0:
                    continue  # header row
                raise DatasetError(f"{path}:{row_number + 1}: bad timestamp {row[0]!r}")
            try:
                can_id = int(row[1], 16)
                dlc = int(row[2])
                data = bytes(int(cell, 16) for cell in row[3 : 3 + dlc])
                label = row[3 + dlc].strip()
                record = CANLogRecord(timestamp, can_id, dlc, data, label)
            except (ValueError, IndexError, DatasetError) as exc:
                raise DatasetError(f"{path}:{row_number + 1}: malformed row ({exc})")
            records.append(record)
            if limit is not None and len(records) >= limit:
                break
    return records
