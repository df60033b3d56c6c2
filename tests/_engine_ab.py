"""The bus-engine A/B check shared by the fastbus and fault-layer tests.

``BusSimulator.run`` (the event-driven reference) and
``BusSimulator.capture`` (the columnar kernel) return the same
``ArbitrationResult`` columns; this module holds one window of each to
every column, and ``OneShot`` hand-builds a source for either engine.
"""

import numpy as np

from repro.can.fastbus import schedule_columns

#: Capture columns, compared by dtype, shape and bytes.
CAPTURE_COLUMNS = ("timestamps", "can_ids", "dlcs", "payloads", "labels")

#: Per-record columns and fault accessors, compared the same way.
RECORD_COLUMNS = (
    "sources",
    "queued_at",
    "started_at",
    "wire_bits",
    "schedule_indices",
    "corrupted_mask",
    "retry_counts",
    "bus_off_mask",
)


def assert_same_window(event, columnar):
    """Two engines' results for one window, column for column.

    The event engine's ``started_at`` comes from its own loop and its
    ``wire_bits`` from ``CANFrame.bit_length()``, so both check the
    kernel.  Both engines merge the sources in attach order, so the
    sender codes (``sources``) and tables (``source_names``) match
    outright.  Both engines leave the fault columns unset on the clean
    path and set them on the faulted one.
    """
    pairs = [(name, event.capture, columnar.capture) for name in CAPTURE_COLUMNS]
    pairs += [(name, event, columnar) for name in RECORD_COLUMNS]
    for name, left, right in pairs:
        a, b = getattr(left, name), getattr(right, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert event.sources.dtype == np.int64
    assert event.source_names == columnar.source_names
    assert (event.bitrate, event.duration) == (columnar.bitrate, columnar.duration)
    assert (event.corrupted is None) == (columnar.corrupted is None)


class OneShot:
    """A hand-built source: fixed ``(release, CANFrame)`` entries."""

    def __init__(self, entries, label="R", source="oneshot"):
        self.entries = entries
        self.label = label
        self.source = source

    def frames_array(self, until):
        kept = [(release, frame) for release, frame in self.entries if release < until]
        payloads = np.zeros((len(kept), 8), dtype=np.uint8)
        for row, (_, frame) in enumerate(kept):
            payloads[row, : frame.dlc] = np.frombuffer(frame.data, dtype=np.uint8)
        return schedule_columns(
            np.array([release for release, _ in kept], dtype=np.float64),
            np.array([frame.can_id for _, frame in kept], dtype=np.int64),
            payloads,
            label=1 if self.label == "T" else 0,
            source=self.source,
            dlcs=np.array([frame.dlc for _, frame in kept], dtype=np.int64),
        )
