"""The bus-engine A/B check shared by the fastbus and fault-layer tests.

``BusSimulator.run`` (the event-driven reference) and
``BusSimulator.capture`` (the columnar kernel) return the same
``ArbitrationResult`` columns; this module holds one window of each to
every column.
"""

import numpy as np

#: Capture columns, compared by dtype, shape and bytes.
CAPTURE_COLUMNS = ("timestamps", "can_ids", "dlcs", "payloads", "labels")

#: Per-record columns and fault accessors, compared the same way.
RECORD_COLUMNS = (
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
    kernel.  ``sources`` compare by value: each engine sizes the unicode
    width from the names it merged.  Both engines leave the fault
    columns unset on the clean path and set them on the faulted one.
    """
    pairs = [(name, event.capture, columnar.capture) for name in CAPTURE_COLUMNS]
    pairs += [(name, event, columnar) for name in RECORD_COLUMNS]
    for name, left, right in pairs:
        a, b = getattr(left, name), getattr(right, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert event.sources.dtype.kind == columnar.sources.dtype.kind == "U"
    np.testing.assert_array_equal(event.sources, columnar.sources)
    assert (event.bitrate, event.duration) == (columnar.bitrate, columnar.duration)
    assert (event.corrupted is None) == (columnar.corrupted is None)
