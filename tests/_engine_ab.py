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
    kernel.  ``sources`` compare as resolved names
    (``source_names[sources]``): each engine numbers senders in the
    order it merged them.  Both engines leave the fault columns unset
    on the clean path and set them on the faulted one.
    """
    pairs = [(name, event.capture, columnar.capture) for name in CAPTURE_COLUMNS]
    pairs += [(name, event, columnar) for name in RECORD_COLUMNS]
    for name, left, right in pairs:
        a, b = getattr(left, name), getattr(right, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert event.sources.dtype == columnar.sources.dtype == np.int64
    assert sender_names(event).tolist() == sender_names(columnar).tolist()
    assert (event.bitrate, event.duration) == (columnar.bitrate, columnar.duration)
    assert (event.corrupted is None) == (columnar.corrupted is None)


def sender_names(result):
    """Each record's sender name: ``source_names[sources]``."""
    return np.array(result.source_names, dtype=str)[result.sources]
