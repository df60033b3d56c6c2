"""CaptureArray views as the end-to-end interchange type.

Property-style pins for the zero-record data path: slicing, masking,
fancy indexing, ``concat`` and ``iter_windows`` must agree bit-exactly
with the equivalent record-list operations (timestamps, labels and
payloads included), views must share the base buffers while mask/fancy
results are independent copies, and streaming a capture through an ECU
must produce the same output as streaming its records.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.can.log import CaptureArray
from repro.datasets.features import BitFeatureEncoder
from repro.errors import DatasetError
from repro.soc.ecu import IDSEnabledECU

N = 400  # frames pinned from the session capture for the property tests


@pytest.fixture(scope="module")
def base(dos_capture):
    return dos_capture.capture[:N], dos_capture.records[:N]


class TestSliceEquivalence:
    @given(
        start=st.integers(min_value=-N - 5, max_value=N + 5),
        stop=st.integers(min_value=-N - 5, max_value=N + 5),
        step=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_slice_matches_record_slice(self, base, start, stop, step):
        capture, records = base
        sl = slice(start, stop, step)
        assert capture[sl].to_records() == records[sl]

    @given(index=st.integers(min_value=-N, max_value=N - 1))
    @settings(max_examples=40, deadline=None)
    def test_int_index_matches_record(self, base, index):
        capture, records = base
        assert capture[index].to_records() == [records[index]]

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bool_mask_matches_compress(self, base, seed):
        capture, records = base
        mask = np.random.default_rng(seed).random(N) < 0.3
        expected = [record for record, keep in zip(records, mask) if keep]
        assert capture[mask].to_records() == expected

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fancy_index_matches_take(self, base, seed):
        capture, records = base
        # Unsorted with repeats: fancy indexing is a gather, not a filter.
        index = np.random.default_rng(seed).integers(0, N, size=50)
        assert capture[index].to_records() == [records[i] for i in index]

    def test_label_mask_selects_attacks(self, base):
        capture, records = base
        attacks = capture[capture.labels == 1]
        assert attacks.to_records() == [r for r in records if r.is_attack]


class TestViewVsCopySemantics:
    def test_slices_are_zero_copy_views(self, dos_capture):
        capture = dos_capture.capture[:50]
        view = capture[10:20]
        for field in ("timestamps", "can_ids", "dlcs", "payloads", "labels"):
            assert np.shares_memory(getattr(view, field), getattr(capture, field))

    def test_mask_and_fancy_results_are_copies(self, dos_capture):
        capture = dos_capture.capture[:50]
        masked = capture[np.arange(50) % 2 == 0]
        gathered = capture[np.array([3, 1, 2])]
        for field in ("timestamps", "can_ids", "dlcs", "payloads", "labels"):
            assert not np.shares_memory(getattr(masked, field), getattr(capture, field))
            assert not np.shares_memory(getattr(gathered, field), getattr(capture, field))
        # Mutating a copy must not leak into the base capture.
        before = capture.labels.copy()
        masked.labels[:] = 99
        gathered.timestamps[:] = -1.0
        np.testing.assert_array_equal(capture.labels, before)


class TestConcat:
    def test_concat_matches_list_concat(self, base):
        capture, records = base
        parts = [capture[:100], capture[100:250], capture[250:]]
        joined = CaptureArray.concatenate(parts)
        assert joined.to_records() == records

    def test_concat_empty_rejected(self):
        with pytest.raises(DatasetError):
            CaptureArray.concatenate([])


class TestIterWindows:
    @given(window_ms=st.integers(min_value=20, max_value=800))
    @settings(max_examples=20, deadline=None)
    def test_windows_match_record_grouping(self, base, window_ms):
        capture, records = base
        window_s = window_ms / 1e3
        windows = list(capture.iter_windows(window_s))
        start = records[0].timestamp
        # Record-list reference: the same half-open edges, per window.
        count = int(np.floor((records[-1].timestamp - start) / window_s)) + 1
        edges = start + window_s * np.arange(count + 1, dtype=np.float64)
        assert len(windows) == count
        for k, window in enumerate(windows):
            expected = [r for r in records if edges[k] <= r.timestamp < edges[k + 1]]
            assert window.to_records() == expected

    def test_windows_are_exhaustive_views(self, base):
        capture, _ = base
        windows = list(capture.iter_windows(0.05))
        assert sum(len(w) for w in windows) == len(capture)
        rejoined = CaptureArray.concatenate(windows)
        np.testing.assert_array_equal(rejoined.timestamps, capture.timestamps)
        np.testing.assert_array_equal(rejoined.can_ids, capture.can_ids)
        np.testing.assert_array_equal(rejoined.labels, capture.labels)
        for window in windows:
            if len(window):
                assert np.shares_memory(window.timestamps, capture.timestamps)

    def test_origin_skips_earlier_frames(self, base):
        capture, records = base
        origin = float(capture.timestamps[len(capture) // 2])
        windows = list(capture.iter_windows(0.1, origin=origin))
        total = sum(len(w) for w in windows)
        assert total == sum(1 for r in records if r.timestamp >= origin)

    def test_empty_and_bad_window(self, base):
        capture, _ = base
        assert list(capture[:0].iter_windows(0.1)) == []
        with pytest.raises(DatasetError):
            list(capture.iter_windows(0.0))


class TestStreamSessionColumnarAB:
    """Chunked-columnar streaming == streaming the record list, end to end."""

    def test_stream_from_capture_matches_stream_from_records(self, dos_capture, dos_ip):
        window = dos_capture.capture  # longer than one classify chunk
        records = window.to_records()

        def run(source):
            ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), name="ab-ecu", seed=5)
            return ecu.process_stream(source)

        columnar_report, record_report = run(window), run(records)
        np.testing.assert_array_equal(columnar_report.predictions, record_report.predictions)
        np.testing.assert_array_equal(columnar_report.labels, record_report.labels)
        np.testing.assert_array_equal(
            columnar_report.kept_indices, record_report.kept_indices
        )
        np.testing.assert_array_equal(
            columnar_report.latency_samples, record_report.latency_samples
        )
        assert columnar_report.fifo_dropped == record_report.fifo_dropped
