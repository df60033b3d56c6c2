"""Regression tests for the vectorised streaming engine.

Pins the three contracts the streaming PR introduced:

* FIFO drop accounting reflects frames actually lost to overflow (the
  batched path drains what it fills; no phantom drops);
* ``encode_batch`` is bit-exact with the per-frame reference encoders;
* ``process_stream`` is prediction-identical to ``process_capture`` on
  drop-free traffic, and drops the oldest frames under floods.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.can.attacks import DoSAttacker
from repro.can.log import CaptureArray
from repro.datasets.carhacking import build_vehicle_bus
from repro.datasets.features import BitFeatureEncoder, ByteFeatureEncoder, WindowFeatureEncoder
from repro.errors import ConfigError, DatasetError, SoCError
from repro.fleet import ExecOptions
from repro.soc.arbiter import SharedAcceleratorArbiter
from repro.soc.ecu import CHUNK_ROWS, IDSEnabledECU, simulate_fifo_admission
from repro.soc.gateway import IDSGateway

NAN, INF = float("nan"), float("inf")


class TestCaptureArray:
    def test_round_trip(self, dos_capture):
        records = dos_capture.records[:500]
        capture = CaptureArray.from_records(records)
        assert len(capture) == 500
        assert capture.to_records() == records

    def test_slicing_and_masking(self, dos_capture):
        capture = CaptureArray.from_records(dos_capture.records[:100])
        window = capture[10:20]
        assert len(window) == 10
        assert window.to_records() == dos_capture.records[10:20]
        mask = capture.labels == 1
        attacks = capture[mask]
        assert len(attacks) == int(mask.sum())
        assert bool(np.all(attacks.labels == 1))

    def test_integer_indexing_bounds(self, dos_capture):
        capture = CaptureArray.from_records(dos_capture.records[:5])
        assert capture[2].to_records() == dos_capture.records[2:3]
        assert capture[-1].to_records() == dos_capture.records[4:5]
        with pytest.raises(IndexError):
            capture[5]
        with pytest.raises(IndexError):
            capture[-6]

    def test_concatenate(self, dos_capture):
        capture = CaptureArray.from_records(dos_capture.records[:60])
        joined = CaptureArray.concatenate([capture[:25], capture[25:]])
        assert joined.to_records() == capture.to_records()

    def test_payload_zero_padding(self, dos_capture):
        capture = CaptureArray.from_records(dos_capture.records[:200])
        for row, record in zip(capture.payloads, dos_capture.records[:200]):
            assert bytes(row[: record.dlc]) == record.data
            assert not row[record.dlc :].any()

    def test_shape_validation(self):
        with pytest.raises(DatasetError):
            CaptureArray(
                timestamps=np.zeros(3),
                can_ids=np.zeros(2, dtype=np.int64),
                dlcs=np.zeros(3, dtype=np.int64),
                payloads=np.zeros((3, 8), dtype=np.uint8),
                labels=np.zeros(3, dtype=np.int64),
            )


class TestEncodeBatchParity:
    """The vectorised kernels must be bit-exact with the per-frame path."""

    def _reference(self, encoder, records):
        return np.stack([encoder.encode_frame(r) for r in records])

    def test_bit_encoder(self, dos_capture):
        records = dos_capture.records[:800]
        encoder = BitFeatureEncoder()
        batch = encoder.encode_batch(CaptureArray.from_records(records))
        reference = self._reference(encoder, records)
        assert batch.dtype == reference.dtype
        np.testing.assert_array_equal(batch, reference)

    def test_byte_encoder(self, dos_capture):
        records = dos_capture.records[:800]
        encoder = ByteFeatureEncoder()
        batch = encoder.encode_batch(CaptureArray.from_records(records))
        np.testing.assert_array_equal(batch, self._reference(encoder, records))

    @pytest.mark.parametrize("window,interarrival", [(1, True), (4, True), (4, False), (7, True)])
    def test_window_encoder(self, dos_capture, window, interarrival):
        """Left-padding and inter-arrival features survive vectorisation."""
        records = dos_capture.records[:300]
        encoder = WindowFeatureEncoder(window=window, include_interarrival=interarrival)
        batch = encoder.encode_batch(CaptureArray.from_records(records))
        # Reference: per-frame base features + explicit window stacking.
        base = self._reference(encoder.base, records)
        if interarrival:
            times = np.array([r.timestamp for r in records])
            gaps = np.clip(np.diff(times, prepend=times[0]) / encoder.interarrival_scale, 0.0, 1.0)
            base = np.concatenate([base, gaps[:, None]], axis=1)
        count, per_frame = base.shape
        reference = np.zeros((count, window * per_frame))
        for offset in range(window):
            source = base[: count - offset] if offset else base
            reference[offset:, (window - 1 - offset) * per_frame : (window - offset) * per_frame] = source
        np.testing.assert_array_equal(batch, reference)
        # The first window rows really are left-padded with zeros.
        if window > 1:
            assert not batch[0, : (window - 1) * per_frame].any()

    def test_window_chunking_with_lookback(self, dos_capture):
        """Chunked encoding with lookback context equals whole-capture."""
        capture = CaptureArray.from_records(dos_capture.records[:500])
        encoder = WindowFeatureEncoder(window=4)
        full = encoder.encode_batch(capture)
        pieces = []
        start = 0
        while start < len(capture):
            stop = min(start + 77, len(capture))
            context = min(encoder.lookback, start)
            pieces.append(encoder.encode_batch(capture[start - context : stop])[context:])
            start = stop
        np.testing.assert_array_equal(np.concatenate(pieces), full)

    def test_encode_returns_labels(self, dos_capture):
        X, y = BitFeatureEncoder().encode(dos_capture.records[:200])
        assert X.shape == (200, 79)
        assert y.tolist() == [1 if r.is_attack else 0 for r in dos_capture.records[:200]]

    def test_empty_capture_encodes_empty(self):
        # Zero-frame captures (fully-dropped flood windows) are valid
        # input: every encoder path yields correctly-shaped empties.
        X, y = BitFeatureEncoder().encode([])
        assert X.shape == (0, 79) and y.shape == (0,)
        batch = BitFeatureEncoder().encode_batch(CaptureArray.from_records([]))
        assert batch.shape == (0, 79)


class TestFifoDropAccounting:
    """No phantom drops: the batch path drains the FIFO it fills."""

    @pytest.mark.parametrize("count", [10, 64, 100, 1000])
    def test_process_capture_drop_free(self, dos_ip, dos_capture, count):
        """Below/at/above capacity: every frame serviced, zero drops."""
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4, fifo_capacity=64)
        report = ecu.process_capture(dos_capture.records[:count])
        assert report.fifo_dropped == 0
        assert report.num_frames == count
        assert report.num_processed == count
        assert len(report.predictions) == count

    def test_metrics_cover_all_frames(self, dos_ip, dos_capture):
        """Predictions/metrics are computed over exactly the serviced frames."""
        records = dos_capture.records[:2000]
        report = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4).process_capture(records)
        assert len(report.predictions) == len(report.labels) == 2000
        assert report.metrics is not None


class TestFifoAdmission:
    def _naive(self, timestamps, service, capacity):
        """Independent reference: event-by-event drop-oldest queue.

        Returns the kept mask, the peak occupancy (just after a push)
        and each frame's wait before its service starts (0 if dropped).
        """
        kept = [True] * len(timestamps)
        waits = [0.0] * len(timestamps)
        queue, t_free, peak = [], float("-inf"), 0

        def serve_head():
            begin = max(t_free, timestamps[queue[0]])
            waits[queue[0]] = begin - timestamps[queue[0]]
            queue.pop(0)
            return begin + service

        for i, t in enumerate(timestamps):
            while queue and max(t_free, timestamps[queue[0]]) < t:
                t_free = serve_head()
            if len(queue) >= capacity:
                kept[queue.pop(0)] = False
            queue.append(i)
            peak = max(peak, len(queue))
        while queue:
            t_free = serve_head()
        return np.array(kept), peak, np.array(waits)

    def test_drop_free_when_drain_keeps_up(self):
        timestamps = np.arange(100) * 1.0
        kept, peak, waits = simulate_fifo_admission(timestamps, 0.5, 4)
        assert kept.all() and peak == 1
        assert not waits.any()  # server always idle at arrival: zero queueing

    def test_drop_oldest_under_flood(self):
        # Three simultaneous arrivals into a 2-deep FIFO: the oldest ages out.
        kept, peak, waits = simulate_fifo_admission(np.array([0.0, 0.0, 0.0, 10.0]), 1.0, 2)
        assert kept.tolist() == [False, True, True, True]
        assert peak == 2
        # Frame 1 starts at t=0, frame 2 waits one service slot, frame 3
        # finds the server idle again; dropped frames report zero wait.
        assert waits.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_backlog_queueing_delay_without_drops(self):
        # A burst of 4 simultaneous arrivals into a roomy FIFO: no drops,
        # but each frame queues one service slot behind the previous.
        kept, peak, waits = simulate_fifo_admission(np.zeros(4), 1.0, 64)
        assert kept.all() and peak == 4
        assert waits.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("capacity", [1, 2, 8, 64])
    def test_matches_naive_reference(self, rng, capacity):
        """Kept mask, peak and waits equal the reference on non-dyadic times.

        Uniform arrival times and a service of 1/250 s make the sums
        round (unlike the dyadic grid below), and against a mean gap of
        1/400 s every capacity overflows, so the drop-oldest replay
        runs: its waits must come out of the same float operations, in
        the same order, bit for bit.
        """
        timestamps = np.sort(rng.uniform(0.0, 1.0, size=400))
        service = 1.0 / 250.0  # drain slower than the 400/s offered rate
        kept, peak, waits = simulate_fifo_admission(timestamps, service, capacity)
        naive_kept, naive_peak, naive_waits = self._naive(
            timestamps.tolist(), service, capacity
        )
        assert not kept.all()
        np.testing.assert_array_equal(kept, naive_kept)
        assert peak == naive_peak
        assert waits.tobytes() == naive_waits.tobytes()

    @given(
        gaps=st.lists(st.integers(min_value=0, max_value=8), min_size=8, max_size=80),
        service_ticks=st.integers(min_value=1, max_value=10),
        capacity=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_naive_reference(self, gaps, service_ticks, capacity):
        """Kept mask, peak occupancy and waits all equal the reference.

        Times sit on a dyadic grid (multiples of 1/64 s), so every sum
        either side computes is exact and waits compare bit for bit.
        Zero gaps make exact ties; a service time above or below the
        4-tick mean gap reaches the overflow replay or the drop-free
        vectorised path.
        """
        tick = 1.0 / 64
        timestamps = np.cumsum(gaps) * tick
        service = service_ticks * tick
        kept, peak, waits = simulate_fifo_admission(timestamps, service, capacity)
        naive_kept, naive_peak, naive_waits = self._naive(
            timestamps.tolist(), service, capacity
        )
        np.testing.assert_array_equal(kept, naive_kept)
        assert peak == naive_peak
        np.testing.assert_array_equal(waits, naive_waits)

    def test_unsorted_timestamps_rejected(self):
        with pytest.raises(SoCError):
            simulate_fifo_admission(np.array([1.0, 0.5]), 0.1, 4)

    def test_service_time_validated(self):
        with pytest.raises(SoCError):
            simulate_fifo_admission(np.array([0.0]), 0.0, 4)

    @pytest.mark.parametrize("capacity", [2.5, 3.0, True, np.float64(4.0), "4"])
    def test_non_integer_depth_rejected(self, dos_ip, capacity):
        named = re.escape(repr(capacity))
        with pytest.raises(SoCError, match=f"integer, got {named}"):
            simulate_fifo_admission(np.arange(4.0), 0.1, capacity)
        with pytest.raises(SoCError, match=f"integer, got {named}"):
            IDSEnabledECU(dos_ip, BitFeatureEncoder(), fifo_capacity=capacity)
        with pytest.raises(ConfigError, match=f"fifo_capacity must be an integer, got {named}"):
            ExecOptions(fifo_capacity=capacity)

    def test_numpy_integer_depth_accepted(self, dos_ip):
        depth = np.int64(2)
        kept, peak, _ = simulate_fifo_admission(np.zeros(3), 1.0, depth)
        assert kept.tolist() == [False, True, True] and peak == 2
        assert IDSEnabledECU(dos_ip, BitFeatureEncoder(), fifo_capacity=depth).fifo_capacity == 2
        assert ExecOptions(fifo_capacity=depth).fifo_capacity == 2

    def test_timestamps_must_be_one_dimensional(self):
        with pytest.raises(SoCError, match=r"1-D, got shape \(2, 2\)"):
            simulate_fifo_admission(np.zeros((2, 2)), 0.1, 4)


class TestProcessStream:
    def test_parity_with_process_capture(self, dos_ip, dos_capture):
        """Drop-free streaming predicts exactly what the batch path does."""
        capture = dos_capture.capture
        assert len(capture) > CHUNK_ROWS  # the classify loop crosses a chunk boundary
        batch = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4).process_capture(capture)
        stream = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4).process_stream(capture)
        assert stream.fifo_dropped == 0
        assert stream.num_processed == len(capture)
        np.testing.assert_array_equal(stream.predictions, batch.predictions)
        np.testing.assert_array_equal(stream.labels, batch.labels)
        assert stream.metrics == batch.metrics

    def test_flood_drops_oldest_and_excludes_them(self, dos_ip, dos_capture):
        """Arrivals above the drain rate overflow the bounded FIFO."""
        records = dos_capture.records[:3000]
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4, fifo_capacity=16)
        report = ecu.process_stream(records, drain_fps=500.0)
        assert report.fifo_dropped > 0
        assert report.num_processed + report.fifo_dropped == report.num_frames
        assert len(report.predictions) == len(report.labels) == report.num_processed
        assert report.max_fifo_occupancy == 16

    def test_flood_latency_includes_queueing_delay(self, dos_ip, dos_capture):
        """Under backpressure the reported latency degrades visibly."""
        records = dos_capture.records[:3000]
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4, fifo_capacity=16)
        report = ecu.process_stream(records, drain_fps=500.0)
        nominal = report.latency_breakdown.total_seconds
        # A 16-deep queue at 2 ms/frame adds tens of ms of waiting —
        # orders of magnitude above the ~0.1 ms pipeline latency.
        assert report.mean_latency_s > 10 * nominal
        # Waiting is bounded by the FIFO depth times the service time.
        assert report.p99_latency_s < 16 * (1 / 500.0) + 10 * nominal
        # Energy stays per-inference (queueing burns no compute).
        assert report.energy_per_inference_j < 1e-3

    def test_kept_indices_map_back_to_capture(self, dos_ip, dos_capture):
        records = dos_capture.records[:3000]
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4, fifo_capacity=16)
        report = ecu.process_stream(records, drain_fps=500.0)
        kept = report.kept_indices
        assert kept is not None and len(kept) == report.num_processed
        assert bool(np.all(np.diff(kept) > 0))  # strictly increasing positions
        # The mapping recovers the serviced frames' ground truth exactly.
        expected_labels = np.array([1 if records[i].is_attack else 0 for i in kept])
        np.testing.assert_array_equal(report.labels, expected_labels)

    def test_stream_accepts_capture_array(self, dos_ip, dos_capture):
        capture = CaptureArray.from_records(dos_capture.records[:400])
        report = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4).process_stream(capture)
        assert report.num_processed == 400

    def test_empty_and_bad_args_rejected(self, dos_ip):
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        with pytest.raises(SoCError):
            ecu.process_stream([])
        with pytest.raises(SoCError):
            ecu.process_stream(CaptureArray.from_records([]))

    def test_chunk_and_drain_validated(self, dos_ip, dos_capture):
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        with pytest.raises(SoCError):
            ecu.process_stream(dos_capture.records[:10], drain_fps=-1.0)
        with pytest.raises(SoCError, match="capacity"):
            IDSEnabledECU(dos_ip, BitFeatureEncoder(), fifo_capacity=0)


def _gateway_monitor(ip, **kwargs):
    gateway = IDSGateway()
    gateway.attach_channel(
        "body", build_vehicle_bus(vehicle_seed=4), IDSEnabledECU(ip, BitFeatureEncoder())
    )
    return gateway.monitor(duration=0.5, **kwargs)


#: Each case: a call on (ip, capture) and the value its error must name.
_BAD_TIMING = {
    "admission-service-nan": (
        lambda ip, capture: simulate_fifo_admission(np.arange(4.0), NAN, 4), "got nan"
    ),
    "admission-service-inf": (
        lambda ip, capture: simulate_fifo_admission(np.arange(4.0), INF, 4), "got inf"
    ),
    "admission-zero-capacity": (
        lambda ip, capture: simulate_fifo_admission(np.arange(4.0), 0.1, 0), "got 0"
    ),
    "admission-timestamp-nan": (
        lambda ip, capture: simulate_fifo_admission(np.array([0.0, NAN]), 0.1, 4), "got nan"
    ),
    "admission-timestamp-inf": (
        lambda ip, capture: simulate_fifo_admission(np.array([0.0, INF]), 0.1, 4), "got inf"
    ),
    "stream-drain-nan": (
        lambda ip, capture: IDSEnabledECU(ip, BitFeatureEncoder()).process_stream(
            capture, drain_fps=NAN
        ),
        "got nan",
    ),
    "stream-drain-inf": (
        lambda ip, capture: IDSEnabledECU(ip, BitFeatureEncoder()).process_stream(
            capture, drain_fps=INF
        ),
        "got inf",
    ),
    "monitor-drain-nan": (lambda ip, capture: _gateway_monitor(ip, drain_fps=NAN), "got nan"),
    "monitor-drain-inf": (lambda ip, capture: _gateway_monitor(ip, drain_fps=INF), "got inf"),
    "arbiter-overhead-nan": (
        lambda ip, capture: SharedAcceleratorArbiter(slot_overhead_s=NAN), "got nan"
    ),
    "arbiter-overhead-inf": (
        lambda ip, capture: SharedAcceleratorArbiter(slot_overhead_s=INF), "got inf"
    ),
    "arbiter-base-nan": (
        lambda ip, capture: SharedAcceleratorArbiter().plan({"a": NAN}), "got nan"
    ),
    "arbiter-base-inf": (
        lambda ip, capture: SharedAcceleratorArbiter().plan({"a": INF}), "got inf"
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_TIMING))
def test_bad_timing_rejected_naming_the_value(dos_ip, dos_capture, case):
    """NaN/inf timing and an empty FIFO raise a SoCError naming the value."""
    call, named = _BAD_TIMING[case]
    with pytest.raises(SoCError, match=named):
        call(dos_ip, dos_capture.capture[:50])


class TestThroughputDefinitions:
    def test_sustained_is_ii_gated(self, dos_ip, dos_capture):
        """throughput_fps is the pipeline II bound, not inverse latency."""
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        report = ecu.process_capture(dos_capture.records[:500], with_metrics=False)
        trace = ecu.reference_trace()
        core_ii_s = 1.0 / dos_ip.throughput_fps
        expected = 1.0 / ecu.latency_model.service_interval(trace, core_ii_s)
        assert report.throughput_fps == pytest.approx(expected)
        # The paper's inverse-latency convention is preserved separately.
        assert report.inverse_latency_fps == pytest.approx(1.0 / report.mean_latency_s)
        # Pipelining overlaps stages: sustained rate >= the no-overlap figure.
        nominal = ecu.latency_model.end_to_end(trace).total_seconds
        assert report.throughput_fps >= 1.0 / nominal

    def test_e5_reports_both_conventions(self, experiment_context):
        from repro.experiments.throughput import render_throughput, run_throughput

        result = run_throughput(experiment_context, eval_frames=600)
        assert result.ecu_throughput_fps != result.ecu_inverse_latency_fps
        assert result.hw_core_fps > result.ecu_throughput_fps
        text = render_throughput(result).render()
        assert "1/latency" in text and "sustained" in text


class TestGateway:
    @pytest.fixture()
    def gateway(self, dos_ip):
        gateway = IDSGateway("test-gateway")
        flooded = build_vehicle_bus(vehicle_seed=3)
        flooded.attach(DoSAttacker([(0.2, 0.8)], seed=5))
        gateway.attach_channel(
            "powertrain",
            flooded,
            IDSEnabledECU(dos_ip, BitFeatureEncoder(), name="powertrain-ids", seed=6),
        )
        gateway.attach_channel(
            "body",
            build_vehicle_bus(vehicle_seed=4),
            IDSEnabledECU(dos_ip, BitFeatureEncoder(), name="body-ids", seed=7),
        )
        return gateway

    def test_aggregate_accounting_conserves_frames(self, gateway):
        report = gateway.monitor(duration=1.0)
        assert len(report.channels) == 2
        assert report.total_frames == sum(c.report.num_frames for c in report.channels)
        assert report.total_processed + report.total_dropped == report.total_frames
        assert report.aggregate_offered_fps == pytest.approx(report.total_frames / 1.0)

    def test_flooded_channel_raises_alerts(self, gateway):
        report = gateway.monitor(duration=1.0)
        by_name = {c.name: c for c in report.channels}
        assert len(by_name["powertrain"].report.alerts) > 0
        assert by_name["powertrain"].bus_load > by_name["body"].bus_load
        assert "powertrain" in report.summary()

    def test_duplicate_and_empty_channels_rejected(self, dos_ip):
        gateway = IDSGateway()
        with pytest.raises(SoCError):
            gateway.monitor(duration=1.0)
        bus = build_vehicle_bus(vehicle_seed=1)
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=1)
        gateway.attach_channel("a", bus, ecu)
        with pytest.raises(SoCError):
            gateway.attach_channel("a", bus, ecu)
