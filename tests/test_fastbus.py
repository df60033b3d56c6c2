"""The columnar bus engine: bit-exactness against the event engine.

The contract under test (see ``repro.can.fastbus``): the vectorised
schedule emitters plus the arbitration-replay kernel must reproduce
``BusSimulator.run`` *exactly* — same winners, same float timestamps,
same capture-horizon drops — across mixed periodic/attacker topologies,
bitrates, horizon clipping and quiet buses.  Plus the satellites: the
vectorised wire-length kernel vs ``CANFrame.bit_length``, the columnar
``bus_load`` overload, ``CaptureArray.from_bus_records``, and the
picklable process-pool scenario workers.
"""

import pickle

import numpy as np
import pytest

from repro.can.attacks import (
    BurstDoSAttacker,
    DoSAttacker,
    FuzzyAttacker,
    MasqueradeAttacker,
    RampDoSAttacker,
    ReplayAttacker,
    SpoofingAttacker,
    SuspensionAttacker,
)
from repro.can.bus import BusSimulator, bus_load
from repro.can.campaign import SCENARIOS
from repro.can.fastbus import (
    ScheduleArray,
    build_schedule,
    release_grid,
    schedule_from_frames,
    simulate_arbitration,
    standard_wire_bits,
)
from repro.can.frame import CANFrame
from repro.can.log import CaptureArray, records_from_bus
from repro.can.node import PeriodicSender, ScheduledFrame, sensor_payload
from repro.datasets.carhacking import build_vehicle_bus
from repro.errors import CANError
from repro.experiments.campaigns import (
    _SweepConfig,
    _SweepTask,
    _sweep_one_scenario,
    run_campaign_sweep,
    scenario_detector,
)
from repro.fleet import ExecOptions
from repro.soc.gateway import build_campaign_gateway


class _OneShot:
    """Scalar-only source (no ``frames_array``): exercises the fallback."""

    def __init__(self, entries, label="R", source="oneshot"):
        self.entries = entries
        self.label = label
        self.source = source

    def frames(self, until):
        for release, frame in self.entries:
            if release < until:
                yield ScheduledFrame(release, frame, self.label, self.source)


def _assert_records_match(records, result):
    """Event-engine records vs one ArbitrationResult, field by field."""
    capture = result.capture
    assert len(records) == len(capture)
    np.testing.assert_array_equal(
        np.array([r.timestamp for r in records]), capture.timestamps
    )
    np.testing.assert_array_equal(
        np.array([r.frame.can_id for r in records]), capture.can_ids
    )
    np.testing.assert_array_equal(
        np.array([r.queued_at for r in records]), result.queued_at
    )
    np.testing.assert_array_equal(
        np.array([r.started_at for r in records]), result.started_at
    )
    np.testing.assert_array_equal(
        np.array([1 if r.label == "T" else 0 for r in records]), capture.labels
    )
    np.testing.assert_array_equal(np.array([r.source for r in records]), result.sources)
    for index, record in enumerate(records):
        assert record.frame.data == capture.payloads[index, : capture.dlcs[index]].tobytes()
        assert record.frame.bit_length() == result.wire_bits[index]


class TestWireBits:
    def test_matches_frame_bit_length_across_random_frames(self):
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 0x800, size=200)
        dlcs = rng.integers(0, 9, size=200)
        payloads = rng.integers(0, 256, size=(200, 8)).astype(np.uint8)
        cols = np.arange(8)
        payloads[cols >= dlcs[:, None]] = 0
        got = standard_wire_bits(ids, dlcs, payloads)
        for k in range(200):
            frame = CANFrame(int(ids[k]), payloads[k, : int(dlcs[k])].tobytes())
            assert got[k] == frame.bit_length(), (ids[k], dlcs[k])

    def test_duplicate_rows_collapse_to_one_computation(self):
        ids = np.full(10_000, 0x000, dtype=np.int64)
        dlcs = np.full(10_000, 8, dtype=np.int64)
        payloads = np.zeros((10_000, 8), dtype=np.uint8)
        bits = standard_wire_bits(ids, dlcs, payloads)
        assert np.all(bits == CANFrame(0x000, bytes(8)).bit_length())

    def test_extended_ids_rejected(self):
        with pytest.raises(CANError, match="11-bit"):
            standard_wire_bits(
                np.array([0x800]), np.array([0]), np.zeros((1, 8), dtype=np.uint8)
            )


class TestReleaseGrid:
    def test_covers_half_open_interval(self):
        grid = release_grid(0.0, 0.1, 0.01)
        assert grid.size in (10, 11)
        assert grid[0] == 0.0 and grid[-1] < 0.1

    def test_empty_when_degenerate(self):
        assert release_grid(1.0, 1.0, 0.1).size == 0
        assert release_grid(2.0, 1.0, 0.1).size == 0


def _mixed_topology(seed: int, duration: float):
    """A vehicle bus with every attacker family layered on."""
    bus = build_vehicle_bus(vehicle_seed=seed)
    third = duration / 3.0
    bus.attach(DoSAttacker([(0.2 * third, third)], seed=seed))
    bus.attach(FuzzyAttacker([(0.8 * third, 1.4 * third)], seed=seed + 1))
    bus.attach(
        SpoofingAttacker([(1.2 * third, 2.0 * third)], target_id=0x316, seed=seed + 2)
    )
    bus.attach(
        BurstDoSAttacker(
            [(2.0 * third, 2.6 * third)], burst_on=0.03, burst_off=0.02, seed=seed + 3
        )
    )
    bus.attach(
        RampDoSAttacker(
            [(2.4 * third, 2.9 * third)],
            interval_start=0.004,
            interval_end=0.0005,
            seed=seed + 4,
        )
    )
    capture = [CANFrame(0x2A0, bytes([seed % 256] * 8))] * 40
    offsets = [0.001 * k for k in range(40)]
    bus.attach(
        ReplayAttacker(capture, offsets, windows=[(0.5 * third, third)], seed=seed + 5)
    )
    victim_index = next(
        index
        for index, source in enumerate(bus.sources)
        if getattr(source, "can_id", None) == 0x43F
    )
    bus.sources[victim_index] = SuspensionAttacker(
        bus.sources[victim_index],
        [(0.3 * third, 1.5 * third)],
        mode="delay",
        delay=0.015,
    )
    rpm_index = next(
        index
        for index, source in enumerate(bus.sources)
        if getattr(source, "can_id", None) == 0x316
    )
    bus.sources[rpm_index] = MasqueradeAttacker(
        bus.sources[rpm_index], [(1.8 * third, 2.5 * third)], seed=seed + 6
    )
    return bus


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bitrate", [125_000, 500_000, 1_000_000])
    def test_mixed_topology_bit_exact(self, seed, bitrate):
        """The randomized CI sweep: every attacker family, three bitrates."""
        duration = 1.5
        event_bus = _mixed_topology(seed, duration)
        event_bus.bitrate = float(bitrate)
        columnar_bus = _mixed_topology(seed, duration)
        columnar_bus.bitrate = float(bitrate)
        records = event_bus.run(duration)
        result = columnar_bus.capture(duration)
        assert records, "topology must produce traffic"
        _assert_records_match(records, result)

    def test_horizon_clips_backlogged_flood(self):
        """Frames in flight (or queued) at the horizon are dropped."""

        def flooded():
            bus = build_vehicle_bus(vehicle_seed=5)
            # Saturating flood right across the horizon: a deep backlog
            # is still queued when the capture ends.
            bus.attach(DoSAttacker([(0.1, 0.9)], interval=0.0002, seed=5))
            return bus

        records = flooded().run(0.5)
        result = flooded().capture(0.5)
        assert records[-1].timestamp <= 0.5
        _assert_records_match(records, result)

    def test_quiet_bus_yields_empty_capture(self):
        bus = BusSimulator()
        result = bus.capture(1.0)
        assert len(result) == 0
        assert bus.run(1.0) == []
        assert result.bus_load() == 0.0

    def test_simultaneous_release_ties_keep_attach_order_priority(self):
        def build():
            bus = BusSimulator(bitrate=500_000)
            bus.attach(_OneShot([(0.0, CANFrame(0x300, bytes(2)))], source="a"))
            bus.attach(_OneShot([(0.0, CANFrame(0x100, bytes(2)))], source="b"))
            bus.attach(_OneShot([(0.0, CANFrame(0x100, bytes(4)))], source="c"))
            return bus

        records = build().run(0.1)
        result = build().capture(0.1)
        assert [r.frame.can_id for r in records] == [0x100, 0x100, 0x300]
        _assert_records_match(records, result)

    def test_scalar_only_source_falls_back_to_materialisation(self):
        frame = CANFrame(0x123, b"\x01\x02")
        extended = CANFrame(0x12345, b"\x03", extended=True)

        def build():
            bus = BusSimulator(bitrate=250_000)
            bus.attach(_OneShot([(0.001, frame), (0.002, extended)]))
            bus.attach(PeriodicSender(0x200, period=0.005, phase=0.0, seed=3))
            return bus

        records = build().run(0.05)
        result = build().capture(0.05)
        _assert_records_match(records, result)

    def test_zero_jitter_periodic_grid_ties(self):
        """Jitter-free senders release on exact grids: many float ties."""

        def build():
            bus = BusSimulator(bitrate=500_000)
            for offset, can_id in enumerate((0x100, 0x200, 0x300)):
                bus.attach(
                    PeriodicSender(can_id, period=0.001, jitter=0.0, phase=0.0, seed=offset)
                )
            bus.attach(DoSAttacker([(0.0, 0.05)], interval=0.001, seed=9))
            return bus

        records = build().run(0.05)
        result = build().capture(0.05)
        _assert_records_match(records, result)


class TestScheduleLayer:
    def test_wrapper_columnar_schedule_matches_scalar_iteration(self):
        """Suspension/masquerade arrays == their scalar streams."""
        until = 0.6

        def victim():
            return PeriodicSender(
                0x316, 0.01, payload_model=sensor_payload(seed=4), jitter=0.02, seed=4
            )

        for wrapper_of in (
            lambda: SuspensionAttacker(victim(), [(0.2, 0.4)], mode="delay", delay=0.005),
            lambda: SuspensionAttacker(victim(), [(0.2, 0.4)], mode="drop"),
            lambda: MasqueradeAttacker(victim(), [(0.1, 0.5)], seed=8),
        ):
            scalar = schedule_from_frames(wrapper_of().frames(until))
            columnar = wrapper_of().frames_array(until)
            np.testing.assert_array_equal(scalar.release_times, columnar.release_times)
            np.testing.assert_array_equal(scalar.can_ids, columnar.can_ids)
            np.testing.assert_array_equal(scalar.payloads, columnar.payloads)
            np.testing.assert_array_equal(scalar.labels, columnar.labels)
            np.testing.assert_array_equal(scalar.sources, columnar.sources)

    def test_build_schedule_sorts_stably_like_the_event_merge(self):
        bus = _mixed_topology(3, 1.0)
        schedule = build_schedule(bus.sources, 1.0)
        assert np.all(np.diff(schedule.release_times) >= 0)
        assert len(schedule) > 0

    def test_unsorted_schedule_rejected(self):
        schedule = ScheduleArray(
            release_times=np.array([1.0, 0.5]),
            can_ids=np.array([1, 2], dtype=np.int64),
            dlcs=np.array([0, 0], dtype=np.int64),
            payloads=np.zeros((2, 8), dtype=np.uint8),
            labels=np.zeros(2, dtype=np.int64),
            sources=np.array(["a", "b"]),
            wire_bits=np.array([-1, -1], dtype=np.int64),
        )
        with pytest.raises(CANError, match="release-sorted"):
            simulate_arbitration(schedule, 500_000, 1.0)


class TestColumnarConversions:
    def test_bus_load_capture_overload_matches_record_loop(self):
        bus = build_vehicle_bus(vehicle_seed=2)
        records = bus.run(0.5)
        capture = CaptureArray.from_bus_records(records)
        assert bus_load(capture, 0.5, bus.bitrate) == bus_load(records, 0.5, bus.bitrate)

    def test_from_bus_records_skips_intermediate_records(self):
        bus = build_vehicle_bus(vehicle_seed=2)
        bus.attach(DoSAttacker([(0.1, 0.3)], seed=2))
        records = bus.run(0.4)
        direct = CaptureArray.from_bus_records(records)
        via_log_records = CaptureArray.from_records(records_from_bus(records))
        np.testing.assert_array_equal(direct.timestamps, via_log_records.timestamps)
        np.testing.assert_array_equal(direct.can_ids, via_log_records.can_ids)
        np.testing.assert_array_equal(direct.dlcs, via_log_records.dlcs)
        np.testing.assert_array_equal(direct.payloads, via_log_records.payloads)
        np.testing.assert_array_equal(direct.labels, via_log_records.labels)

    def test_coerce_unwraps_arbitration_result(self):
        bus = build_vehicle_bus(vehicle_seed=1)
        result = bus.capture(0.2)
        assert CaptureArray.coerce(result) is result.capture

    def test_to_bus_records_round_trip(self):
        bus = build_vehicle_bus(vehicle_seed=1)
        reference = build_vehicle_bus(vehicle_seed=1)
        materialised = bus.capture(0.3).to_bus_records()
        assert materialised == reference.run(0.3)


class TestGatewayEngines:
    def test_monitor_engines_agree(self, dos_ip):
        campaign = SCENARIOS.build("overlapping-mixed", duration=1.2)
        truth = campaign.truth_windows()

        def report_for(engine):
            gateway = build_campaign_gateway(dos_ip, campaign, vehicle_seed=4, ecu_seed=4)
            return gateway.monitor(
                duration=campaign.duration, truth=truth, engine=engine
            )

        event = report_for("event")
        columnar = report_for("columnar")
        assert event.engine == "event" and columnar.engine == "columnar"
        assert event.total_frames == columnar.total_frames
        assert event.total_dropped == columnar.total_dropped
        assert event.total_alerts == columnar.total_alerts
        for left, right in zip(event.channels, columnar.channels):
            assert left.bus_load == right.bus_load
            assert left.phase_outcomes == right.phase_outcomes
            if left.report is not None:
                np.testing.assert_array_equal(
                    left.report.predictions, right.report.predictions
                )

    def test_unknown_engine_rejected(self, dos_ip):
        campaign = SCENARIOS.build("baseline-dos", duration=1.0)
        gateway = build_campaign_gateway(dos_ip, campaign, vehicle_seed=4)
        with pytest.raises(Exception, match="unknown engine"):
            gateway.monitor(duration=1.0, engine="warp")


class TestProcessBackend:
    def test_scenario_worker_payload_pickles_round_trip(self, dos_ip):
        """What the process pool ships must survive pickling intact."""
        campaign = SCENARIOS.build("baseline-dos", duration=0.8)
        task = _SweepTask(
            index=0,
            name="baseline-dos",
            description="round-trip",
            campaign=campaign,
            detector="dos",
        )
        config = _SweepConfig(seed=123, fifo_capacity=64, chunk_size=4096, engine="columnar")
        ips = {"dos": dos_ip}
        thawed_ips, thawed_task, thawed_config = pickle.loads(
            pickle.dumps((ips, task, config))
        )
        assert thawed_task == task and thawed_config == config
        direct = _sweep_one_scenario(dos_ip, task, config)
        via_pickle = _sweep_one_scenario(thawed_ips["dos"], thawed_task, thawed_config)
        for left, right in zip(direct, via_pickle):
            assert left.report.total_frames == right.report.total_frames
            assert left.report.total_dropped == right.report.total_dropped
            assert pickle.loads(pickle.dumps(right)).scenario == left.scenario

    def test_process_backend_matches_thread_backend(self, experiment_context):
        names = ["baseline-dos", "stealth-low-rate"]
        threaded = run_campaign_sweep(
            experiment_context,
            scenarios=names,
            duration=0.8,
            options=ExecOptions(backend="thread", max_workers=2),
        )
        processed = run_campaign_sweep(
            experiment_context,
            scenarios=names,
            duration=0.8,
            options=ExecOptions(backend="process", max_workers=2),
        )
        assert threaded.backend == "thread" and processed.backend == "process"
        assert [(r.scenario, r.mode) for r in threaded.runs] == [
            (r.scenario, r.mode) for r in processed.runs
        ]
        for left, right in zip(threaded.runs, processed.runs):
            assert left.detector == right.detector
            assert left.report.total_frames == right.report.total_frames
            assert left.report.total_dropped == right.report.total_dropped
            assert left.phases_detected == right.phases_detected
            for a, b in zip(left.report.channels, right.report.channels):
                if a.report is None:
                    assert b.report is None
                    continue
                np.testing.assert_array_equal(a.report.predictions, b.report.predictions)

    def test_sweep_engines_agree(self, experiment_context):
        """engine="event" and engine="columnar" sweeps are bit-identical."""
        names = ["baseline-dos"]
        columnar = run_campaign_sweep(
            experiment_context,
            scenarios=names,
            duration=0.8,
            options=ExecOptions(max_workers=1, engine="columnar"),
        )
        event = run_campaign_sweep(
            experiment_context,
            scenarios=names,
            duration=0.8,
            options=ExecOptions(max_workers=1, engine="event"),
        )
        assert [(r.scenario, r.mode) for r in columnar.runs] == [
            (r.scenario, r.mode) for r in event.runs
        ]
        for left, right in zip(columnar.runs, event.runs):
            assert left.detector == right.detector
            assert left.report.total_frames == right.report.total_frames
            assert left.report.total_dropped == right.report.total_dropped
            assert left.phases_detected == right.phases_detected
            for a, b in zip(left.report.channels, right.report.channels):
                if a.report is None:
                    assert b.report is None
                    continue
                np.testing.assert_array_equal(a.report.predictions, b.report.predictions)

    @pytest.mark.filterwarnings("ignore:run_campaign_sweep's loose:DeprecationWarning")
    def test_unknown_backend_rejected(self, experiment_context):
        """The deprecation shim still validates what it forwards."""
        with pytest.raises(Exception, match="unknown backend"):
            run_campaign_sweep(
                experiment_context, scenarios=["baseline-dos"], backend="fiber"
            )


class TestDetectorMatching:
    def test_scenarios_map_to_matching_detectors(self):
        assert scenario_detector(SCENARIOS.build("baseline-dos")) == "dos"
        assert scenario_detector(SCENARIOS.build("baseline-fuzzy")) == "fuzzy"
        assert scenario_detector(SCENARIOS.build("baseline-spoof-rpm")) == "rpm"
        assert scenario_detector(SCENARIOS.build("masquerade-rpm")) == "rpm"
        assert scenario_detector(SCENARIOS.build("suspension-drop")) == "dos"
        assert scenario_detector(SCENARIOS.build("baseline-replay")) == "dos"
        assert scenario_detector(SCENARIOS.build("overlapping-mixed")) == "dos"

    def test_auto_sweep_deploys_matching_detector(self, experiment_context):
        result = run_campaign_sweep(
            experiment_context,
            scenarios=["baseline-fuzzy"],
            duration=0.8,
            options=ExecOptions(max_workers=1),
        )
        assert result.detector == "auto"
        assert result.detectors() == {"baseline-fuzzy": "fuzzy"}
