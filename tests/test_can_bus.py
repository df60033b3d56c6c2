"""Tests for the bus simulator: arbitration, timing, attack effects.

The event-driven reference loop (``BusSimulator.run``) returns an
``ArbitrationResult``; tests read its columns.
"""

import re

import numpy as np
import pytest
from _engine_ab import OneShot

from repro.can.attacks import DoSAttacker, FuzzyAttacker
from repro.can.bus import BusSimulator
from repro.can.fastbus import ScheduleArray, simulate_arbitration
from repro.can.frame import CANFrame
from repro.can.node import (
    PeriodicSender,
    constant_payload,
    counter_payload,
    sender_stream,
    sensor_payload,
    sensor_stream,
)
from repro.errors import CANError, ConfigError
from repro.utils.rng import new_rng

NAN, INF = float("nan"), float("inf")


class TestArbitration:
    def test_lower_id_wins_simultaneous_release(self):
        bus = BusSimulator(bitrate=500_000)
        bus.attach(OneShot([(0.0, CANFrame(0x300, bytes(2)))]))
        bus.attach(OneShot([(0.0, CANFrame(0x100, bytes(2)))]))
        window = bus.run(0.1)
        assert window.capture.can_ids.tolist() == [0x100, 0x300]

    def test_loser_queues_behind_winner(self):
        bus = BusSimulator(bitrate=500_000)
        bus.attach(
            OneShot([(0.0, CANFrame(0x100, bytes(8))), (0.0, CANFrame(0x200, bytes(8)))])
        )
        window = bus.run(0.1)
        assert len(window) == 2
        assert window.started_at[1] == pytest.approx(window.capture.timestamps[0])
        assert window.started_at[1] - window.queued_at[1] > 0

    def test_bus_idle_jumps_to_next_release(self):
        bus = BusSimulator(bitrate=500_000)
        bus.attach(OneShot([(0.05, CANFrame(0x100, bytes(1)))]))
        window = bus.run(0.1)
        assert len(window) == 1
        assert window.started_at[0] == pytest.approx(0.05)

    def test_late_high_priority_does_not_preempt(self):
        """CAN is non-preemptive: a frame in flight finishes."""
        bus = BusSimulator(bitrate=100_000)  # slow bus: long frames
        bus.attach(OneShot([(0.0, CANFrame(0x400, bytes(8)))]))
        bus.attach(OneShot([(0.0002, CANFrame(0x001, bytes(1)))]))
        window = bus.run(0.2)
        assert len(window) == 2
        assert window.capture.can_ids[0] == 0x400
        assert window.started_at[1] >= window.capture.timestamps[0]

    def test_records_sorted_by_time(self, dos_capture):
        times = [r.timestamp for r in dos_capture.records]
        assert times == sorted(times)


class TestPeriodicTraffic:
    def test_period_respected(self):
        bus = BusSimulator(bitrate=500_000)
        bus.attach(PeriodicSender(0x123, period=0.01, jitter=0.0, phase=0.0, seed=1))
        window = bus.run(0.1)
        # 10 nominal releases; float accumulation may land one extra at ~0.1.
        assert len(window) in (10, 11)

    def test_jitter_varies_release(self):
        sender = PeriodicSender(0x123, period=0.01, jitter=0.05, phase=0.0, seed=1)
        deltas = np.diff(sender.frames_array(0.1).release_times)
        assert len(set(f"{d:.9f}" for d in deltas)) > 1

    def test_invalid_period(self):
        with pytest.raises(CANError):
            PeriodicSender(0x1, period=0.0)

    def test_constant_payload_model(self):
        sender = PeriodicSender(0x1, 0.01, payload_model=constant_payload(b"\xAA" * 8), phase=0.0, seed=1)
        schedule = sender.frames_array(0.05)
        assert len(schedule) and np.all(schedule.payloads == 0xAA)
        assert np.all(schedule.dlcs == 8)

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: sensor_payload(dlc=2, active_bytes=3), "active_bytes .*got 3"),
            (lambda: counter_payload(counter_byte=8), "counter_byte=8"),
            (lambda: counter_payload(counter_byte=-1), "counter_byte=-1"),
            (lambda: sensor_payload(dlc=9), "dlc .*got 9"),
            (lambda: counter_payload(dlc=9), "dlc=9"),
            (lambda: constant_payload(bytes(9)), "got 9"),
            (lambda: sensor_payload(walk_step=-1), "walk_step .*got -1"),
        ],
        ids=[
            "sensor-active-beyond-dlc",
            "counter-byte-beyond-dlc",
            "counter-byte-negative",
            "sensor-dlc-9",
            "counter-dlc-9",
            "constant-9-bytes",
            "sensor-negative-walk-step",
        ],
    )
    def test_impossible_payload_shape_rejected_at_construction(self, build, named):
        """Shapes no 8-byte payload block can hold fail when the model is made."""
        with pytest.raises(CANError, match=named):
            build()

    @pytest.mark.parametrize("seed", [1.5, "7", True, None])
    @pytest.mark.parametrize(
        "build",
        [
            lambda seed: sensor_payload(seed=seed),
            lambda seed: PeriodicSender(0x100, 0.01, seed=seed),
        ],
        ids=["sensor", "sender"],
    )
    def test_seed_checked_at_construction(self, build, seed):
        """A seed that is neither an int nor a Generator fails where it is given."""
        with pytest.raises(ConfigError, match=f"got {re.escape(repr(seed))}"):
            build(seed)

    def test_generator_seeds_are_the_streams_themselves(self):
        """A ready Generator on the int seed's stream emits the same frames."""
        by_int = PeriodicSender(
            0x316, 0.01, payload_model=sensor_payload(seed=9), jitter=0.02, seed=4
        )
        by_generator = PeriodicSender(
            0x316,
            0.01,
            payload_model=sensor_payload(seed=new_rng(*sensor_stream(9))),
            jitter=0.02,
            seed=new_rng(*sender_stream(4, 0x316, 0.01)),
        )
        assert by_int.phase == by_generator.phase
        ours, theirs = by_int.frames_array(0.3), by_generator.frames_array(0.3)
        assert len(ours)
        for column in ("release_times", "can_ids", "dlcs", "payloads", "labels", "sources"):
            np.testing.assert_array_equal(getattr(ours, column), getattr(theirs, column))
        assert ours.source_names == theirs.source_names


class TestAttackEffects:
    def test_dos_starves_normal_traffic(self):
        """During a DoS flood, legitimate frames see queueing delay."""
        bus = BusSimulator(bitrate=500_000)
        bus.attach(PeriodicSender(0x300, period=0.001, jitter=0.0, phase=0.0005, seed=1))
        bus.attach(DoSAttacker(windows=[(0.0, 0.5)], interval=0.0003))
        window = bus.run(0.5)
        normal = window.capture.labels == 0
        assert (~normal).sum() > normal.sum()
        assert normal.any(), "0.3 ms DoS cadence must leave some bus gaps at 500 kbit/s"
        queueing_delay = window.started_at - window.queued_at
        assert queueing_delay[normal].mean() > 0.00005  # significant arbitration losses

    def test_saturating_dos_fully_starves(self):
        """Injection faster than the frame time occupies the whole bus."""
        bus = BusSimulator(bitrate=500_000)
        bus.attach(PeriodicSender(0x300, period=0.001, jitter=0.0, phase=0.0005, seed=1))
        bus.attach(DoSAttacker(windows=[(0.0, 0.5)], interval=0.0002))
        window = bus.run(0.5)
        assert len(window) and np.all(window.capture.labels == 1)

    def test_dos_frames_always_win_ties(self):
        bus = BusSimulator(bitrate=500_000)
        bus.attach(PeriodicSender(0x100, period=0.0003, jitter=0.0, phase=0.0, seed=1))
        bus.attach(DoSAttacker(windows=[(0.0, 0.1)], interval=0.0003))
        window = bus.run(0.02)
        # At each simultaneous release, 0x000 transmits first.
        ties = np.abs(np.diff(window.queued_at)) < 1e-12
        assert ties.any()
        assert np.all(window.capture.can_ids[:-1][ties] == 0x000)

    def test_fuzzy_ids_span_range(self):
        attacker = FuzzyAttacker(windows=[(0.0, 1.0)], interval=0.001, seed=3)
        ids = attacker.frames_array(1.0).can_ids
        assert ids.min() < 0x100 and ids.max() > 0x700

    def test_empty_window_rejected(self):
        with pytest.raises(CANError):
            DoSAttacker(windows=[(1.0, 1.0)])

    def test_bad_interval_rejected(self):
        with pytest.raises(CANError):
            FuzzyAttacker(windows=[(0.0, 1.0)], interval=0.0)


class TestCaptureHorizon:
    """Frames in flight at the horizon are dropped, not recorded late."""

    def test_frame_crossing_horizon_is_dropped(self):
        # At 100 kbit/s an 8-byte frame occupies >1 ms of wire time, so a
        # release 0.5 ms before the horizon starts but cannot complete.
        bus = BusSimulator(bitrate=100_000)
        frame = CANFrame(0x100, bytes(8))
        assert frame.duration(100_000) > 0.001
        bus.attach(OneShot([(0.0, frame), (0.0995, frame)]))
        window = bus.run(0.1)
        assert len(window) == 1  # the late frame started before 0.1 but ended after
        assert window.capture.timestamps[0] <= 0.1

    def test_all_timestamps_within_window(self):
        bus = BusSimulator(bitrate=500_000)
        bus.attach(PeriodicSender(0x300, period=0.0004, jitter=0.0, phase=0.0, seed=1))
        bus.attach(DoSAttacker(windows=[(0.0, 0.1)], interval=0.0003))
        window = bus.run(0.1)
        assert len(window)
        assert np.all(window.capture.timestamps <= 0.1)

    def test_backlog_past_horizon_is_dropped(self):
        """Queued frames whose transmission would begin after the horizon."""
        bus = BusSimulator(bitrate=100_000)
        # Ten simultaneous releases of >1 ms frames into a 2.5 ms window:
        # only the first two can complete inside it.
        bus.attach(OneShot([(0.0, CANFrame(0x100 + i, bytes(8))) for i in range(10)]))
        window = bus.run(0.0025)
        assert 0 < len(window) < 10
        assert np.all(window.capture.timestamps <= 0.0025)


class TestBusLoad:
    """Bus load is a property of a simulated window's result."""

    def test_empty(self):
        assert BusSimulator(bitrate=500_000).run(1.0).bus_load() == 0.0

    def test_dos_flood_loads_bus(self):
        bus = BusSimulator(bitrate=500_000)
        bus.attach(DoSAttacker(windows=[(0.0, 1.0)], interval=0.0002))
        assert bus.run(1.0).bus_load() > 0.5

    def test_invalid_args(self):
        with pytest.raises(CANError):
            simulate_arbitration(ScheduleArray.empty(), 500_000, 0.0)

    @pytest.mark.parametrize(
        "duration, bitrate, named",
        [
            (NAN, 500_000, "duration.*got nan"),
            (INF, 500_000, "duration.*got inf"),
            (1.0, NAN, "bitrate.*got nan"),
            (1.0, INF, "bitrate.*got inf"),
        ],
    )
    def test_non_finite_timing_rejected(self, duration, bitrate, named):
        """The timing a load is a fraction of must be finite, in both engines."""
        with pytest.raises(CANError, match=named):
            simulate_arbitration(ScheduleArray.empty(), bitrate, duration)
        with pytest.raises(CANError, match=named):
            BusSimulator(bitrate=bitrate).run(duration)

    def test_run_duration_validated(self):
        with pytest.raises(CANError):
            BusSimulator().run(0.0)

    def test_bitrate_validated(self):
        with pytest.raises(CANError):
            BusSimulator(bitrate=-1)
