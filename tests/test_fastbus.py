"""The columnar bus engine: bit-exactness against the event engine.

The contract under test (see ``repro.can.fastbus``): the vectorised
schedule emitters plus the arbitration-replay kernel must reproduce
``BusSimulator.run`` *exactly* — every column of the two engines'
``ArbitrationResult``: same winners, same float timestamps, same
capture-horizon drops — across mixed periodic/attacker topologies,
bitrates, horizon clipping and quiet buses; a property test covers small
hand-built buses with and without wire faults.  Because both engines read
the same schedule, a second property test holds the sender bank behind
``build_schedule`` to a per-sender reference emission.  Plus the satellites:
the vectorised wire-length kernel vs ``CANFrame.bit_length``, the two
engines' bus loads, non-finite timing inputs, and the picklable
process-pool scenario workers.
"""

import pickle
import re

import numpy as np
import pytest
from _engine_ab import OneShot, assert_same_window
from _wrapper_reference import masquerade_rows, schedule_rows, suspension_rows
from hypothesis import example, given, settings, strategies as st

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
from repro.can.bus import BusSimulator
from repro.can.campaign import SCENARIOS, compile_campaign, scenario_detector
from repro.can.fastbus import (
    _CRC15_TABLE,
    _STUFF_STEP,
    _STUFF_TAIL,
    ScheduleArray,
    _stuff_step,
    build_schedule,
    release_grid,
    schedule_columns,
    simulate_arbitration,
    standard_wire_bits,
)
from repro.can.faults import ERROR_FRAME_BITS, TargetedFault, WireFaultModel
from repro.can.frame import CANFrame, crc15
from repro.can.log import CaptureArray
from repro.can.node import (
    PeriodicSender,
    constant_payload,
    counter_payload,
    sensor_payload,
)
from repro.datasets.carhacking import build_vehicle_bus
from repro.errors import CANError
from repro.experiments.campaigns import (
    _SweepTask,
    _sweep_one_scenario,
    run_campaign_sweep,
)
from repro.fleet import ExecOptions
from repro.soc.gateway import build_campaign_gateway
from repro.utils.rng import new_rng


class TestWireBits:
    def test_matches_frame_bit_length_across_random_frames(self):
        rng = np.random.default_rng(7)
        # Uniform random payloads rarely put a stuff bit on the
        # data->CRC boundary or after the last CRC bit; constant-byte
        # payloads behind run-heavy ids do (31 and 10 of these frames).
        adversarial = np.array(
            [
                (can_id, dlc, byte)
                for dlc in range(9)
                for byte in (0x00, 0xFF, 0x0F, 0xF0, 0x80, 0x7F)
                for can_id in (0x000, 0x7FF, 0x400, 0x3FF, 0x7C0, 0x03F)
            ],
            dtype=np.int64,
        )
        ids = np.concatenate([rng.integers(0, 0x800, size=200), adversarial[:, 0]])
        dlcs = np.concatenate([rng.integers(0, 9, size=200), adversarial[:, 1]])
        payloads = np.concatenate(
            [rng.integers(0, 256, size=(200, 8)), np.repeat(adversarial[:, 2:], 8, axis=1)]
        ).astype(np.uint8)
        cols = np.arange(8)
        payloads[cols >= dlcs[:, None]] = 0
        expected = np.array(
            [
                CANFrame(int(ids[k]), payloads[k, : int(dlcs[k])].tobytes()).bit_length()
                for k in range(len(ids))
            ]
        )
        np.testing.assert_array_equal(standard_wire_bits(ids, dlcs, payloads), expected)
        # Bytes past each DLC are never read: random padding changes nothing.
        padded = payloads.copy()
        noise = rng.integers(0, 256, size=payloads.shape).astype(np.uint8)
        padded[cols >= dlcs[:, None]] = noise[cols >= dlcs[:, None]]
        assert np.any(padded != payloads)
        np.testing.assert_array_equal(standard_wire_bits(ids, dlcs, padded), expected)
        # One DLC for the whole batch runs as one group.
        eights = dlcs == 8
        np.testing.assert_array_equal(
            standard_wire_bits(ids[eights], dlcs[eights], padded[eights]), expected[eights]
        )
        # Every byte-table entry is eight bit-serial CRC-15 steps.
        for byte in range(256):
            bits = np.unpackbits(np.array([byte], dtype=np.uint8))
            assert _CRC15_TABLE[byte] == crc15(bits), byte

    def test_packed_stuffing_tables_match_the_bit_serial_rule(self):
        for state in range(9):
            for byte in range(256):
                next_state, stuffed = _stuff_step(state, byte, 8)
                assert _STUFF_STEP[state * 256 + byte] == next_state * 8 + stuffed
            for bits in range(4):
                assert _STUFF_TAIL[state * 4 + bits] == _stuff_step(state, bits, 2)[1]

    def test_identical_flood_rows_share_one_length(self):
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

    @pytest.mark.parametrize("can_id", [0x800, -1])
    def test_out_of_range_ids_rejected_naming_the_id(self, can_id):
        named = re.escape(f"{can_id:#x}")
        with pytest.raises(CANError, match=named):
            PeriodicSender(can_id, 0.01)
        with pytest.raises(CANError, match=f"11-bit.*{named}"):
            standard_wire_bits(
                np.array([0x100, can_id]),
                np.array([0, 0]),
                np.zeros((2, 8), dtype=np.uint8),
            )

    @pytest.mark.parametrize(
        "ids, dlcs, payloads",
        [
            ((2,), (2,), (2, 4)),  # short payload block
            ((2,), (1,), (2, 8)),  # one DLC for two ids
            ((3,), (3,), (2, 8)),  # three ids, two payload rows
            ((2,), (2,), (2, 9)),  # wider than a classic frame
            ((), (), (8,)),  # scalars are not columns
        ],
    )
    def test_mismatched_columns_rejected_naming_the_shapes(self, ids, dlcs, payloads):
        with pytest.raises(CANError, match=re.escape(f"got {ids}, {dlcs} and {payloads}")):
            standard_wire_bits(
                np.zeros(ids, dtype=np.int64),
                np.zeros(dlcs, dtype=np.int64),
                np.zeros(payloads, dtype=np.uint8),
            )

    @pytest.mark.parametrize("dlc", [-1, 9, 15])
    def test_out_of_range_dlcs_rejected(self, dlc):
        payloads = np.zeros((1, 8), dtype=np.uint8)
        with pytest.raises(CANError, match=f"got {dlc}$"):
            standard_wire_bits(np.array([0x100]), np.array([dlc]), payloads)
        with pytest.raises(CANError, match=f"got {dlc}$"):
            schedule_columns(np.zeros(1), 0x100, payloads, label=0, source="ecu", dlcs=dlc)


class TestReleaseGrid:
    def test_covers_half_open_interval(self):
        grid = release_grid(0.0, 0.1, 0.01)
        assert grid.size in (10, 11)
        assert grid[0] == 0.0 and grid[-1] < 0.1

    def test_empty_when_degenerate(self):
        assert release_grid(1.0, 1.0, 0.1).size == 0
        assert release_grid(2.0, 1.0, 0.1).size == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1.0, 1.0),
        st.floats(1e-4, 0.5),
        st.integers(0, 400),
        st.sampled_from((0.0, 1e-12, -1e-12, 0.37)),
    )
    def test_matches_the_masked_closed_form(self, start, step, steps, nudge):
        """Stops on (or a rounding error off) a grid point are the hard case."""
        stop = start + step * steps + nudge
        grid = release_grid(start, stop, step)
        reference = _masked_grid(start, stop, step)
        assert grid.dtype == reference.dtype and grid.tobytes() == reference.tobytes()


def _masked_grid(start, stop, step):
    """``start + step * k`` strictly below ``stop``: ceiling, guard, then a mask.

    The grid rule every sender used on its own before the sender bank,
    written as a mask over the guarded grid rather than the count that
    ``release_grid`` and the bank now share.
    """
    if stop <= start:
        return np.zeros(0, dtype=np.float64)
    count = max(int(np.ceil((stop - start) / step)), 0)
    while start + count * step < stop:
        count += 1
    grid = start + step * np.arange(count, dtype=np.float64)
    return grid[grid < stop]


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
        event = event_bus.run(duration)
        result = columnar_bus.capture(duration)
        assert len(event), "topology must produce traffic"
        assert_same_window(event, result)

    def test_horizon_clips_backlogged_flood(self):
        """Frames in flight (or queued) at the horizon are dropped."""

        def flooded():
            bus = build_vehicle_bus(vehicle_seed=5)
            # Saturating flood right across the horizon: a deep backlog
            # is still queued when the capture ends.
            bus.attach(DoSAttacker([(0.1, 0.9)], interval=0.0002, seed=5))
            return bus

        event = flooded().run(0.5)
        result = flooded().capture(0.5)
        assert event.capture.timestamps[-1] <= 0.5
        assert_same_window(event, result)

    def test_quiet_bus_yields_empty_capture(self):
        bus = BusSimulator()
        result = bus.capture(1.0)
        assert len(result) == 0
        assert_same_window(bus.run(1.0), result)
        assert result.bus_load() == 0.0

    def test_simultaneous_release_ties_keep_attach_order_priority(self):
        def build():
            bus = BusSimulator(bitrate=500_000)
            bus.attach(OneShot([(0.0, CANFrame(0x300, bytes(2)))], source="a"))
            bus.attach(OneShot([(0.0, CANFrame(0x100, bytes(2)))], source="b"))
            bus.attach(OneShot([(0.0, CANFrame(0x100, bytes(4)))], source="c"))
            return bus

        event = build().run(0.1)
        result = build().capture(0.1)
        assert event.capture.can_ids.tolist() == [0x100, 0x100, 0x300]
        assert_same_window(event, result)

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

        event = build().run(0.05)
        result = build().capture(0.05)
        assert_same_window(event, result)

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "ber"])
    @pytest.mark.parametrize("name", SCENARIOS.names())
    def test_campaign_topologies_bit_exact(self, name, noisy):
        """Every registered scenario's channels, clean and under bit errors."""
        campaign = SCENARIOS.build(name, duration=0.8)
        faults = WireFaultModel(seed=5, bit_error_rate=5e-4) if noisy else None
        event_buses = compile_campaign(campaign, vehicle_seed=11)
        kernel_buses = compile_campaign(campaign, vehicle_seed=11)
        for channel in campaign.channels:
            assert_same_window(
                event_buses[channel].run(campaign.duration, faults=faults),
                kernel_buses[channel].capture(campaign.duration, faults=faults),
            )


def _capture_equals_run(bus, duration, faults):
    """``bus.capture`` vs ``bus.run`` column for column, fault columns included."""
    result = bus.capture(duration, faults=faults)
    assert_same_window(bus.run(duration, faults=faults), result)
    return result


#: Identifiers the property test draws from (0x000 is the flood's).
_ID_POOL = (0x000, 0x0A0, 0x100, 0x101, 0x316, 0x7FF)

#: Releases sit on a dyadic grid (~0.12 ms), so frames of different
#: sources tie exactly; at 2**19 bit/s wire times are dyadic too, so
#: completions also land exactly on later releases.
_TICK = 2.0**-13


@st.composite
def _small_buses(draw):
    """A bus of hand-built sources, a horizon and an optional fault model."""
    bus = BusSimulator(bitrate=draw(st.sampled_from((125_000, 2**19, 500_000, 1_000_000))))
    for index in range(draw(st.integers(1, 4))):
        ticks = sorted(draw(st.lists(st.integers(0, 60), max_size=10)))
        entries = [
            (
                tick * _TICK,
                CANFrame(draw(st.sampled_from(_ID_POOL)), bytes(draw(st.integers(0, 8)))),
            )
            for tick in ticks
        ]
        bus.attach(OneShot(entries, source=f"ecu{index}"))
    if draw(st.booleans()):
        # A zero-jitter grid: every release lands on an exact multiple.
        step = draw(st.integers(1, 10))
        frame = CANFrame(draw(st.sampled_from(_ID_POOL)), b"\x01\x02")
        bus.attach(OneShot([(k * step * _TICK, frame) for k in range(60 // step)], source="grid"))
    if draw(st.booleans()):
        # A dominant 0x000 flood that can outrun the bus and build a backlog.
        first, gap = draw(st.integers(0, 30)), draw(st.integers(1, 3))
        flood = [((first + k * gap) * _TICK, CANFrame(0x000, bytes(8))) for k in range(30)]
        bus.attach(OneShot(flood, label="T", source="flood"))
    # Horizons from mid-backlog to past the last completion.
    duration = draw(st.integers(1, 400)) * _TICK / 2
    kind = draw(st.sampled_from((None, "ber", "targeted")))
    if kind is None:
        return bus, duration, None
    # A low bus-off threshold lets a few errors silence a node.
    faults = WireFaultModel(
        seed=draw(st.integers(0, 1000)),
        bit_error_rate=draw(st.sampled_from((2e-3, 1e-2))) if kind == "ber" else 0.0,
        tec_error_passive=8,
        tec_bus_off=draw(st.sampled_from((16, 256))),
        recovery=draw(st.sampled_from(("auto", "none"))),
    )
    if kind == "targeted":
        start = draw(st.integers(0, 60)) * _TICK
        target = TargetedFault(
            start,
            start + draw(st.integers(1, 30)) * _TICK,
            attempts=draw(st.integers(1, 3)),
            can_id=draw(st.sampled_from((None,) + _ID_POOL)),
        )
        faults = faults.with_targets([target])
    return bus, duration, faults


class TestSweepProperties:
    @settings(max_examples=150, deadline=None)
    @given(_small_buses())
    def test_capture_equals_run_record_for_record(self, case):
        _capture_equals_run(*case)

    @pytest.mark.parametrize("faulted", [False, True])
    def test_release_at_a_completion_joins_that_arbitration(self, faulted):
        """Frames released exactly when the bus frees contend right then,
        even while an older frame is still pending."""
        first = CANFrame(0x200, bytes(2))
        freed = first.bit_length() / 2**19  # exact: a dyadic wire time
        bus = BusSimulator(bitrate=2**19)
        bus.attach(OneShot([(0.0, first)], source="a"))
        bus.attach(OneShot([(0.0, CANFrame(0x300, bytes(2)))], source="b"))
        bus.attach(OneShot([(freed, CANFrame(0x250, bytes(2)))], source="c"))
        bus.attach(OneShot([(freed, CANFrame(0x100, bytes(2)))], source="d"))
        # A late corrupted frame moves the whole run onto the faulted sweep.
        bus.attach(OneShot([(0.01, CANFrame(0x400, bytes(2)))], source="e"))
        faults = (
            WireFaultModel(seed=0, targeted=(TargetedFault(0.01, 0.011, can_id=0x400),))
            if faulted
            else None
        )
        result = _capture_equals_run(bus, 0.02, faults)
        assert result.capture.can_ids[:4].tolist() == [0x200, 0x100, 0x250, 0x300]
        assert bool(result.corrupted_mask.any()) == faulted

    def test_same_id_frame_released_before_a_retry_wins(self):
        """A retransmission re-enters at its error frame's end, so a
        same-id frame released earlier goes first."""
        frame = CANFrame(0x100, b"\x01\x02")  # 67 wire bits
        bus = BusSimulator(bitrate=500_000)
        bus.attach(OneShot([(0.0, frame), (0.0001, frame)]))
        faults = WireFaultModel(
            seed=0, targeted=(TargetedFault(0.0, 0.00005, attempts=1, can_id=0x100),)
        )
        result = _capture_equals_run(bus, 0.01, faults)
        assert result.schedule_indices.tolist() == [0, 1, 0]
        assert result.corrupted_mask.tolist() == [True, False, False]
        np.testing.assert_allclose(
            result.capture.timestamps, [0.000168, 0.000302, 0.000436], rtol=0, atol=1e-12
        )


    def test_same_id_retransmissions_wait_in_entry_order(self):
        """Two same-id retransmissions wait at once, pushed in the reverse
        of their row order: the earlier entry time goes first, not the
        lower row."""
        frame = CANFrame(0x100, b"\x01\x02")  # 67 wire bits: 134 us, error frame 34 us
        bus = BusSimulator(bitrate=500_000)
        bus.attach(OneShot([(0.0, frame)], source="x"))
        bus.attach(OneShot([(0.0001, frame)], source="y"))
        faults = WireFaultModel(
            seed=0,
            targeted=(
                TargetedFault(0.0, 0.00005, attempts=2, source="x"),
                TargetedFault(0.00005, 0.0002, attempts=1, source="y"),
            ),
        )
        result = _capture_equals_run(bus, 0.01, faults)
        assert result.schedule_indices.tolist() == [0, 1, 0, 1, 0]
        assert result.corrupted_mask.tolist() == [True, True, True, False, False]
        np.testing.assert_allclose(
            result.capture.timestamps,
            [0.000168, 0.000336, 0.000504, 0.000638, 0.000772],
            rtol=0,
            atol=1e-12,
        )

    def test_retransmission_wins_a_tie_with_a_fresh_same_id_frame(self):
        """A frame released exactly when a same-id retransmission re-enters
        loses the tie: the event engine pushed the retransmission first."""
        frame = CANFrame(0x100, b"\x01\x02")
        entry = (frame.bit_length() + ERROR_FRAME_BITS) / 2**19  # exact: dyadic
        bus = BusSimulator(bitrate=2**19)
        bus.attach(OneShot([(0.0, frame)], source="x"))
        bus.attach(OneShot([(entry, frame)], source="y"))
        faults = WireFaultModel(seed=0, targeted=(TargetedFault(0.0, 0.00001, source="x"),))
        result = _capture_equals_run(bus, 0.01, faults)
        assert result.capture.timestamps[0] == entry
        assert result.schedule_indices.tolist() == [0, 0, 1]


_NAN = float("nan")
_INF = float("inf")


def _two_frames(releases):
    return schedule_columns(
        np.array(releases), 0x100, np.zeros((2, 2), dtype=np.uint8), label=0, source="ecu"
    )


#: Timing inputs that are not finite, and the value each error must name.
_NON_FINITE = {
    "grid-start": (lambda: release_grid(_NAN, 1.0, 0.1), "nan"),
    "grid-stop": (lambda: release_grid(0.0, _INF, 0.1), "inf"),
    "grid-step": (lambda: release_grid(0.0, 1.0, _NAN), "nan"),
    "sender-period-nan": (lambda: PeriodicSender(0x100, period=_NAN), "nan"),
    "sender-period-inf": (lambda: PeriodicSender(0x100, period=_INF), "inf"),
    "sender-phase": (lambda: PeriodicSender(0x100, period=0.01, phase=_NAN), "nan"),
    "window-end": (lambda: DoSAttacker([(0.0, _NAN)]), "nan"),
    "window-start": (lambda: SpoofingAttacker([(-_INF, 1.0)], target_id=0x316), "-inf"),
    "injector-interval": (lambda: DoSAttacker([(0.0, 1.0)], interval=_NAN), "nan"),
    "burst-on": (lambda: BurstDoSAttacker([(0.0, 1.0)], burst_on=_INF), "inf"),
    "burst-off": (lambda: BurstDoSAttacker([(0.0, 1.0)], burst_off=_NAN), "nan"),
    "ramp-start": (lambda: RampDoSAttacker([(0.0, 1.0)], interval_start=_NAN), "nan"),
    "ramp-end": (lambda: RampDoSAttacker([(0.0, 1.0)], interval_end=_INF), "inf"),
    "suspension-delay": (
        lambda: SuspensionAttacker(
            PeriodicSender(0x100, period=0.01), [(0.0, 1.0)], mode="delay", delay=_NAN
        ),
        "nan",
    ),
    "bus-bitrate": (lambda: BusSimulator(bitrate=_NAN), "nan"),
    "bus-run-duration": (lambda: BusSimulator().run(_NAN), "nan"),
    "bus-capture-duration": (lambda: BusSimulator().capture(_INF), "inf"),
    "sweep-bitrate": (lambda: simulate_arbitration(_two_frames([0.0, 1e-3]), _NAN, 0.1), "nan"),
    "sweep-duration": (
        lambda: simulate_arbitration(_two_frames([0.0, 1e-3]), 500_000, _NAN),
        "nan",
    ),
    "sweep-release": (
        lambda: simulate_arbitration(_two_frames([0.0, _NAN]), 500_000, 0.1),
        "nan",
    ),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_timing_rejected_naming_the_value(case):
    build, value = _NON_FINITE[case]
    with pytest.raises(CANError, match=value):
        build()


#: Every ScheduleArray column, compared by dtype, shape and bytes.
_SCHEDULE_COLUMNS = (
    "release_times", "can_ids", "dlcs", "payloads", "labels", "sources"
)


def _assert_same_schedule(got, want):
    for name in _SCHEDULE_COLUMNS:
        left, right = getattr(got, name), getattr(want, name)
        assert (left.dtype, left.shape) == (right.dtype, right.shape), name
        assert left.tobytes() == right.tobytes(), name
    assert got.source_names == want.source_names


def _per_sender_rows(sender, until):
    """One sender's rows, emitted on its own: the sender bank's reference.

    The masked nominal grid, one ``uniform`` jitter draw clipped at 0.0,
    the model's ``batch`` block padded to 8 bytes (or one scalar call
    per frame) and ``schedule_columns``.
    """
    nominal = _masked_grid(sender.phase, until, sender.period)
    n = nominal.size
    if n == 0:
        return ScheduleArray.empty()
    rng = sender._rng
    releases = nominal
    if sender.jitter:
        offsets = rng.uniform(-sender.jitter, sender.jitter, size=n) * sender.period
        releases = np.maximum(nominal + offsets, 0.0)
    model = sender.payload_model
    if hasattr(model, "batch"):
        block = np.asarray(model.batch(np.arange(n, dtype=np.int64), rng), dtype=np.uint8)
        payloads = np.zeros((n, 8), dtype=np.uint8)
        payloads[:, : block.shape[1]] = block
        dlcs = np.full(n, block.shape[1], dtype=np.int64)
    else:
        rows = [model(k, rng) for k in range(n)]
        payloads = np.array([list(row.ljust(8, b"\0")) for row in rows], dtype=np.uint8)
        dlcs = np.array([len(row) for row in rows], dtype=np.int64)
    return schedule_columns(
        releases, sender.can_id, payloads, label=0, source=sender.name, dlcs=dlcs
    )


def _reference_schedule(sources, until):
    """``build_schedule`` without the bank: every source alone, then one sort.

    Wrapped victims emit through the reference too.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PeriodicSender, "frames_array", _per_sender_rows)
        parts = [source.frames_array(until) for source in sources]
    return ScheduleArray.concatenate([part for part in parts if len(part)]).sorted_by_release()


def _scalar_payload(sequence, rng):
    """A payload callable with no ``batch`` hook: variable lengths, RNG draws."""
    return bytes(rng.integers(0, 256, size=sequence % 9, dtype=np.int64).astype(np.uint8))


#: Phases of drawn senders; "past" starts after the horizon (no rows).
#: At 0.019 a 1 ms grid's second release rounds onto a 20 ms horizon.
_PHASES = (None, -0.013, -0.0021, 0.0, 0.0049, 0.019, "past")
_PAYLOADS = ("counter", "sensor", "constant", "scalar", "shared-sensor")
_NAMES = (None, "a", "a-much-longer-sender-name")


def _sources_from(slots, until):
    """Fresh sources for drawn slots (called once per side of a comparison)."""
    shared = sensor_payload(dlc=5, active_bytes=2, seed=99)
    senders = []
    sources = []

    def sender(can_id, period, jitter, phase, payload, seed, name=None):
        width = seed % 9
        slot = seed % max(width, 1)
        model = {
            "counter": lambda: counter_payload(dlc=max(width, 1), counter_byte=slot),
            "sensor": lambda: sensor_payload(dlc=width, active_bytes=width // 2, seed=seed),
            "constant": lambda: constant_payload(bytes(range(width))),
            "scalar": lambda: _scalar_payload,
            "shared-sensor": lambda: shared,
        }[payload]()
        return PeriodicSender(
            can_id,
            period,
            payload_model=model,
            jitter=jitter,
            phase=until + 0.01 if phase == "past" else phase,
            name=name,
            seed=seed,
        )

    for kind, *args in slots:
        if kind == "sender":
            senders.append(sender(*args))
            sources.append(senders[-1])
        elif kind == "again" and senders:
            sources.append(senders[args[0] % len(senders)])
        elif kind == "suspend":
            mode, *victim = args
            sources.append(
                SuspensionAttacker(
                    sender(*victim), [(0.2 * until, 0.7 * until)], mode=mode, delay=0.002
                )
            )
        elif kind == "masquerade":
            sources.append(
                MasqueradeAttacker(sender(*args), [(0.1 * until, 0.6 * until)], seed=3)
            )
        elif kind == "dos":
            sources.append(DoSAttacker([(0.1 * until, 0.4 * until)], interval=0.0007))
        elif kind == "fuzzy":
            sources.append(
                FuzzyAttacker([(0.3 * until, 0.6 * until)], interval=0.0011, seed=args[0])
            )
        elif kind == "one-shot":
            frames = [(0.0, CANFrame(0x0A0, b"\x01")), (0.5 * until, CANFrame(0x0A0))]
            sources.append(OneShot(frames))
    return sources


#: A sender's can_id, period, jitter, phase, payload kind and seed.
_SENDER_FIELDS = (
    st.sampled_from((0x000, 0x100, 0x316, 0x7FF)),
    st.sampled_from((0.001, 0.0037, 0.01, 0.05)),
    st.sampled_from((0.0, 0.02, 0.5, 0.9)),
    st.sampled_from(_PHASES),
    st.sampled_from(_PAYLOADS),
    st.integers(0, 50),
)

_SLOTS = st.one_of(
    st.tuples(st.just("sender"), *_SENDER_FIELDS, st.sampled_from(_NAMES)),
    st.tuples(st.just("again"), st.integers(0, 7)),
    st.tuples(st.just("suspend"), st.sampled_from(("drop", "delay")), *_SENDER_FIELDS),
    st.tuples(st.just("masquerade"), *_SENDER_FIELDS),
    st.tuples(st.sampled_from(("dos", "fuzzy", "one-shot")), st.integers(0, 50)),
)

#: Slots of senders, repeats, wrappers and attackers, plus a horizon.
_SENDER_BUSES = st.tuples(
    st.lists(_SLOTS, min_size=1, max_size=8), st.sampled_from((0.02, 0.1, 0.25))
)


class TestScheduleLayer:
    @settings(max_examples=80, deadline=None)
    @given(_SENDER_BUSES)
    @example(  # a sender attached twice
        ([("sender", 0x100, 0.01, 0.02, None, "sensor", 1, None), ("again", 0)], 0.1)
    )
    @example(  # zero jitter keeps a negative phase
        ([("sender", 0x100, 0.001, 0.0, -0.0021, "counter", 2, None)], 0.02)
    )
    @example(  # a release that rounds onto the horizon is not emitted
        ([("sender", 0x100, 0.001, 0.0, 0.019, "counter", 2, None)], 0.02)
    )
    @example(  # jitter clipped to 0.0: ties within and across senders
        (
            [
                ("sender", 0x316, 0.001, 0.9, -0.013, "counter", 3, "a"),
                ("sender", 0x100, 0.001, 0.9, -0.013, "constant", 4, None),
            ],
            0.02,
        )
    )
    @example(  # a zero-row sender with the longest name
        (
            [
                ("sender", 0x100, 0.01, 0.02, 0.0, "counter", 5, "a"),
                ("sender", 0x7FF, 0.01, 0.02, "past", "sensor", 6, _NAMES[-1]),
            ],
            0.1,
        )
    )
    @example(  # payload callables with no batch hook
        (
            [
                ("sender", 0x100, 0.0037, 0.02, None, "scalar", 7, None),
                ("sender", 0x316, 0.01, 0.5, 0.0, "scalar", 8, "a"),
            ],
            0.1,
        )
    )
    @example(  # wrappers and attackers between senders sharing one payload model
        (
            [
                ("sender", 0x100, 0.01, 0.02, None, "shared-sensor", 9, None),
                ("suspend", "delay", 0x316, 0.01, 0.02, None, "sensor", 10),
                ("sender", 0x316, 0.0037, 0.5, -0.0021, "shared-sensor", 11, "a"),
                ("masquerade", 0x100, 0.0037, 0.02, 0.0, "counter", 12),
                ("dos", 0),
                ("sender", 0x7FF, 0.001, 0.0, 0.0, "counter", 13, None),
                ("fuzzy", 14),
                ("one-shot", 0),
                ("sender", 0x000, 0.01, 0.02, None, "shared-sensor", 15, None),
            ],
            0.25,
        )
    )
    def test_bank_matches_every_sender_emitted_alone(self, case):
        """The sender bank vs the per-sender reference, on all six columns."""
        slots, until = case
        banked, alone = _sources_from(slots, until), _sources_from(slots, until)
        # A second call on the same sources carries on every sender's stream.
        for _ in range(2):
            _assert_same_schedule(
                build_schedule(banked, until), _reference_schedule(alone, until)
            )

    def test_sensor_initialisation_matches_scalar_draws(self):
        """One ``integers(0, 256, size=dlc)`` call == ``dlc`` scalar draws."""
        for seed in range(300):
            for dlc in range(9):
                scalar = new_rng(seed, "sensor-init")
                expected = bytes(int(scalar.integers(0, 256)) for _ in range(dlc))
                for active_bytes in {0, dlc // 2, dlc}:
                    model = sensor_payload(
                        dlc=dlc, active_bytes=active_bytes, walk_step=0, seed=seed
                    )
                    assert model(0, np.random.default_rng(0)) == expected, (seed, dlc)

    def test_wrapper_columnar_schedule_matches_scalar_iteration(self):
        """Suspension/masquerade arrays == the row-by-row reference, frame for frame."""
        until = 0.6

        def victim():
            return PeriodicSender(
                0x316, 0.01, payload_model=sensor_payload(seed=4), jitter=0.02, seed=4
            )

        for wrapper_of, reference in (
            (
                lambda: SuspensionAttacker(victim(), [(0.2, 0.4)], mode="delay", delay=0.005),
                suspension_rows,
            ),
            (lambda: SuspensionAttacker(victim(), [(0.2, 0.4)], mode="drop"), suspension_rows),
            (lambda: MasqueradeAttacker(victim(), [(0.1, 0.5)], seed=8), masquerade_rows),
        ):
            scalar = reference(wrapper_of(), until)
            columnar = schedule_rows(wrapper_of().frames_array(until))
            assert scalar and scalar == columnar

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
            sources=np.array([0, 1], dtype=np.int64),
            source_names=("a", "b"),
        )
        with pytest.raises(CANError, match="release-sorted"):
            simulate_arbitration(schedule, 500_000, 1.0)


class TestColumnarConversions:
    def test_bus_load_capture_overload_matches_record_loop(self):
        """The kernel's bus load equals the event loop's ``bit_length()`` sum."""
        columnar = build_vehicle_bus(vehicle_seed=2).capture(0.5)
        event = build_vehicle_bus(vehicle_seed=2).run(0.5)
        assert 0.0 < columnar.bus_load() == event.bus_load()

    def test_coerce_unwraps_arbitration_result(self):
        bus = build_vehicle_bus(vehicle_seed=1)
        for result in (bus.capture(0.2), bus.run(0.2)):
            assert CaptureArray.coerce(result) is result.capture


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
        options = ExecOptions(backend="process").resolved()
        ips = {"dos": dos_ip}
        thawed_ips, thawed_task, thawed_options = pickle.loads(
            pickle.dumps((ips, task, options))
        )
        assert thawed_task == task and thawed_options == options
        direct = _sweep_one_scenario(dos_ip, task, options, seed=123)
        via_pickle = _sweep_one_scenario(
            thawed_ips["dos"], thawed_task, thawed_options, seed=123
        )
        for left, right in zip(direct, via_pickle):
            assert left.report.total_frames == right.report.total_frames
            assert left.report.total_dropped == right.report.total_dropped
            assert pickle.loads(pickle.dumps(right)).scenario == left.scenario

    def test_process_backend_matches_thread_backend(self, experiment_context):
        """The process pool's sweep equals the in-process one: same seeds,
        same verdicts, same order."""
        names = ["baseline-dos", "stealth-low-rate"]
        threaded = run_campaign_sweep(
            experiment_context,
            scenarios=names,
            duration=0.8,
            options=ExecOptions(backend="thread", max_workers=1),
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
        assert result.detectors() == {"baseline-fuzzy": "fuzzy"}
