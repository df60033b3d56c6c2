"""The wire-level fault layer: confinement, bit-exactness, degradation.

The contract under test (see ``repro.can.faults``): a seed-derived
:class:`WireFaultModel` corrupts transmissions identically in both bus
engines, walks each node's TEC through error-active -> error-passive ->
bus-off with ISO +8/-1 semantics, and degrades the downstream IDS stack
gracefully — corrupted frames are flagged and excluded, never silently
scored.  Plus the input-validation satellite: every fault knob (and the
pre-existing ``ExecOptions`` / ``Campaign.shifted`` knobs) rejects
out-of-range values with a :class:`ConfigError` naming the value.
"""

import pickle

import numpy as np
import pytest
from _engine_ab import assert_same_window
from _fault_reference import coded_schedule, reference_plan
from hypothesis import given, settings, strategies as st

from repro.can.attacks import BusOffAttacker, DoSAttacker, FuzzyAttacker
from repro.can.campaign import SCENARIOS, compile_campaign
from repro.can.faults import (
    BUS_OFF_RECOVERY_BITS,
    RECOVERY_MODES,
    TargetedFault,
    WireFaultModel,
    resolve_bus_faults,
)
from repro.can.log import CaptureArray
from repro.datasets.carhacking import build_vehicle_bus
from repro.datasets.features import BitFeatureEncoder
from repro.errors import ConfigError, SoCError
from repro.experiments.noise import _fold_report, render_noise_sweep, run_noise_sweep
from repro.fleet import ExecOptions, FleetSpec, VehicleSpec
from repro.fleet.aggregate import FleetSlice
from repro.soc.ecu import IDSEnabledECU
from repro.soc.gateway import ChannelResult, GatewayReport, build_campaign_gateway


def _noisy_topology(seed: int):
    """A vehicle bus with enough traffic mix to exercise retransmission."""
    bus = build_vehicle_bus(vehicle_seed=seed)
    bus.attach(DoSAttacker([(0.2, 0.7)], interval=0.002, seed=seed))
    bus.attach(FuzzyAttacker([(0.6, 1.1)], seed=seed + 1))
    return bus


class TestWireFaultModelValidation:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"bit_error_rate": -0.1}, "-0.1"),
            ({"bit_error_rate": 1.0}, "1.0"),
            ({"bit_error_rate": float("nan")}, "nan"),
            ({"tec_error_passive": -1}, "-1"),
            ({"tec_error_passive": 0}, "0"),
            ({"tec_error_passive": 128, "tec_bus_off": 100}, "100"),
            ({"recovery": "sometimes"}, "sometimes"),
        ],
    )
    def test_rejects_out_of_range_naming_the_value(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            WireFaultModel(seed=0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"start": float("nan"), "end": 1.0}, "finite"),
            ({"start": 0.0, "end": float("inf")}, "finite"),
            ({"start": 2.0, "end": 1.0}, "2.0"),
            ({"start": 0.0, "end": 1.0, "attempts": 0}, "0"),
            ({"start": 0.0, "end": 1.0, "can_id": -1}, "-1"),
        ],
    )
    def test_targeted_fault_rejects_bad_windows(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            TargetedFault(**kwargs)

    def test_plan_rejects_nonpositive_bitrate(self):
        model = WireFaultModel(seed=0, bit_error_rate=1e-4)
        empty = coded_schedule([], [], [])
        with pytest.raises(ConfigError, match="bitrate"):
            model.plan(empty, np.array([], dtype=np.int64), 0.0)

    @pytest.mark.parametrize("bitrate, fragment", [(float("nan"), "nan"), (float("inf"), "inf")])
    def test_plan_rejects_non_finite_bitrate(self, bitrate, fragment):
        # NaN timed recovery at once; inf charged error frames no wire time.
        model = WireFaultModel(seed=0, bit_error_rate=1e-4)
        schedule = coded_schedule([0.0, 0.001], [0x100, 0x100], ["a", "a"])
        with pytest.raises(ConfigError, match=f"bitrate.*got {fragment}"):
            model.plan(schedule, np.array([111, 111], dtype=np.int64), bitrate)

    def test_plan_rejects_wire_bits_that_do_not_line_up(self):
        model = WireFaultModel(seed=0, bit_error_rate=1e-4)
        schedule = coded_schedule([0.0, 0.001, 0.002], [0x100] * 3, ["a"] * 3)
        with pytest.raises(ConfigError, match=r"\(3,\).*got \(2,\)"):
            model.plan(schedule, np.array([111, 111], dtype=np.int64), 500_000.0)

    def test_plan_rejects_unsorted_releases(self):
        model = WireFaultModel(seed=0, bit_error_rate=1e-4)
        schedule = coded_schedule([0.0, 0.003, 0.002], [0x100] * 3, ["a", "b", "a"])
        with pytest.raises(ConfigError, match="row 2 is released at 0.002, after row 1 at 0.003"):
            model.plan(schedule, np.full(3, 111, dtype=np.int64), 500_000.0)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"timeout_s": 0.0}, "0.0"),
            ({"timeout_s": -2.5}, "-2.5"),
            ({"max_retries": -1}, "-1"),
        ],
    )
    def test_exec_options_reject_out_of_range(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ExecOptions(**kwargs)

    @pytest.mark.parametrize("offset", [-0.5, float("nan"), float("inf")])
    def test_campaign_shifted_rejects_bad_offsets(self, offset):
        campaign = SCENARIOS.build("baseline-dos")
        with pytest.raises(ConfigError, match="offset"):
            campaign.shifted(offset)

    def test_vehicle_spec_rejects_non_model_faults(self):
        with pytest.raises(ConfigError, match="wire_faults"):
            VehicleSpec(
                index=0, scenario="baseline-dos", vehicle_seed=1, wire_faults="noisy"
            )

    def test_fleet_spec_rejects_non_model_faults(self):
        with pytest.raises(ConfigError, match="wire_faults"):
            FleetSpec(name="f", size=2, scenarios=("baseline-dos",), wire_faults=1e-4)


class TestFaultPlanDeterminism:
    def _schedule(self, n=200):
        rng = np.random.default_rng(3)
        releases = np.sort(rng.uniform(0.0, 1.0, size=n))
        can_ids = rng.integers(0, 0x800, size=n)
        wire_bits = rng.integers(47, 135, size=n)
        senders = [f"ecu-{k % 7}" for k in range(n)]
        return coded_schedule(releases, can_ids, senders), wire_bits

    def test_same_inputs_same_plan(self):
        model = WireFaultModel(seed=11, bit_error_rate=2e-3)
        args = self._schedule()
        first = model.plan(*args, 500_000.0)
        second = model.plan(*args, 500_000.0)
        np.testing.assert_array_equal(first.attempts, second.attempts)
        np.testing.assert_array_equal(first.transmit, second.transmit)
        np.testing.assert_array_equal(first.queued, second.queued)
        np.testing.assert_array_equal(first.tec_after, second.tec_after)

    def test_scoped_and_channel_copies_draw_independent_streams(self):
        base = WireFaultModel(seed=11, bit_error_rate=5e-3)
        args = self._schedule()
        plain = base.plan(*args, 500_000.0)
        scoped = base.scoped("vehicle[3]").plan(*args, 500_000.0)
        channel = base.for_channel("body").plan(*args, 500_000.0)
        assert not np.array_equal(plain.attempts, scoped.attempts)
        assert not np.array_equal(plain.attempts, channel.attempts)
        assert not np.array_equal(scoped.attempts, channel.attempts)

    def test_model_is_hashable_and_picklable(self):
        model = WireFaultModel(
            seed=2, bit_error_rate=1e-4, targeted=(TargetedFault(0.0, 1.0),)
        )
        assert {model: "cached"}[pickle.loads(pickle.dumps(model))] == "cached"

    def test_zero_ber_no_targets_plan_is_empty(self):
        args = self._schedule()
        plan = WireFaultModel(seed=0).plan(*args, 500_000.0)
        assert plan.clean
        assert plan.total_attempts == 0
        assert plan.node_states == {}


#: Sender names the property test draws nodes from.
_NODES = ("ecu-a", "victim", "ecu-0x316", "b", "flood", "a-much-longer-node-name")


@st.composite
def _plan_cases(draw):
    """A release-sorted schedule, its wire lengths, a bitrate and a model."""
    nodes = draw(st.permutations(_NODES))[: draw(st.integers(1, 6))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 300))
    horizon = draw(st.sampled_from((0.005, 0.03, 0.2)))
    releases = np.sort(rng.uniform(0.0, horizon, size=n))
    if draw(st.booleans()):
        releases = np.floor(releases * 2**14) / 2**14  # ties within and across nodes
    senders = [nodes[k] for k in rng.integers(0, len(nodes), size=n)]
    ids = {node: draw(st.sampled_from((0x000, 0x100, 0x316, 0x43F))) for node in nodes}
    can_ids = [ids[sender] for sender in senders]
    # The sender table in emitter order, a sender without rows included.
    table = tuple(draw(st.permutations(nodes)))
    schedule = coded_schedule(releases, can_ids, senders, names=table)
    wire_bits = rng.integers(44, 136, size=n).astype(np.int64)
    bus_off = draw(st.sampled_from((16, 64, 256)))
    targets = [
        TargetedFault(
            start,
            start + draw(st.sampled_from((0.001, 0.01, horizon))),
            attempts=draw(st.integers(1, 8)),
            can_id=draw(st.sampled_from((None, 0x100, 0x316, 0x43F))),
            source=draw(st.sampled_from((None,) + _NODES)),
        )
        for start in draw(st.lists(st.sampled_from((0.0, 0.001, 0.004, 0.02)), max_size=3))
    ]
    model = WireFaultModel(
        seed=draw(st.integers(0, 1000)),
        bit_error_rate=draw(st.sampled_from((0.0, 1e-4, 1e-3, 5e-3, 2e-2))),
        tec_error_passive=min(draw(st.sampled_from((8, 64, 128))), bus_off),
        tec_bus_off=bus_off,
        recovery=draw(st.sampled_from(RECOVERY_MODES)),
        targeted=tuple(targets),
    )
    # At 2**19 bit/s the recovery time is dyadic, so grid releases land on it.
    bitrate = float(draw(st.one_of(st.just(2**19), st.integers(125_000, 10_000_000))))
    return model, schedule, wire_bits, bitrate


class TestArrayWalk:
    @settings(max_examples=300, deadline=None)
    @given(_plan_cases())
    def test_plan_matches_the_row_by_row_walk(self, case):
        """The array walk vs the reference loop: every column, bus-off
        rows in order, node states in insertion order."""
        model, schedule, wire_bits, bitrate = case
        got = model.plan(schedule, wire_bits, bitrate)
        want = reference_plan(model, schedule, wire_bits, bitrate)
        for name in ("attempts", "transmit", "queued", "tec_after", "bus_off_rows"):
            left, right = getattr(got, name), getattr(want, name)
            assert (left.dtype, left.shape) == (right.dtype, right.shape), name
            assert left.tobytes() == right.tobytes(), name
        assert got.error_s == want.error_s
        assert list(got.node_states.items()) == list(want.node_states.items())

    def test_repeated_bus_off_and_recovery(self):
        """A victim jammed for longer than a recovery goes bus-off again."""
        releases = np.arange(400) * 0.001
        schedule = coded_schedule(
            releases, [0x43F, 0x100] * 200, ["victim", "ecu-a"] * 200
        )
        model = WireFaultModel(
            seed=0, recovery="auto", tec_error_passive=32, tec_bus_off=64
        ).with_targets(
            [TargetedFault(0.0, 0.2, attempts=8, source="victim")]
        )
        wire_bits = np.full(400, 111, dtype=np.int64)
        plan = model.plan(schedule, wire_bits, 500_000.0)
        want = reference_plan(model, schedule, wire_bits, 500_000.0)
        assert plan.node_states["victim"].recoveries >= 2
        assert list(plan.node_states) == ["victim"]
        assert plan.bus_off_rows.tolist() == want.bus_off_rows.tolist()
        assert plan.node_states == want.node_states
        np.testing.assert_array_equal(plan.tec_after, want.tec_after)


class TestEngineEquivalenceUnderFaults:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("ber", [5e-4, 2e-3])
    def test_noisy_topology_bit_exact(self, seed, ber):
        """The randomized CI sweep with BER > 0: both engines, all fields."""
        duration = 1.5
        model = WireFaultModel(seed=seed, bit_error_rate=ber)
        event = _noisy_topology(seed).run(duration, faults=model)
        result = _noisy_topology(seed).capture(duration, faults=model)
        assert len(event), "topology must produce traffic"
        assert event.corrupted_mask.any(), "noise must actually bite"
        assert_same_window(event, result)

    def test_targeted_faults_bit_exact(self):
        duration = 1.5
        model = WireFaultModel(seed=4, bit_error_rate=1e-4).with_targets(
            [TargetedFault(0.3, 0.9, attempts=2, can_id=0x43F)]
        )
        event = _noisy_topology(4).run(duration, faults=model)
        result = _noisy_topology(4).capture(duration, faults=model)
        assert (event.corrupted_mask & (event.capture.can_ids == 0x43F)).any()
        assert_same_window(event, result)

    def test_simulate_arbitration_takes_the_model_directly(self):
        from repro.can.fastbus import build_schedule, simulate_arbitration

        bus = _noisy_topology(3)
        schedule = build_schedule(bus.sources, 1.0)
        model = WireFaultModel(seed=3, bit_error_rate=2e-3)
        result = simulate_arbitration(schedule, bus.bitrate, 1.0, faults=model)
        assert result.corrupted_mask.any()
        assert len(result.capture) == result.corrupted_mask.shape[0]

    def test_zero_fault_model_is_clean_path_identity(self):
        """A no-op model must not perturb the simulation by one bit."""
        duration = 1.0
        clean = _noisy_topology(7).run(duration)
        gated = _noisy_topology(7).run(duration, faults=WireFaultModel(seed=99))
        assert len(clean) == len(gated)
        np.testing.assert_array_equal(clean.capture.timestamps, gated.capture.timestamps)
        np.testing.assert_array_equal(clean.capture.can_ids, gated.capture.can_ids)
        np.testing.assert_array_equal(clean.queued_at, gated.queued_at)
        assert gated.corrupted is None
        assert not gated.corrupted_mask.any() and not gated.retry_counts.any()
        assert not gated.bus_off_mask.any()

    def test_zero_fault_model_columnar_identity(self):
        duration = 1.0
        clean = _noisy_topology(7).capture(duration)
        gated = _noisy_topology(7).capture(duration, faults=WireFaultModel(seed=99))
        np.testing.assert_array_equal(
            clean.capture.timestamps, gated.capture.timestamps
        )
        np.testing.assert_array_equal(clean.capture.can_ids, gated.capture.can_ids)
        assert not gated.corrupted_mask.any()
        assert not gated.retry_counts.any()

    def test_corrupted_attempts_add_wire_time(self):
        """Error frames and retransmissions consume bus time: with the
        same offered load, the noisy run finishes frames later."""
        duration = 1.0
        clean = _noisy_topology(5).capture(duration)
        noisy = _noisy_topology(5).capture(
            duration, faults=WireFaultModel(seed=5, bit_error_rate=5e-3)
        )
        assert noisy.corrupted_mask.sum() > 0
        assert noisy.capture.timestamps.max() >= clean.capture.timestamps.max()
        retried = noisy.retry_counts[~noisy.corrupted_mask]
        assert int(retried.sum()) > 0, "successful rows must record their retries"


class TestFaultConfinement:
    def _victim_schedule(self, n=60, period=0.005):
        releases = np.arange(n) * period
        can_ids = np.full(n, 0x43F, dtype=np.int64)
        wire_bits = np.full(n, 111, dtype=np.int64)
        return coded_schedule(releases, can_ids, ["victim"] * n), wire_bits

    def test_tec_walks_into_bus_off(self):
        """Cho–Shin arithmetic: +8 per error frame, -1 per success, so a
        victim corrupted every transmission crosses 128 then 256."""
        model = WireFaultModel(seed=0, recovery="none").with_targets(
            [TargetedFault(0.0, 10.0, attempts=4, can_id=0x43F)]
        )
        plan = model.plan(*self._victim_schedule(), 500_000.0)
        state = plan.node_states["victim"]
        assert state.error_passive
        assert state.bus_off
        assert state.peak_tec >= 256
        assert state.bus_off_at is not None
        # The trajectory is a strict climb: every queued row before the
        # bus-off instant charges net +8*attempts - 1.
        queued_tecs = plan.tec_after[plan.queued & plan.transmit]
        assert np.all(np.diff(queued_tecs) == 31)

    def test_recovery_none_silences_the_node_forever(self):
        model = WireFaultModel(seed=0, recovery="none").with_targets(
            [TargetedFault(0.0, 0.1, attempts=8, can_id=0x43F)]
        )
        plan = model.plan(*self._victim_schedule(), 500_000.0)
        fatal = int(plan.bus_off_rows[0])
        assert not plan.queued[fatal + 1 :].any()
        assert not plan.transmit[fatal:].any()

    def test_recovery_auto_requeues_after_128x11_bits(self):
        schedule, wire_bits = self._victim_schedule(n=400, period=0.001)
        releases = schedule.release_times
        model = WireFaultModel(seed=0, recovery="auto").with_targets(
            [TargetedFault(0.0, 0.05, attempts=8, can_id=0x43F)]
        )
        plan = model.plan(schedule, wire_bits, 500_000.0)
        state = plan.node_states["victim"]
        assert state.recoveries >= 1
        fatal = int(plan.bus_off_rows[0])
        silence = BUS_OFF_RECOVERY_BITS / 500_000.0
        silenced = (releases > releases[fatal]) & (
            releases < releases[fatal] + silence
        )
        assert not plan.queued[silenced].any(), "bus-off means bus silence"
        assert plan.queued[releases >= releases[fatal] + silence].any()

    def test_bus_run_flags_bus_off_and_silences_victim(self):
        bus = build_vehicle_bus(vehicle_seed=0)
        model = WireFaultModel(seed=1, recovery="none").with_targets(
            [TargetedFault(0.1, 2.0, attempts=8, can_id=0x43F)]
        )
        window = bus.run(2.0, faults=model)
        ids, timestamps = window.capture.can_ids, window.capture.timestamps
        corrupted = window.corrupted_mask
        assert corrupted.any() and np.all(ids[corrupted] == 0x43F)
        (fatal,) = np.flatnonzero(window.bus_off_mask)
        after = timestamps[fatal]
        assert not np.any((ids == 0x43F) & (timestamps > after) & ~corrupted)


class TestBusOffAttacker:
    def test_emits_no_frames_only_faults(self):
        attacker = BusOffAttacker([(0.1, 0.9)], target_id=0x43F)
        assert len(attacker.frames_array(10.0)) == 0
        faults = attacker.targeted_faults()
        assert faults and all(f.can_id == 0x43F for f in faults)

    def test_resolve_folds_attached_attackers_into_the_model(self):
        bus = build_vehicle_bus(vehicle_seed=0)
        bus.attach(BusOffAttacker([(0.2, 0.8)], target_id=0x43F))
        resolved = resolve_bus_faults(bus.sources, faults=None)
        assert resolved is not None
        assert any(f.can_id == 0x43F for f in resolved.targeted)
        ambient = WireFaultModel(seed=3, bit_error_rate=1e-4)
        merged = resolve_bus_faults(bus.sources, faults=ambient)
        assert merged.bit_error_rate == 1e-4
        assert any(f.can_id == 0x43F for f in merged.targeted)

    def test_clean_bus_resolves_to_none(self):
        bus = build_vehicle_bus(vehicle_seed=0)
        assert resolve_bus_faults(bus.sources, faults=None) is None

    def test_inert_model_resolves_to_none(self):
        bus = build_vehicle_bus(vehicle_seed=0)
        inert = WireFaultModel(seed=9)
        assert resolve_bus_faults(bus.sources, faults=inert) is None


class TestBusOffScenarios:
    def test_registered(self):
        assert "bus-off-victim" in SCENARIOS
        assert "bus-off-under-flood" in SCENARIOS

    def test_bus_off_phase_does_not_inject_frames(self):
        campaign = SCENARIOS.build("bus-off-victim")
        (phase,) = campaign.phases
        assert phase.kind == "bus-off"
        assert not phase.injects

    def test_victim_scenario_forces_bus_off(self):
        campaign = SCENARIOS.build("bus-off-victim", duration=3.0)
        buses = compile_campaign(campaign, vehicle_seed=0)
        window = buses["powertrain"].run(campaign.duration)
        corrupted = window.corrupted_mask
        assert corrupted.any() and np.all(window.capture.can_ids[corrupted] == 0x43F)
        assert window.bus_off_mask.any(), "the victim must reach bus-off"
        start, end = campaign.phases[0].window
        assert np.all(start <= window.capture.timestamps[corrupted])

    def test_under_flood_scenario_jams_both_channels(self):
        campaign = SCENARIOS.build("bus-off-under-flood", duration=3.0)
        buses = compile_campaign(campaign, vehicle_seed=0)
        flood = buses["powertrain"].capture(campaign.duration)
        jammed = buses["body"].capture(campaign.duration)
        assert (flood.capture.can_ids == 0x000).sum() > 0
        assert not flood.corrupted_mask.any(), "the flood channel is noise-free"
        victims = jammed.capture.can_ids[jammed.corrupted_mask]
        assert victims.size and np.all(victims == 0x316)
        assert jammed.bus_off_mask.sum() >= 1


class TestGracefulDegradation:
    def test_stream_session_excludes_corrupted_rows(self, dos_ip, dos_capture):
        capture = CaptureArray.from_records(dos_capture.records[:2000])
        corrupted = np.zeros(len(capture), dtype=bool)
        corrupted[::7] = True
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        session = ecu.open_stream(capture, corrupted=corrupted)
        assert session.corrupted_frames == int(corrupted.sum())
        kept = set(session.kept_indices.tolist())
        assert kept.isdisjoint(np.flatnonzero(corrupted).tolist())
        report = session.finish()
        assert report.corrupted_frames == int(corrupted.sum())
        assert report.num_frames == len(capture)

    def test_all_corrupted_capture_refuses_to_scan(self, dos_ip, dos_capture):
        capture = CaptureArray.from_records(dos_capture.records[:64])
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        with pytest.raises(SoCError, match="corrupted"):
            ecu.open_stream(capture, corrupted=np.ones(len(capture), dtype=bool))

    def test_mask_shape_is_validated(self, dos_ip, dos_capture):
        capture = CaptureArray.from_records(dos_capture.records[:64])
        ecu = IDSEnabledECU(dos_ip, BitFeatureEncoder(), seed=4)
        with pytest.raises(SoCError, match="mask"):
            ecu.open_stream(capture, corrupted=np.zeros(7, dtype=bool))

    def test_gateway_counts_and_conserves_frames(self, dos_ip):
        campaign = SCENARIOS.build("bus-off-victim", duration=2.0)
        gateway = build_campaign_gateway(dos_ip, campaign, vehicle_seed=3, ecu_seed=6)
        report = gateway.monitor(
            duration=campaign.duration, truth=campaign.truth_windows()
        )
        assert report.total_corrupted > 0
        assert report.total_retransmissions >= 0
        channel = next(r for r in report.channels if r.name == "powertrain")
        assert channel.corrupted_frames == report.total_corrupted
        ecu = channel.report
        assert ecu.corrupted_frames == channel.corrupted_frames
        # Every frame the wire delivered is accounted for: serviced,
        # dropped by the RX FIFO, or destroyed by an error frame.
        assert ecu.num_frames == len(channel.capture)
        assert (
            ecu.num_processed + ecu.fifo_dropped + ecu.corrupted_frames
            == ecu.num_frames
        )

    def test_gateway_ambient_noise_engines_agree(self, dos_ip):
        campaign = SCENARIOS.build("baseline-dos", duration=2.0)
        model = WireFaultModel(seed=5, bit_error_rate=5e-4)
        counters = {}
        for engine in ("columnar", "event"):
            gateway = build_campaign_gateway(
                dos_ip, campaign, vehicle_seed=3, ecu_seed=6
            )
            report = gateway.monitor(
                duration=campaign.duration, engine=engine, faults=model
            )
            counters[engine] = (
                report.total_corrupted,
                report.total_retransmissions,
                report.total_bus_off,
                tuple(
                    tuple(r.report.predictions.tolist())
                    for r in report.channels
                    if r.report is not None
                ),
            )
        assert counters["columnar"][0] > 0
        assert counters["columnar"] == counters["event"]


class TestFleetCounters:
    def test_merge_adds_wire_fault_counters(self):
        left = FleetSlice(vehicles=1, frames_corrupted=3, retransmissions=2)
        right = FleetSlice(vehicles=1, frames_corrupted=5, bus_off_events=1)
        merged = left.merge(right)
        assert merged.frames_corrupted == 8
        assert merged.retransmissions == 2
        assert merged.bus_off_events == 1

    def test_json_round_trip_and_old_checkpoint_compat(self):
        full = FleetSlice(
            vehicles=2,
            frames_offered=10,
            frames_corrupted=4,
            retransmissions=3,
            bus_off_events=1,
        )
        assert FleetSlice.from_json_dict(full.as_json_dict()) == full
        legacy = {
            key: value
            for key, value in full.as_json_dict().items()
            if key
            not in ("frames_corrupted", "retransmissions", "bus_off_events")
        }
        restored = FleetSlice.from_json_dict(legacy)
        assert restored.frames_corrupted == 0
        assert restored.bus_off_events == 0

    def test_fleet_spec_threads_model_to_every_vehicle(self):
        model = WireFaultModel(seed=7, bit_error_rate=1e-4)
        spec = FleetSpec(
            name="noisy",
            size=3,
            scenarios=("baseline-dos",),
            wire_faults=model,
        )
        assert all(spec.vehicle(k).wire_faults == model for k in range(3))


class TestNoiseSweep:
    def test_e12_sweeps_gracefully(self, experiment_context):
        result = run_noise_sweep(
            experiment_context,
            bers=(0.0, 1e-3),
            scenario="baseline-dos",
            duration=2.0,
        )
        clean = result.point(0.0)
        noisy = result.point(1e-3)
        assert clean.frames_corrupted == 0
        assert noisy.frames_corrupted > 0
        for point in result.points:
            assert np.isfinite(point.f1)
            assert np.isfinite(point.p99_latency_s)
            assert 0.0 <= point.corruption_rate < 1.0
        rendered = render_noise_sweep(result).render()
        assert "E12" in rendered and "baseline-dos" in rendered

    def test_e12_engines_agree(self, experiment_context):
        columnar = run_noise_sweep(
            experiment_context,
            bers=(1e-3,),
            scenario="baseline-dos",
            duration=2.0,
            engine="columnar",
        )
        event = run_noise_sweep(
            experiment_context,
            bers=(1e-3,),
            scenario="baseline-dos",
            duration=2.0,
            engine="event",
        )
        assert columnar.points == event.points

    def test_all_idle_report_folds_p99_to_zero(self):
        """E12 reads the gateway's summary numbers; idle p99 stays 0, not NaN."""
        report = GatewayReport("idle", 1.0, [ChannelResult("can0", 0.0, None)])
        assert report.worst_detection_latency_s is None
        assert report.f1 == 0.0
        assert np.isnan(report.p99_latency_s)
        point = _fold_report(1e-3, report, injecting=0)
        assert (point.worst_detection_latency_s, point.f1, point.p99_latency_s) == (None, 0.0, 0.0)
