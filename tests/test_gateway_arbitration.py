"""Multi-channel gateway monitoring and shared-accelerator arbitration.

Pins these contracts:

* a stream session validates its arguments, and its chunked classify
  loop carries window-encoder context across chunk boundaries;
* ``monitor()`` matches, per channel, a lone ``process_stream`` of that
  segment's traffic through a fresh ECU (the sequential oracle), and a
  flood on one segment cannot leak drops or delay into another segment;
* a quiet channel yields an idle :class:`ChannelResult` instead of
  aborting the run;
* the shared-IP arbiter reduces every channel's effective drain rate
  deterministically (round-robin and fixed-priority).
"""

import numpy as np
import pytest

from repro.can.bus import BusSimulator
from repro.datasets.carhacking import build_vehicle_bus
from repro.datasets.features import BitFeatureEncoder
from repro.errors import SoCError
from repro.soc.arbiter import ARBITRATION_POLICIES, SharedAcceleratorArbiter
from repro.soc.ecu import CHUNK_ROWS, IDSEnabledECU
from repro.soc.gateway import IDSGateway, build_segment_gateway


def _ecu(ip, name="ecu", seed=6, encoder=None, fifo_capacity=64):
    return IDSEnabledECU(
        ip, encoder or BitFeatureEncoder(), name=name, seed=seed, fifo_capacity=fifo_capacity
    )


def _three_channel_gateway(ip, flood=True, fifo_capacity=64):
    """powertrain (optionally DoS-flooded) + body + chassis."""
    return build_segment_gateway(
        ip,
        channels=3,
        flood_window=(0.1, 0.9) if flood else None,
        flood_interval=0.0002,
        names=("powertrain", "body", "chassis"),
        vehicle_seed=3,
        ecu_seed=6,
        fifo_capacity=fifo_capacity,
        name="test-gateway",
    )


class TestStreamSession:
    """FIFO admission, then the chunked classify loop."""

    def test_session_validates_args(self, dos_ip, dos_capture):
        ecu = _ecu(dos_ip, seed=4)
        with pytest.raises(SoCError):
            ecu.open_stream([])
        with pytest.raises(SoCError):
            ecu.open_stream(dos_capture.records[:10], drain_fps=0.0)

    def test_lookback_context_survives_stepping(self, dos_ip, dos_capture):
        """Each chunk re-encodes ``lookback`` context rows and discards them."""

        class PreviousFrameEncoder(BitFeatureEncoder):
            """Row i carries frame i-1's bits; a capture's first row its own."""

            lookback = 1

            def encode_batch(self, capture):
                bits = super().encode_batch(capture)
                return np.concatenate([bits[:1], bits[:-1]])

        capture = dos_capture.capture
        assert len(capture) > CHUNK_ROWS
        encoder = PreviousFrameEncoder()
        ecu = _ecu(dos_ip, seed=4, encoder=encoder)
        whole = ecu.accelerator.run_batch(encoder.encode_batch(capture))
        # The fixture is sensitive: encoding the second chunk without its
        # context row would change the verdict on that chunk's first frame.
        cold = ecu.accelerator.run_batch(encoder.encode_batch(capture[CHUNK_ROWS:]))
        assert cold[0] != whole[CHUNK_ROWS]
        for report in (ecu.process_capture(capture), ecu.process_stream(capture)):
            assert report.fifo_dropped == 0
            np.testing.assert_array_equal(report.predictions, whole)


def _assert_matches_lone_channels(ip, report, fifo_capacity, **stream_kwargs):
    """Each channel equals its capture drained alone through a fresh ECU.

    The oracle rebuilds the ECU ``build_segment_gateway`` attached
    (same name, seed and FIFO depth) and runs ``process_stream`` over
    the channel's observed capture: no other channel exists, so any
    cross-channel coupling in the gateway would show up as a mismatch.
    """
    for index, channel in enumerate(report.channels):
        alone = _ecu(
            ip, f"{channel.name}-ids", seed=6 + index, fifo_capacity=fifo_capacity
        ).process_stream(channel.capture, **stream_kwargs)
        together = channel.report
        np.testing.assert_array_equal(together.predictions, alone.predictions)
        np.testing.assert_array_equal(together.labels, alone.labels)
        np.testing.assert_array_equal(together.latency_samples, alone.latency_samples)
        assert together.fifo_dropped == alone.fifo_dropped
        assert together.metrics == alone.metrics


class TestInterleavedSchedule:
    def test_interleaved_matches_sequential_unloaded(self, dos_ip):
        """Every channel equals its lone drain on unloaded traffic."""
        report = _three_channel_gateway(dos_ip, flood=False).monitor(duration=1.0)
        assert report.total_dropped == 0
        _assert_matches_lone_channels(dos_ip, report, fifo_capacity=64)

    def test_interleaved_matches_sequential_under_flood(self, dos_ip):
        report = _three_channel_gateway(dos_ip, fifo_capacity=16).monitor(
            duration=1.0, drain_fps=2000.0
        )
        assert report.channel("powertrain").dropped > 0
        _assert_matches_lone_channels(dos_ip, report, fifo_capacity=16, drain_fps=2000.0)

    def test_flood_does_not_leak_across_segments(self, dos_ip):
        """The flooded segment drops its own frames; others are untouched."""
        flooded_run = _three_channel_gateway(dos_ip, fifo_capacity=16).monitor(
            duration=1.0, drain_fps=2000.0
        )
        calm_run = _three_channel_gateway(dos_ip, flood=False, fifo_capacity=16).monitor(
            duration=1.0, drain_fps=2000.0
        )
        assert flooded_run.channel("powertrain").dropped > 0
        for name in ("body", "chassis"):
            with_flood = flooded_run.channel(name).report
            without = calm_run.channel(name).report
            # Zero drops, and bit-identical verdicts and latency: the
            # flood next door changes nothing on this segment.
            assert with_flood.fifo_dropped == 0
            np.testing.assert_array_equal(with_flood.predictions, without.predictions)
            np.testing.assert_array_equal(with_flood.latency_samples, without.latency_samples)

    def test_report_names_schedule(self, dos_ip):
        """The summary header names the accelerator deployment."""
        report = _three_channel_gateway(dos_ip, flood=False).monitor(duration=0.5)
        assert report.arbitration_policy is None
        assert "[per-channel IPs]" in report.summary()

    def test_duplicate_segment_names_rejected(self, dos_ip):
        """A dict of buses would merge duplicate names; the builder refuses them."""
        with pytest.raises(SoCError, match="unique"):
            build_segment_gateway(dos_ip, channels=3, names=("body", "body", "chassis"))


class TestQuietChannel:
    def test_quiet_channel_yields_idle_result(self, dos_ip):
        gateway = IDSGateway("quiet-gateway")
        gateway.attach_channel(
            "body", build_vehicle_bus(vehicle_seed=4), _ecu(dos_ip, "body-ids", 7)
        )
        gateway.attach_channel("telematics", BusSimulator(), _ecu(dos_ip, "telematics-ids", 8))
        report = gateway.monitor(duration=1.0)
        idle = report.channel("telematics")
        assert idle.idle
        assert idle.num_frames == 0 and idle.dropped == 0 and idle.num_alerts == 0
        assert idle.bus_load == 0.0
        assert "idle" in report.summary()
        # Aggregates count only the live segment.
        live = report.channel("body")
        assert report.total_frames == live.num_frames > 0
        assert report.aggregate_sustained_fps == live.report.throughput_fps

    def test_all_quiet_gateway_still_reports(self, dos_ip):
        gateway = IDSGateway("parked-gateway")
        gateway.attach_channel("a", BusSimulator(), _ecu(dos_ip, "a-ids", 1))
        gateway.attach_channel("b", BusSimulator(), _ecu(dos_ip, "b-ids", 2))
        report = gateway.monitor(duration=1.0)
        assert all(c.idle for c in report.channels)
        assert report.total_frames == 0 and report.drop_rate == 0.0

    def test_unknown_channel_lookup_rejected(self, dos_ip):
        gateway = IDSGateway()
        gateway.attach_channel(
            "body", build_vehicle_bus(vehicle_seed=4), _ecu(dos_ip, "body-ids", 7)
        )
        with pytest.raises(SoCError):
            gateway.monitor(duration=0.5).channel("powertrain")


class TestArbiter:
    def test_round_robin_divides_slots_equally(self):
        arbiter = SharedAcceleratorArbiter()
        grants = arbiter.plan({"a": 9000.0, "b": 9000.0, "c": 9000.0})
        for grant in grants.values():
            assert grant.slot_factor == 3
            assert grant.effective_drain_fps == pytest.approx(3000.0)
            assert grant.wait_slots == 2
            assert grant.slowdown == pytest.approx(3.0)

    def test_round_robin_heterogeneous_bases(self):
        grants = SharedAcceleratorArbiter().plan({"fast": 12000.0, "slow": 6000.0})
        assert grants["fast"].effective_drain_fps == pytest.approx(6000.0)
        assert grants["slow"].effective_drain_fps == pytest.approx(3000.0)

    def test_fixed_priority_ranks_and_blocking(self):
        arbiter = SharedAcceleratorArbiter(
            policy="fixed-priority", priorities={"pt": 0, "body": 1, "tel": 2}
        )
        grants = arbiter.plan({"pt": 9000.0, "body": 9000.0, "tel": 9000.0})
        # Raw worst-case factors (2, 3, 3) would grant 7/6 of a slot per
        # slot, so they are scaled by 7/6; the priority ordering holds
        # and every channel is strictly slower than running alone.
        assert grants["pt"].slot_factor == pytest.approx(7.0 / 3.0)
        assert grants["body"].slot_factor == pytest.approx(3.5)
        assert grants["tel"].slot_factor == pytest.approx(3.5)
        assert grants["pt"].effective_drain_fps > grants["body"].effective_drain_fps
        assert all(g.effective_drain_fps < 9000.0 for g in grants.values())

    @pytest.mark.parametrize("policy", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_granted_shares_never_oversubscribe_the_core(self, policy, count):
        """Sum of slot shares <= 1: one inference per service slot, total."""
        priorities = {f"c{i}": i for i in range(count)}
        arbiter = SharedAcceleratorArbiter(policy=policy, priorities=priorities)
        grants = arbiter.plan({f"c{i}": 9000.0 for i in range(count)})
        assert sum(1.0 / g.slot_factor for g in grants.values()) <= 1.0 + 1e-9

    def test_fixed_priority_unlisted_channels_rank_last(self):
        arbiter = SharedAcceleratorArbiter(policy="fixed-priority", priorities={"pt": 0})
        grants = arbiter.plan({"body": 1000.0, "pt": 1000.0, "tel": 1000.0})
        assert grants["pt"].rank == 0
        assert grants["body"].rank == 1  # plan order breaks the tie
        assert grants["tel"].rank == 2

    def test_two_channel_fixed_priority_is_symmetric(self):
        """Rank 0's blocking slot equals rank 1's wait: both get half."""
        grants = SharedAcceleratorArbiter(policy="fixed-priority").plan(
            {"a": 8000.0, "b": 8000.0}
        )
        assert grants["a"].slot_factor == pytest.approx(2.0)
        assert grants["b"].slot_factor == pytest.approx(2.0)

    def test_single_channel_keeps_full_rate(self):
        for policy in ARBITRATION_POLICIES:
            (grant,) = SharedAcceleratorArbiter(policy=policy).plan({"solo": 5000.0}).values()
            assert grant.slot_factor == 1
            assert grant.effective_drain_fps == pytest.approx(5000.0)

    def test_slot_overhead_slows_every_channel(self):
        base = {"a": 10000.0, "b": 10000.0}
        free = SharedAcceleratorArbiter().plan(base)
        taxed = SharedAcceleratorArbiter(slot_overhead_s=50e-6).plan(base)
        for name in base:
            assert taxed[name].effective_drain_fps < free[name].effective_drain_fps

    def test_validation(self):
        with pytest.raises(SoCError):
            SharedAcceleratorArbiter(policy="lottery")
        with pytest.raises(SoCError):
            SharedAcceleratorArbiter(slot_overhead_s=-1.0)
        with pytest.raises(SoCError):
            SharedAcceleratorArbiter().plan({})
        with pytest.raises(SoCError):
            SharedAcceleratorArbiter().plan({"a": 0.0})


class TestSharedIPGateway:
    def test_shared_ip_reduces_every_drain_deterministically(self, dos_ip):
        """The acceptance scenario: flooded 3-channel gateway, per-IP vs shared."""
        per_ip = _three_channel_gateway(dos_ip).monitor(duration=1.0)
        shared = _three_channel_gateway(dos_ip).monitor(
            duration=1.0, arbiter=SharedAcceleratorArbiter()
        )
        assert shared.arbitration_policy == "round-robin"
        for name in ("powertrain", "body", "chassis"):
            alone = per_ip.channel(name)
            arbitrated = shared.channel(name)
            assert arbitrated.grant is not None and arbitrated.grant.slot_factor == 3
            assert arbitrated.effective_drain_fps == pytest.approx(
                alone.effective_drain_fps / 3.0
            )
            assert arbitrated.report.throughput_fps == pytest.approx(
                arbitrated.effective_drain_fps
            )
        assert shared.aggregate_sustained_fps == pytest.approx(
            per_ip.aggregate_sustained_fps / 3.0
        )
        assert "shared IP" in shared.summary()

    def test_shared_ip_run_is_reproducible(self, dos_ip):
        reports = [
            _three_channel_gateway(dos_ip).monitor(
                duration=1.0, arbiter=SharedAcceleratorArbiter()
            )
            for _ in range(2)
        ]
        for name in ("powertrain", "body", "chassis"):
            first, second = (r.channel(name) for r in reports)
            assert first.dropped == second.dropped
            np.testing.assert_array_equal(first.report.predictions, second.report.predictions)

    def test_quiet_channel_excluded_from_arbitration(self, dos_ip):
        """Idle segments claim no accelerator slots."""
        gateway = IDSGateway("mixed-gateway")
        gateway.attach_channel(
            "body", build_vehicle_bus(vehicle_seed=4), _ecu(dos_ip, "body-ids", 7)
        )
        gateway.attach_channel(
            "chassis", build_vehicle_bus(vehicle_seed=5), _ecu(dos_ip, "chassis-ids", 8)
        )
        gateway.attach_channel("telematics", BusSimulator(), _ecu(dos_ip, "telematics-ids", 9))
        report = gateway.monitor(duration=1.0, arbiter=SharedAcceleratorArbiter())
        assert report.channel("telematics").idle
        assert report.channel("telematics").grant is None
        # Two live channels -> each granted half, not a third.
        assert report.channel("body").grant.slot_factor == 2
        assert report.channel("chassis").grant.slot_factor == 2


class TestE5GatewayRows:
    def test_throughput_result_renders_both_configurations(self, experiment_context):
        from repro.experiments.throughput import render_throughput, run_throughput

        result = run_throughput(
            experiment_context, eval_frames=600, gateway_channels=3, gateway_duration=0.5
        )
        assert result.gateway_channels == 3
        assert result.gateway_per_ip_fps > result.gateway_shared_ip_fps > 0
        assert result.gateway_per_ip_fps == pytest.approx(
            3 * result.gateway_shared_ip_fps
        )
        assert len(result.gateway_shared_ip_channel_fps) == 3
        text = render_throughput(result).render()
        assert "per-channel IPs" in text
        assert "shared IP" in text

    def test_gateway_rows_can_be_skipped(self, experiment_context):
        from repro.experiments.throughput import render_throughput, run_throughput

        result = run_throughput(experiment_context, eval_frames=600, gateway_channels=0)
        assert result.gateway_per_ip_fps == result.gateway_shared_ip_fps == 0.0
        assert "shared IP" not in render_throughput(result).render()
