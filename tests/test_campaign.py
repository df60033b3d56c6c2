"""The attack-campaign framework: new injectors, compilation, labelling.

Pins the contracts of the scenario-generator PR:

* the new injector mechanics — masquerade suppresses the legitimate
  sender's frames, suspension delays without reordering other IDs,
  burst/ramp DoS profiles stay inside their windows;
* campaign compilation produces per-channel buses whose ground-truth
  labels agree with the phase windows frame-by-frame, and a masquerade
  stacks on an earlier suspension or masquerade of the same victim;
* the scenario registry exposes the canonical catalogue (>= 10
  scenarios) and every entry compiles and runs;
* the gateway's campaign-aware labelling attributes per-channel
  verdicts to phases, and the sweep runner drives scenarios through
  both gateway deployments.
"""

import numpy as np
import pytest
from _engine_ab import assert_same_window

from repro.can.attacks import (
    BurstDoSAttacker,
    MasqueradeAttacker,
    RampDoSAttacker,
    ReplayAttacker,
    SuspensionAttacker,
)
from repro.can.campaign import (
    SCENARIOS,
    AttackPhase,
    Campaign,
    ScenarioRegistry,
    compile_campaign,
)
from repro.can.fastbus import ScheduleArray
from repro.can.frame import CANFrame
from repro.can.node import PeriodicSender, counter_payload
from repro.errors import CANError, ConfigError, SoCError
from repro.experiments.campaigns import render_campaign_sweep, run_campaign_sweep
from repro.fleet import ExecOptions
from repro.soc.gateway import build_campaign_gateway


def _victim(can_id=0x316, period=0.010, jitter=0.0, phase=0.0):
    return PeriodicSender(
        can_id, period, payload_model=counter_payload(), jitter=jitter, phase=phase, seed=5
    )


class TestBurstRampProfiles:
    def test_burst_flood_respects_on_off_pulses(self):
        attacker = BurstDoSAttacker(
            [(0.0, 1.0)], burst_on=0.1, burst_off=0.1, interval=0.01
        )
        releases = attacker.frames_array(10.0).release_times.tolist()
        assert releases and all(0.0 <= r < 1.0 for r in releases)
        # Releases fall only inside [0.0,0.1], [0.2,0.3], [0.4,0.5]...
        # (tolerances absorb the accumulated float steps).
        for release in releases:
            position = release % 0.2
            assert position <= 0.1 + 1e-9 or position >= 0.2 - 1e-9
        # Five on-pulses of ~10 frames each.
        assert 50 <= len(releases) <= 55

    def test_burst_flood_clips_at_horizon(self):
        attacker = BurstDoSAttacker([(0.0, 1.0)], burst_on=0.1, burst_off=0.1, interval=0.01)
        releases = attacker.frames_array(0.25).release_times
        assert releases.size and releases.max() < 0.25

    def test_ramp_intervals_shrink_toward_window_end(self):
        attacker = RampDoSAttacker([(0.0, 2.0)], interval_start=0.1, interval_end=0.01)
        gaps = np.diff(attacker.frames_array(10.0).release_times)
        assert np.all(np.diff(gaps) < 1e-12)  # monotonically accelerating
        assert gaps[0] == pytest.approx(0.1, rel=0.01)
        assert gaps[-1] == pytest.approx(0.01, rel=0.15)

    def test_ramp_profile_independent_of_horizon_clipping(self):
        attacker = RampDoSAttacker([(0.0, 2.0)], interval_start=0.1, interval_end=0.01)
        full = attacker.frames_array(10.0).release_times.tolist()
        clipped = attacker.frames_array(1.0).release_times.tolist()
        assert clipped == [r for r in full if r < 1.0]

    def test_validation(self):
        with pytest.raises(CANError):
            BurstDoSAttacker([(0.0, 1.0)], burst_on=0.0)
        with pytest.raises(CANError):
            RampDoSAttacker([(0.0, 1.0)], interval_start=0.0)


class TestSuspension:
    def test_drop_silences_target_inside_window_only(self):
        attacker = SuspensionAttacker(_victim(), [(0.2, 0.4)], mode="drop")
        schedule = attacker.frames_array(0.6)
        releases = schedule.release_times
        assert not np.any((releases >= 0.2) & (releases < 0.4))
        # Frames outside the window pass through unchanged, label "R".
        outside = releases < 0.2
        assert outside.any() and np.all(schedule.labels[outside] == 0)

    def test_delay_shifts_target_frames_and_labels_them(self):
        victim = _victim()
        baseline = _victim().frames_array(0.6).release_times
        attacker = SuspensionAttacker(victim, [(0.2, 0.4)], mode="delay", delay=0.005)
        schedule = attacker.frames_array(0.6)
        tampered = schedule.release_times[schedule.labels == 1]
        assert tampered.size
        for release in tampered.tolist():
            original = release - 0.005
            assert np.min(np.abs(baseline - original)) < 1e-9
            assert 0.2 - 1e-9 <= original < 0.4

    def test_delay_does_not_reorder_other_ids(self):
        victim = _victim(can_id=0x316)
        bystander = _victim(can_id=0x130, phase=0.002).frames_array(0.6)
        attacker = SuspensionAttacker(victim, [(0.2, 0.4)], mode="delay", delay=0.005)
        # The wrapper only sees the victim; other senders are untouched
        # by construction.  What must hold is the TrafficSource order
        # contract, so a bus merging both streams keeps bystander order.
        assert np.all(np.diff(attacker.frames_array(0.6).release_times) >= 0)
        assert np.all(np.diff(bystander.release_times) >= 0)

    def test_validation(self):
        with pytest.raises(CANError):
            SuspensionAttacker(_victim(), [(0.0, 1.0)], mode="nonsense")
        with pytest.raises(CANError):
            SuspensionAttacker(_victim(), [(0.0, 1.0)], mode="delay", delay=0.0)


class TestMasquerade:
    def test_suppresses_legitimate_sender_inside_window(self):
        attacker = MasqueradeAttacker(_victim(), [(0.2, 0.4)], seed=3)
        schedule = attacker.frames_array(0.6)
        releases = schedule.release_times
        in_window = (releases >= 0.2) & (releases < 0.4)
        assert in_window.any()
        # Every in-window 0x316 frame is the attacker's, none the victim's.
        assert np.all(schedule.labels[in_window] == 1)

    def test_spoofs_at_victim_cadence(self):
        victim = _victim(period=0.010)
        attacker = MasqueradeAttacker(victim, [(0.2, 0.4)], seed=3)
        schedule = attacker.frames_array(0.6)
        gaps = np.diff(schedule.release_times[schedule.labels == 1])
        assert np.allclose(gaps, 0.010)

    def test_passes_victim_through_outside_window(self):
        attacker = MasqueradeAttacker(_victim(), [(0.2, 0.4)], seed=3)
        schedule = attacker.frames_array(0.6)
        releases = schedule.release_times
        outside = (releases < 0.2) | (releases >= 0.4)
        assert outside.any() and np.all(schedule.labels[outside] == 0)
        assert np.all(schedule.can_ids[outside] == 0x316)

    def test_needs_target_and_cadence(self):
        class Opaque:
            def frames_array(self, until):
                return ScheduleArray.empty()

        with pytest.raises(CANError, match="target_id"):
            MasqueradeAttacker(Opaque(), [(0.0, 1.0)])
        with pytest.raises(CANError, match="interval"):
            MasqueradeAttacker(Opaque(), [(0.0, 1.0)], target_id=0x316)


class TestReplayWindowing:
    """The bugfix: replay shares the windowed injectors' semantics."""

    def test_multiple_windows_replay_in_each(self):
        capture = [CANFrame(0x100, bytes(2)), CANFrame(0x200, bytes(2))]
        attacker = ReplayAttacker(
            capture, offsets=[0.0, 0.005], windows=[(1.0, 2.0), (3.0, 4.0)]
        )
        releases = attacker.frames_array(10.0).release_times.tolist()
        assert releases == [1.0, 1.005, 3.0, 3.005]

    def test_horizon_clips_like_other_injectors(self):
        capture = [CANFrame(0x100)] * 3
        attacker = ReplayAttacker(
            capture, offsets=[0.0, 0.5, 0.9], windows=[(0.0, 1.0), (2.0, 3.0)]
        )
        assert len(attacker.frames_array(0.6)) == 2  # 0.0, 0.5 (0.9 clipped)
        assert len(attacker.frames_array(10.0)) == 6

    def test_window_validation_matches_injectors(self):
        with pytest.raises(CANError):
            ReplayAttacker([CANFrame(0x1)], offsets=[0.0], windows=[(1.0, 1.0)])


class TestCampaignModel:
    def test_phase_validation(self):
        with pytest.raises(CANError):
            AttackPhase("warp-core-breach", 0.0, 1.0)
        with pytest.raises(CANError):
            AttackPhase("dos", 1.0, 1.0)
        with pytest.raises(CANError, match="target_id"):
            AttackPhase("masquerade", 0.0, 1.0)

    def test_campaign_managed_params_rejected(self):
        # A user-supplied name would desynchronise source attribution
        # from the truth windows; seed/window are campaign-derived too.
        for bad in ({"name": "my-flood"}, {"seed": 5}, {"windows": [(0.0, 1.0)]}):
            with pytest.raises(CANError, match="campaign-managed"):
                AttackPhase("dos", 0.0, 1.0, params=bad)

    def test_campaign_validation(self):
        phase = AttackPhase("dos", 0.5, 1.5, "powertrain")
        with pytest.raises(CANError, match="unknown channel"):
            Campaign("bad", 2.0, ("body",), (phase,))
        with pytest.raises(CANError, match="duplicate"):
            Campaign("bad", 2.0, ("body", "body"), ())
        with pytest.raises(CANError, match="beyond"):
            Campaign("bad", 0.4, ("powertrain",), (phase,))

    def test_truth_windows_carry_delay_slack(self):
        campaign = Campaign(
            "slack",
            4.0,
            ("powertrain",),
            (
                AttackPhase(
                    "suspension", 1.0, 2.0, "powertrain",
                    {"target_id": 0x316, "mode": "delay", "delay": 0.05},
                ),
                AttackPhase("dos", 2.5, 3.0, "powertrain"),
            ),
        )
        windows = campaign.truth_windows()["powertrain"]
        assert windows[0][2] == pytest.approx(2.05)  # delay slack added
        assert windows[1][2] == pytest.approx(3.0)  # injectors clip inside

    def test_ground_truth_agrees_with_windows_frame_by_frame(self):
        """Every labelled frame of every scenario lies in a phase window."""
        for name in SCENARIOS:
            campaign = SCENARIOS.build(name, duration=1.2)
            buses = compile_campaign(campaign, vehicle_seed=11)
            truth = campaign.truth_windows()
            for channel, bus in buses.items():
                window = bus.run(campaign.duration)
                assert len(window), f"{name}/{channel} produced no traffic"
                attack_releases = window.queued_at[window.capture.labels == 1]
                inside = np.zeros(attack_releases.shape, dtype=bool)
                for _, start, end in truth[channel]:
                    inside |= (start <= attack_releases) & (attack_releases < end)
                assert inside.all(), (
                    f"{name}/{channel}: T frames at {attack_releases[~inside]} outside windows"
                )
                # Every injecting phase put evidence on the wire.
                for (_, start, end), phase in zip(truth[channel], campaign.phases_on(channel)):
                    if phase.injects:
                        assert np.any(
                            (start <= attack_releases) & (attack_releases < end)
                        ), f"{name}/{channel}: no attack frames in {phase.kind} window"

    def test_suspension_drop_removes_frames_from_the_wire(self):
        campaign = SCENARIOS.build("suspension-drop", duration=1.2)
        buses = compile_campaign(campaign, vehicle_seed=11)
        (channel,) = campaign.channels
        window = buses[channel].run(campaign.duration)
        (start, end) = campaign.phases[0].window
        victim = window.capture.can_ids == 0x43F
        released = window.queued_at
        assert not np.any(victim & (start <= released) & (released < end))
        # The sender exists and transmits outside the window.
        assert np.any(victim & (released < start))

    def test_masquerade_keeps_target_cadence_on_the_wire(self):
        campaign = SCENARIOS.build("masquerade-rpm", duration=1.2)
        buses = compile_campaign(campaign, vehicle_seed=11)
        (channel,) = campaign.channels
        window = buses[channel].run(campaign.duration)
        (start, end) = campaign.phases[0].window
        released = window.queued_at
        in_window = (window.capture.can_ids == 0x316) & (start <= released) & (released < end)
        assert in_window.any() and np.all(window.capture.labels[in_window] == 1)

    @pytest.mark.parametrize("first", ["suspension", "masquerade"])
    def test_masquerade_stacks_on_an_earlier_wrapper_of_its_victim(self, first):
        # The masquerade finds the earlier phase's wrapper in the victim's
        # place and takes its default cadence from the wrapper's period.
        campaign = Campaign(
            "stacked",
            0.3,
            ("segment0",),
            (
                AttackPhase(first, 0.05, 0.1, params={"target_id": 0x316}),
                AttackPhase("masquerade", 0.15, 0.25, params={"target_id": 0x316}),
            ),
        )
        event = compile_campaign(campaign, vehicle_seed=11)["segment0"]
        columnar = compile_campaign(campaign, vehicle_seed=11)["segment0"]
        window = event.run(campaign.duration)
        assert_same_window(window, columnar.capture(campaign.duration))
        released = window.queued_at
        spoofed = (window.capture.labels == 1) & (released >= 0.15)
        assert np.all(window.capture.can_ids[spoofed] == 0x316)
        assert spoofed.sum() == 10  # 0.15, 0.16, ..., 0.24
        assert np.allclose(np.diff(released[spoofed]), 0.010)


class TestScenarioRegistry:
    def test_catalogue_size_and_descriptions(self):
        assert len(SCENARIOS) >= 10
        descriptions = SCENARIOS.describe()
        assert set(descriptions) == set(SCENARIOS.names())
        assert all(descriptions.values())

    def test_build_rescales_duration(self):
        campaign = SCENARIOS.build("baseline-dos", duration=2.0)
        assert campaign.duration == 2.0
        assert all(phase.end <= 2.0 for phase in campaign.phases)

    def test_unknown_scenario(self):
        with pytest.raises(CANError, match="unknown scenario"):
            SCENARIOS.build("does-not-exist")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register("one", "first")(lambda duration=1.0: None)
        with pytest.raises(CANError, match="already registered"):
            registry.register("one", "again")


class TestCampaignGateway:
    def test_phase_outcomes_attributed_per_channel(self, dos_ip):
        campaign = SCENARIOS.build("staggered-cross-segment", duration=1.6)
        gateway = build_campaign_gateway(dos_ip, campaign, vehicle_seed=3, ecu_seed=6)
        report = gateway.monitor(duration=campaign.duration, truth=campaign.truth_windows())
        assert len(report.phase_outcomes) == len(campaign.phases)
        for outcome in report.phase_outcomes:
            assert outcome.serviced_attack_frames <= outcome.attack_frames
            assert outcome.true_alerts <= outcome.serviced_attack_frames
            if outcome.detection_latency_s is not None:
                # First evidence can complete past the window end under
                # queueing, but never before the phase starts.
                assert 0.0 <= outcome.detection_latency_s < campaign.duration
        # The DoS-trained detector catches the DoS phase...
        dos_outcome = report.channel("powertrain").phase_outcomes[0]
        assert dos_outcome.detected and dos_outcome.window_recall > 0.9
        # ...and the channel capture is exposed for downstream labelling.
        assert report.channel("powertrain").capture is not None

    def test_overlapping_phases_do_not_cross_credit(self, dos_ip):
        """Attack frames attribute to the phase that produced them.

        In overlapping-mixed the DoS and fuzzy windows intersect on
        'powertrain'; window-only attribution would count the flagged
        DoS frames toward the fuzzy phase too (double counting, and a
        phantom fuzzy 'detection' from a detector that never flags
        fuzzy traffic).  Sources disambiguate.
        """
        campaign = SCENARIOS.build("overlapping-mixed", duration=1.6)
        gateway = build_campaign_gateway(dos_ip, campaign, vehicle_seed=3, ecu_seed=6)
        report = gateway.monitor(duration=campaign.duration, truth=campaign.truth_windows())
        outcomes = {o.phase: o for o in report.channel("powertrain").phase_outcomes}
        dos_outcome = outcomes["dos@powertrain#0"]
        fuzzy_outcome = outcomes["fuzzy@powertrain#1"]
        total_attack = int(report.channel("powertrain").capture.labels.sum())
        # Every attack frame belongs to exactly one phase: no double count.
        assert dos_outcome.attack_frames + fuzzy_outcome.attack_frames == total_attack
        assert dos_outcome.detected
        # The fuzzy phase's credit is bounded by its own frames.
        assert fuzzy_outcome.true_alerts <= fuzzy_outcome.serviced_attack_frames

    def test_frameless_phase_never_credits_a_neighbouring_flood(self, dos_ip):
        """A drop-mode suspension overlapping a DoS flood reports zero.

        The drop phase puts no frames on the wire; window-containment
        attribution would hand it the concurrent flood's flagged frames
        and mark an undetectable phase DETECTED.
        """
        campaign = Campaign(
            name="drop-under-flood",
            duration=1.6,
            channels=("powertrain",),
            phases=(
                AttackPhase("dos", 0.3, 1.2, "powertrain"),
                AttackPhase(
                    "suspension", 0.5, 1.0, "powertrain",
                    {"target_id": 0x43F, "mode": "drop"},
                ),
            ),
        )
        gateway = build_campaign_gateway(dos_ip, campaign, vehicle_seed=3, ecu_seed=6)
        report = gateway.monitor(duration=campaign.duration, truth=campaign.truth_windows())
        outcomes = {o.phase: o for o in report.phase_outcomes}
        assert outcomes["dos@powertrain#0"].detected
        drop_outcome = outcomes["suspension@powertrain#1"]
        assert drop_outcome.attack_frames == 0
        assert drop_outcome.true_alerts == 0
        assert not drop_outcome.detected

    def test_truth_is_optional_and_validated(self, dos_ip):
        campaign = SCENARIOS.build("baseline-dos", duration=1.2)
        gateway = build_campaign_gateway(dos_ip, campaign, vehicle_seed=3)
        report = gateway.monitor(duration=campaign.duration)
        assert report.channels[0].phase_outcomes == ()
        with pytest.raises(SoCError, match="unknown channel"):
            gateway.monitor(duration=1.0, truth={"nonexistent": [("p", 0.0, 1.0)]})

    def test_sweep_runs_every_requested_scenario_in_both_modes(self, experiment_context):
        result = run_campaign_sweep(
            experiment_context,
            scenarios=["baseline-dos", "multi-segment-storm"],
            duration=1.0,
        )
        assert [run.mode for run in result.runs] == ["per-ip", "shared-ip"] * 2
        for run in result.runs:
            assert run.report.total_frames > 0
            assert len(run.report.phase_outcomes) == len(run.campaign.phases)
        storm_shared = result.run("multi-segment-storm", "shared-ip")
        storm_per_ip = result.run("multi-segment-storm", "per-ip")
        assert (
            storm_shared.report.aggregate_sustained_fps
            < storm_per_ip.report.aggregate_sustained_fps
        )
        rendered = render_campaign_sweep(result).render()
        assert "multi-segment-storm" in rendered and "shared-ip" in rendered

    def test_parallel_sweep_matches_serial(self, experiment_context):
        """Process-pooled sweep: same seeds, same verdicts, same order."""
        names = ["baseline-dos", "overlapping-mixed"]
        serial = run_campaign_sweep(
            experiment_context,
            scenarios=names,
            duration=1.0,
            options=ExecOptions(backend="thread", max_workers=1),
        )
        parallel = run_campaign_sweep(
            experiment_context,
            scenarios=names,
            duration=1.0,
            options=ExecOptions(backend="process", max_workers=2),
        )
        assert [(r.scenario, r.mode) for r in serial.runs] == [
            (r.scenario, r.mode) for r in parallel.runs
        ]
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert serial_run.report.total_frames == parallel_run.report.total_frames
            assert serial_run.report.total_dropped == parallel_run.report.total_dropped
            assert serial_run.phases_detected == parallel_run.phases_detected
            for left, right in zip(
                serial_run.report.channels, parallel_run.report.channels
            ):
                if left.report is None:
                    assert right.report is None
                    continue
                np.testing.assert_array_equal(
                    left.report.predictions, right.report.predictions
                )

    def test_invalid_worker_count_rejected(self, experiment_context):
        with pytest.raises(ConfigError):
            run_campaign_sweep(
                experiment_context,
                scenarios=["baseline-dos"],
                options=ExecOptions(max_workers=0),
            )
