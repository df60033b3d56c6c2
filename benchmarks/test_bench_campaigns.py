"""Micro-benchmark: the attack-campaign scenario sweep.

Drives every registered scenario through the campaign gateway in both
deployments (per-channel IPs vs one shared round-robin IP) and archives
wall time, aggregate sustained rates, drop rates and phase-detection
counts to ``benchmarks/output/BENCH_campaigns.json`` — the scenario
framework's perf trajectory from this PR onward.  The rendered sweep
table is archived as ``EC-campaigns.txt``.  Every scenario deploys its
*matching* trained detector (the JSON records the per-scenario
choice), and bus windows run on the columnar arbitration kernel; ``wall_seconds`` times the sweep itself — the detectors are
trained before the clock starts.

A small detector is trained in-file (as in the gateway benchmark), so
the file runs in around a minute and needs none of the heavyweight
benchmark fixtures.  With ``REPRO_BENCH_SMOKE=1`` (CI smoke lane) the
sweep shrinks to one iteration over tiny inputs and writes under
``benchmarks/output/smoke/`` so the committed trajectory is untouched.
"""

import time

import pytest
from _bench_lane import OUTPUT_DIR, SMOKE, write_bench

from repro.can.campaign import SCENARIOS, scenario_detector
from repro.experiments.campaigns import render_campaign_sweep, run_campaign_sweep
from repro.experiments.context import ExperimentContext, ExperimentSettings

#: Campaign length every scenario is rescaled to.
DURATION = 1.0 if SMOKE else 3.0


@pytest.fixture(scope="module")
def sweep_context():
    # Smoke keeps 4 s of capture: the default attack schedule opens its
    # first burst at t=2 s, so anything shorter trains on no attacks.
    settings = (
        ExperimentSettings(duration=4.0, epochs=2, seed=2023)
        if SMOKE
        else ExperimentSettings(duration=6.0, epochs=8, seed=2023)
    )
    return ExperimentContext(settings)


def test_bench_campaign_sweep(sweep_context):
    # Train/compile each scenario-matched detector outside the timed
    # window: wall_seconds tracks the sweep itself, not model training.
    needed = {
        scenario_detector(SCENARIOS.build(name, duration=DURATION))
        for name in SCENARIOS.names()
    }
    for detector in sorted(needed):
        sweep_context.ip(detector)

    start = time.perf_counter()
    result = run_campaign_sweep(sweep_context, duration=DURATION)
    wall_s = time.perf_counter() - start
    table = render_campaign_sweep(result)

    # Structural invariants the sweep must keep as the catalogue grows.
    assert result.health.ok  # every scenario completed
    assert len(result.scenario_names()) >= 10
    assert len(result.runs) == 2 * len(result.scenario_names())
    for run in result.runs:
        assert run.report.total_frames > 0
        # Truth windows attribute every injecting phase to its channel.
        assert len(run.report.phase_outcomes) == len(run.campaign.phases)
    for scenario in result.scenario_names():
        per_ip = result.run(scenario, "per-ip")
        shared = result.run(scenario, "shared-ip")
        # Sharing one IP can only cost capacity, never add it.
        assert (
            shared.report.aggregate_sustained_fps
            <= per_ip.report.aggregate_sustained_fps + 1e-9
        )

    payload = {
        "scenarios": len(result.scenario_names()),
        "campaign_duration_s": DURATION,
        "wall_seconds": round(wall_s, 3),
        # Resolved by ExecOptions at run time ("auto" picks process
        # fan-out on multi-core hosts): record what actually ran.
        "backend": result.backend,
        "engine": result.engine,
        # Every scenario carries the detector matching its mechanics;
        # the per-scenario map records which one that was.
        "detectors": result.detectors(),
        # Resilience configuration and what the run survived ("health"
        # counters carry no gating markers, so they never join the
        # cross-run comparison).
        "timeout_s": result.options.timeout_s,
        "max_retries": result.options.max_retries,
        "strict": result.options.strict,
        "health": result.health.as_record(),
        "sustained_fps": {
            f"{run.scenario}/{run.mode}": round(run.report.aggregate_sustained_fps, 1)
            for run in result.runs
        },
        "drop_rate": {
            f"{run.scenario}/{run.mode}": round(run.report.drop_rate, 4)
            for run in result.runs
        },
        "phases_detected": {
            f"{run.scenario}/{run.mode}": f"{run.phases_detected}/{run.phases_injecting}"
            for run in result.runs
        },
    }
    write_bench("campaigns", payload)
    (OUTPUT_DIR / "EC-campaigns.txt").write_text(table.render() + "\n", encoding="utf-8")
    print()
    print(table.render())
    print(
        f"\ncampaign sweep: {len(result.runs)} runs "
        f"({len(result.scenario_names())} scenarios x 2 deployments) in {wall_s:.1f}s"
    )
