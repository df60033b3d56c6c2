"""Experiment E11 — the attack-campaign scenario sweep.

The paper evaluates on the four canned Car-Hacking attack classes; the
campaign framework (:mod:`repro.can.campaign`) turns the simulator into
a scenario *generator*.  This harness drives every registered scenario
through the multi-channel gateway twice — once with a detector IP per
channel, once with all channels time-multiplexing a single shared IP
behind a round-robin arbiter — and tabulates, per scenario and
deployment:

* traffic volume and RX-FIFO drop rate (does the deployment keep up?),
* how many attack phases raised at least one true alert, and the worst
  (slowest) per-phase detection latency,
* per-frame detection quality (F1 over serviced frames) and p99
  end-to-end latency including queueing.

**Detector choice.**  Every channel of a scenario's gateway carries the
trained QMLP matching the scenario's attack mechanics
(:func:`~repro.can.campaign.scenario_detector`): DoS-family floods get
the DoS detector, fuzzing gets the Fuzzy detector, RPM/gear spoofing
and masquerade get the corresponding spoofing detector.  Mechanics
without a trained counterpart (replay, suspension — their evidence is
staleness or absence, not per-frame signatures) fall back to the DoS
detector, so their rows read as the honest coverage gap they are.

**Execution.**  Scenarios are independent, so the sweep fans them out
over the shared shard machinery (:mod:`repro.fleet.pool`) configured by
an :class:`~repro.fleet.spec.ExecOptions` — the same run-spec the fleet
runner takes.  ``backend="auto"`` (default) picks process fan-out on
multi-core hosts (picklable IPs shipped once via the pool initializer)
and in-process execution elsewhere; every seed derives from the
scenario's registry index, so results are order-stable and identical to
the serial loop.
The resolved options are recorded on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.can.campaign import (
    SCENARIOS,
    Campaign,
    ScenarioRegistry,
    compile_campaign,
    scenario_detector,
)
from repro.errors import ConfigError
from repro.experiments.context import ExperimentContext
from repro.finn.compiled import engine_for
from repro.fleet.health import RunHealth
from repro.fleet.pool import run_sharded, warm_engines, worker_state
from repro.fleet.spec import ExecOptions
from repro.soc.arbiter import SharedAcceleratorArbiter
from repro.soc.gateway import GatewayReport, gateway_from_buses
from repro.utils.rng import derive_seed
from repro.utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.can.bus import BusSimulator
    from repro.can.fastbus import ArbitrationResult
    from repro.can.faults import WireFaultModel

__all__ = [
    "ScenarioRun",
    "CampaignSweepResult",
    "run_campaign_sweep",
    "render_campaign_sweep",
]

#: Gateway deployments each scenario is swept through.
SWEEP_MODES = ("per-ip", "shared-ip")


@dataclass(frozen=True)
class ScenarioRun:
    """One scenario through one gateway deployment."""

    scenario: str
    description: str
    mode: str  #: "per-ip" (one accelerator per channel) or "shared-ip"
    campaign: Campaign
    report: GatewayReport
    detector: str = "dos"  #: attack type the deployed detector was trained for

    @property
    def phases_total(self) -> int:
        return len(self.report.phase_outcomes)

    @property
    def phases_injecting(self) -> int:
        """Phases that put labelled frames on the wire (detectable ones)."""
        return sum(1 for phase in self.campaign.phases if phase.injects)

    @property
    def phases_detected(self) -> int:
        return self.report.phases_detected

    @property
    def attack_frames(self) -> int:
        """Ground-truth attack frames observed across all channels."""
        return sum(
            int(c.capture.labels.sum())
            for c in self.report.channels
            if c.capture is not None
        )


@dataclass
class CampaignSweepResult:
    """Every registered scenario through every gateway deployment.

    ``options`` is the *resolved* run-spec (resilience knobs included;
    the backend is the concrete one — never ``"auto"``), so serialised
    artifacts say how they were produced.
    """

    runs: list[ScenarioRun]
    duration: float
    options: ExecOptions
    health: RunHealth = field(default_factory=RunHealth)
    _index: dict[tuple[str, str], ScenarioRun] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def backend(self) -> str:
        """The concrete backend the sweep ran on."""
        return self.options.backend

    @property
    def engine(self) -> str:
        """The bus-simulation engine the sweep used."""
        return self.options.engine

    def scenario_names(self) -> list[str]:
        names: list[str] = []
        for run in self.runs:
            if run.scenario not in names:
                names.append(run.scenario)
        return names

    def run(self, scenario: str, mode: str) -> ScenarioRun:
        """Look one run up by ``(scenario, mode)`` — indexed, not scanned."""
        if len(self._index) != len(self.runs):
            self._index.clear()
            self._index.update({(r.scenario, r.mode): r for r in self.runs})
        try:
            return self._index[(scenario, mode)]
        except KeyError:
            raise ConfigError(
                f"no sweep run for scenario {scenario!r} in mode {mode!r}"
            ) from None

    def detectors(self) -> dict[str, str]:
        """``{scenario: detector}`` actually deployed per scenario."""
        return {run.scenario: run.detector for run in self.runs}


class _CachedBus:
    """Replay one simulated traffic window to several gateway runs.

    Both sweep deployments (per-IP and shared-IP) see byte-identical
    traffic by construction — only the drain rates differ — so the
    expensive arbitration-accurate simulation runs once per scenario
    and this wrapper hands the recorded window to each monitor call.
    Either engine's window is one
    :class:`~repro.can.fastbus.ArbitrationResult`, cached under the
    engine that made it.
    """

    def __init__(self, bus: BusSimulator):
        self._bus = bus
        self._windows: dict[tuple, ArbitrationResult] = {}

    def run(self, duration: float, faults: WireFaultModel | None = None) -> ArbitrationResult:
        return self._window("run", duration, faults)

    def capture(
        self, duration: float, faults: WireFaultModel | None = None
    ) -> ArbitrationResult:
        return self._window("capture", duration, faults)

    def _window(
        self, engine: str, duration: float, faults: WireFaultModel | None
    ) -> ArbitrationResult:
        # WireFaultModel is frozen/hashable, so (engine, duration, faults)
        # keys one simulated window per engine and fault configuration.
        key = (engine, duration, faults)
        if key not in self._windows:
            self._windows[key] = getattr(self._bus, engine)(duration, faults=faults)
        return self._windows[key]


@dataclass(frozen=True)
class _SweepTask:
    """One scenario's work order (picklable)."""

    index: int  #: position in the requested scenario list (seeds derive from it)
    name: str
    description: str
    campaign: Campaign
    detector: str


def _sweep_one_scenario(
    ip, task: _SweepTask, options: ExecOptions, seed: int
) -> list[ScenarioRun]:
    """Run one scenario through both gateway deployments.

    Shared by the in-process loop and the process pool, so both produce
    identical, order-stable results: seeds derive from the sweep
    ``seed`` and the scenario's index, never from execution order.
    """
    campaign = task.campaign
    truth = campaign.truth_windows()
    buses = {
        channel: _CachedBus(bus)
        for channel, bus in compile_campaign(
            campaign, vehicle_seed=seed + task.index
        ).items()
    }
    scenario_runs: list[ScenarioRun] = []
    for mode in SWEEP_MODES:
        gateway = gateway_from_buses(
            ip,
            buses,
            ecu_seed=seed + task.index,
            fifo_capacity=options.fifo_capacity,
            name=f"sweep-{task.name}-{mode}",
        )
        report = gateway.monitor(
            duration=campaign.duration,
            truth=truth,
            arbiter=SharedAcceleratorArbiter() if mode == "shared-ip" else None,
            engine=options.engine,
        )
        scenario_runs.append(
            ScenarioRun(
                scenario=task.name,
                description=task.description,
                mode=mode,
                campaign=campaign,
                report=report,
                detector=task.detector,
            )
        )
    return scenario_runs


def _sweep_worker(task: _SweepTask) -> list[ScenarioRun]:
    """Pool entry point: pulls the shipped IPs/options/seed from worker state."""
    state = worker_state()
    return _sweep_one_scenario(
        state["ips"][task.detector], task, state["options"], state["seed"]
    )


def run_campaign_sweep(
    context: ExperimentContext,
    scenarios: Sequence[str] | None = None,
    registry: ScenarioRegistry = SCENARIOS,
    duration: float | None = None,
    options: ExecOptions | None = None,
) -> CampaignSweepResult:
    """Drive every registered scenario through both gateway deployments.

    ``scenarios`` restricts the sweep (default: the full registry; an
    empty list returns a well-formed empty result without training
    detectors or spinning up a pool); ``duration`` rescales every
    campaign (default: each scenario's own).  Each scenario gets its
    matching trained QMLP — see
    :func:`~repro.can.campaign.scenario_detector`.

    Execution is configured by ``options``
    (:class:`~repro.fleet.spec.ExecOptions` — the same run-spec
    :func:`repro.fleet.runner.run_fleet` takes): scenarios are
    independent, each builds its own buses, gateways and ECUs from
    scenario-indexed seeds, so the sweep fans them out over the resolved
    backend and stays deterministic — identical across backends and
    worker counts, ordered by the requested scenario list.
    """
    resolved = (options if options is not None else ExecOptions()).resolved()
    names = list(scenarios) if scenarios is not None else registry.names()
    if not names:
        return CampaignSweepResult(
            runs=[], duration=0.0, options=resolved, health=RunHealth.clean(0)
        )
    descriptions = registry.describe()
    seed = derive_seed(context.settings.seed, "campaign-sweep")

    tasks: list[_SweepTask] = []
    for index, name in enumerate(names):
        campaign = registry.build(name, duration=duration)
        tasks.append(
            _SweepTask(
                index=index,
                name=name,
                description=descriptions.get(name, ""),
                campaign=campaign,
                detector=scenario_detector(campaign),
            )
        )
    # Train/compile each needed detector once, before the fleet forks.
    ips = {needed: context.ip(needed) for needed in sorted({t.detector for t in tasks})}
    for ip in ips.values():
        engine_for(ip)

    workers = resolved.workers_for(len(tasks))
    outcome = run_sharded(
        tasks,
        _sweep_worker,
        {"ips": ips, "options": resolved, "seed": seed, "warmup": warm_engines},
        resolved.backend,
        workers,
        timeout_s=resolved.timeout_s,
        max_retries=resolved.max_retries,
        strict=resolved.strict,
        retry_seed=derive_seed(seed, "sweep-retry"),
    )

    runs = [
        run
        for scenario_runs in outcome.results
        if scenario_runs is not None
        for run in scenario_runs
    ]
    total_duration = sum(task.campaign.duration for task in tasks)
    return CampaignSweepResult(
        runs=runs, duration=total_duration, options=resolved, health=outcome.health
    )


def render_campaign_sweep(result: CampaignSweepResult) -> Table:
    """The detection/latency/drop table over every scenario and mode."""
    table = Table(
        [
            "Scenario",
            "Mode",
            "Det.",
            "Ch",
            "Frames",
            "Drop %",
            "Phases hit",
            "Det. latency",
            "F1",
            "p99 lat.",
        ],
        title=(
            "E11 — attack-campaign sweep (scenario-matched detectors; "
            "per-channel IPs vs one shared IP)"
        ),
    )
    for scenario in result.scenario_names():
        for mode in SWEEP_MODES:
            run = result.run(scenario, mode)
            report = run.report
            worst = report.worst_detection_latency_s
            detectable = run.phases_injecting
            table.add_row(
                [
                    scenario if mode == SWEEP_MODES[0] else "",
                    mode,
                    run.detector if mode == SWEEP_MODES[0] else "",
                    len(report.channels),
                    report.total_frames,
                    f"{100.0 * report.drop_rate:.2f}",
                    f"{run.phases_detected}/{detectable}",
                    f"{1e3 * worst:.1f} ms" if worst is not None else "-",
                    f"{report.f1:.1f}" if run.attack_frames else "-",
                    f"{1e3 * report.p99_latency_s:.2f} ms"
                    if np.isfinite(report.p99_latency_s)
                    else "-",
                ]
            )
    return table
