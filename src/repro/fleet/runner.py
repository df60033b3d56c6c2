"""Fleet-scale campaign execution: thousands of vehicles, one call.

:func:`run_fleet` compiles a :class:`~repro.fleet.spec.FleetSpec` onto
the campaign/gateway stack and simulates every member — each vehicle is
one compiled campaign (scenario, topology profile, seeds, staggered
attack onset) monitored by its own IDS gateway — sharding the
population across the shared pool machinery (:mod:`repro.fleet.pool`).

**Memory model.**  A shard task is ``(spec, start, stop)`` — a few
hundred bytes however large the fleet, because a sampled spec derives
member ``i`` from the fleet seed and the index alone.  The shard worker
folds each vehicle's gateway report into
:class:`~repro.fleet.aggregate.FleetSlice` counters the moment the
vehicle finishes and discards the report, so peak memory is
O(one vehicle per worker), never O(fleet).

**Determinism.**  Every stochastic stream derives from the fleet seed
and the vehicle index — never from shard boundaries, worker identity or
execution order — and shard aggregates merge with an associative,
commutative reduction in shard order, so the fleet aggregate is
bit-identical for any ``shard_size``, ``max_workers`` and backend.

Detectors are trained and compiled once in the parent (the
:class:`~repro.experiments.context.ExperimentContext` cache), then
shipped to workers via the pool initializer; each vehicle deploys the
trained QMLP matching its scenario's attack mechanics
(:func:`~repro.can.campaign.scenario_detector`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.can.campaign import (
    SCENARIOS,
    Campaign,
    ScenarioRegistry,
    scenario_detector,
)
from repro.finn.compiled import engine_for
from repro.fleet.aggregate import (
    FleetAggregate,
    FleetSlice,
    drop_histogram,
    latency_histogram,
)
from repro.fleet.checkpoint import FleetCheckpoint, fleet_fingerprint
from repro.fleet.health import RunHealth
from repro.fleet.pool import run_sharded, warm_engines, worker_state
from repro.fleet.spec import ExecOptions, FleetSpec, VehicleSpec, _check_count
from repro.soc.arbiter import SharedAcceleratorArbiter
from repro.soc.gateway import GatewayReport, build_campaign_gateway
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.context import ExperimentContext
    from repro.fleet.chaos import ChaosPlan

__all__ = ["FleetResult", "fleet_detectors", "run_fleet"]


@dataclass(frozen=True)
class FleetResult:
    """What a fleet run produced and how it actually executed.

    ``options`` is the *resolved* execution configuration: ``backend``
    is the concrete backend that ran (never ``"auto"``), so artifacts
    serialised from this result record what actually happened on the
    host that produced them.
    """

    spec: FleetSpec
    options: ExecOptions
    workers: int
    shards: int
    aggregate: FleetAggregate
    health: RunHealth = field(default_factory=RunHealth)
    resumed_shards: int = 0
    checkpointed: bool = False

    @property
    def vehicles(self) -> int:
        return self.aggregate.total.vehicles

    @property
    def backend(self) -> str:
        """The concrete backend the run used."""
        return self.options.backend

    @property
    def engine(self) -> str:
        """The bus-simulation engine the run used."""
        return self.options.engine

    def as_record(self) -> dict[str, Any]:
        """Flat scalars for JSON artifacts (bench lanes, reports).

        Includes the resolved resilience settings and the run's health
        so a degraded artifact is distinguishable from a clean one.
        """
        total = self.aggregate.total
        record = {
            "fleet": self.spec.name,
            "vehicles": self.vehicles,
            "channels": total.channels,
            "shards": self.shards,
            "workers": self.workers,
            "frames_offered": total.frames_offered,
            "frames_processed": total.frames_processed,
            "frames_dropped": total.frames_dropped,
            "frames_corrupted": total.frames_corrupted,
            "retransmissions": total.retransmissions,
            "bus_off_events": total.bus_off_events,
            "alerts": total.alerts,
            "phases_injecting": total.phases_injecting,
            "phases_detected": total.phases_detected,
            "detection_rate": total.detection_rate,
            "drop_rate": total.drop_rate,
        }
        record.update(self.options.as_record())
        record["checkpointed"] = self.checkpointed
        record["resumed_shards"] = self.resumed_shards
        record["health"] = self.health.as_record()
        return record

    def summary(self) -> str:
        header = (
            f"fleet {self.spec.name!r}: {self.shards} shards over "
            f"{self.workers} {self.backend} worker(s), {self.engine} engine"
        )
        lines = [header, self.aggregate.summary()]
        if self.resumed_shards:
            lines.append(
                f"  resumed: {self.resumed_shards} shard(s) from checkpoint"
            )
        if not self.health.ok or self.health.retries:
            lines.append(f"  {self.health.summary()}")
        return "\n".join(lines)


def fleet_detectors(
    spec: FleetSpec, registry: ScenarioRegistry = SCENARIOS
) -> dict[str, str]:
    """``{scenario: detector}`` for every scenario the fleet can draw.

    The mapping every :func:`run_fleet` worker applies: each vehicle
    deploys the trained QMLP matching its scenario's attack mechanics
    (:func:`~repro.can.campaign.scenario_detector`).  Exposed so callers
    can see — and tests can pin — which detectors a fleet trains before
    any vehicle is simulated.
    """
    return {
        name: scenario_detector(registry.build(name))
        for name in spec.scenario_names()
    }


def _vehicle_slice(campaign: Campaign, report: GatewayReport) -> FleetSlice:
    """Fold one vehicle's gateway report into additive fleet counters."""
    latencies = [
        outcome.detection_latency_s
        for outcome in report.phase_outcomes
        if outcome.detection_latency_s is not None
    ]
    return FleetSlice(
        vehicles=1,
        channels=len(report.channels),
        frames_offered=report.total_frames,
        frames_processed=report.total_processed,
        frames_dropped=report.total_dropped,
        frames_corrupted=report.total_corrupted,
        retransmissions=report.total_retransmissions,
        bus_off_events=report.total_bus_off,
        alerts=report.total_alerts,
        phases_total=len(report.phase_outcomes),
        phases_injecting=sum(1 for phase in campaign.phases if phase.injects),
        phases_detected=report.phases_detected,
        latency_hist=latency_histogram(latencies),
        drop_hist=drop_histogram(report.drop_rate),
    )


def _simulate_vehicle(
    vehicle: VehicleSpec,
    ips: Mapping[str, Any],
    registry: ScenarioRegistry,
    options: ExecOptions,
) -> FleetAggregate:
    """Build, run and fold one fleet member; returns counters only."""
    campaign = registry.build(vehicle.scenario, duration=vehicle.duration)
    if vehicle.onset_offset:
        campaign = campaign.shifted(vehicle.onset_offset)
    detector = scenario_detector(campaign)
    gateway = build_campaign_gateway(
        ips[detector],
        campaign,
        vehicle_seed=vehicle.vehicle_seed,
        ecu_seed=derive_seed(vehicle.vehicle_seed, "fleet-ecu"),
        fifo_capacity=options.fifo_capacity,
        profile=vehicle.profile,
        name=vehicle.name,
    )
    report = gateway.monitor(
        duration=campaign.duration,
        with_metrics=False,
        arbiter=(
            SharedAcceleratorArbiter() if vehicle.deployment == "shared-ip" else None
        ),
        truth=campaign.truth_windows(),
        engine=options.engine,
        # Scoped per vehicle: every member draws an independent
        # corruption stream from one fleet-level fault configuration.
        faults=(
            vehicle.wire_faults.scoped(vehicle.name)
            if vehicle.wire_faults is not None
            else None
        ),
    )
    return FleetAggregate.of_vehicle(
        vehicle.scenario, vehicle.deployment, _vehicle_slice(campaign, report)
    )


@dataclass(frozen=True)
class _FleetShard:
    """One shard's work order: members ``[start, stop)`` of the spec.

    Picklable and O(1) in size — a sampled spec re-derives its own
    members from the fleet seed, so no vehicle state ships with it.
    """

    spec: FleetSpec
    start: int
    stop: int


def _fleet_shard_worker(shard: _FleetShard) -> FleetAggregate:
    """Simulate one shard's vehicles, folding each as it finishes."""
    state = worker_state()
    ips: Mapping[str, Any] = state["ips"]
    registry: ScenarioRegistry = state["registry"]
    options: ExecOptions = state["options"]
    aggregate = FleetAggregate.empty()
    for vehicle in shard.spec.iter_vehicles(shard.start, shard.stop):
        aggregate = aggregate.merge(
            _simulate_vehicle(vehicle, ips, registry, options)
        )
    return aggregate


def run_fleet(
    context: "ExperimentContext",
    spec: FleetSpec,
    options: ExecOptions | None = None,
    *,
    registry: ScenarioRegistry = SCENARIOS,
    shard_size: int = 64,
    checkpoint: "str | os.PathLike[str] | None" = None,
    chaos: "ChaosPlan | None" = None,
) -> FleetResult:
    """Simulate every vehicle of ``spec`` and return merged counters.

    Trains and compiles each needed detector once (the context cache),
    shards the population into ``shard_size``-vehicle tasks, fans the
    shards over the resolved backend (:class:`ExecOptions`; ``"auto"``
    picks process fan-out on multi-core hosts) and merges the per-shard
    aggregates in shard order.  The result is bit-identical for any
    shard size, worker count and backend; an empty fleet returns a
    well-formed empty result without training detectors or spinning up
    a pool.

    **Fault tolerance.**  Shard attempts honour the resilience knobs on
    :class:`ExecOptions` (``timeout_s``/``max_retries``/``strict``);
    shards that exhaust their retries are reported in the result's
    :class:`~repro.fleet.health.RunHealth` rather than raising (unless
    ``strict=True``).  ``checkpoint=path`` persists every completed
    shard's aggregate as it lands; a rerun pointed at the same path
    re-executes only the missing shards and merges in shard order, so
    the resumed aggregate is bit-identical to an uninterrupted run.
    ``chaos`` injects deterministic faults into shard attempts — test
    machinery (:mod:`repro.fleet.chaos`), never used in production runs.
    """
    _check_count("shard_size", shard_size, minimum=1)
    resolved = (options if options is not None else ExecOptions()).resolved()
    if len(spec) == 0:
        return FleetResult(
            spec=spec,
            options=resolved,
            workers=0,
            shards=0,
            aggregate=FleetAggregate.empty(),
            health=RunHealth.clean(0),
        )

    shards = [
        _FleetShard(spec=spec, start=start, stop=min(start + shard_size, len(spec)))
        for start in range(0, len(spec), shard_size)
    ]

    store: FleetCheckpoint | None = None
    pending_ids = list(range(len(shards)))
    if checkpoint is not None:
        store = FleetCheckpoint.open(
            checkpoint, fleet_fingerprint(spec, shard_size, resolved), len(shards)
        )
        pending_ids = list(store.missing)
    resumed = len(shards) - len(pending_ids)

    if not pending_ids:
        # Every shard already checkpointed: nothing to train or run.
        assert store is not None
        return FleetResult(
            spec=spec,
            options=resolved,
            workers=0,
            shards=len(shards),
            aggregate=store.merged(),
            health=RunHealth.clean(0),
            resumed_shards=resumed,
            checkpointed=True,
        )

    detectors = fleet_detectors(spec, registry)
    ips = {name: context.ip(name) for name in sorted(set(detectors.values()))}
    for ip in ips.values():
        engine_for(ip)  # warm the parent cache for in-process runs

    tasks = [shards[shard_id] for shard_id in pending_ids]
    workers = resolved.workers_for(len(tasks))
    state: dict[str, Any] = {
        "ips": ips,
        "registry": registry,
        "options": resolved,
        "warmup": warm_engines,
    }

    on_result = None
    if store is not None:
        bound = store

        def _record(index: int, aggregate: FleetAggregate) -> None:
            bound.record(pending_ids[index], aggregate)

        on_result = _record

    outcome = run_sharded(
        tasks,
        _fleet_shard_worker,
        state,
        resolved.backend,
        workers,
        timeout_s=resolved.timeout_s,
        max_retries=resolved.max_retries,
        strict=resolved.strict,
        retry_seed=derive_seed(spec.seed, "fleet-retry"),
        chaos=chaos,
        on_result=on_result,
    )
    health = outcome.health.relabeled(pending_ids)

    if store is not None:
        # The checkpoint holds every completed shard (resumed and new),
        # keyed by shard id; merging it in id order reproduces the
        # uninterrupted merge exactly.
        aggregate = store.merged()
    else:
        aggregate = FleetAggregate.empty()
        for shard_aggregate in outcome.results:
            if shard_aggregate is not None:
                aggregate = aggregate.merge(shard_aggregate)
    return FleetResult(
        spec=spec,
        options=resolved,
        workers=workers,
        shards=len(shards),
        aggregate=aggregate,
        health=health,
        resumed_shards=resumed,
        checkpointed=store is not None,
    )
