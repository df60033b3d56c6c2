"""Run specifications: what a fleet run simulates and how it executes.

Two orthogonal concerns, two frozen dataclasses:

* :class:`ExecOptions` — *how* to execute: backend, bus engine,
  process-pool size, RX-FIFO depth and shard resilience.  Shared by every
  fan-out entry point (:func:`repro.fleet.runner.run_fleet`,
  :func:`repro.experiments.campaigns.run_campaign_sweep`), replacing
  the kwarg grab-bags those functions had accreted.
* :class:`VehicleSpec` / :class:`FleetSpec` — *what* to simulate: one
  vehicle's topology profile, scenario, seed scope and attack onset;
  and a population of them, either explicit or sampled on demand from
  the scenario registry.

A sampled :class:`FleetSpec` is generator-friendly by construction:
:meth:`FleetSpec.vehicle` derives the ``i``-th member purely from the
fleet seed and the index (per-vehicle
:class:`~repro.utils.rng.SeedSequence` scopes), so a shard covering
``[start, stop)`` re-derives exactly its own members — no per-vehicle
state is ever materialised fleet-wide, and the pickled shard task is a
few hundred bytes regardless of fleet size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Any, Iterator

from repro.can.faults import WireFaultModel
from repro.errors import ConfigError
from repro.utils.rng import SeedSequence

__all__ = [
    "DEPLOYMENTS",
    "EXEC_BACKENDS",
    "ExecOptions",
    "FleetSpec",
    "VehicleSpec",
]

#: Supported backends.  ``"thread"`` runs every shard in the calling
#: thread, one after another; ``"process"`` fans shards out over a process
#: pool.  ``"auto"`` resolves at run time: the process pool where the
#: host has more than one core, in-process on single-core hosts where
#: pickling would be pure overhead.
EXEC_BACKENDS = ("auto", "thread", "process")

#: Gateway deployments a vehicle may run: one detector IP per channel,
#: or every channel time-multiplexing a single shared IP.
DEPLOYMENTS = ("per-ip", "shared-ip")


@dataclass(frozen=True)
class ExecOptions:
    """Execution knobs shared by the fleet and campaign-sweep runners.

    ``backend="auto"`` (default) resolves to ``"process"`` when the
    host reports more than one CPU and ``"thread"`` otherwise; results
    record the backend that actually ran.  ``"thread"`` is in-process
    execution: every shard runs in the calling thread, so such a run
    has one worker whatever ``max_workers`` says.  ``max_workers``
    sizes the process pool, capped at the run's task count; ``None``
    sizes it to ``min(8, cpu_count, tasks)``.  Process workers cap
    their BLAS helper threads at ``cpu_count // workers``: each forked
    worker would otherwise keep one OpenBLAS thread per core, and the
    pool would oversubscribe the host.  ``engine`` picks the bus
    simulation path per channel window (``"columnar"`` kernel by
    default, ``"event"`` for the reference loop); ``fifo_capacity`` is
    the depth of each ECU's RX FIFO.

    **Resilience knobs** (see :mod:`repro.fleet.pool`): each shard
    attempt may take at most ``timeout_s`` seconds, finite and positive
    (``None`` disables the deadline; enforced on the process pool only),
    and is retried up to ``max_retries`` times with capped seed-derived
    exponential backoff.
    ``strict=False`` (default) degrades gracefully — shards that
    exhaust their retries land in the run's
    :class:`~repro.fleet.health.RunHealth` instead of raising;
    ``strict=True`` raises :class:`~repro.fleet.health.ShardError` on
    the first exhausted shard.
    """

    backend: str = "auto"
    engine: str = "columnar"
    max_workers: int | None = None
    fifo_capacity: int = 64
    timeout_s: float | None = None
    max_retries: int = 2
    strict: bool = False

    def __post_init__(self) -> None:
        if self.backend not in EXEC_BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; choose from {EXEC_BACKENDS}"
            )
        # Import here keeps spec import-light; gateway owns the canon.
        from repro.soc.gateway import ENGINES

        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.max_workers is not None:
            _check_count("max_workers", self.max_workers, minimum=1)
        _check_count("fifo_capacity", self.fifo_capacity, minimum=1)
        if self.timeout_s is not None and (
            not math.isfinite(self.timeout_s) or self.timeout_s <= 0
        ):
            raise ConfigError(
                f"timeout_s must be finite and positive, got {self.timeout_s}"
            )
        _check_count("max_retries", self.max_retries, minimum=0)

    def resolve_backend(self) -> str:
        """The concrete backend this host runs: never ``"auto"``."""
        if self.backend != "auto":
            return self.backend
        return "process" if (os.cpu_count() or 1) > 1 else "thread"

    def resolved(self) -> "ExecOptions":
        """A copy with ``backend`` pinned to the resolved concrete value."""
        return replace(self, backend=self.resolve_backend())

    def workers_for(self, num_tasks: int) -> int:
        """The worker count for a run of ``num_tasks`` independent tasks.

        An in-process run (``"thread"``) has one worker, the calling
        thread.  A pool never has more workers than tasks.
        """
        if self.resolve_backend() == "thread":
            return 1
        cap = self.max_workers if self.max_workers is not None else min(8, os.cpu_count() or 1)
        return max(1, min(cap, num_tasks))

    def as_record(self) -> dict[str, Any]:
        """Flat scalars for JSON artifacts: how the run actually executed.

        Resilience knobs included, so bench and campaign outputs state
        the fault-tolerance configuration they ran under — a degraded
        run and a strict run are not the same experiment.
        """
        return {
            "backend": self.backend,
            "engine": self.engine,
            "max_workers": self.max_workers,
            "fifo_capacity": self.fifo_capacity,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "strict": self.strict,
        }


def _check_count(name: str, value: object, minimum: int) -> None:
    """An integer setting (numpy integers too, not bools) at or above ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _check_duration(duration: float | None) -> None:
    """A scenario rescale is ``None`` (the scenario's own) or finite and positive."""
    if duration is not None and not 0 < duration < math.inf:
        raise ConfigError(f"duration must be finite and positive, got {duration}")


@dataclass(frozen=True)
class VehicleSpec:
    """One fleet member: topology, scenario, seed scope, attack onset.

    ``vehicle_seed`` roots every stochastic stream of this member
    (senders, attackers, ECU); ``profile`` picks the topology subset it
    carries (:data:`~repro.datasets.carhacking.VEHICLE_PROFILES`);
    ``onset_offset`` delays every attack phase, staggering when the
    population comes under attack; ``duration`` rescales the scenario
    (``None`` keeps the scenario's default); ``wire_faults`` puts this
    member on a noisy harness (:mod:`repro.can.faults` — the runner
    scopes the model per vehicle, so members draw independent
    corruption streams from one fleet-level configuration).
    """

    index: int
    scenario: str
    vehicle_seed: int
    profile: str = "full"
    deployment: str = "per-ip"
    onset_offset: float = 0.0
    duration: float | None = None
    wire_faults: WireFaultModel | None = None

    def __post_init__(self) -> None:
        from repro.datasets.carhacking import VEHICLE_PROFILES

        _check_count("vehicle index", self.index, minimum=0)
        if not self.scenario:
            raise ConfigError("vehicle needs a scenario name")
        if self.profile not in VEHICLE_PROFILES:
            raise ConfigError(
                f"unknown vehicle profile {self.profile!r}; "
                f"choose from {VEHICLE_PROFILES}"
            )
        if self.deployment not in DEPLOYMENTS:
            raise ConfigError(
                f"unknown deployment {self.deployment!r}; choose from {DEPLOYMENTS}"
            )
        if not 0 <= self.onset_offset < math.inf:
            raise ConfigError(f"onset_offset must be finite and >= 0, got {self.onset_offset}")
        _check_duration(self.duration)
        if self.wire_faults is not None and not isinstance(
            self.wire_faults, WireFaultModel
        ):
            raise ConfigError(
                f"wire_faults must be a WireFaultModel, got {self.wire_faults!r}"
            )

    @property
    def name(self) -> str:
        return f"vehicle{self.index}-{self.scenario}"


@dataclass(frozen=True)
class FleetSpec:
    """A population of vehicles: explicit list, or sampled on demand.

    **Explicit** — :meth:`explicit` wraps a concrete list of
    :class:`VehicleSpec` members (``size`` is implied).

    **Sampled** — give ``size`` plus the mix to draw from: each member's
    scenario, profile and deployment are drawn uniformly from the
    ``scenarios`` / ``profiles`` / ``deployments`` tuples, its onset
    offset uniformly from ``[0, onset_jitter]``, and its
    ``vehicle_seed`` independently — all from the per-vehicle scope
    ``SeedSequence(seed, "fleet/<name>").indexed("vehicle", i)``, so
    member ``i`` is identical however the fleet is sharded and whichever
    worker derives it.

    ``duration`` rescales every member's scenario (``None`` keeps each
    scenario's own default); ``wire_faults`` puts every sampled member
    on the same noisy-harness configuration (each member's corruption
    stream is still independent — the runner scopes the model by
    vehicle name).
    """

    name: str = "fleet"
    size: int = 0
    seed: int = 0
    scenarios: tuple[str, ...] = ("baseline-dos",)
    profiles: tuple[str, ...] = ("full",)
    deployments: tuple[str, ...] = ("per-ip",)
    duration: float | None = None
    onset_jitter: float = 0.0
    wire_faults: WireFaultModel | None = None
    vehicles: tuple[VehicleSpec, ...] | None = None

    def __post_init__(self) -> None:
        _check_count("fleet size", self.size, minimum=0)
        if self.vehicles is not None:
            if self.size not in (0, len(self.vehicles)):
                raise ConfigError(
                    f"explicit fleet of {len(self.vehicles)} vehicles "
                    f"declares size={self.size}"
                )
            object.__setattr__(self, "size", len(self.vehicles))
            return
        if not self.scenarios:
            raise ConfigError("sampled fleet needs at least one scenario")
        if not self.profiles:
            raise ConfigError("sampled fleet needs at least one profile")
        if not self.deployments:
            raise ConfigError("sampled fleet needs at least one deployment")
        if not 0 <= self.onset_jitter < math.inf:
            raise ConfigError(f"onset_jitter must be finite and >= 0, got {self.onset_jitter}")
        _check_duration(self.duration)
        if self.wire_faults is not None and not isinstance(
            self.wire_faults, WireFaultModel
        ):
            raise ConfigError(
                f"wire_faults must be a WireFaultModel, got {self.wire_faults!r}"
            )

    @classmethod
    def explicit(cls, vehicles: "tuple[VehicleSpec, ...] | list[VehicleSpec]", name: str = "fleet") -> "FleetSpec":
        """Wrap a concrete vehicle list as a fleet."""
        members = tuple(vehicles)
        return cls(name=name, size=len(members), vehicles=members)

    def __len__(self) -> int:
        return self.size

    def scenario_names(self) -> tuple[str, ...]:
        """Every scenario this fleet can draw, in stable order."""
        if self.vehicles is not None:
            seen: dict[str, None] = {}
            for vehicle in self.vehicles:
                seen.setdefault(vehicle.scenario, None)
            return tuple(seen)
        return tuple(dict.fromkeys(self.scenarios))

    def _seeds(self) -> SeedSequence:
        return SeedSequence(self.seed, scope=f"fleet/{self.name}")

    def vehicle(self, index: int) -> VehicleSpec:
        """Derive the ``index``-th member (stateless: O(1) per call)."""
        if not 0 <= index < self.size:
            raise ConfigError(
                f"vehicle index {index} out of range for fleet of {self.size}"
            )
        if self.vehicles is not None:
            return self.vehicles[index]
        scope = self._seeds().indexed("vehicle", index)
        rng = scope.rng("sample")
        onset = 0.0
        if self.onset_jitter > 0:
            onset = float(rng.uniform(0.0, self.onset_jitter))
        return VehicleSpec(
            index=index,
            scenario=self.scenarios[int(rng.integers(len(self.scenarios)))],
            vehicle_seed=scope.seed("vehicle-seed"),
            profile=self.profiles[int(rng.integers(len(self.profiles)))],
            deployment=self.deployments[int(rng.integers(len(self.deployments)))],
            onset_offset=onset,
            duration=self.duration,
            wire_faults=self.wire_faults,
        )

    def iter_vehicles(self, start: int = 0, stop: int | None = None) -> Iterator[VehicleSpec]:
        """Generate members ``[start, stop)`` without materialising the rest."""
        end = self.size if stop is None else min(stop, self.size)
        for index in range(start, end):
            yield self.vehicle(index)
