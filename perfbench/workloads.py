"""The benchmark's workloads: a seed in, a fleet and its run options out.

Each workload loads a different layer of the verdict path (sources ->
fastbus -> FIFO/stream -> encode -> compiled engine -> gateway -> fleet
aggregate); ``README.md`` in this directory gives the measured profile
shares behind each choice.  The program under test receives only the
generated :class:`~repro.fleet.FleetSpec`, the :class:`ExecOptions` and
a shard size; the seed never reaches it any other way.

Populations are stratified: every scenario x profile x deployment cell
of a workload's mix appears equally often, in round-robin order, and
the seed draws each member's vehicle seed, onset offset and wire-fault
stream.  A random draw of the cells would move the work per batch by a
few percent from seed to seed; stratified, the seed moves only the
traffic itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.can.faults import WireFaultModel
from repro.experiments.context import ExperimentSettings
from repro.fleet import ExecOptions, FleetSpec, VehicleSpec
from repro.utils.rng import derive_seed, new_rng

#: Detector training for every workload.  Fixed, not seeded: the
#: detectors are part of the program, the fleet is the input.  Small
#: enough that a fresh process sets up in about a second.
TRAINING = ExperimentSettings(duration=4.0, epochs=2, seed=2023)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload, fully determined by its seed."""

    name: str
    spec: FleetSpec
    options: ExecOptions
    shard_size: int
    #: vehicles replayed on both bus engines for the A/B check
    ab_indices: tuple[int, ...]


def _population(
    name: str,
    seed: int,
    size: int,
    scenarios: tuple[str, ...],
    profiles: tuple[str, ...] = ("full",),
    deployments: tuple[str, ...] = ("per-ip",),
    duration: float = 0.4,
    onset_jitter: float = 0.0,
    wire_faults: WireFaultModel | None = None,
) -> FleetSpec:
    """``size`` vehicles cycling through every cell of the mix."""
    cells = list(itertools.product(scenarios, profiles, deployments))
    if size % len(cells):
        raise ValueError(f"{name}: size {size} is not a multiple of {len(cells)} cells")
    rng = new_rng(seed, f"perfbench/{name}/onsets")
    onsets = rng.uniform(0.0, onset_jitter, size) if onset_jitter else [0.0] * size
    vehicles = [
        VehicleSpec(
            index=index,
            scenario=scenario,
            vehicle_seed=derive_seed(seed, f"perfbench/{name}/vehicle{index}"),
            profile=profile,
            deployment=deployment,
            onset_offset=float(onsets[index]),
            duration=duration,
            wire_faults=wire_faults,
        )
        for index, (scenario, profile, deployment) in zip(
            range(size), itertools.cycle(cells)
        )
    ]
    return FleetSpec.explicit(vehicles, name=name)


def _fleet_mix(seed: int) -> Workload:
    # Many short heterogeneous vehicles (the bench-city mix): fixed
    # per-vehicle cost dominates — schedule build, wire bits, campaign
    # and gateway construction.
    spec = _population(
        "fleet-mix",
        seed,
        size=96,
        scenarios=("baseline-dos", "baseline-fuzzy", "stealth-low-rate", "masquerade-rpm"),
        profiles=("full", "mid", "lite"),
        deployments=("per-ip", "shared-ip"),
        duration=0.4,
        onset_jitter=0.05,
    )
    return Workload(
        name="fleet-mix",
        spec=spec,
        options=ExecOptions(backend="thread", max_workers=1),
        shard_size=32,
        ab_indices=(0, 1, 2, 3),
    )


def _flood_long(seed: int) -> Workload:
    # A few long saturated vehicles: the contended arbitration loop, the
    # compiled engine and drop-oldest FIFO admission dominate.
    spec = _population(
        "flood-long",
        seed,
        size=6,
        scenarios=("multi-segment-storm", "ramp-dos", "overlapping-mixed"),
        deployments=("per-ip", "shared-ip"),
        duration=8.0,
    )
    return Workload(
        name="flood-long",
        spec=spec,
        options=ExecOptions(backend="thread", max_workers=1),
        shard_size=64,
        # The event engine needs ~10 s for a storm vehicle; the ramp-dos
        # one (~2 s) still runs the contended arbitration loop.
        ab_indices=(2,),
    )


def _noisy_auto(seed: int) -> Workload:
    # The faulted arbitration path under a bit-error rate, run with the
    # library-default ExecOptions(): "auto" resolves the pool backend,
    # so pool start-up, pickling and engine warm-up are measured too.
    spec = _population(
        "noisy-auto",
        seed,
        size=64,
        scenarios=("baseline-dos", "bus-off-victim", "bus-off-under-flood", "masquerade-rpm"),
        duration=0.4,
        wire_faults=WireFaultModel(
            seed=derive_seed(seed, "perfbench/noisy-auto/wire"), bit_error_rate=1e-4
        ),
    )
    return Workload(
        name="noisy-auto",
        spec=spec,
        options=ExecOptions(),
        shard_size=16,
        ab_indices=(0, 1, 2, 3),
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "fleet-mix": _fleet_mix,
    "flood-long": _flood_long,
    "noisy-auto": _noisy_auto,
}


def make_workload(name: str, seed: int) -> Workload:
    """The named workload for ``seed`` (same seed, same inputs)."""
    return WORKLOADS[name](seed)
