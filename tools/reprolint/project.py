"""Repo-specific lint configuration: which modules carry which roles.

Roles map modules to rule families:

* ``rng-home`` — the one module allowed to construct generators
  (:mod:`repro.utils.rng`); everything else must receive them injected.
* ``kernel`` — numeric kernels where a dtype-less allocation silently
  picks platform-dependent integer widths (CRC/stuffing/accumulator
  math must not change meaning between Linux int64 and Windows int32).
* ``columnar`` — hot-path modules that must stay vectorised; the
  per-module whitelist names the sanctioned scalar helpers (A/B
  materialisers, CSV I/O, the contended-run replay loops, lookup-table
  builders run once at import).
* ``sim`` — simulation modules where wall-clock reads would leak host
  time into virtual-time results (benchmarks own wall-clock).
* ``typed-core`` — the strict-mypy module list (mirrored in
  ``mypy.ini``); reprolint enforces annotation completeness locally so
  the gate fails fast even where mypy is not installed.
* ``pool`` — the fault-tolerant shard machinery (``src/repro/fleet/``):
  no unbounded ``future.result()``/``.exception()`` waits, no executor
  ``.map()`` fan-out (the submit/wait scheduler owns failure handling).

Fixture files opt into roles inline with
``# reprolint: module-role=...`` — see ``tests/lint_fixtures/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

__all__ = ["DEFAULT_CONFIG", "LintConfig"]


def _freeze(mapping: Mapping[str, frozenset[str]]) -> Mapping[str, frozenset[str]]:
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class LintConfig:
    """Path registries driving role assignment (suffix-matched)."""

    rng_home: tuple[str, ...] = ("src/repro/utils/rng.py",)
    kernel_modules: tuple[str, ...] = (
        "src/repro/can/fastbus.py",
        "src/repro/can/faults.py",
        "src/repro/can/log.py",
        "src/repro/can/frame.py",
        "src/repro/can/node.py",
        "src/repro/can/attacks.py",
        "src/repro/finn/compiled.py",
        "src/repro/utils/bitops.py",
        "src/repro/soc/ecu.py",
        "src/repro/soc/accelerator.py",
    )
    columnar_modules: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: _freeze(
            {
                # Sanctioned scalar paths: the event-engine materialisers
                # used for A/B comparisons, the scalar frames() shim, and
                # the wire-length table builders (run once at import).
                "src/repro/can/fastbus.py": frozenset(
                    {
                        "scheduled_frames",
                        "schedule_from_frames",
                        "to_bus_records",
                        "_crc15_byte_table",
                        "_stuff_step",
                        "_stuff_tables",
                    }
                ),
                # Row-interchange boundary: record round-trips and CSV I/O
                # are the module's purpose, not a hot-path regression.
                # iter_windows loops over windows, never frames.
                "src/repro/can/log.py": frozenset(
                    {"to_frame", "write_car_hacking_csv", "read_car_hacking_csv", "iter_windows"}
                ),
                # The chunk loop and the per-layer loop iterate chunks
                # and layers, never frames; summary() is reporting.
                "src/repro/finn/compiled.py": frozenset(
                    {"_forward", "_forward_chunk", "summary"}
                ),
                # Training consumes CaptureArray end to end; no scalar
                # helpers sanctioned.
                "src/repro/training/pipeline.py": frozenset(),
                # Encoders: the base-class scalar reference fallback and
                # the O(window) offset loop carry inline suppressions.
                "src/repro/datasets/features.py": frozenset(),
                # Receive path: the exact drop-oldest overflow replay is
                # the only per-frame loop; _classify steps over
                # CHUNK_ROWS-row chunks, never frames.
                "src/repro/soc/ecu.py": frozenset(
                    {"simulate_fifo_admission", "_classify"}
                ),
            }
        )
    )
    sim_prefixes: tuple[str, ...] = ("src/repro/can/", "src/repro/soc/")
    pool_prefixes: tuple[str, ...] = ("src/repro/fleet/",)
    typed_core: tuple[str, ...] = (
        "src/repro/can/frame.py",
        "src/repro/can/log.py",
        "src/repro/can/fastbus.py",
        "src/repro/can/faults.py",
        "src/repro/utils/rng.py",
        "src/repro/finn/compiled.py",
        "src/repro/fleet/spec.py",
        "src/repro/fleet/aggregate.py",
        "src/repro/fleet/pool.py",
        "src/repro/fleet/runner.py",
        "src/repro/fleet/health.py",
        "src/repro/fleet/chaos.py",
        "src/repro/fleet/checkpoint.py",
    )
    #: A/B switch parameter -> the pair of values tests must exercise.
    #: ``"<non-null>"`` is the ab-equivalence checker's sentinel for a
    #: non-literal argument (a constructed model bound to a variable):
    #: ``faults=`` switches must be tested off (None) and on (a model).
    ab_required: Mapping[str, tuple[object, ...]] = field(
        default_factory=lambda: MappingProxyType(
            {
                "engine": ("columnar", "event"),
                "compiled": (True, False),
                "faults": (None, "<non-null>"),
            }
        )
    )

    def _matches(self, rel: str, entry: str) -> bool:
        return rel == entry or rel.endswith("/" + entry)

    def roles_for(self, rel: str) -> frozenset[str]:
        roles: set[str] = set()
        if any(self._matches(rel, entry) for entry in self.rng_home):
            roles.add("rng-home")
        if any(self._matches(rel, entry) for entry in self.kernel_modules):
            roles.add("kernel")
        if any(self._matches(rel, entry) for entry in self.columnar_modules):
            roles.add("columnar")
        if any(prefix in rel for prefix in self.sim_prefixes):
            roles.add("sim")
        if any(prefix in rel for prefix in self.pool_prefixes):
            roles.add("pool")
        if any(self._matches(rel, entry) for entry in self.typed_core):
            roles.add("typed-core")
        return frozenset(roles)

    def hot_path_whitelist_for(self, rel: str) -> frozenset[str]:
        for entry, names in self.columnar_modules.items():
            if self._matches(rel, entry):
                return names
        return frozenset()


DEFAULT_CONFIG = LintConfig()
