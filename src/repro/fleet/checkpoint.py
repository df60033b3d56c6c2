"""Checkpoint/resume for fleet runs: never lose completed shards.

A thousand-vehicle campaign that dies at shard 19 of 20 should not
re-simulate the first nineteen.  ``run_fleet(..., checkpoint=path)``
persists every completed shard's :class:`~repro.fleet.aggregate.FleetAggregate`
to a JSON file as it lands (atomic write-then-rename, so a crash
mid-save leaves the previous checkpoint intact), and a resumed run
re-executes only the missing shards.

**Bit-identical resume.**  The checkpoint stores aggregates *per
shard*, keyed by shard id, and :meth:`FleetCheckpoint.merged` folds
them in shard-id order — the same order an uninterrupted run merges in
— so the final aggregate after any interrupt/resume sequence is
bit-identical to the fault-free run.  Every stored counter is an int
(see :meth:`FleetSlice.as_json_dict`), so the JSON round-trip is exact
by construction.

**Compatibility.**  A checkpoint binds to a *fingerprint* of everything
that shapes per-shard results: the full :class:`FleetSpec`, the shard
size (shard ids change with it) and the result-affecting execution
knobs (``engine``/``fifo_capacity`` — backend, worker count and the
resilience knobs are free to differ between the interrupted and
resumed runs).  Resuming against a mismatched fingerprint raises
instead of silently merging incompatible partial results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.fleet.aggregate import FleetAggregate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.spec import ExecOptions, FleetSpec

__all__ = ["CHECKPOINT_VERSION", "FleetCheckpoint", "fleet_fingerprint"]

CHECKPOINT_VERSION = 1


def fleet_fingerprint(
    spec: "FleetSpec", shard_size: int, options: "ExecOptions"
) -> str:
    """Hash everything that shapes a fleet run's per-shard aggregates.

    ``repr`` of a frozen spec dataclass is deterministic across
    processes and platforms (ints, floats, strings, tuples only).
    Backend and worker count are deliberately excluded: results are
    bit-identical across them, so an in-process run may resume a
    process-pool checkpoint and vice versa.
    """
    material = "::".join(
        [
            f"v{CHECKPOINT_VERSION}",
            repr(spec),
            f"shard_size={shard_size}",
            f"engine={options.engine}",
            f"fifo_capacity={options.fifo_capacity}",
        ]
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class FleetCheckpoint:
    """Completed-shard aggregates for one fingerprinted fleet run."""

    path: Path
    fingerprint: str
    total_shards: int
    completed: dict[int, FleetAggregate] = field(default_factory=dict)

    @classmethod
    def open(
        cls, path: "str | os.PathLike[str]", fingerprint: str, total_shards: int
    ) -> "FleetCheckpoint":
        """Load ``path`` if it exists (validating compatibility), else start empty."""
        resolved = Path(path)
        checkpoint = cls(
            path=resolved, fingerprint=fingerprint, total_shards=total_shards
        )
        if not resolved.exists():
            return checkpoint
        try:
            payload = json.loads(resolved.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable fleet checkpoint {resolved}: {exc}") from exc
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(
                f"fleet checkpoint {resolved} has version "
                f"{payload.get('version')!r}, expected {CHECKPOINT_VERSION}"
            )
        if payload.get("fingerprint") != fingerprint:
            raise ConfigError(
                f"fleet checkpoint {resolved} was written by a different run "
                "configuration (spec/shard_size/engine mismatch); delete it or "
                "point the resumed run at the original spec"
            )
        if payload.get("total_shards") != total_shards:
            raise ConfigError(
                f"fleet checkpoint {resolved} covers "
                f"{payload.get('total_shards')} shards, this run has {total_shards}"
            )
        for key, value in payload.get("completed", {}).items():
            shard = int(key)
            if not 0 <= shard < total_shards:
                raise ConfigError(
                    f"fleet checkpoint {resolved} names out-of-range shard {shard}"
                )
            checkpoint.completed[shard] = FleetAggregate.from_json_dict(value)
        return checkpoint

    @property
    def missing(self) -> tuple[int, ...]:
        """Shard ids still to run, in shard order."""
        return tuple(
            shard
            for shard in range(self.total_shards)
            if shard not in self.completed
        )

    def record(self, shard: int, aggregate: FleetAggregate) -> None:
        """Store one completed shard and persist the checkpoint."""
        self.completed[shard] = aggregate
        self.save()

    def save(self) -> None:
        """Atomically rewrite the checkpoint file (tmp + rename)."""
        payload: dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "total_shards": self.total_shards,
            "completed": {
                str(shard): self.completed[shard].as_json_dict()
                for shard in sorted(self.completed)
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_name(self.path.name + ".tmp")
        scratch.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        os.replace(scratch, self.path)

    def merged(self) -> FleetAggregate:
        """Fold completed shards in shard-id order (the uninterrupted order)."""
        aggregate = FleetAggregate.empty()
        for shard in sorted(self.completed):
            aggregate = aggregate.merge(self.completed[shard])
        return aggregate
