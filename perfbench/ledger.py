"""Outside-in per-layer ledger: timed wrappers around public callables.

While a :class:`Tracer` is installed, every callable named in its span
table is replaced by a wrapper that books the call's *self* time (its
duration minus the time of traced calls nested inside it) and its work
counters under a metric name.  Uninstalling restores every original, so
untraced runs execute the program unchanged; nothing under ``src/`` is
edited.

Where a wrapper goes follows how the caller binds the name: a name
imported at module top (``repro.fleet.runner`` imports
``build_campaign_gateway``) is wrapped in the importing module; a name
imported inside a function body (``BusSimulator.capture`` imports
``build_schedule`` when called) is wrapped on its home module; methods
are wrapped on their class.

Vehicle boundaries come from two spans: ``ScenarioRegistry.build``
opens a vehicle and ``FleetAggregate.of_vehicle`` closes it.  The time
between is the vehicle's wall time; root spans inside it are the time
the ledger covers.

Process pools: workers forked while a tracer is installed inherit its
wrappers.  A worker appends its ledger to a JSON-lines file in the
tracer's spool directory as each vehicle closes, and the parent sums
the spool in :meth:`Tracer.collect`.  Workers started by a method other
than fork do not inherit wrappers; their spans are then missing, which
the "every span fired" check reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

Counter = Callable[[Any, tuple, dict], Mapping[str, int]]


@dataclass(frozen=True)
class Span:
    """One wrapped callable: where it lives and what it books."""

    metric: str  #: self-time metric the call is booked under
    module: str  #: module holding the name (or the class)
    attr: str  #: ``"name"`` or ``"Class.method"``
    count: Counter | None = None  #: work counters from (result, args, kwargs)
    mark: str = ""  #: ``"vehicle-start"`` / ``"vehicle-end"`` boundary


@dataclass
class Ledger:
    """Additive span totals: self seconds, calls and work counters."""

    seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    vehicles: int = 0
    vehicle_wall_s: float = 0.0
    covered_s: float = 0.0

    def merge(self, other: "Ledger") -> None:
        for key, value in other.seconds.items():
            self.seconds[key] += value
        for key, value in other.calls.items():
            self.calls[key] += value
        for key, value in other.counts.items():
            self.counts[key] += value
        self.vehicles += other.vehicles
        self.vehicle_wall_s += other.vehicle_wall_s
        self.covered_s += other.covered_s

    def as_dict(self) -> dict[str, Any]:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "vehicles": self.vehicles,
            "vehicle_wall_s": self.vehicle_wall_s,
            "covered_s": self.covered_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Ledger":
        ledger = cls()
        ledger.seconds.update(data["seconds"])
        ledger.calls.update(data["calls"])
        ledger.counts.update(data["counts"])
        ledger.vehicles = int(data["vehicles"])
        ledger.vehicle_wall_s = float(data["vehicle_wall_s"])
        ledger.covered_s = float(data["covered_s"])
        return ledger


def _arbitration_counts(result: Any, args: tuple, kwargs: dict) -> dict[str, int]:
    schedule = args[0] if args else kwargs["schedule"]
    corrupted = result.corrupted_mask
    return {
        "fastbus.frames_arbitrated": len(schedule),
        "fastbus.records": len(result),
        "fastbus.queued_records": int((result.started_at > result.queued_at).sum()),
        "faults.corrupted_frames": int(corrupted.sum()),
        "faults.retransmissions": int(result.retry_counts[~corrupted].sum()),
        "faults.bus_off_frames": int(result.bus_off_mask.sum()),
    }


#: Spans of set-up: detector training and compilation.
SETUP_SPANS: tuple[Span, ...] = (
    Span("training.train_s", "repro.experiments.context", "train_ids_model"),
    Span("compiled.compile_s", "repro.experiments.context", "compile_model"),
    Span("compiled.compile_s", "repro.finn.compiled", "compile_engine"),
)

#: Spans of a fleet run, one layer boundary each.
RUN_SPANS: tuple[Span, ...] = (
    Span(
        "campaign.compile_s",
        "repro.can.campaign",
        "ScenarioRegistry.build",
        mark="vehicle-start",
    ),
    Span("campaign.compile_s", "repro.can.campaign", "Campaign.shifted"),
    Span("campaign.compile_s", "repro.can.campaign", "compile_campaign"),
    Span("campaign.compile_s", "repro.fleet.runner", "scenario_detector"),
    Span("gateway.build_s", "repro.fleet.runner", "build_campaign_gateway"),
    Span("gateway.monitor_self_s", "repro.soc.gateway", "IDSGateway.monitor"),
    Span(
        "fastbus.schedule_s",
        "repro.can.fastbus",
        "build_schedule",
        count=lambda result, args, kwargs: {"fastbus.schedule_rows": len(result)},
    ),
    Span(
        "fastbus.wire_bits_s",
        "repro.can.fastbus",
        "standard_wire_bits",
        count=lambda result, args, kwargs: {"fastbus.wire_rows": len(result)},
    ),
    Span(
        "fastbus.arbitration_s",
        "repro.can.fastbus",
        "simulate_arbitration",
        count=_arbitration_counts,
    ),
    Span(
        "ecu.admission_s",
        "repro.soc.ecu",
        "IDSEnabledECU.open_stream",
        count=lambda result, args, kwargs: {"ecu.fifo_dropped": result.fifo_dropped},
    ),
    Span(
        "features.encode_s",
        "repro.datasets.features",
        "BitFeatureEncoder.encode_batch",
        count=lambda result, args, kwargs: {"features.rows": len(result)},
    ),
    Span(
        "compiled.predict_s",
        "repro.finn.compiled",
        "CompiledEngine.predict",
        count=lambda result, args, kwargs: {
            "compiled.rows": len(result),
            "compiled.calls": 1,
        },
    ),
    Span("ecu.report_s", "repro.soc.ecu", "ECUStreamSession.finish"),
    Span("aggregate.fold_s", "repro.fleet.runner", "latency_histogram"),
    Span("aggregate.fold_s", "repro.fleet.runner", "drop_histogram"),
    Span("aggregate.fold_s", "repro.fleet.aggregate", "FleetAggregate.merge"),
    Span(
        "aggregate.fold_s",
        "repro.fleet.aggregate",
        "FleetAggregate.of_vehicle",
        mark="vehicle-end",
    ),
)


class Tracer:
    """Installs a span table, books spans into a :class:`Ledger`.

    Use as a context manager; the wrappers exist only inside the block.
    ``spool`` is the directory pool workers write their ledgers to.
    """

    def __init__(self, spans: tuple[Span, ...], spool: Path | None = None) -> None:
        self.spans = spans
        self.spool = spool
        self.ledger = Ledger()
        self._owner_pid = os.getpid()
        self._ledger_pid = self._owner_pid
        self._local = threading.local()
        self._vehicle_start: float | None = None
        self._pending_cover = 0.0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        for span in self.spans:
            owner: Any = importlib.import_module(span.module)
            name = span.attr
            try:
                if "." in name:
                    class_name, name = name.split(".")
                    owner = getattr(owner, class_name)
                    raw = owner.__dict__[name]
                else:
                    raw = getattr(owner, name)
            except (AttributeError, KeyError):
                # The program no longer has this callable: the span stays
                # silent and the run reports it, instead of failing.
                continue
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(self._wrap(span, raw.__func__))
            else:
                replacement = self._wrap(span, raw)
            self._restore.append((owner, name, raw))
            setattr(owner, name, replacement)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    def _wrap(self, span: Span, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self._call(span, fn, args, kwargs)

        return traced

    # -- booking ----------------------------------------------------------
    def _stack(self) -> list[float]:
        if os.getpid() != self._ledger_pid:
            # A forked pool worker: drop what the parent had booked
            # before the fork, keep only this process's own spans.
            self._ledger_pid = os.getpid()
            self.ledger = Ledger()
            self._local = threading.local()
            self._vehicle_start = None
            self._pending_cover = 0.0
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, span: Span, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        if span.mark == "vehicle-start" and not stack:
            self._vehicle_start = time.perf_counter()
            self._pending_cover = 0.0
        stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            nested = stack.pop()
            self.ledger.seconds[span.metric] += elapsed - nested
            self.ledger.calls[span.metric] += 1
            if stack:
                stack[-1] += elapsed
            else:
                self._pending_cover += elapsed
        if span.count is not None:
            for key, value in span.count(result, args, kwargs).items():
                self.ledger.counts[key] += int(value)
        if span.mark == "vehicle-end" and not stack and self._vehicle_start is not None:
            self._close_vehicle()
        return result

    def _close_vehicle(self) -> None:
        assert self._vehicle_start is not None
        self.ledger.vehicles += 1
        self.ledger.vehicle_wall_s += time.perf_counter() - self._vehicle_start
        self.ledger.covered_s += self._pending_cover
        self._vehicle_start = None
        self._pending_cover = 0.0
        if os.getpid() != self._owner_pid and self.spool is not None:
            path = self.spool / f"ledger-{os.getpid()}.jsonl"
            with path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(self.ledger.as_dict()) + "\n")
            self.ledger = Ledger()

    def collect(self) -> Ledger:
        """This process's ledger plus every spooled worker ledger; resets."""
        total = self.ledger
        self.ledger = Ledger()
        if self.spool is not None:
            for path in sorted(self.spool.glob("ledger-*.jsonl")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    total.merge(Ledger.from_dict(json.loads(line)))
                path.unlink()
        return total
