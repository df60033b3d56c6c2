"""Wire-level fault injection and ISO 11898-1 fault confinement.

The bus engines (:mod:`repro.can.bus`, :mod:`repro.can.fastbus`) model
an electrically perfect medium.  This module adds the layer a real CAN
controller spends silicon on: bit errors on the wire, error frames,
automatic retransmission, and the TEC/REC fault-confinement state
machine (error-active → error-passive at 128 → bus-off at 256, with
optional 128×11-recessive-bit recovery).

**Determinism and engine-agnosticism.**  All randomness and all state
evolution happen *before* arbitration, in :meth:`WireFaultModel.plan`:
a pure function of the release-sorted schedule columns and the model's
seed (drawn from ``new_rng(seed, "wirefault/...")``).  Both engines
consume the resulting :class:`FaultPlan` and therefore corrupt the same
transmissions, charge the same error-frame overhead and silence the
same bus-off nodes — the bit-exactness contract extends to faulted
runs.

Two documented simplifications keep the plan engine-agnostic:

* Fault confinement is evaluated in *release order* per node (the
  order both engines admit frames), not in wire-service order.  TEC
  trajectories are identical in both orders whenever a node's frames
  do not interleave with its own retransmissions, which holds for
  periodic senders.
* A bus-off node's 128×11-recessive-bit recovery timer starts at the
  release of the frame that exhausted the TEC, not at its (engine-
  dependent) completion on the wire.

Targeted corruption hooks (:class:`TargetedFault`) force extra error
frames onto specific identifiers/sources inside a time window — the
primitive the Cho–Shin-style bus-off attacker
(:class:`repro.can.attacks.BusOffAttacker`) is built on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import derive_seed, new_rng

__all__ = [
    "ERROR_FRAME_BITS",
    "RECOVERY_MODES",
    "BUS_OFF_RECOVERY_BITS",
    "FaultPlan",
    "NodeFaultState",
    "TargetedFault",
    "WireFaultModel",
    "resolve_bus_faults",
]

#: Error flag (6 dominant bits) + error delimiter (8 recessive) + the
#: 3-bit intermission before the retransmission can arbitrate.
ERROR_FRAME_BITS = 17

#: Bus-off recovery: 128 occurrences of 11 consecutive recessive bits.
BUS_OFF_RECOVERY_BITS = 128 * 11

#: Supported bus-off recovery behaviours.
RECOVERY_MODES = ("auto", "none")

#: TEC increment per transmit error / decrement per success (ISO 11898-1).
_TEC_ERROR_STEP = 8
_TEC_SUCCESS_STEP = 1


@dataclass(frozen=True)
class TargetedFault:
    """Force error frames onto matching transmissions in a time window.

    ``can_id``/``source`` of ``None`` are wildcards; a fault with both
    unset jams every transmission released in ``[start, end)``.
    ``attempts`` extra corrupted attempts are charged per matching
    frame, on top of any bit-error-rate draws.
    """

    start: float
    end: float
    attempts: int = 1
    can_id: int | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.start) or not math.isfinite(self.end):
            raise ConfigError(
                f"targeted fault window must be finite, got ({self.start}, {self.end})"
            )
        if self.end < self.start:
            raise ConfigError(
                f"targeted fault window must have end >= start, "
                f"got ({self.start}, {self.end})"
            )
        if self.attempts < 1:
            raise ConfigError(
                f"targeted fault attempts must be >= 1, got {self.attempts}"
            )
        if self.can_id is not None and self.can_id < 0:
            raise ConfigError(f"targeted fault can_id must be >= 0, got {self.can_id}")


@dataclass(frozen=True)
class NodeFaultState:
    """One node's fault-confinement outcome over a planned window."""

    source: str
    tec: int  #: transmit error counter at the end of the window
    peak_tec: int
    error_passive: bool  #: TEC crossed the error-passive threshold at any point
    bus_off: bool  #: node is bus-off at the end of the window
    bus_off_at: float | None  #: release time of the frame that exhausted the TEC
    recoveries: int  #: completed bus-off recoveries within the window


@dataclass(frozen=True)
class FaultPlan:
    """Per-row fault outcomes for one release-sorted schedule.

    ``attempts[k]`` corrupted attempts precede row ``k``'s outcome;
    ``transmit[k]`` says whether the row eventually transmits
    successfully (False: the node went bus-off mid-row); ``queued[k]``
    says whether the row participates in arbitration at all (False:
    its node was already bus-off at release).  ``tec_after[k]`` is the
    emitting node's TEC after the row — the trajectory the bus-off
    scenario tests assert on.
    """

    attempts: np.ndarray  #: (N,) int64 corrupted attempts per row
    transmit: np.ndarray  #: (N,) bool — row eventually transmits
    queued: np.ndarray  #: (N,) bool — row enters arbitration
    tec_after: np.ndarray  #: (N,) int64 emitting node's TEC after the row
    bus_off_rows: np.ndarray  #: (M,) int64 rows whose last attempt hit bus-off
    error_s: float  #: wire time charged per error frame (seconds)
    node_states: Mapping[str, NodeFaultState]

    def __len__(self) -> int:
        return int(self.attempts.shape[0])

    @property
    def total_attempts(self) -> int:
        """Corrupted attempts across the whole schedule."""
        return int(self.attempts.sum())

    @property
    def clean(self) -> bool:
        """True when the plan perturbs nothing (fast-path eligible)."""
        return self.total_attempts == 0 and bool(self.queued.all())


@dataclass(frozen=True)
class WireFaultModel:
    """Deterministic wire-fault configuration for one bus.

    ``bit_error_rate`` is the per-bit corruption probability; each
    transmission of a ``b``-bit frame is corrupted with probability
    ``1 - (1 - ber)**b``, and the number of corrupted attempts before
    the first clean one is drawn geometrically from
    ``new_rng(seed, "wirefault/draws")``.  ``targeted`` faults add
    forced corruption on top (see :class:`TargetedFault`).
    """

    seed: int = 0
    bit_error_rate: float = 0.0
    error_frame_bits: int = ERROR_FRAME_BITS
    tec_error_passive: int = 128
    tec_bus_off: int = 256
    recovery: str = "auto"
    max_attempts: int = 32
    targeted: tuple[TargetedFault, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ConfigError(
                f"bit_error_rate must be in [0, 1), got {self.bit_error_rate}"
            )
        if self.error_frame_bits < 0:
            raise ConfigError(
                f"error_frame_bits must be >= 0, got {self.error_frame_bits}"
            )
        if self.tec_error_passive <= 0:
            raise ConfigError(
                f"tec_error_passive must be positive, got {self.tec_error_passive}"
            )
        if self.tec_bus_off < self.tec_error_passive:
            raise ConfigError(
                f"tec_bus_off must be >= tec_error_passive "
                f"({self.tec_error_passive}), got {self.tec_bus_off}"
            )
        if self.recovery not in RECOVERY_MODES:
            raise ConfigError(
                f"recovery must be one of {RECOVERY_MODES}, got {self.recovery!r}"
            )
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        object.__setattr__(self, "targeted", tuple(self.targeted))

    def scoped(self, label: str) -> "WireFaultModel":
        """An independent-stream copy for a named sub-context."""
        return dataclasses.replace(self, seed=derive_seed(self.seed, f"scope/{label}"))

    def for_channel(self, channel: str) -> "WireFaultModel":
        """An independent-stream copy for one bus channel of a gateway."""
        return dataclasses.replace(
            self, seed=derive_seed(self.seed, f"channel/{channel}")
        )

    def with_targets(self, extra: Iterable[TargetedFault]) -> "WireFaultModel":
        """This model plus additional targeted-corruption hooks."""
        return dataclasses.replace(self, targeted=self.targeted + tuple(extra))

    def plan(
        self,
        release_times: np.ndarray,
        can_ids: np.ndarray,
        wire_bits: np.ndarray,
        sources: np.ndarray,
        bitrate: float,
    ) -> FaultPlan:
        """Resolve every row's fault outcome ahead of arbitration.

        The columns must be in release-sorted order (ties in attach
        order) — the order both engines admit frames, so the plan and
        therefore the simulated wire are engine-independent.
        """
        if bitrate <= 0:
            raise ConfigError(f"bitrate must be positive, got {bitrate}")
        n = int(release_times.shape[0])
        error_s = float(self.error_frame_bits) / float(bitrate)
        attempts = np.zeros(n, dtype=np.int64)
        if n and self.bit_error_rate > 0.0:
            rng = new_rng(self.seed, "wirefault/draws")
            corrupt_p = -np.expm1(
                wire_bits.astype(np.float64) * math.log1p(-self.bit_error_rate)
            )
            clean_p = np.clip(1.0 - corrupt_p, 1e-12, 1.0)
            attempts = rng.geometric(clean_p).astype(np.int64) - 1
        if n:
            for fault in self.targeted:
                mask = (release_times >= fault.start) & (release_times < fault.end)
                if fault.can_id is not None:
                    mask &= can_ids == fault.can_id
                if fault.source is not None:
                    mask &= sources == fault.source
                attempts[mask] += int(fault.attempts)
            attempts = np.minimum(attempts, np.int64(self.max_attempts))

        transmit = np.ones(n, dtype=bool)
        queued = np.ones(n, dtype=bool)
        tec_after = np.zeros(n, dtype=np.int64)
        bus_off_rows: list[int] = []
        node_states: dict[str, NodeFaultState] = {}
        if n and bool(np.any(attempts > 0)):
            self._confine(
                release_times,
                sources,
                bitrate,
                attempts,
                transmit,
                queued,
                tec_after,
                bus_off_rows,
                node_states,
            )
        return FaultPlan(
            attempts=attempts,
            transmit=transmit,
            queued=queued,
            tec_after=tec_after,
            bus_off_rows=np.asarray(bus_off_rows, dtype=np.int64),
            error_s=error_s,
            node_states=node_states,
        )

    def _confine(
        self,
        release_times: np.ndarray,
        sources: np.ndarray,
        bitrate: float,
        attempts: np.ndarray,
        transmit: np.ndarray,
        queued: np.ndarray,
        tec_after: np.ndarray,
        bus_off_rows: list[int],
        node_states: dict[str, NodeFaultState],
    ) -> None:
        """Walk the TEC state machine per node, truncating at bus-off.

        Mutates the per-row outcome arrays in place.  Only nodes with at
        least one corrupted attempt are walked — a node that never errs
        keeps TEC 0 (decrements clamp at zero).
        """
        recovery_s = float(BUS_OFF_RECOVERY_BITS) / float(bitrate)
        faulty = np.unique(sources[attempts > 0])
        rows = np.flatnonzero(np.isin(sources, faulty))
        releases_list = release_times[rows].tolist()
        sources_list = sources[rows].tolist()
        attempts_list = attempts[rows].tolist()
        # reprolint: disable=hot-path-purity -- per-node TEC walk over faulty nodes' rows only
        tec: dict[str, int] = {}
        peak: dict[str, int] = {}
        off_until: dict[str, float] = {}  # +inf = permanently off
        off_at: dict[str, float] = {}
        recoveries: dict[str, int] = {}
        for position in range(len(rows)):
            k = int(rows[position])
            source = str(sources_list[position])
            release = float(releases_list[position])
            counter = tec.get(source, 0)
            if source in off_until:
                if self.recovery == "none" or release < off_until[source]:
                    queued[k] = False
                    transmit[k] = False
                    attempts[k] = 0
                    tec_after[k] = counter
                    continue
                del off_until[source]
                recoveries[source] = recoveries.get(source, 0) + 1
                counter = 0
            draws = int(attempts_list[position])
            if draws and counter + _TEC_ERROR_STEP * draws >= self.tec_bus_off:
                fatal = -(-(self.tec_bus_off - counter) // _TEC_ERROR_STEP)
                attempts[k] = fatal
                transmit[k] = False
                counter = counter + _TEC_ERROR_STEP * fatal
                bus_off_rows.append(k)
                off_at.setdefault(source, release)
                off_until[source] = (
                    release + recovery_s if self.recovery == "auto" else math.inf
                )
            else:
                counter = max(counter + _TEC_ERROR_STEP * draws - _TEC_SUCCESS_STEP, 0)
            tec[source] = counter
            peak[source] = max(peak.get(source, 0), counter)
            tec_after[k] = counter
        for source, counter in tec.items():
            node_states[source] = NodeFaultState(
                source=source,
                tec=counter,
                peak_tec=peak[source],
                error_passive=peak[source] >= self.tec_error_passive,
                bus_off=source in off_until,
                bus_off_at=off_at.get(source),
                recoveries=recoveries.get(source, 0),
            )


def resolve_bus_faults(
    sources: Sequence[object], faults: WireFaultModel | None
) -> WireFaultModel | None:
    """Fold attached sources' targeted faults into the bus's model.

    Sources exposing ``targeted_faults()`` (e.g. the bus-off attacker)
    contribute corruption hooks even when no ambient ``faults`` model
    was configured — a zero-BER model is synthesised so the attack
    still lands on an otherwise clean bus.  Returns ``None`` when
    there is genuinely nothing to model, including an inert ambient
    model (zero rate, no hooks) — the engines then keep the clean path
    with no fault-plan work at all.
    """
    gathered: list[TargetedFault] = []
    for source in sources:
        emitter = getattr(source, "targeted_faults", None)
        if emitter is not None:
            gathered.extend(emitter())
    if gathered:
        base = faults if faults is not None else WireFaultModel()
        return base.with_targets(gathered)
    if faults is not None and faults.bit_error_rate == 0.0 and not faults.targeted:
        return None
    return faults
