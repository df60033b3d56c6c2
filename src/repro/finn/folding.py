"""PE/SIMD folding selection (FINN's parallelisation knobs).

Every matrix-vector unit processes its ``MH x MW`` weight matrix with
``PE`` output-channel lanes and ``SIMD`` input lanes; one input vector
takes ``(MH/PE) * (MW/SIMD)`` cycles.  Folding trades resources for
throughput: fully parallel (PE=MH, SIMD=MW) needs one cycle per sample
and a multiplier per weight; fully folded (PE=SIMD=1) needs MH*MW
cycles and one multiplier.

``fold_for_target`` reproduces FINN's ``SetFolding`` behaviour: find the
cheapest folding whose slowest layer still meets the requested
frames-per-second at the given clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompileError, ResourceError
from repro.finn.graph import DataflowGraph, MatMulIntNode

__all__ = ["FoldingConfig", "fold_for_target", "divisors"]


def divisors(value: int) -> list[int]:
    """Ascending divisors of ``value``.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if value < 1:
        raise CompileError(f"divisors of non-positive value {value}")
    small, large = [], []
    step = 1
    while step * step <= value:
        if value % step == 0:
            small.append(step)
            if step != value // step:
                large.append(value // step)
        step += 1
    return small + large[::-1]


@dataclass
class FoldingConfig:
    """Per-matmul (PE, SIMD) assignment, in pipeline order."""

    pe: list[int] = field(default_factory=list)
    simd: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pe)

    def cycles(self, matmuls: list[MatMulIntNode]) -> list[int]:
        """Cycles per sample for each matmul under this folding."""
        if len(matmuls) != len(self):
            raise CompileError(
                f"folding has {len(self)} entries for {len(matmuls)} matmul layers"
            )
        out = []
        for node, pe, simd in zip(matmuls, self.pe, self.simd):
            if node.out_features % pe or node.in_features % simd:
                raise CompileError(
                    f"{node.name}: PE={pe}/SIMD={simd} do not divide "
                    f"{node.out_features}x{node.in_features}"
                )
            out.append((node.out_features // pe) * (node.in_features // simd))
        return out

    def max_cycles(self, matmuls: list[MatMulIntNode]) -> int:
        """Initiation interval of the whole pipeline (slowest stage)."""
        return max(self.cycles(matmuls))

    def to_dict(self) -> dict:
        return {"pe": list(self.pe), "simd": list(self.simd)}


def fold_for_target(
    graph: DataflowGraph,
    target_fps: float,
    clock_hz: float = 100e6,
) -> FoldingConfig:
    """Cheapest folding meeting ``target_fps`` at ``clock_hz``.

    For each layer independently, pick the (PE, SIMD) pair with the
    smallest PE*SIMD product (fewest MAC lanes) whose cycle count fits
    the budget ``floor(clock / target_fps)``; ties prefer higher SIMD
    (cheaper than PE in the MVAU datapath: wider weight words, shallower
    output interleaving).

    Raises :class:`ResourceError` if even fully parallel execution
    cannot reach the target.
    """
    if target_fps <= 0 or clock_hz <= 0:
        raise CompileError("target_fps and clock_hz must be positive")
    budget = int(clock_hz / target_fps)
    if budget < 1:
        raise ResourceError(
            f"target {target_fps:g} fps exceeds the clock ({clock_hz:g} Hz): "
            "even one cycle per sample is too slow"
        )
    config = FoldingConfig()
    for node in graph.nodes_of_type(MatMulIntNode):
        best: tuple[int, int, int] | None = None  # (cost, pe, simd)
        for pe in divisors(node.out_features):
            rows = node.out_features // pe
            for simd in divisors(node.in_features):
                cycles = rows * (node.in_features // simd)
                if cycles > budget:
                    continue
                cost = pe * simd
                candidate = (cost, pe, simd)
                if best is None or cost < best[0] or (cost == best[0] and simd > best[2]):
                    best = candidate
                break  # divisors ascend: first simd meeting budget is cheapest for this pe
        if best is None:
            raise ResourceError(
                f"{node.name} ({node.out_features}x{node.in_features}) cannot reach "
                f"{target_fps:g} fps at {clock_hz / 1e6:g} MHz even fully parallel"
            )
        config.pe.append(best[1])
        config.simd.append(best[2])
    return config
