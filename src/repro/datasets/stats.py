"""Capture statistics and dataset summaries.

Used by the experiment harnesses to report what the models were trained
on (frame counts, class balance, identifier inventory, bus rates) — the
reproduction analogue of the dataset table most IDS papers include.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.can.log import CANLogRecord
from repro.errors import DatasetError

__all__ = ["capture_summary", "id_inventory"]


def capture_summary(records: Sequence[CANLogRecord]) -> dict:
    """Aggregate statistics of a capture.

    Returns a dict with: total/normal/attack counts, attack fraction,
    unique identifier count, capture span (s) and mean message rate
    (frames/s).
    """
    if not records:
        raise DatasetError("cannot summarise an empty capture")
    total = len(records)
    attacks = sum(1 for record in records if record.is_attack)
    span = records[-1].timestamp - records[0].timestamp
    return {
        "total_frames": total,
        "normal_frames": total - attacks,
        "attack_frames": attacks,
        "attack_fraction": attacks / total,
        "unique_ids": len({record.can_id for record in records}),
        "span_seconds": span,
        "mean_rate_fps": total / span if span > 0 else float("inf"),
    }


def id_inventory(records: Sequence[CANLogRecord]) -> dict[int, dict]:
    """Per-identifier statistics: count, attack count, mean period.

    The mean period of a legitimate periodic identifier is the key
    normality baseline that DoS floods and fuzzed frames violate.
    """
    if not records:
        raise DatasetError("cannot inventory an empty capture")
    by_id: dict[int, list[CANLogRecord]] = {}
    for record in records:
        by_id.setdefault(record.can_id, []).append(record)
    inventory: dict[int, dict] = {}
    for can_id, group in sorted(by_id.items()):
        times = np.array([record.timestamp for record in group])
        periods = np.diff(times)
        inventory[can_id] = {
            "count": len(group),
            "attack_count": sum(1 for r in group if r.is_attack),
            "mean_period": float(periods.mean()) if periods.size else float("nan"),
        }
    return inventory
