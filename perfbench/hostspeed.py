"""A fixed probe of how fast the host runs right now.

The benchmark runs on shared hosts where other tenants slow everything
by up to half for stretches of seconds to minutes.  Interference of
that kind slows a fixed piece of work much as it slows the program (per
batch, probe and batch times correlated at 0.6 to 0.9 on the reference
host), so timing the same fixed work next to every measured interval
tells how much of a slow reading was the host.  :func:`probe` is that
fixed work: the kinds of operation the fleet pipeline spends its time
in (an interpreter heap loop, many small numpy calls, column-wise bit
operations and a float matrix product), in comparable amounts.  It
never calls the program under test, so it is the same on every commit
being compared.

A time ``t`` measured while the probe took ``p`` seconds reads
``t * REFERENCE_S / p`` in *reference seconds*: about the time the
interval would have taken on the reference host when quiet.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: About the probe time on the reference host (2-core VM, Python 3.11,
#: numpy 2.4) when quiet.  Any fixed value works: runs are compared by
#: ratios, and this only keeps reference seconds close to real ones.
REFERENCE_S = 0.025


def _work() -> float:
    # Inputs are made inside the timed work, so the probe holds no
    # memory between calls and never shows in the program's peak RSS.
    rng = np.random.default_rng(20231)
    keys = rng.integers(0, 2048, size=10_000).tolist()
    heap: list[tuple[int, int]] = []
    for sequence, key in enumerate(keys):
        heapq.heappush(heap, (key, sequence))
        if len(heap) > 64:
            heapq.heappop(heap)
    small = np.arange(16, dtype=np.int64)
    total = 0
    for step in range(2_000):
        total += int((small * step + 1).sum())
    unpacked = np.unpackbits(rng.integers(0, 256, size=(10_000, 8), dtype=np.uint8), axis=1)
    crc = np.zeros(unpacked.shape[0], dtype=np.int64)
    for _ in range(2):
        for column in range(unpacked.shape[1]):
            feedback = ((crc >> 14) & 1) ^ unpacked[:, column]
            crc = ((crc << 1) & 0x7FFF) ^ (feedback * 0x4599)
    features = rng.random((1024, 79))
    weights = rng.random((79, 64))
    product = 0.0
    for _ in range(32):
        product += float((features @ weights)[0, 0])
    return product + float(crc.sum()) + total + len(heap)


def probe() -> float:
    """Seconds the fixed probe work takes now (best of two passes)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best
