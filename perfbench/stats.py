"""Small statistics helpers: percentiles, host calibration, peak memory."""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Optional, Sequence

__all__ = ["MIN_TAIL", "percentile", "calibrate", "own_peak_rss_mb",
           "process_peak_rss_mb"]

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_TAIL = 10

#: Iterations of the fixed calibration loop.
CALIB_LOOPS = 400_000


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The *q*-th percentile (nearest rank), or None when fewer than
    :data:`MIN_TAIL` samples lie beyond it."""
    if not 0 < q < 100 or not samples:
        raise ValueError(f"need samples and 0 < q < 100, got q={q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))  # 1-based nearest rank
    if len(ordered) - rank < MIN_TAIL:
        return None
    return ordered[rank - 1]


def calibrate(repeats: int = 3) -> float:
    """Loops per second of a fixed pure-Python loop (median of
    *repeats*): how fast this host runs interpreted code right now."""
    rates = []
    for _ in range(repeats):
        acc = 0
        start = time.perf_counter()
        for i in range(CALIB_LOOPS):
            acc = (acc + i * i) % 1_000_003
        rates.append(CALIB_LOOPS / (time.perf_counter() - start))
    return statistics.median(rates)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
