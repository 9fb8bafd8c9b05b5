"""Small measurement helpers: medians, the tail percentile, RSS, host calibration."""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry

TAIL_BEYOND = 10
"""The tail percentile is the highest one with at least this many samples beyond it."""


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest nearest-rank percentile that
    leaves at least :data:`TAIL_BEYOND` samples beyond it.

    With fewer than ``TAIL_BEYOND + 1`` samples no such percentile exists
    and the median stands in for it (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return median(ordered), 50.0, n
    rank = n - TAIL_BEYOND  # 1-based nearest rank; n - rank samples lie beyond
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB (of this process, or its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


_SORT_DATA = np.random.default_rng(12345).random(100_000)
_STREAM_DATA = np.ones(2_000_000)  # 16 MB: larger than the caches, so memory-bound


def _reference_loop() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(100_000):
        total += value * value
    for _ in range(5):
        np.sort(_SORT_DATA)
    for _ in range(5):
        np.multiply(_STREAM_DATA, 1.0001).sum()
    return (time.perf_counter() - start) * 1000.0


def calibrate(repeats: int = 5) -> List[float]:
    """Milliseconds of a fixed pure-Python + NumPy loop, ``repeats`` times.

    The loop's work never changes (interpreter, in-cache sort and a
    memory-bound pass), so its time tracks the host's speed: sampled before
    and after each window, it tells a slow host from a slow program.
    """
    return [_reference_loop() for _ in range(repeats)]


def histogram_delta_p50_ms(
    before: Dict[str, dict], after: Dict[str, dict], name: str
) -> float:
    """p50 in ms of the observations a registry histogram gained in a window.

    Reads two ``MetricsRegistry.snapshot()`` views and asks the program's
    own ``Histogram.quantile``: every observation the window added is
    replayed at its bucket's upper bound into a scratch histogram with the
    same buckets, which gives the quantile the same counts to interpolate.
    """
    series = after.get(name)
    if not series:
        return 0.0
    bounds = list(series["buckets"]) + [math.inf]
    counts_before = (before.get(name) or {}).get("counts", {})
    scratch = MetricsRegistry().histogram(name, buckets=series["buckets"])
    for labels, counts in series["counts"].items():
        base = counts_before.get(labels, [0] * len(counts))
        below = 0
        for bound, now, then in zip(bounds, counts, base):
            for _ in range(now - then - below):
                scratch.observe(bound)
            below = now - then
    p50 = scratch.quantile(0.5)
    return 0.0 if p50 is None else 1000.0 * p50


def counter_delta(before: Dict[str, dict], after: Dict[str, dict], name: str) -> float:
    """Increase of a registry counter (summed over label sets) across a window."""
    values_after = (after.get(name) or {}).get("values", {})
    values_before = (before.get(name) or {}).get("values", {})
    return float(
        sum(value - values_before.get(labels, 0) for labels, value in values_after.items())
    )
