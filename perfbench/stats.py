"""Summary statistics and warm microtimings."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float
    samples: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def summarize(values) -> Summary:
    values = list(values)
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], 1)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return Summary(statistics.median(values), q1, q3, len(values))


def p90(values):
    """90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def microtime(fn, budget_s: float, min_samples: int = 5, max_samples: int = 25,
              min_batch_s: float = 2e-4) -> Summary:
    """Seconds per call of ``fn``: warmed, batched past timer resolution,
    and sampled until ``budget_s`` is spent (within the sample limits)."""
    fn()
    inner = 1
    while True:
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        batch = time.perf_counter() - start
        if batch >= min_batch_s:
            break
        inner *= 2
    samples = int(min(max_samples, max(min_samples, budget_s / batch)))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return summarize(times)
