"""Fixed-bucket latency histogram shared by metrics and the sanitizer.

The histogram keeps a per-bucket *sum* alongside the per-bucket count, so
``percentile`` can answer with the mean of the bucket containing the rank
instead of a bare bucket boundary.  Two properties fall out of that choice:

* estimates are always inside the observed ``[min, max]`` range and
  monotone in the quantile (the mean of bucket *i+1* exceeds bucket *i*'s
  upper bound, which bounds bucket *i*'s mean from above), and
* when every sample in the rank's bucket is identical — the common case for
  fake-clock tests — the estimate is *exact*, not a boundary approximation.

Memory is O(buckets) regardless of how many observations arrive, which is
what lets the sanitizer drop its bounded reservoir of raw held-time samples.

The lock is injectable because the lock-order sanitizer itself aggregates
held times through this type: a *tracked* lock here would re-enter the
sanitizer on every release (observe -> release -> note_released -> observe
...), so the sanitizer passes a plain ``threading.Lock`` while the metrics
registry passes ``tracked_lock("obs.metric")``.  This module must therefore
import nothing from ``repro`` — it sits below both the registry and the
sanitizer in the dependency graph.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Sequence

__all__ = ["DEFAULT_BUCKETS", "Histogram"]

#: Default latency bucket upper bounds, in seconds.  Log-spaced from 100us
#: to 10s, the range spanning a cache-hit lookup to a full snapshot rewrite;
#: an implicit +Inf bucket always follows the last bound.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Histogram:
    """Thread-safe fixed-bucket histogram with bucket-mean percentiles."""

    __slots__ = (
        "bounds",
        "_counts",
        "_sums",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        *,
        lock: threading.Lock | None = None,
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bucket bounds must be strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sums = [0.0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        # The first bound >= value; past the last bound is the +Inf bucket.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sums[index] += value
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimate the ``fraction`` quantile (0 < fraction <= 1).

        Returns the mean of the bucket containing the rank — exact when the
        bucket holds identical samples, always within ``[min, max]``.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = max(1, math.ceil(fraction * total))
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank and bucket_count:
                    # Clamp: repeated-sum rounding can push the bucket mean
                    # one ULP past an observed extreme.
                    mean = self._sums[index] / bucket_count
                    return min(max(mean, self._min), self._max)
        return self._max  # pragma: no cover - unreachable; counts sum to total

    def snapshot(self) -> dict[str, object]:
        """Consistent point-in-time view (cumulative buckets, summary stats)."""
        with self._lock:
            counts = list(self._counts)
            sums = list(self._sums)
            total = self._count
            total_sum = self._sum
            maximum = self._max if total else 0.0
            minimum = self._min if total else 0.0
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, counts):
            running += bucket_count
            cumulative.append((bound, running))
        cumulative.append((math.inf, running + counts[-1]))

        def estimate(fraction: float) -> float:
            if total == 0:
                return 0.0
            rank = max(1, math.ceil(fraction * total))
            seen = 0
            for index, bucket_count in enumerate(counts):
                seen += bucket_count
                if seen >= rank and bucket_count:
                    mean = sums[index] / bucket_count
                    return min(max(mean, minimum), maximum)
            return maximum

        return {
            "count": total,
            "sum": total_sum,
            "min": minimum,
            "max": maximum,
            "p50": estimate(0.50),
            "p95": estimate(0.95),
            "p99": estimate(0.99),
            "buckets": cumulative,
        }
