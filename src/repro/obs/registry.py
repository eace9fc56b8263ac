"""Process-global, thread-safe metrics registry with an armed/disarmed guard.

The hot-path contract copies the fault-injection registry
(``resilience/faults.py``): ``OBS`` is a module global, call sites pay a
single ``if OBS.armed:`` attribute read when observability is off, and every
mutator updates ``armed`` under the registry lock so a concurrent reader
sees either the old or the new configuration, never a torn one.  Arming
happens through ``CrypTextConfig.obs_enabled`` (the facade arms on
construction) or ``CRYPTEXT_OBS=1`` via :func:`maybe_arm_from_env`, which —
per the project's env discipline — is only called from CLI ``main()`` and
test bootstrap, never at library import time.

Lock ordering: the registry lock (``obs.registry``, rank 200) and the
per-histogram locks (``obs.metric``, rank 210) are leaf-most ranks so span
exits may record timings while WAL or replication locks are held.  The
inverse direction is forbidden by construction: ``collect()`` copies the
sample maps under the registry lock and *releases it* before rendering or
calling adapter code, so no project lock is ever acquired while a registry
lock is held.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from collections import deque
from typing import Iterable, Iterator, Mapping

from ..analysis.sanitizer import tracked_lock
from .histogram import Histogram
from .trace import _CURRENT_TRACE, TraceContext, current_trace

__all__ = [
    "ENV_VAR",
    "OBS",
    "MetricsRegistry",
    "Sample",
    "maybe_arm_from_env",
]

ENV_VAR = "CRYPTEXT_OBS"

#: Default slow-query threshold (milliseconds); mirrors
#: ``CrypTextConfig.slow_query_ms``.
DEFAULT_SLOW_QUERY_MS = 250.0

#: Ring-buffer capacity of the slow-query log.
SLOW_LOG_CAPACITY = 128

# Built-in metric names.  Adapters add more; see obs/adapters.py.
STAGE_SECONDS = "cryptext_stage_seconds"
REQUEST_SECONDS = "cryptext_request_seconds"
REQUESTS_TOTAL = "cryptext_requests_total"
SLOW_QUERIES_TOTAL = "cryptext_slow_queries_total"
QUEUE_WAIT_SECONDS = "cryptext_queue_wait_seconds"
OBS_ARMED = "cryptext_obs_armed"

HELP: dict[str, str] = {
    STAGE_SECONDS: "Latency of one pipeline stage (span), by stage name.",
    REQUEST_SECONDS: "End-to-end request latency, by route.",
    REQUESTS_TOTAL: "Requests finished, by route and HTTP status.",
    SLOW_QUERIES_TOTAL: "Requests slower than the slow-query threshold, by route.",
    QUEUE_WAIT_SECONDS: "Wait from thread-pool submit to handler start, by route.",
    OBS_ARMED: "1 while the metrics registry is armed, else 0.",
}

#: One exposition sample: ``(name, type, help, labels, value)``.  For
#: histograms ``value`` is the dict produced by ``Histogram.snapshot()``;
#: for counters/gauges it is a float.
Sample = tuple[str, str, str, Mapping[str, str], object]

LabelPairs = tuple[tuple[str, str], ...]


class _Span:
    """Times one stage; records into its histogram (and active trace) on exit."""

    __slots__ = ("_histogram", "_stage", "_started")

    def __init__(self, histogram: Histogram, stage: str) -> None:
        self._histogram = histogram
        self._stage = stage
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._started
        self._histogram.observe(seconds)
        trace = _CURRENT_TRACE.get()
        if trace is not None:
            trace.add_stage(self._stage, seconds)
        return False


class MetricsRegistry:
    """Counters, gauges, and latency histograms behind one armed flag."""

    def __init__(self) -> None:
        self.armed = False
        self.slow_query_ms = DEFAULT_SLOW_QUERY_MS
        self._lock = tracked_lock("obs.registry")
        self._counters: dict[tuple[str, LabelPairs], float] = {}
        self._gauges: dict[tuple[str, LabelPairs], float] = {}
        self._histograms: dict[tuple[str, LabelPairs], Histogram] = {}
        #: Stage name -> its ``cryptext_stage_seconds`` histogram, so a span
        #: finds its histogram with one dict read instead of a key rebuild.
        self._stage_histograms: dict[str, Histogram] = {}
        self._slow_queries: deque[dict[str, object]] = deque(maxlen=SLOW_LOG_CAPACITY)
        self._slow_query_count = 0

    # -- arming ---------------------------------------------------------

    def arm(self, *, slow_query_ms: float | None = None) -> None:
        """Enable recording; optionally set the slow-query threshold."""
        with self._lock:
            if slow_query_ms is not None:
                self.slow_query_ms = float(slow_query_ms)
            self.armed = True

    def disarm(self) -> None:
        with self._lock:
            self.armed = False

    @contextlib.contextmanager
    def scoped(self, *, slow_query_ms: float | None = None) -> Iterator["MetricsRegistry"]:
        """Arm for the duration of a ``with`` block, then restore."""
        with self._lock:
            previous_armed = self.armed
            previous_threshold = self.slow_query_ms
        self.arm(slow_query_ms=slow_query_ms)
        try:
            yield self
        finally:
            with self._lock:
                self.armed = previous_armed
                self.slow_query_ms = previous_threshold

    def reset(self) -> None:
        """Disarm and drop all recorded series (test isolation)."""
        with self._lock:
            self.armed = False
            self.slow_query_ms = DEFAULT_SLOW_QUERY_MS
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._stage_histograms.clear()
            self._slow_queries.clear()
            self._slow_query_count = 0

    # -- recording ------------------------------------------------------

    def inc(self, name: str, labels: LabelPairs = (), amount: float = 1.0) -> None:
        key = (name, tuple(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, labels: LabelPairs = ()) -> None:
        key = (name, tuple(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def histogram(self, name: str, labels: LabelPairs = ()) -> Histogram:
        """Get or lazily create the histogram for ``(name, labels)``."""
        key = (name, tuple(labels))
        hist = self._histograms.get(key)
        if hist is None:
            with self._lock:
                hist = self._histograms.get(key)
                if hist is None:
                    hist = Histogram(lock=tracked_lock("obs.metric"))
                    self._histograms[key] = hist
        return hist

    def span(self, stage: str) -> _Span:
        """Context manager timing one named stage.

        Call sites guard with ``if OBS.armed:`` so the disarmed path never
        constructs a span; the span itself does not re-check.
        """
        hist = self._stage_histograms.get(stage)
        if hist is None:
            hist = self.histogram(STAGE_SECONDS, (("stage", stage),))
            self._stage_histograms[stage] = hist
        return _Span(hist, stage)

    # -- request tracing ------------------------------------------------

    def open_trace(self, route: str) -> TraceContext:
        """Build a trace without activating it (the asyncio front activates
        it inside worker threads via ``trace.activate()``)."""
        return TraceContext(route)

    def finish_trace(self, trace: TraceContext, status: int | None = None) -> None:
        """Record the finished request and feed the slow-query log."""
        if status is None:
            status = trace.status if trace.status is not None else 200
        trace.status = status
        elapsed = trace.elapsed()
        self.histogram(REQUEST_SECONDS, (("route", trace.route),)).observe(elapsed)
        self.inc(REQUESTS_TOTAL, (("route", trace.route), ("status", str(status))))
        if elapsed * 1000.0 >= self.slow_query_ms:
            entry = {
                "route": trace.route,
                "status": status,
                "total_ms": elapsed * 1000.0,
                "started_at": trace.started_wall,
                "stages": trace.stage_summary(),
            }
            with self._lock:
                self._slow_queries.append(entry)
                self._slow_query_count += 1
            self.inc(SLOW_QUERIES_TOTAL, (("route", trace.route),))

    @contextlib.contextmanager
    def request(self, route: str) -> Iterator[TraceContext]:
        """Trace one request; reentrant.

        If a trace is already active (the asyncio front opened one before
        dispatching into the sync handler layer) the existing trace is
        yielded untouched so the request is counted exactly once.
        """
        existing = current_trace()
        if existing is not None:
            yield existing
            return
        trace = TraceContext(route)
        try:
            with trace.activate():
                yield trace
        finally:
            self.finish_trace(trace)

    def slow_queries(self) -> list[dict[str, object]]:
        with self._lock:
            return [dict(entry) for entry in self._slow_queries]

    # -- exposition -----------------------------------------------------

    def collect(self, extra: Iterable[Sample] | None = None) -> list[Sample]:
        """Point-in-time samples: built-ins first, then ``extra`` verbatim.

        The registry lock is released before histogram snapshots are taken
        and before any adapter-produced ``extra`` samples are consumed, so
        collection never holds ``obs.registry`` across foreign code.
        """
        with self._lock:
            armed = self.armed
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        samples: list[Sample] = [
            (OBS_ARMED, "gauge", HELP[OBS_ARMED], {}, 1.0 if armed else 0.0)
        ]
        for (name, labels), value in sorted(counters.items()):
            samples.append((name, "counter", HELP.get(name, ""), dict(labels), value))
        for (name, labels), value in sorted(gauges.items()):
            samples.append((name, "gauge", HELP.get(name, ""), dict(labels), value))
        for (name, labels), hist in sorted(histograms.items()):
            samples.append(
                (name, "histogram", HELP.get(name, ""), dict(labels), hist.snapshot())
            )
        if extra is not None:
            samples.extend(extra)
        return samples

    def render(self, extra: Iterable[Sample] | None = None) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        from .expose import render_text

        return render_text(self.collect(extra))

    def snapshot(self, extra: Iterable[Sample] | None = None) -> dict[str, object]:
        """JSON-safe view of every sample plus the slow-query log."""
        metrics: dict[str, dict[str, object]] = {}
        for name, kind, help_text, labels, value in self.collect(extra):
            family = metrics.setdefault(
                name, {"type": kind, "help": help_text, "samples": []}
            )
            family["samples"].append(
                {"labels": dict(labels), "value": _jsonable(value)}
            )
        return {
            "armed": self.armed,
            "slow_query_ms": self.slow_query_ms,
            "metrics": metrics,
            "slow_queries": self.slow_queries(),
        }

    def status(self) -> dict[str, object]:
        """Compact summary for ``/v1/stats`` and diagnostics."""
        with self._lock:
            traced = sum(
                value
                for (name, _labels), value in self._counters.items()
                if name == REQUESTS_TOTAL
            )
            return {
                "armed": self.armed,
                "slow_query_ms": self.slow_query_ms,
                "slow_queries": self._slow_query_count,
                "slow_query_capacity": SLOW_LOG_CAPACITY,
                "traced_requests": int(traced),
            }


def _jsonable(value: object) -> object:
    """Histogram snapshots carry a +Inf bucket bound; make them JSON-safe."""
    if isinstance(value, dict) and "buckets" in value:
        safe = dict(value)
        safe["buckets"] = [
            ["+Inf" if math.isinf(bound) else bound, count]
            for bound, count in value["buckets"]  # type: ignore[union-attr]
        ]
        return safe
    return value


#: The process-global registry every call site guards on.
OBS = MetricsRegistry()


def maybe_arm_from_env(
    environ: Mapping[str, str] | None = None,
    registry: MetricsRegistry | None = None,
) -> bool:
    """Arm the registry when ``CRYPTEXT_OBS=1``.

    Mirrors the sanitizer/fault-injection env hooks: called from CLI
    ``main()`` and test bootstrap only, so importing the library never
    reads the environment.
    """
    env = os.environ if environ is None else environ
    target = OBS if registry is None else registry
    if env.get(ENV_VAR, "").strip() != "1":
        return False
    target.arm()
    return True
