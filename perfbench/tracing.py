"""Span wrappers installed at runtime around the public functions of each layer.

Nothing under ``src/`` changes: :class:`Tracer` replaces class and module
attributes with timing wrappers inside the benchmark's server process and
restores them on :meth:`Tracer.uninstall`.  Each span records
``(id, name, start_ns, end_ns, parent_id, request_id, value)``; spans are
kept in memory and written out when the run ends.  :func:`layer_metrics`
folds them (plus the client's per-request latencies) into the per-layer
metrics named in ``BENCHMARK.json``.

Parents come from a per-thread stack; the event-loop side of a request
(``front.dispatch``) keeps its span in a context variable instead, and the
``front.handoff`` / ``service.handler`` spans recorded on the worker thread
name it as their parent.  Calls made under ``normalize.candidates`` and
``perturb`` are not split further: their whole time is that layer's.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_OPAQUE = frozenset({"normalize.candidates", "perturb"})
_DISPATCH: contextvars.ContextVar = contextvars.ContextVar("perfbench_dispatch", default=None)

#: Request-path layers whose self time is reported as ``<name>_ms`` per request.
REQUEST_LAYERS = (
    "front.dispatch", "front.handoff", "service.handler", "service.auth",
    "service.serialize", "cache.get", "lookup.engine", "lookup.encode",
    "lookup.bucket", "lookup.match", "lookup.categorize", "normalize",
    "text.tokenize", "normalize.candidates", "lm.score", "normalize.categorize",
    "batch.lookup", "perturb",
)
_METRIC_NAME = {"normalize": "normalize.ms", "perturb": "perturb.ms", "batch.lookup": "batch.lookup_ms"}
#: The per-request time metrics, which partition the client latency.
_REQUEST_MS = frozenset(
    ["front.request_ms"] + [_METRIC_NAME.get(layer, layer + "_ms") for layer in REQUEST_LAYERS]
)


class Tracer:
    """Collects spans from wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[str | None, int | None], str | None],
        value: Callable[[tuple, dict, Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name, or a function of the enclosing span's name
        and request id returning it (``None`` = do not record this call).
        """
        original = owner.__dict__[attr]
        function = getattr(owner, attr)
        tracer = self
        naming = name if callable(name) else (lambda _parent, _rid: name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            top = stack[-1] if stack else None
            parent_name, rid = (top[1], top[2]) if top else (None, None)
            span_name = None if parent_name in _OPAQUE else naming(parent_name, rid)
            if span_name is None:
                return function(*args, **kwargs)
            span_id = next(tracer._ids)
            stack.append((span_id, span_name, rid))
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            tracer.spans.append((
                span_id, span_name, start, end, top[0] if top else 0, rid,
                value(args, kwargs, result) if value is not None else None,
            ))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def install_setup(self) -> None:
        """Wrap the three set-up steps of ``CrypText.from_corpus``."""
        from repro.core.dictionary import PerturbationDictionary
        from repro.lm.coherency import CoherencyScorer

        self.wrap(PerturbationDictionary, "add_corpus", "setup.corpus")
        self.wrap(PerturbationDictionary, "seed_lexicon", "setup.lexicon")
        self.wrap(CoherencyScorer, "fit", "setup.scorer")

    def install_requests(self) -> None:
        """Wrap every request-path and ingest-path layer of the table."""
        from repro.api.async_service import AsyncCrypTextService
        from repro.api.auth import TokenAuthenticator
        from repro.api.ratelimit import RateLimiter
        from repro.batch.engine import BatchEngine
        from repro.core import lookup as lookup_module
        from repro.core import normalizer as normalizer_module
        from repro.core.dictionary import PerturbationDictionary
        from repro.core.lookup import LookupEngine, LookupResult
        from repro.core.matcher import CompiledBucket
        from repro.core.normalizer import NormalizationResult, Normalizer
        from repro.core.perturber import Perturber
        from repro.core.pipeline import CrypText
        from repro.core.soundex import CustomSoundex
        from repro.lm.coherency import CoherencyScorer
        from repro.storage.cache import TTLCache
        from repro.text.tokenizer import Tokenizer
        from repro.wal.log import ChangeLog
        from repro.wal.maintenance import MaintenanceScheduler

        self._wrap_front(AsyncCrypTextService)
        in_request = lambda name: (lambda _parent, rid: name if rid is not None else None)  # noqa: E731
        self.wrap(TokenAuthenticator, "authorize", in_request("service.auth"))
        self.wrap(RateLimiter, "check", in_request("service.auth"))
        self.wrap(LookupResult, "to_dict", in_request("service.serialize"))
        self.wrap(NormalizationResult, "to_dict", in_request("service.serialize"))
        self.wrap(TTLCache, "get", in_request("cache.get"), value=_cache_hit)
        self.wrap(TTLCache, "invalidate_tags", "cache.invalidate", value=_returned)
        self.wrap(TTLCache, "invalidate_untagged", "cache.invalidate", value=_returned)
        self.wrap(LookupEngine, "look_up", in_request("lookup.engine"))
        self.wrap(CustomSoundex, "encode_or_none", in_request("lookup.encode"))
        self.wrap(PerturbationDictionary, "compiled_bucket", in_request("lookup.bucket"))
        self.wrap(CompiledBucket, "match", in_request("lookup.match"), value=_match_yield)
        self.wrap(lookup_module, "categorize_perturbation", in_request("lookup.categorize"))
        self.wrap(normalizer_module, "categorize_perturbation", in_request("normalize.categorize"))
        self.wrap(Normalizer, "normalize", in_request("normalize"), value=_corrections)
        self.wrap(Tokenizer, "tokenize", in_request("text.tokenize"))
        self.wrap(Normalizer, "_retrieve_candidates", in_request("normalize.candidates"))
        self.wrap(CoherencyScorer, "score", in_request("lm.score"))
        self.wrap(BatchEngine, "look_up_batch", in_request("batch.lookup"), value=_dedup)
        self.wrap(Perturber, "perturb", in_request("perturb"))
        self.wrap(CrypText, "learn_from", "ingest.learn", value=lambda a, k, r: len(a[1]))
        self.wrap(ChangeLog, "append", "wal.append")
        self.wrap(MaintenanceScheduler, "save", "maintenance.save")

    def _wrap_front(self, front_class) -> None:
        tracer = self
        dispatch = front_class.__dict__["dispatch"]
        call = front_class.__dict__["_call"]

        async def traced_dispatch(front, method, path, token, payload=None):
            rid = payload.pop("_rid", None) if isinstance(payload, dict) else None
            if rid is None:
                return await dispatch(front, method, path, token, payload)
            span_id = next(tracer._ids)
            reset = _DISPATCH.set((span_id, rid))
            start = time.perf_counter_ns()
            try:
                return await dispatch(front, method, path, token, payload)
            finally:
                end = time.perf_counter_ns()
                _DISPATCH.reset(reset)
                tracer.spans.append((span_id, "front.dispatch", start, end, 0, rid, None))

        async def traced_call(front, handler, /, *args, **kwargs):
            current = _DISPATCH.get()
            if current is None:
                return await call(front, handler, *args, **kwargs)
            parent, rid = current
            queued = time.perf_counter_ns()

            def run(*inner_args, **inner_kwargs):
                started = time.perf_counter_ns()
                tracer.spans.append(
                    (next(tracer._ids), "front.handoff", queued, started, parent, rid, None)
                )
                span_id = next(tracer._ids)
                stack = tracer._stack()
                stack.append((span_id, "service.handler", rid))
                try:
                    return handler(*inner_args, **inner_kwargs)
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    tracer.spans.append(
                        (span_id, "service.handler", started, end, parent, rid, None)
                    )

            return await call(front, run, *args, **kwargs)

        for attr, replacement, original in (
            ("dispatch", traced_dispatch, dispatch),
            ("_call", traced_call, call),
        ):
            setattr(front_class, attr, replacement)
            self._patches.append((front_class, attr, original))

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _cache_hit(args: tuple, kwargs: dict, result: Any) -> int:
    default = args[2] if len(args) > 2 else kwargs.get("default")
    return 0 if result is default else 1


def _returned(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result)


def _match_yield(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return len(result), len(args[0].entries)


def _corrections(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return len(result.corrections), result.num_corrected


def _dedup(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    queries = list(args[1])
    return len(set(queries)), len(queries)


def read_spans(path: Path) -> list[tuple]:
    with path.open(encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[tuple],
    client_ns: dict[int, int],
    compiled_delta: dict[str, float],
    ingest_delta: dict[str, float],
) -> dict[str, float]:
    """Fold spans into the per-layer metrics.

    ``client_ns`` maps each traced request id that returned 2xx to its
    client-observed latency.  Request-path ``*_ms`` metrics are self time
    per traced request, so they add up (with ``front.request_ms``) to the
    client latency; ``trace.unattributed_ms`` is whatever they leave over.
    Counts on the request path are per traced request; ingest-path times are
    per call.
    """
    durations = {span[0]: span[3] - span[2] for span in spans}
    names = {span[0]: span[1] for span in spans}
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[4]:
            children[span[4]] += span[3] - span[2]
    dispatch_ns = {span[5]: span[3] - span[2] for span in spans if span[1] == "front.dispatch"}
    requests = [rid for rid in client_ns if rid in dispatch_ns]
    counted = set(requests)
    count = len(requests)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, list] = defaultdict(list)
    memo = [0, 0]
    for span in spans:
        span_id, name, _start, _end, parent, rid, value = span
        if rid is not None and rid not in counted:
            continue
        self_ns[name] += durations[span_id] - children.get(span_id, 0)
        calls[name] += 1
        if value is not None:
            values[name].append(value)
        if name == "cache.get" and names.get(parent) == "batch.lookup":
            memo[0] += value
            memo[1] += 1
    per_request = lambda ns: _ratio(ns / 1e6, count)  # noqa: E731
    per_call = lambda name: _ratio(self_ns[name] / 1e6, calls[name])  # noqa: E731
    client_ms = _ratio(sum(client_ns[rid] for rid in requests) / 1e6, count)
    metrics = {
        "front.request_ms": _ratio(
            sum(client_ns[rid] - dispatch_ns[rid] for rid in requests) / 1e6, count
        ),
    }
    for layer in REQUEST_LAYERS:
        metrics[_METRIC_NAME.get(layer, layer + "_ms")] = per_request(self_ns[layer])
    matches = [sum(parts) for parts in zip(*values["lookup.match"])] or [0, 0]
    tokens = [sum(parts) for parts in zip(*values["normalize"])] or [0, 0]
    dedup = [sum(parts) for parts in zip(*values["batch.lookup"])] or [0, 0]
    metrics.update({
        "trace.requests": float(count),
        "trace.client_ms": client_ms,
        "cache.hit_rate": _ratio(sum(values["cache.get"]), len(values["cache.get"])),
        "cache.invalidated_entries": float(sum(values["cache.invalidate"])),
        "lookup.queries": _ratio(calls["lookup.engine"], count),
        "lookup.bucket_hit_rate": _ratio(
            compiled_delta["hits"], compiled_delta["hits"] + compiled_delta["misses"]
        ),
        "lookup.categorize_calls": _ratio(calls["lookup.categorize"], count),
        "lookup.match_yield": _ratio(matches[0], matches[1]),
        "normalize.tokens": _ratio(tokens[0], count),
        "normalize.corrected_share": _ratio(tokens[1], tokens[0]),
        "lm.score_calls": _ratio(calls["lm.score"], count),
        "batch.dedup_ratio": _ratio(dedup[0], dedup[1]),
        "batch.memo_hit_rate": _ratio(memo[0], memo[1]),
        "ingest.learn_ms": per_call("ingest.learn"),
        "ingest.docs": float(sum(values["ingest.learn"])),
        "wal.append_ms": per_call("wal.append"),
        "wal.appends": float(calls["wal.append"]),
        "wal.bytes_per_token": _ratio(ingest_delta["wal_bytes"], ingest_delta["tokens"]),
        "dict.compiled_invalidations": _ratio(
            compiled_delta["invalidations"], ingest_delta["batches"]
        ),
        "maintenance.save_ms": per_call("maintenance.save"),
        "maintenance.saves": float(calls["maintenance.save"]),
    })
    for kernel in ("myers", "banded", "symspell", "linear"):
        metrics[f"lookup.kernel.{kernel}"] = _ratio(compiled_delta[kernel], count)
    attributed = sum(metrics[name] for name in _REQUEST_MS)
    metrics["trace.unattributed_ms"] = client_ms - attributed
    return metrics
