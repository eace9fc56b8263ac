"""Asyncio service front: one event loop multiplexing many connections.

The sync :class:`~repro.api.service.CrypTextService` is the handler layer —
authentication, scopes, rate limits, validation — and stays exactly as it
is.  :class:`AsyncCrypTextService` puts an event loop in front of it:

* a **small read** (Look Up, Normalization and their batch variants, and
  perturbation, over at most :data:`INLINE_MAX_ITEMS` items totalling at
  most :data:`INLINE_MAX_CHARS` characters) runs its sync handler **inline
  on the event loop**: its work is in memory, and for the typical
  one-query request it costs less than the two GIL crossings of a thread
  handoff would;
* every other request — admin, snapshot and maintenance routes,
  ``listen``, ``stats``, ``metrics``, ``replication``, reads over the
  bound, and *every* request when a deadline is configured — is
  dispatched to a **thread pool** (``reader_threads`` workers, 4 by
  default),
  so one slow normalization never blocks the accept loop or the other
  connections;
* **read** endpoints (lookup / normalize and their batch variants) are
  routed across the follower replicas by the service's bound
  :class:`~repro.replication.ReplicaSet` — each request lands on one
  replica inside the staleness bound;
* **write and admin** endpoints (perturb sampling mutates RNG state,
  listen enriches, maintenance/snapshot administer) are pinned to the
  leader by the handlers themselves — the routing layer never sees them.

Two entry points:

* :meth:`dispatch` — the transport-free async callable
  (``await front.dispatch("POST", "/v1/lookup", token, payload)``), usable
  directly from any asyncio application;
* :meth:`start` — a minimal HTTP/1.1 server on ``asyncio.start_server``
  mapping the conventional routes (``POST /v1/lookup``,
  ``GET /v1/replication``, …) with ``Authorization: Bearer`` credentials
  and JSON bodies.  It exists so the CLI and the fault-injection harness
  can exercise the full socket path; it is deliberately not a general web
  server.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor

from ..errors import CrypTextError, DeadlineExceededError, InjectedFault
from ..obs.expose import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from ..obs.registry import OBS, QUEUE_WAIT_SECONDS
from ..obs.trace import current_trace
from ..resilience.faults import FAULTS
from ..resilience.policies import Deadline
from ..text.unicode_fold import has_surrogate
from .service import CrypTextService, ServiceResponse

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard cap on accepted request bodies (a service front, not a file server).
MAX_BODY_BYTES = 8 << 20

#: Inline bound: a read whose ``queries``/``texts`` list has at most this
#: many items, with strings totalling at most :data:`INLINE_MAX_CHARS`
#: characters, runs on the event loop instead of the thread pool.  At the
#: bound a handler holds the loop for about as long as a pooled one holds
#: the GIL (tens of milliseconds cold).
INLINE_MAX_ITEMS = 64
INLINE_MAX_CHARS = 2048

#: Cap on a request's header lines, terminators included.
MAX_HEADER_BYTES = 16 << 10

#: Before the front closes a connection it half-closes and drops at most
#: this much further input, for at most :data:`LINGER_SECONDS`: closing a
#: socket with unread input resets the connection, and the reset can
#: destroy an answer the peer has not read yet (a refused header block
#: or body is typically still arriving).
LINGER_BYTES = 1 << 20
LINGER_SECONDS = 1.0


def _refuse(message: str) -> tuple[ServiceResponse, bool]:
    """A 400 that closes the connection."""
    return ServiceResponse(status=400, body={"error": message}), False


def _encode_body(response: ServiceResponse) -> tuple[bytes, str]:
    """The wire bytes and content type of ``response``'s body.

    A raw-text response (the Prometheus scrape) is served verbatim with the
    exposition content type; every other body is JSON.
    """
    if response.text is not None:
        return response.text.encode("utf-8"), _METRICS_CONTENT_TYPE
    return (
        json.dumps(response.body, ensure_ascii=False).encode("utf-8"),
        "application/json",
    )


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Half-close, then drop the peer's input until it closes or the
    :data:`LINGER_BYTES` / :data:`LINGER_SECONDS` bound is spent."""

    async def drop() -> None:
        dropped = 0
        while dropped < LINGER_BYTES:
            chunk = await reader.read(64 << 10)
            if not chunk:
                return
            dropped += len(chunk)

    try:
        writer.write_eof()
        await asyncio.wait_for(drop(), LINGER_SECONDS)
    except (OSError, asyncio.TimeoutError):
        return  # the peer is gone or slow; the caller closes either way


class AsyncCrypTextService:
    """Event-loop front over a sync :class:`CrypTextService`.

    Parameters
    ----------
    service:
        The sync handler layer.
    reader_threads:
        Thread-pool width for the pooled routes (everything but small
        reads).
    max_body_bytes:
        Per-request body cap; defaults to :data:`MAX_BODY_BYTES`.
        Constructor-injectable so the protocol-edge tests can exercise the
        boundary without multi-megabyte requests.
    request_deadline:
        Per-request time budget in seconds; defaults to
        ``config.request_deadline_seconds``.  When set, every handler —
        small reads included — runs on the thread pool under an ambient
        :class:`Deadline` (propagated via a context variable into the worker
        thread) and the event loop stops waiting — answering 504 — the
        moment the budget is spent.
    """

    def __init__(
        self,
        service: CrypTextService,
        reader_threads: int = 4,
        max_body_bytes: int | None = None,
        request_deadline: float | None = None,
    ) -> None:
        self.service = service
        if reader_threads < 1:
            raise CrypTextError(f"reader_threads must be >= 1, got {reader_threads!r}")
        self.max_body_bytes = (
            max_body_bytes if max_body_bytes is not None else MAX_BODY_BYTES
        )
        if self.max_body_bytes < 1:
            raise CrypTextError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes!r}"
            )
        self.request_deadline = (
            request_deadline
            if request_deadline is not None
            else service.cryptext.config.request_deadline_seconds
        )
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise CrypTextError(
                f"request_deadline must be positive, got {self.request_deadline!r}"
            )
        self._executor = ThreadPoolExecutor(
            max_workers=reader_threads, thread_name_prefix="cryptext-read"
        )
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _inline(self, items: object) -> bool:
        """Whether a read over ``items`` (its ``queries``/``texts``) runs on
        the event loop: a list of at most :data:`INLINE_MAX_ITEMS` items
        whose strings total at most :data:`INLINE_MAX_CHARS` characters,
        and no deadline configured — the loop can answer 504 at the
        deadline only while the handler runs somewhere else."""
        if self.request_deadline is not None or not isinstance(items, list):
            return False
        if len(items) > INLINE_MAX_ITEMS:
            return False
        total = sum(len(item) for item in items if isinstance(item, str))
        return total <= INLINE_MAX_CHARS

    async def _call(
        self, handler, /, *args, inline: bool = False, **kwargs
    ) -> ServiceResponse:
        """Run one sync handler: on the event loop when ``inline``, else on
        the thread pool (under the deadline, when one is configured)."""
        if inline:
            # The request task's own context already carries the trace.
            return handler(*args, **kwargs)
        loop = asyncio.get_running_loop()
        seconds = self.request_deadline
        deadline = Deadline.after(seconds) if seconds is not None else None
        trace = current_trace()
        if deadline is None and trace is None:
            return await loop.run_in_executor(
                self._executor, functools.partial(handler, *args, **kwargs)
            )
        submitted = time.perf_counter()

        def invoke() -> ServiceResponse:
            if OBS.armed and trace is not None:
                OBS.histogram(QUEUE_WAIT_SECONDS, (("route", trace.route),)).observe(
                    time.perf_counter() - submitted
                )
            # Runs on the worker thread: context variables do not cross the
            # executor boundary by themselves, so the ambient deadline (read
            # by the handler layer's check_deadline()) and the request trace
            # (fed by the handler layer's spans) are re-activated here.
            with contextlib.ExitStack() as scope:
                if trace is not None:
                    scope.enter_context(trace.activate())
                if deadline is not None:
                    scope.enter_context(deadline.activate())
                return handler(*args, **kwargs)

        future = loop.run_in_executor(self._executor, invoke)
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout=deadline.remaining())
        except asyncio.TimeoutError:
            # The worker thread cannot be cancelled, but the ambient
            # deadline lets it abort itself at its next check; the client
            # gets its answer now either way.
            return ServiceResponse(
                status=504,
                body={"error": f"request exceeded its {seconds:g}s deadline"},
            )
        except DeadlineExceededError as exc:
            return ServiceResponse(status=504, body={"error": str(exc)})

    async def dispatch(
        self,
        method: str,
        path: str,
        token: str | None,
        payload: dict | None = None,
    ) -> ServiceResponse:
        """Route one request to its sync handler: small reads run on the
        event loop, everything else on the thread pool."""
        if FAULTS.armed:
            # Async-aware fault point: delays yield the event loop instead
            # of blocking it, failures answer 500 like any dispatch crash.
            delay = FAULTS.consume_delay("front.dispatch")
            if delay > 0:
                await asyncio.sleep(delay)
            try:
                FAULTS.hit("front.dispatch", apply_delay=False)
            except InjectedFault as exc:
                return ServiceResponse(status=500, body={"error": str(exc)})
        body = payload if payload is not None else {}
        if not isinstance(body, dict):
            return ServiceResponse(
                status=400, body={"error": "request body must be a JSON object"}
            )
        if not OBS.armed:
            return await self._route(method, path, token, body)
        # One root trace per request, opened on the event loop and activated
        # for this task; _call() re-activates it inside the worker thread so
        # handler-layer spans land on it (the Deadline propagation pattern).
        trace = OBS.open_trace(path)
        with trace.activate():
            try:
                response = await self._route(method, path, token, body)
            except BaseException:
                OBS.finish_trace(trace, 500)
                raise
        OBS.finish_trace(trace, response.status)
        return response

    async def _route(
        self,
        method: str,
        path: str,
        token: str | None,
        body: dict,
    ) -> ServiceResponse:
        service = self.service
        route = (method.upper(), path)
        try:
            if route == ("POST", "/v1/lookup"):
                queries = body.get("queries", [])
                return await self._call(
                    service.lookup,
                    token,
                    queries,
                    phonetic_level=body.get("phonetic_level"),
                    max_edit_distance=body.get("max_edit_distance"),
                    case_sensitive=body.get("case_sensitive", True),
                    use_transpositions=body.get("use_transpositions"),
                    inline=self._inline(queries),
                )
            if route == ("POST", "/v1/normalize"):
                texts = body.get("texts", [])
                return await self._call(
                    service.normalize, token, texts, inline=self._inline(texts)
                )
            if route == ("POST", "/v1/batch/lookup"):
                queries = body.get("queries", [])
                return await self._call(
                    service.batch_lookup,
                    token,
                    queries,
                    phonetic_level=body.get("phonetic_level"),
                    max_edit_distance=body.get("max_edit_distance"),
                    case_sensitive=body.get("case_sensitive", True),
                    use_transpositions=body.get("use_transpositions"),
                    inline=self._inline(queries),
                )
            if route == ("POST", "/v1/batch/normalize"):
                texts = body.get("texts", [])
                return await self._call(
                    service.batch_normalize, token, texts, inline=self._inline(texts)
                )
            if route == ("POST", "/v1/perturb"):
                texts = body.get("texts", [])
                return await self._call(
                    service.perturb,
                    token,
                    texts,
                    ratio=body.get("ratio"),
                    case_sensitive=body.get("case_sensitive"),
                    inline=self._inline(texts),
                )
            if route == ("POST", "/v1/listen"):
                return await self._call(
                    service.listen,
                    token,
                    body.get("keywords", []),
                    since=body.get("since"),
                    until=body.get("until"),
                )
            if route == ("GET", "/v1/stats"):
                return await self._call(service.stats, token)
            if route == ("GET", "/v1/metrics"):
                return await self._call(service.metrics, token)
            if route == ("GET", "/v1/replication"):
                return await self._call(service.replication_status, token)
            if route == ("GET", "/v1/admin/maintenance"):
                return await self._call(service.maintenance_status, token)
            if route == ("POST", "/v1/admin/maintenance"):
                return await self._call(
                    service.maintenance_trigger, token, task=body.get("task", "save")
                )
            if route == ("POST", "/v1/admin/snapshot"):
                return await self._call(
                    service.snapshot_save,
                    token,
                    path=body.get("path"),
                    incremental=bool(body.get("incremental", False)),
                )
            if route == ("PUT", "/v1/admin/snapshot"):
                return await self._call(
                    service.snapshot_load, token, path=body.get("path")
                )
        except DeadlineExceededError as exc:
            return ServiceResponse(status=504, body={"error": str(exc)})
        except CrypTextError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        return ServiceResponse(
            status=404, body={"error": f"no route for {method.upper()} {path}"}
        )

    # ------------------------------------------------------------------ #
    # the socket server
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: serve requests until close, EOF, or a hard error.

        HTTP/1.1 connections are persistent by default — the loop keeps
        reading requests until the client sends ``Connection: close``,
        disconnects, or commits a protocol error that poisons stream
        framing (at which point we answer what we can and close).  A
        handler crash answers 500 and closes; it never takes the front
        down.
        """
        try:
            while True:
                keep_alive = False
                try:
                    result = await self._read_one(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    asyncio.LimitOverrunError,
                ):
                    break
                except Exception as exc:  # noqa: BLE001 - the front must not die
                    result = (
                        ServiceResponse(status=500, body={"error": str(exc)}),
                        False,
                    )
                if result is None:
                    break  # clean EOF before a request line
                response, keep_alive = result
                try:
                    data, content_type = _encode_body(response)
                except (TypeError, ValueError):
                    # A body JSON or UTF-8 cannot carry (UnicodeEncodeError
                    # is a ValueError) answers 500 and closes, instead of
                    # escaping this loop and dropping the connection.
                    response = ServiceResponse(
                        status=500, body={"error": "response could not be encoded"}
                    )
                    data, content_type = _encode_body(response)
                    keep_alive = False
                reason = _REASONS.get(response.status, "Unknown")
                extra = "".join(
                    f"{name}: {value}\r\n" for name, value in response.headers.items()
                )
                connection = "keep-alive" if keep_alive else "close"
                head = (
                    f"HTTP/1.1 {response.status} {reason}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"{extra}"
                    f"Connection: {connection}\r\n\r\n"
                ).encode("latin-1")
                try:
                    writer.write(head + data)
                    await writer.drain()
                except ConnectionError:
                    break  # client went away mid-response; just this connection dies
                if not keep_alive:
                    await _linger(reader, writer)
                    break
                # A pipelining peer's next request may already be buffered,
                # and reading it would not yield: let the other connections
                # in before serving it (small reads run on this loop).
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            # Shutdown cancels connections parked in a keep-alive read; a
            # cancelled connection just closes.  Returning normally keeps
            # the streams layer from logging the cancellation as a crash.
            pass
        finally:
            try:
                writer.close()
            except Exception:  # lint: allow=swallowed-exception (close failures on an already-dead connection are benign)  # pragma: no cover
                pass

    async def _read_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[ServiceResponse, bool] | None:
        """Read and dispatch one request; returns ``(response, keep_alive)``.

        ``None`` means the client closed cleanly between requests.  A
        response paired with ``keep_alive=False`` either asked for close or
        hit a framing error we cannot safely read past (bad request line,
        header block over :data:`MAX_HEADER_BYTES`, unparseable/oversized
        Content-Length — the rest of the request was never consumed, so the
        stream position is unknowable).
        """
        first = await reader.readline()
        if first == b"":
            return None
        request_line = first.decode("latin-1").strip()
        if not request_line:
            return None
        parts = request_line.split()
        if len(parts) != 3:
            return _refuse("malformed request line")
        method, target, version = parts
        path = target.split("?", 1)[0]
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # one line overran the stream's buffer limit
                return _refuse("request headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                return _refuse("request headers too large")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        requested = headers.get("connection", "").lower()
        if version.upper() == "HTTP/1.0":
            keep_alive = requested == "keep-alive"
        else:
            keep_alive = requested != "close"
        token: str | None = None
        authorization = headers.get("authorization", "")
        if authorization.lower().startswith("bearer "):
            token = authorization[len("bearer ") :].strip()
        declared = headers.get("content-length", "0")
        # Digits only: int() would also take "-5", " +7 " and "1_0".
        if not (declared.isascii() and declared.isdigit()):
            return _refuse("bad Content-Length")
        # Count digits before int(), which refuses over 4,300 of them
        # (leading zeros included).
        digits = declared.lstrip("0")
        if len(digits) > len(str(self.max_body_bytes)):
            return _refuse("request body too large")
        length = int(digits or "0")
        if length > self.max_body_bytes:
            return _refuse("request body too large")
        payload: dict | None = None
        if length:
            raw = await reader.readexactly(length)
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                # The body was fully consumed so framing is intact, but a
                # client that sends garbage gets its connection closed —
                # plain HTTP clients expect error responses to end the
                # exchange, and it keeps misbehaving peers from parking.
                return _refuse("request body is not valid JSON")
            # Only a ``\u`` escape puts a surrogate code point in decoded
            # JSON (the UTF-8 decode refuses raw ones), and no answer that
            # echoes one could be encoded.  A paired escape decodes to one
            # character and passes.
            if b"\\u" in raw and has_surrogate(json.dumps(payload, ensure_ascii=False)):
                return _refuse("request body holds an unpaired surrogate escape")
        return await self.dispatch(method, path, token, payload), keep_alive

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and serve; returns the actual ``(host, port)`` bound."""
        if self._server is not None:
            raise CrypTextError("the async service front is already serving")
        self._server = await asyncio.start_server(self._handle, host, port)
        sockname = self._server.sockets[0].getsockname()
        return str(sockname[0]), int(sockname[1])

    async def stop(self) -> None:
        """Stop accepting connections and release the thread pool."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self._executor.shutdown(wait=False)

    async def serve_forever(self) -> None:
        """Block on the running server (call :meth:`start` first)."""
        if self._server is None:
            raise CrypTextError("call start() before serve_forever()")
        await self._server.serve_forever()
