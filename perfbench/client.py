"""HTTP load driver: closed-loop and open-loop phases over keep-alive connections.

One thread per connection.  In the closed loop each thread sends its next
request when the previous one returns.  In the open loop requests are due on
a Poisson schedule and are built before the schedule starts; each thread
takes the next due request when its connection frees, waits for the due
time if it is early, and the request's latency runs from its due time, so
time spent waiting for a free connection counts against the program.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Outcome:
    """One request as the client saw it (``time.monotonic_ns`` stamps)."""

    path: str
    due: int
    sent: int
    done: int
    status: int  # 0 = transport failure
    rid: int | None = None
    body: bytes = b""
    #: When the sending connection became free to take this request.
    free: int = 0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def waited(self) -> bool:
        """Open loop: every connection was busy when the request fell due."""
        return self.due < self.free

    @property
    def lateness(self) -> int:
        """Open loop: how long after it could be sent the request was sent
        (due and a connection free); the load generator's own delay."""
        return self.sent - max(self.due, self.free)


class Connection:
    """A keep-alive HTTP/1.1 connection that reconnects after a failure.

    A minimal client over a raw socket, so that the load generator spends
    little of the two cores the server also runs on.
    """

    def __init__(self, port: int, token: str) -> None:
        self.port = port
        self._head = (
            f"Host: 127.0.0.1:{port}\r\nAuthorization: Bearer {token}\r\n"
            "Content-Type: application/json\r\n"
        )
        self._sock: socket.socket | None = None
        self._pending = b""

    def send(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        """One request/response exchange; status 0 means a transport failure."""
        body = body or b""
        request = (
            f"{method} {path} HTTP/1.1\r\n{self._head}Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        try:
            if self._sock is None:
                self._sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.sendall(request)
            return self._response()
        except (OSError, ValueError):
            self.close()
            return 0, b""

    def _receive(self, data: bytes) -> bytes:
        chunk = self._sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return data + chunk

    def _response(self) -> tuple[int, bytes]:
        data = self._pending
        while b"\r\n\r\n" not in data:
            data = self._receive(data)
        head, _, data = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        while len(data) < length:
            data = self._receive(data)
        body, self._pending = data[:length], data[length:]
        if close:
            self.close()
        return status, body

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._pending = b""


def _with_rid(body: bytes, rid: int) -> bytes:
    return b'{"_rid": %d, ' % rid + body[1:]


class Driver:
    """Sends request streams over ``connections`` keep-alive connections."""

    def __init__(self, port: int, token: str, connections: int) -> None:
        self.connections = [Connection(port, token) for _ in range(connections)]
        self._lock = threading.Lock()
        self._rids = itertools.count(1)

    def _run(self, worker) -> list[Outcome]:
        results: list[list[Outcome]] = [[] for _ in self.connections]
        threads = [
            threading.Thread(target=worker, args=(conn, results[index]), daemon=True)
            for index, conn in enumerate(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                raise RuntimeError("a load thread did not finish within 170 s")
        return sorted(itertools.chain.from_iterable(results), key=lambda outcome: outcome.due)

    def closed_loop(
        self,
        stream: Iterator[tuple[str, bytes]],
        seconds: float,
        traced: bool = False,
        at_least: int = 0,
    ) -> list[Outcome]:
        """Each connection sends its next request as soon as the last returns.

        Runs for ``seconds``, or until ``at_least`` requests were sent if
        that takes longer.
        """
        end = time.monotonic_ns() + int(seconds * 1e9)
        sent_count = itertools.count(1)

        def worker(conn: Connection, out: list[Outcome]) -> None:
            while True:
                with self._lock:
                    path, body = next(stream)
                    rid = next(self._rids) if traced else None
                    number = next(sent_count)
                sent = time.monotonic_ns()
                if sent >= end and number > at_least:
                    return
                status, _ = conn.send("POST", path, _with_rid(body, rid) if traced else body)
                out.append(Outcome(path, sent, sent, time.monotonic_ns(), status, rid, free=sent))

        return self._run(worker)

    def open_loop(
        self, requests: list[tuple[float, str, bytes]], traced: bool = False
    ) -> list[Outcome]:
        """Send ``(due, path, body)`` requests, ``due`` in seconds from now."""
        prepared = []
        for due, path, body in requests:
            rid = next(self._rids) if traced else None
            prepared.append((int(due * 1e9), path, _with_rid(body, rid) if traced else body, rid))
        start = time.monotonic_ns() + 1_000_000
        taken = iter(prepared)

        def worker(conn: Connection, out: list[Outcome]) -> None:
            while True:
                free = time.monotonic_ns()
                with self._lock:
                    request = next(taken, None)
                if request is None:
                    return
                offset, path, body, rid = request
                due = start + offset
                delay = due - time.monotonic_ns()
                if delay > 0:
                    time.sleep(delay / 1e9)
                sent = time.monotonic_ns()
                status, _ = conn.send("POST", path, body)
                out.append(Outcome(path, due, sent, time.monotonic_ns(), status, rid, free=free))

        return self._run(worker)

    def probe(self, requests: list[tuple[str, bytes]]) -> list[Outcome]:
        """Send ``requests`` one at a time and keep the response bodies."""
        conn = self.connections[0]
        outcomes = []
        for path, body in requests:
            sent = time.monotonic_ns()
            status, data = conn.send("POST", path, body)
            outcomes.append(Outcome(path, sent, sent, time.monotonic_ns(), status, body=data, free=sent))
        return outcomes

    def close(self) -> None:
        for conn in self.connections:
            conn.close()
