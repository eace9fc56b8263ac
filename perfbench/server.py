"""Benchmark server: builds a CrypText system and serves it over HTTP.

Run as ``python3 perfbench/server.py <job.json>`` by ``run.py``.  The job
file carries the generated corpus, the ingest batches (if any), a state
directory, and whether to trace.  The server builds the system with the
shipped default config, binds ``AsyncCrypTextService`` to an ephemeral
localhost port and prints ``{"port": ..., "token": ...}`` on stdout.  It
then answers one-line JSON commands on stdin (one JSON reply line each)
until ``quit`` or end of input:

* ``usage`` — this process's user+sys CPU seconds and peak RSS;
* ``ingest_start`` / ``ingest_stop`` — run / stop the fixed-rate ingest loop;
* ``trace_on`` — install the request-path span wrappers;
* ``trace_dump`` — write the spans file and report counter deltas.

Two deviations from the default service, both for measurement: a rate
limiter that never binds, and (for ingest workloads) a change log plus a
maintenance scheduler ticked after each ingest batch.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Tracer  # noqa: E402
from repro import CrypText  # noqa: E402
from repro.api import AsyncCrypTextService, CrypTextService  # noqa: E402
from repro.api.ratelimit import RateLimiter  # noqa: E402
from repro.wal.maintenance import MaintenancePolicy  # noqa: E402

_COUNTERS = ("hits", "misses", "invalidations")
_KERNELS = ("myers", "banded", "symspell", "linear")


def compiled_counters(system: CrypText) -> dict[str, float]:
    raw = system.dictionary.compiled_cache_stats()
    counters = {name: float(raw[name]) for name in _COUNTERS}
    counters.update({name: float(raw["kernels"][name]) for name in _KERNELS})
    return counters


class IngestLoop:
    """Applies ingest batches at a fixed rate on a thread of its own.

    Each batch's record is ``(due_ns, done_ns, wal_bytes, tokens)``: when it
    was due on the schedule, when ``learn_from`` plus the scheduler tick
    returned (both ``time.monotonic_ns``), the change log's byte growth
    across ``learn_from``, and the token occurrences it recorded.
    """

    def __init__(self, system: CrypText, scheduler, batches: list[list[str]], rate: float) -> None:
        self.system = system
        self.scheduler = scheduler
        self.batches = batches
        self.period_ns = int(1e9 / rate)
        self.records: list[tuple[int, int, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-ingest", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop the loop (a no-op when it never started)."""
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join(timeout=60)
            if self._thread.is_alive():
                raise RuntimeError("ingest loop did not stop within 60 s")

    def _run(self) -> None:
        wal = self.scheduler.wal
        start = time.monotonic_ns()
        for index, batch in enumerate(self.batches):
            due = start + index * self.period_ns
            wait = (due - time.monotonic_ns()) / 1e9
            if (wait > 0 and self._stop.wait(wait)) or self._stop.is_set():
                return
            before = wal.stats().total_bytes
            tokens = self.system.learn_from(batch)
            grown = wal.stats().total_bytes - before
            self.scheduler.tick()
            self.records.append((due, time.monotonic_ns(), grown, tokens))


class Server:
    def __init__(self, job: dict) -> None:
        self.tracer = Tracer() if job["trace"] else None
        if self.tracer is not None:
            self.tracer.install_setup()
        self.system = CrypText.from_corpus(job["corpus"])
        if self.tracer is not None:
            self.tracer.uninstall()
        self.service = CrypTextService(
            self.system, rate_limiter=RateLimiter(max_requests=10**9, window_seconds=1.0)
        )
        self.token = self.service.issue_token("perfbench").token
        self.ingest: IngestLoop | None = None
        ingest = job.get("ingest")
        if ingest:
            scheduler = self.system.make_maintenance_scheduler(
                snapshot_dir=Path(job["state_dir"]) / "snapshot",
                policy=MaintenancePolicy(autosave_interval=ingest["autosave_interval_s"]),
            )
            self.ingest = IngestLoop(
                self.system, scheduler, job["ingest_batches"], ingest["batches_per_s"]
            )
        self.front = AsyncCrypTextService(self.service)
        self._baseline: dict[str, float] | None = None
        self._trace_setup = list(self.tracer.spans) if self.tracer is not None else []
        self._ingest_mark = 0

    def command(self, request: dict) -> dict:
        name = request["cmd"]
        if name == "usage":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return {"cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_kb": usage.ru_maxrss}
        if name == "ingest_start":
            self.ingest.start()
            return {}
        if name == "ingest_stop":
            self.ingest.stop()
            return {"applied": len(self.ingest.records), "records": self.ingest.records}
        if name == "trace_on":
            self.tracer.spans = []
            self._baseline = compiled_counters(self.system)
            self._ingest_mark = len(self.ingest.records) if self.ingest else 0
            self.tracer.install_requests()
            return {}
        if name == "trace_dump":
            self.tracer.uninstall()
            after = compiled_counters(self.system)
            records = self.ingest.records[self._ingest_mark:] if self.ingest else []
            path = Path(request["path"])
            self.tracer.spans = self._trace_setup + self.tracer.spans
            self.tracer.write(path)
            return {
                "compiled": {name: after[name] - self._baseline[name] for name in after},
                "ingest": {
                    "batches": float(len(records)),
                    "wal_bytes": float(sum(record[2] for record in records)),
                    "tokens": float(sum(record[3] for record in records)),
                },
            }
        raise ValueError(f"unknown command {name!r}")


async def serve(server: Server) -> None:
    loop = asyncio.get_running_loop()
    done = asyncio.Event()
    _host, port = await server.front.start("127.0.0.1", 0)
    print(json.dumps({"port": port, "token": server.token}), flush=True)

    def commands() -> None:
        try:
            for line in sys.stdin:
                request = json.loads(line)
                if request["cmd"] == "quit":
                    break
                try:
                    reply = {"ok": True, **server.command(request)}
                except Exception as exc:  # noqa: BLE001 - reported to the driver, which fails the run
                    reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                print(json.dumps(reply), flush=True)
        finally:
            loop.call_soon_threadsafe(done.set)

    reader = threading.Thread(target=commands, name="perfbench-commands", daemon=True)
    reader.start()
    await done.wait()
    if server.ingest is not None:
        server.ingest.stop()
    await server.front.stop()


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    asyncio.run(serve(Server(job)))


if __name__ == "__main__":
    main()
