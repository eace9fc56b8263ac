"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 24 --trace 0

A run builds the server ``setups`` times (``setup_s`` is their median).
Against the last build it sends the priming requests and a warm-up, then
``rounds`` rounds of a closed-loop window followed by an open-loop stretch
(their shares of ``--seconds`` are fixed in ``workloads.json``), sends the
probe set, stops the server, and compares the probe answers with a
cache-off in-process oracle.  ``--trace 1`` builds once, repeats the rounds
with the span wrappers installed, writes the spans to ``.perfbench/spans/``
and reports the per-layer metrics instead of the end-to-end ones.  The last stdout line is the JSON result; the exit code is
0 only when every request succeeded and every probe matched the oracle.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench.client import Connection, Driver  # noqa: E402
from perfbench.measure import check_response, percentile  # noqa: E402
from perfbench.tracing import layer_metrics, read_spans  # noqa: E402

SCRUBBED_ENV = ("CRYPTEXT_OBS", "CRYPTEXT_FAULTS", "CRYPTEXT_SANITIZE", "CRYPTEXT_NATIVE")
#: Open-loop runs whose generator sent later than this (p99) are flagged.
LATENESS_FLAG_MS = 2.0


class ServerProcess:
    """The benchmark server subprocess and its stdin/stdout command channel."""

    def __init__(self, job_path: Path) -> None:
        env = {name: value for name, value in os.environ.items() if name not in SCRUBBED_ENV}
        # One hash layout for every run: string hashing randomized per
        # process moves the server's speed between otherwise equal runs.
        env["PYTHONHASHSEED"] = "0"
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(job_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"server exited during set-up (code {self.proc.returncode})")
        ready = json.loads(line)
        self.port, self.token = ready["port"], ready["token"]

    def command(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if not reply.pop("ok"):
            raise RuntimeError(f"server command {cmd} failed: {reply['error']}")
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def first_answer(server: ServerProcess) -> float:
    """Seconds from spawning ``server`` until it answers its first request."""
    conn = Connection(server.port, server.token)
    status, _ = conn.send("GET", "/v1/stats", None)
    answered = time.monotonic()
    conn.close()
    if status != 200:
        raise RuntimeError(f"first request answered {status}")
    return answered - server.spawned


def ms(ns: int) -> float:
    return ns / 1e6


def throughput(windows: list) -> float:
    """2xx responses per second: the median over the closed-loop windows."""
    return statistics.median(
        sum(1 for o in outcomes if o.ok) / ((max(o.done for o in outcomes) - min(o.sent for o in outcomes)) / 1e9)
        for outcomes, _cpu in windows
    )


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        from perfbench import inputs

        self.inputs = inputs
        self.spec = inputs.SPEC
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.config = self.spec["workloads"][workload]
        phases = self.spec["phases"]
        self.warmup_s = seconds * phases["warmup"]
        self.closed_s = seconds * phases["closed"]
        self.open_s = seconds * phases["open"]
        self.state = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def say(self, line: str) -> None:
        self.lines.append(line)

    def _count(self, outcomes) -> None:
        self.attempted += len(outcomes)
        self.failed += sum(1 for outcome in outcomes if not outcome.ok)

    # ------------------------------------------------------------------ #
    def execute(self) -> dict:
        inputs = self.inputs
        corpus = inputs.build_corpus(self.seed)
        traced_seconds = self.closed_s + self.open_s if self.trace else 0.0
        batches = inputs.ingest_batches(
            self.workload, self.seed, corpus, self.seconds + traced_seconds
        )
        self.state.mkdir(parents=True, exist_ok=True)
        try:
            return self._execute(corpus, batches)
        finally:
            shutil.rmtree(self.state, ignore_errors=True)

    def _job(self, index: int, corpus, batches) -> Path:
        job = {
            "corpus": list(corpus.texts),
            "ingest": self.config["ingest"],
            "ingest_batches": batches,
            "state_dir": str(self.state / f"server-{index}"),
            "trace": self.trace,
        }
        path = self.state / f"job-{index}.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        return path

    def _execute(self, corpus, batches) -> dict:
        setups = 1 if self.trace else self.spec["setups"]
        setup_times = []
        for index in range(setups - 1):
            server = ServerProcess(self._job(index, corpus, batches))
            try:
                setup_times.append(first_answer(server))
            finally:
                server.close()
        server = ServerProcess(self._job(setups - 1, corpus, batches))
        try:
            setup_times.append(first_answer(server))
            driver = Driver(server.port, server.token, self.spec["connections"])
            # The load generator allocates little garbage but keeps every
            # outcome; a collector pause here would read as server latency.
            gc.collect()
            gc.disable()
            try:
                phases = self._drive(server, driver, corpus)
            finally:
                gc.enable()
            probe_requests = self.inputs.probes(self.workload, self.seed, corpus)
            probe_outcomes = driver.probe(probe_requests)
            self._count(probe_outcomes)
            peak_rss_kb = server.command("usage")["peak_rss_kb"]
            driver.close()
        finally:
            server.close()
        self._check(corpus, batches[: phases["ingest_applied"]], probe_requests, probe_outcomes)
        phases.update(setup_times=setup_times, peak_rss_kb=peak_rss_kb)
        return phases

    def _drive(self, server: ServerProcess, driver, corpus) -> dict:
        inputs = self.inputs
        stream = inputs.request_stream(self.workload, self.seed, corpus)
        ingest = self.config["ingest"] is not None
        if ingest:
            server.command("ingest_start")
        priming = inputs.priming_length(self.workload, corpus)
        self._count(driver.closed_loop(stream, 0.0, at_least=priming))
        self._count(driver.closed_loop(stream, self.warmup_s))
        measured_from = time.monotonic_ns()
        phases = dict(zip(("closed", "open"), self._rounds(server, driver, stream, traced=False)))
        measured_to = time.monotonic_ns()
        if self.trace:
            server.command("trace_on")
            phases["traced_closed"], phases["traced_open"] = self._rounds(
                server, driver, stream, traced=True
            )
            spans_path = ROOT / ".perfbench" / "spans" / f"{self.workload}-{self.seed}.jsonl"
            phases["trace_dump"] = server.command("trace_dump", path=str(spans_path))
            phases["spans_path"] = spans_path
        phases["ingest_applied"] = 0
        phases["ingest_ms"] = []
        if ingest:
            stopped = server.command("ingest_stop")
            phases["ingest_applied"] = stopped["applied"]
            phases["ingest_ms"] = [
                ms(done - due) for due, done, _bytes, _tokens in stopped["records"]
                if measured_from <= due < measured_to
            ]
        return phases

    def _rounds(self, server: ServerProcess, driver, stream, traced: bool) -> tuple[list, list]:
        """Alternate closed-loop windows with open-loop stretches.

        Interleaving spreads both phases over the whole measured interval,
        so a slow spell of the host lands in a few windows of each rather
        than in all of one.  Returns the closed-loop windows as
        ``(outcomes, server CPU seconds)`` pairs and the open-loop outcomes.
        """
        rounds = self.spec["rounds"]
        windows, opened = [], []
        for index in range(rounds):
            cpu_before = server.command("usage")["cpu_s"]
            outcomes = driver.closed_loop(stream, self.closed_s / rounds, traced=traced)
            windows.append((outcomes, server.command("usage")["cpu_s"] - cpu_before))
            stretch = self.open_s / rounds
            due_times = itertools.takewhile(
                lambda due: due < stretch, self.inputs.arrivals(self.workload, self.seed, index)
            )
            opened += driver.open_loop(
                [(due, *next(stream)) for due in due_times], traced=traced
            )
            self._count(outcomes)
        self._count(opened)
        return windows, opened

    def _check(self, corpus, applied_batches, requests, outcomes) -> None:
        from repro import CrypText, CrypTextConfig

        oracle = CrypText.from_corpus(list(corpus.texts), CrypTextConfig(cache_enabled=False))
        for batch in applied_batches:
            oracle.learn_from(batch)
        for (path, body), outcome in zip(requests, outcomes):
            if not outcome.ok:
                continue  # already counted as failed
            problems = check_response(oracle, path, json.loads(body), outcome.body)
            if problems:
                self.failed += 1
                self.problems.extend(problems[:3])
        self.say(
            f"probes: {len(requests)} sent, {len(self.problems)} problem(s) against the cache-off oracle"
        )

    # ------------------------------------------------------------------ #
    def end_to_end(self, phases: dict) -> dict[str, float]:
        windows, opened = phases["closed"], phases["open"]
        closed = [o for outcomes, _cpu in windows for o in outcomes]
        latency = lambda o: ms(o.done - o.due) if o.ok else float("inf")  # noqa: E731
        everything = [latency(o) for o in opened]
        found = {
            "setup_s": statistics.median(phases["setup_times"]),
            "throughput_rps": throughput(windows),
            "latency_p50_ms": percentile(everything, 0.50),
            "server_rss_mb": phases["peak_rss_kb"] / 1024,
            "server_cpu_ms_per_req": statistics.median(
                1000 * cpu / len(outcomes) for outcomes, cpu in windows
            ),
        }
        self.say(
            f"setup_s samples: {', '.join(f'{t:.3f}' for t in phases['setup_times'])}; "
            f"closed loop: {len(closed)} requests in {len(windows)} windows on "
            f"{self.spec['connections']} connections; open loop: {len(opened)} requests "
            f"at {self.config['open_loop_rps']}/s"
        )
        lateness = percentile([ms(o.lateness) for o in opened], 0.99)
        waited = sum(1 for o in opened if o.waited) / len(opened)
        self.say(
            f"generator lateness {lateness.describe()}; "
            f"{100 * waited:.1f}% of open-loop requests waited for a free connection"
        )
        if lateness.value > LATENESS_FLAG_MS:
            self.say(
                f"FLAG: the load generator fell behind (p99 lateness over {LATENESS_FLAG_MS} ms); "
                "this run's open-loop latencies include client delay"
            )
        self.say(f"all routes p99: {percentile(everything, 0.99).describe()}")
        for route, path in (("lookup", self.inputs.LOOKUP), ("normalize", self.inputs.NORMALIZE)):
            samples = [latency(o) for o in opened if o.path == path]
            if len(samples) > 10:
                for quantile in (0.50, 0.99):
                    self.say(
                        f"{route} p{quantile * 100:g}: {percentile(samples, quantile).describe()}"
                    )
        if phases["ingest_ms"]:
            for quantile in (0.50, 0.95):
                self.say(f"ingest p{quantile * 100:g}: {percentile(phases['ingest_ms'], quantile).describe()}")
            self.say("wal: ChangeLog default flush policy (no fsync)")
        units = metric_units("end_to_end")
        metrics = {}
        for name, value in found.items():
            if hasattr(value, "describe"):
                self.say(f"{name}: {value.describe(units.get(name, '?'))}")
                value = value.value
            else:
                self.say(f"{name}: {value:.4f} {units.get(name, '?')}")
            metrics[name] = value
        return metrics

    def per_layer(self, phases: dict) -> dict[str, float]:
        self.end_to_end(phases)
        dump = phases["trace_dump"]
        traced = [o for outcomes, _cpu in phases["traced_closed"] for o in outcomes]
        traced += phases["traced_open"]
        client_ns = {o.rid: o.done - o.sent for o in traced if o.ok}
        spans = read_spans(phases["spans_path"])
        metrics = layer_metrics(spans, client_ns, dump["compiled"], dump["ingest"])
        for name in ("setup.corpus", "setup.lexicon", "setup.scorer"):
            durations = [ms(s[3] - s[2]) for s in spans if s[1] == name]
            metrics[name + "_ms"] = durations[0] if durations else 0.0
        metrics["trace.throughput_ratio"] = throughput(phases["traced_closed"]) / throughput(
            phases["closed"]
        )
        opened = phases["open"]
        latency = lambda o: ms(o.done - o.due) if o.ok else float("inf")  # noqa: E731
        metrics["route.all_p99_ms"] = percentile([latency(o) for o in opened], 0.99).value
        for route, path in (("lookup", self.inputs.LOOKUP), ("normalize", self.inputs.NORMALIZE)):
            samples = [latency(o) for o in opened if o.path == path]
            for quantile in (0.50, 0.99):
                metrics[f"route.{route}_p{quantile * 100:g}_ms"] = (
                    percentile(samples, quantile).value if len(samples) > 10 else 0.0
                )
        for quantile, name in ((0.50, "ingest.p50_ms"), (0.95, "ingest.p95_ms")):
            samples = phases["ingest_ms"]
            metrics[name] = percentile(samples, quantile).value if len(samples) > 10 else 0.0
        metrics["client.lateness_p99_ms"] = percentile([ms(o.lateness) for o in opened], 0.99).value
        metrics["client.waited_share"] = sum(1 for o in opened if o.waited) / len(opened)
        self._layer_table(metrics)
        return metrics

    def _layer_table(self, metrics: dict[str, float]) -> None:
        self.say(
            f"traced: {metrics['trace.requests']:.0f} requests, client latency "
            f"{metrics['trace.client_ms']:.4f} ms/request; traced/untraced throughput "
            f"{metrics['trace.throughput_ratio']:.3f} (tracing overhead "
            f"{100 * (1 - metrics['trace.throughput_ratio']):.1f}%); spans written"
        )
        self.say("per-layer self time (ms per traced request) and counters:")
        for name in sorted(metrics):
            self.say(f"  {name:32s} {metrics[name]:.6g}")

    def report(self, phases: dict) -> dict:
        kind = "per_layer" if self.trace else "end_to_end"
        values = self.per_layer(phases) if self.trace else self.end_to_end(phases)
        units = metric_units(kind)
        if set(values) != set(units):
            raise RuntimeError(
                f"measured {kind} metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
            )
        for problem in self.problems[:10]:
            self.say(f"MISMATCH {problem}")
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            # A failed request is an infinite latency; JSON has no infinity.
            "metrics": {
                name: {"value": min(values[name], 1e9), "unit": unit} for name, unit in units.items()
            },
        }


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no CrypText sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.inputs import SPEC

    if args.workload not in SPEC["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = run.report(run.execute())
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in run.lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
