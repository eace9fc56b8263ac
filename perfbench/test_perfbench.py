"""Tests of the benchmark itself: inputs, percentiles, oracle check, names.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

from perfbench import inputs, run
from perfbench.client import Outcome
from perfbench.measure import check_response, expected_body, percentile
from repro import CrypText, CrypTextConfig

SMALL_CORPUS = [
    "the democrats support the vaccine mandate",
    "the demokrats hate the vacc1ne",
    "the democRATs push their agenda",
    "stop the vac-cine mandate now",
    "the dirrty republicans",
]


def _stream_bytes(workload: str, seed: int, corpus: inputs.Corpus, count: int) -> bytes:
    requests = itertools.islice(inputs.request_stream(workload, seed, corpus), count)
    return b"\n".join(path.encode() + b" " + body for path, body in requests)


@pytest.fixture(scope="module")
def corpora() -> dict[int, inputs.Corpus]:
    return {seed: inputs.build_corpus(seed) for seed in (5, 6)}


@pytest.mark.parametrize("workload", sorted(inputs.SPEC["workloads"]))
def test_same_seed_same_inputs_and_other_seed_other_inputs(workload, corpora):
    assert inputs.build_corpus(5) == corpora[5]
    assert corpora[5].texts != corpora[6].texts
    first = _stream_bytes(workload, 5, corpora[5], 200)
    assert first == _stream_bytes(workload, 5, inputs.build_corpus(5), 200)
    assert first != _stream_bytes(workload, 6, corpora[6], 200)
    assert list(itertools.islice(inputs.arrivals(workload, 5, 0), 50)) == list(
        itertools.islice(inputs.arrivals(workload, 5, 0), 50)
    )
    assert inputs.probes(workload, 5, corpora[5]) == inputs.probes(workload, 5, corpora[5])
    batches = inputs.ingest_batches(workload, 5, corpora[5], 2.0)
    assert batches == inputs.ingest_batches(workload, 5, corpora[5], 2.0)
    if batches:
        assert batches != inputs.ingest_batches(workload, 6, corpora[6], 2.0)


def test_cold_queries_are_never_repeated(corpora):
    queries = []
    for path, body in itertools.islice(inputs.request_stream("cold_mix", 5, corpora[5]), 400):
        if path in (inputs.LOOKUP, inputs.BATCH_LOOKUP):
            queries.append(dict.fromkeys(json.loads(body)["queries"]))
    unique = [query for batch in queries for query in batch]
    assert len(unique) == len(set(unique))


def test_percentile_is_the_highest_with_ten_samples_beyond():
    values = [float(value) for value in range(1, 101)]
    assert percentile(values, 0.50) == percentile(list(reversed(values)), 0.50)
    median = percentile(values, 0.50)
    assert (median.value, median.quantile, median.samples) == (50.0, 0.50, 100)
    tail = percentile(values, 0.99)
    assert (tail.value, tail.quantile, tail.samples) == (90.0, 0.90, 100)
    assert sum(1 for value in values if value > tail.value) == 10
    with pytest.raises(ValueError):
        percentile(values[:10], 0.50)


def test_failures_miss_every_percentile_they_reach():
    values = [1.0] * 95 + [math.inf] * 5
    assert percentile(values, 0.50).value == 1.0
    assert percentile(values + [1.0] * 1000, 0.99).value == 1.0
    assert percentile([math.inf] * 60, 0.50).value == math.inf


def test_open_loop_lateness_runs_from_when_the_request_could_be_sent():
    early = Outcome(inputs.LOOKUP, due=100, sent=130, done=900, status=200, free=40)
    assert not early.waited and early.lateness == 30
    queued = Outcome(inputs.LOOKUP, due=100, sent=530, done=900, status=200, free=500)
    assert queued.waited and queued.lateness == 30


@pytest.fixture(scope="module")
def oracle() -> CrypText:
    return CrypText.from_corpus(SMALL_CORPUS, CrypTextConfig(cache_enabled=False))


@pytest.mark.parametrize(
    "path, request_body",
    [
        (inputs.LOOKUP, {"queries": ["democrats"]}),
        (inputs.BATCH_LOOKUP, {"queries": ["democrats", "vaccine", "democrats"]}),
        (inputs.NORMALIZE, {"texts": ["the demokrats hate the vacc1ne"]}),
    ],
)
def test_oracle_comparison_catches_a_mutated_body(oracle, path, request_body):
    body = expected_body(oracle, path, request_body)
    assert check_response(oracle, path, request_body, json.dumps(body).encode()) == []
    mutated = json.loads(json.dumps(body))
    results = mutated["results"]
    first = results[next(iter(results))] if isinstance(results, dict) else results[0]
    if "matches" in first:
        first["matches"][0]["count"] += 1
    else:
        first["normalized_text"] += " x"
    assert check_response(oracle, path, request_body, json.dumps(mutated).encode())
    assert check_response(oracle, path, request_body, b"not json")


def test_perturb_is_checked_for_shape(oracle):
    request_body = {"texts": ["the democrats support the vaccine mandate"]}
    good = {"results": [oracle.perturb(request_body["texts"][0]).to_dict()]}
    assert check_response(oracle, inputs.PERTURB, request_body, json.dumps(good).encode()) == []
    assert check_response(oracle, inputs.PERTURB, request_body, b'{"results": []}')


def _outcomes(path: str, count: int, start: int, step: int) -> list[Outcome]:
    return [
        Outcome(path, start + index * step, start + index * step, start + index * step + 500_000 + index, 200, rid=index + 1)
        for index in range(count)
    ]


def _synthetic_phases(tmp_path) -> dict:
    windows = [(_outcomes(inputs.LOOKUP, 50, 10**9 * round_, 1_000_000), 0.05) for round_ in range(3)]
    opened = _outcomes(inputs.LOOKUP, 40, 0, 3_000_000) + _outcomes(inputs.NORMALIZE, 40, 1, 3_000_000)
    spans = [
        (1, "front.dispatch", 0, 400_000, 0, 1, None),
        (2, "front.handoff", 10, 20_000, 1, 1, None),
        (3, "service.handler", 20_000, 390_000, 1, 1, None),
        (4, "cache.get", 30_000, 40_000, 3, 1, 1),
        (5, "ingest.learn", 0, 900_000, 0, None, 4),
        (6, "setup.corpus", 0, 5, 0, None, None),
    ]
    spans_path = tmp_path / "spans.jsonl"
    spans_path.write_text("".join(json.dumps(span) + "\n" for span in spans))
    counters = dict.fromkeys(("hits", "misses", "invalidations", "myers", "banded", "symspell", "linear"), 1.0)
    return {
        "closed": windows,
        "open": opened,
        "setup_times": [1.0, 1.2, 1.1],
        "peak_rss_kb": 50_000,
        "ingest_ms": [float(value) for value in range(30)],
        "traced_closed": windows,
        "traced_open": opened,
        "trace_dump": {"compiled": counters, "ingest": {"batches": 2.0, "wal_bytes": 40.0, "tokens": 4.0}},
        "spans_path": spans_path,
    }


@pytest.mark.parametrize("trace", [False, True])
def test_printed_names_are_exactly_those_of_benchmark_json(tmp_path, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(inputs.SPEC["workloads"])
    result = run.Run("cold_mix", 5, 18, trace).report(_synthetic_phases(tmp_path))
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [metric["name"] for metric in spec[kind]]
    assert all(
        result["metrics"][metric["name"]]["unit"] == metric["unit"] for metric in spec[kind]
    )
    assert result["correct"] and result["failed"] == 0


def test_layer_map_names_every_layer_metric_once():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    mapped = [name for layer in inputs.SPEC["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    for layer in inputs.SPEC["layers"]:
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["on"]) | set(layer.get("unchanged_on", ())) <= set(inputs.SPEC["workloads"])
