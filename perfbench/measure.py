"""Percentiles, phase summaries and the oracle comparison."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

#: A percentile is reported only where at least this many samples lie beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A latency percentile as reported: value, the percentile reached, samples."""

    value: float
    quantile: float
    samples: int

    def describe(self, unit: str = "ms") -> str:
        return f"{self.value:.3f} {unit} (p{100 * self.quantile:.4g}, {self.samples} samples)"


def percentile(values: list[float], quantile: float) -> Percentile:
    """The ``quantile`` nearest-rank percentile, or the highest one below it
    that still has :data:`MIN_BEYOND` samples above it.

    Failed requests enter ``values`` as ``math.inf``, so they miss every
    percentile they reach.  Raises ``ValueError`` with fewer than
    ``MIN_BEYOND + 1`` samples (no percentile is supported).
    """
    count = len(values)
    if count <= MIN_BEYOND:
        raise ValueError(f"{count} samples support no percentile")
    ordered = sorted(values)
    rank = min(max(math.ceil(quantile * count) - 1, 0), count - 1 - MIN_BEYOND)
    return Percentile(ordered[rank], (rank + 1) / count, count)


def canonical(body: object) -> object:
    """A response body as JSON would carry it (tuples become lists, and so on)."""
    return json.loads(json.dumps(body, ensure_ascii=False))


def differences(expected: object, actual: object, where: str = "$") -> list[str]:
    """Paths at which two JSON values differ (empty when they are equal)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        found = []
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected or key not in actual:
                found.append(f"{where}.{key}: present on one side only")
            else:
                found.extend(differences(expected[key], actual[key], f"{where}.{key}"))
        return found
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        found = []
        for index, (left, right) in enumerate(zip(expected, actual)):
            found.extend(differences(left, right, f"{where}[{index}]"))
        return found
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    return []


def expected_body(oracle, path: str, request: dict) -> object:
    """What the service must answer for ``request``, computed on the oracle."""
    if path == "/v1/lookup":
        return canonical(
            {"results": {query: oracle.look_up(query).to_dict() for query in request["queries"]}}
        )
    if path == "/v1/normalize":
        return canonical({"results": [oracle.normalize(text).to_dict() for text in request["texts"]]})
    if path == "/v1/batch/lookup":
        results = [oracle.look_up(query).to_dict() for query in request["queries"]]
        return canonical({"count": len(results), "results": results})
    raise ValueError(f"no oracle for {path}")


def check_response(oracle, path: str, request: dict, body: bytes) -> list[str]:
    """Problems with one probe response (empty when it is right).

    Perturbation samples at random, so ``/v1/perturb`` is checked for shape
    only: one result per text, each with the keys the oracle's result has.
    """
    try:
        actual = json.loads(body)
    except ValueError:
        return [f"{path}: body is not JSON"]
    if path != "/v1/perturb":
        return [f"{path} {problem}" for problem in differences(expected_body(oracle, path, request), actual)]
    results = actual.get("results") if isinstance(actual, dict) else None
    if not isinstance(results, list) or len(results) != len(request["texts"]):
        return [f"{path}: expected {len(request['texts'])} results"]
    keys = set(oracle.perturb(request["texts"][0]).to_dict())
    return [
        f"{path}: result {index} has keys {sorted(result)}"
        for index, result in enumerate(results)
        if not isinstance(result, dict) or set(result) != keys
    ]
