"""Batch throughput layer: the batch/streaming engine.

See :mod:`repro.batch.engine` for the :class:`BatchEngine` the ``CrypText``
facade, the service layer, the CLI and the social components run their bulk
paths on.  It reads its sound buckets from the dictionary's compiled-bucket
cache, the same one the per-query path uses.
"""

from .engine import BatchEngine, EnrichmentReport

__all__ = [
    "BatchEngine",
    "EnrichmentReport",
]
