"""Batch throughput layer: the batch/streaming engine.

See :mod:`repro.batch.engine` for the :class:`BatchEngine` the ``CrypText``
facade, the service layer and the CLI run their bulk paths on.  Its batch
Look Up runs the per-query :meth:`~repro.core.lookup.LookupEngine.look_up`
once per distinct query; its streams run each chunk on the caller's thread.
"""

from .engine import BatchEngine

__all__ = [
    "BatchEngine",
]
