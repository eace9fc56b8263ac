"""End-to-end HTTP benchmark of the CrypText service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
builds a system from a seeded synthetic corpus in a server subprocess, serves
it with :class:`repro.api.AsyncCrypTextService` over real sockets, drives one
of the workloads in ``perfbench/workloads.json`` against it, checks the
answers against a cache-off in-process oracle, and prints one JSON result
line.  ``--trace 1`` additionally installs span wrappers around the public
functions of each layer inside the server and reports the per-layer split.
"""
