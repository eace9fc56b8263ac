"""The end-to-end benchmark's by-name hooks into ``repro`` still resolve.

``perfbench/tracing.py`` wraps layer functions by attribute name (it reads
``owner.__dict__[attr]``), and ``perfbench/server.py`` reads named counters
from the dictionary's compiled-cache statistics.  Renaming or deleting one
of those names in ``src`` would otherwise break only a benchmark run; these
tests break the ordinary suite instead.  ``perfbench/`` is the instrument:
a failure here is fixed in ``src`` or in a benchmark-only change.
"""

from __future__ import annotations

from perfbench.server import compiled_counters
from perfbench.tracing import Tracer
from repro import CrypText


def test_tracer_installs_every_hook_and_uninstall_restores_them():
    tracer = Tracer()
    try:
        tracer.install_setup()
        tracer.install_requests()
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_compiled_counters_reads_all_seven_counters():
    system = CrypText.from_corpus(
        ["the demokrats hate the vacc1ne"], seed_lexicon=False, train_scorer=False
    )
    system.look_up("democrats")
    counters = compiled_counters(system)
    assert set(counters) == {
        "hits", "misses", "invalidations", "myers", "banded", "symspell", "linear",
    }
    assert all(isinstance(value, float) for value in counters.values())
