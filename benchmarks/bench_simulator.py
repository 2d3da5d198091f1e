"""Meta-benchmark: raw performance of the simulation substrate.

Unlike E1–E12 (which measure *simulated* quantities), this one measures
wall-clock throughput of the simulator itself — the number a contributor
watches for performance regressions (CONTRIBUTING.md).  pytest-benchmark's
timing is the metric here, so these use real rounds.  The workloads are
the ones ``repro bench`` times (:mod:`repro.perf`).
"""

from __future__ import annotations

from repro import perf


def test_event_loop_throughput(benchmark):
    """Dispatch rate of the bare event loop (events/second)."""
    _, loop = benchmark(perf.time_event_loop, 50_000)
    assert loop.events_processed == 50_000


def test_token_ring_throughput(benchmark):
    """Full-stack cost of one simulated second of an 8-node loaded ring."""
    _, cluster = benchmark(perf.time_ring, 1.0)
    # Sanity: ~200 token hops/second at ~3 events per hop actually ran.
    assert cluster.loop.events_processed > 400
