"""Performance-regression harness for the simulation substrate.

The protocol stack is exercised entirely in virtual time, but the repo also
cares about how fast the *simulator itself* runs: slow hot paths cap how
much virtual time the chaos campaigns and soak tests can afford.  This
module measures wall-clock throughput of the three hot paths the substrate
optimizes — the bare event loop, a loaded 8-node token ring, and the token
hop pipeline — and reports machine-readable rates for regression tracking.
Every timed section starts from a freshly collected heap (``gc.collect()``),
so no run pays for the garbage an earlier run left behind.

.. note::
   This is the one module under ``src/`` allowed to read the wall clock
   (``time.perf_counter``): its entire purpose is measuring real elapsed
   time.  Protocol and simulation code must keep using virtual time only.

Metrics (all higher-is-better except ``wall_clock_per_sim_second``):

* ``event_loop_events_per_sec`` — callbacks dispatched per wall second by
  an :class:`~repro.net.eventloop.EventLoop` with no protocol on top.
* ``loaded_ring_events_per_sec`` — events per wall second for an 8-node
  Raincore ring circulating a token with 50 queued multicasts.
* ``token_hops_per_sec`` — token forwards per wall second in that ring.
* ``wall_clock_per_sim_second`` — wall seconds needed to simulate one
  virtual second of the loaded ring (lower is better).
* ``probe_overhead_ratio`` — wall-clock cost of running the same ring with
  the probe bus and flight recorder attached, relative to running it with
  probes disabled (lower is better; 1.0 means observability is free).  The
  probes-disabled cost itself is covered by ``loaded_ring_events_per_sec``:
  a disabled probe is one attribute load and a None test, so any
  measurable regression there would trip the existing rate gate.
* ``monitor_overhead_ratio`` — wall-clock cost of the same probed ring
  with the contract monitor evaluating the full paper rule set on top,
  relative to probes + recorder alone (lower is better; isolates what the
  *rules engine* adds over the instrumentation it rides on).
* ``resync_overhead_ratio`` — wall-clock cost of driving the reference
  ring through replicated SharedDict writes (segmented op log, hash
  chaining, acks and pruning — the whole docs/RESYNC.md bookkeeping)
  relative to plain multicasts of the same count (lower is better).
* ``prof_overhead_ratio`` — wall-clock cost of the reference ring with the
  hot-path profiler (:mod:`repro.obs.prof`) attached to the event loop,
  relative to running unprofiled (lower is better).  The profiler reads
  the wall clock twice per dispatched event, so this prices the whole
  ``repro prof`` attribution channel (docs/PROFILING.md).
* ``agg_overhead_ratio`` — wall-clock cost of the probed reference ring
  with a :class:`~repro.obs.agg.StreamAggregator` folding every probe
  into bounded per-node state, relative to probes + recorder alone
  (lower is better; isolates what *streaming aggregation* adds on top of
  the instrumentation it rides on).
* ``telemetry_overhead_ratio`` — wall-clock cost of the probed reference
  ring with a :class:`~repro.runtime.telemetry.TelemetryShipper`
  subscribed (restamp + JSON-frame every probe event, sink discarded),
  relative to probes + recorder alone (lower is better; prices what the
  raintap shipping plane adds per event before the socket,
  docs/TELEMETRY.md).

``repro bench`` (see :mod:`repro.cli`) runs the suite, writes a JSON
report, and can gate on a committed baseline with a relative tolerance.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Any, Callable, NamedTuple

__all__ = [
    "QUICK",
    "FULL",
    "SCALING_WORKLOAD",
    "OVERHEADS",
    "RingSetup",
    "time_event_loop",
    "time_ring",
    "bench_event_loop",
    "bench_loaded_ring",
    "bench_overhead",
    "bench_shard_scaling",
    "run_suite",
    "write_report",
    "append_history",
    "compare",
]

#: Workload knobs: (bare-loop events, loaded-ring virtual seconds, repeats).
FULL = {"loop_events": 50_000, "ring_sim_seconds": 1.0, "repeats": 5, "scaling_sim_seconds": 4.0}
#: Reduced workload for CI smoke runs; same *rate* metrics, smaller sample.
QUICK = {"loop_events": 10_000, "ring_sim_seconds": 0.5, "repeats": 3, "scaling_sim_seconds": 1.5}

#: Multi-ring workload for the shard-scaling curve: 8 natural groups so
#: every shard count up to 8 has work.  The 20 ms trunk latency (= epoch
#: length) and the dense per-ring load keep per-epoch compute well above
#: the barrier cost — the regime the sharded engine is built for; shorter
#: lookaheads shift the bill toward synchronization on any machine.
SCALING_WORKLOAD = {
    "rings": 8,
    "ring_size": 6,
    "hop_interval": 0.001,
    "mcast_interval": 0.004,
    "trunk_latency": 0.02,
}

def time_event_loop(n_events: int) -> tuple[float, Any]:
    """Dispatch ``n_events`` no-op callbacks; return (wall seconds, loop)."""
    from repro.net.eventloop import EventLoop

    loop = EventLoop(seed=1)
    callback = lambda: None  # noqa: E731 - cheapest possible event body
    for i in range(n_events):
        loop.call_later(i * 1e-6, callback)
    gc.collect()
    t0 = time.perf_counter()
    loop.run_until_idle()
    return time.perf_counter() - t0, loop


def bench_event_loop(n_events: int) -> float:
    """Dispatch ``n_events`` no-op callbacks; return events per wall second."""
    wall, _ = time_event_loop(n_events)
    return n_events / wall


def _nothing(*_args: Any) -> None:
    return None


def _multicasts(cluster: Any, _attached: Any) -> None:
    """The reference load: 50 multicasts of 200 bytes spread over the ring."""
    for i in range(50):
        cluster.node(f"n{i % 8}").multicast(f"m{i}", size=200)


class RingSetup(NamedTuple):
    """What one timed run of the reference ring attaches (see :func:`time_ring`).

    ``attach(cluster)`` runs before formation; its result is handed to
    ``after_start`` once ``start_all()`` returns, and to ``load``, which
    queues the timed workload (by default the 50 reference multicasts).
    """

    attach: Callable[[Any], Any] = _nothing
    after_start: Callable[[Any], None] = _nothing
    load: Callable[[Any, Any], None] = _multicasts


def time_ring(
    sim_seconds: float, setup: RingSetup = RingSetup()
) -> tuple[float, Any]:
    """Run the reference loaded ring; return (wall seconds, cluster).

    The reference ring is 8 nodes, seed 2 and a 5 ms hop interval, with
    ``setup`` attached and its load queued after formation.  Only
    ``cluster.run(sim_seconds)`` is timed, and it starts from a freshly
    collected heap so no run pays for an earlier run's garbage.
    """
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    cluster = RaincoreCluster(
        [f"n{i}" for i in range(8)],
        seed=2,
        config=RaincoreConfig.tuned(ring_size=8, hop_interval=0.005),
    )
    attached = setup.attach(cluster)
    cluster.start_all()
    setup.after_start(attached)
    setup.load(cluster, attached)
    gc.collect()
    t0 = time.perf_counter()
    cluster.run(sim_seconds)
    return time.perf_counter() - t0, cluster


def bench_loaded_ring(sim_seconds: float) -> tuple[float, float, float]:
    """Run the reference loaded ring; return (events/s, hops/s, wall per sim s)."""
    wall, cluster = time_ring(sim_seconds)
    events = cluster.loop.events_processed
    hops = max(cluster.node(nid).local_copy_seq for nid in cluster.node_ids)
    return events / wall, hops / wall, wall / sim_seconds


def _probed(cluster: Any) -> Any:
    """Probe bus on with a flight recorder subscribed; returns the recorder."""
    from repro.obs import FlightRecorder

    return FlightRecorder(cluster.enable_probes())


def _monitored(cluster: Any) -> Any:
    """The probed ring plus a contract monitor holding the paper rule set."""
    from repro.obs import ContractMonitor, paper_contract_rules

    _probed(cluster)
    rules = paper_contract_rules(cluster.config, 8)
    return ContractMonitor(cluster.enable_probes(), rules)


def _replicas(cluster: Any) -> Any:
    """One SharedDict replica per node, keyed by node id."""
    from repro.data import SharedDict

    return {nid: SharedDict(cluster.node(nid)) for nid in cluster.node_ids}


def _replicated_writes(cluster: Any, replicas: Any) -> None:
    """The reference load as 50 replicated SharedDict writes."""
    for i in range(50):
        replicas[f"n{i % 8}"].set(f"k{i % 16}", i)


def _profiled(cluster: Any) -> None:
    """The hot-path profiler attached to the event loop."""
    from repro.obs.prof import Profiler

    Profiler().attach(cluster.loop)


def _aggregated(cluster: Any) -> None:
    """The probed ring plus a streaming aggregator on the bus."""
    from repro.obs.agg import StreamAggregator

    _probed(cluster)
    StreamAggregator().attach(cluster.enable_probes())


def _shipped(cluster: Any) -> None:
    """The probed ring plus a telemetry shipper framing into a no-op sink."""
    from repro.runtime.telemetry import TelemetryShipper

    recorder = _probed(cluster)
    shipper = TelemetryShipper("bench", lambda data: None, recorder=recorder)
    cluster.enable_probes().subscribe(shipper.on_probe)


_PLAIN = RingSetup()
_PROBED = RingSetup(attach=_probed)

#: Overhead-ratio metric -> (base setup, the same with the extra attached).
#: Each ratio is extra wall / base wall (the module docstring defines them).
OVERHEADS: dict[str, tuple[RingSetup, RingSetup]] = {
    "probe_overhead_ratio": (_PLAIN, _PROBED),
    "monitor_overhead_ratio": (
        _PROBED,
        RingSetup(attach=_monitored, after_start=lambda monitor: monitor.start()),
    ),
    "resync_overhead_ratio": (
        _PLAIN,
        RingSetup(attach=_replicas, load=_replicated_writes),
    ),
    "prof_overhead_ratio": (_PLAIN, RingSetup(attach=_profiled)),
    "agg_overhead_ratio": (_PROBED, RingSetup(attach=_aggregated)),
    "telemetry_overhead_ratio": (_PROBED, RingSetup(attach=_shipped)),
}


def bench_overhead(metric: str, sim_seconds: float) -> float:
    """Time one :data:`OVERHEADS` pair, base first; return extra / base wall."""
    base, extra = OVERHEADS[metric]
    base_wall, _ = time_ring(sim_seconds, base)
    extra_wall, _ = time_ring(sim_seconds, extra)
    return extra_wall / base_wall


#: Metrics where smaller values are improvements.
_LOWER_IS_BETTER = {"wall_clock_per_sim_second", *OVERHEADS}


def bench_shard_scaling(
    sim_seconds: float,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    repeats: int = 3,
) -> dict[str, Any]:
    """Measure the sharded engine's scaling curve on the multi-ring workload.

    Runs :data:`SCALING_WORKLOAD` once per shard count — ``shards=1``
    through the serial engine (the reference), higher counts through the
    process engine — and reports wall seconds, raw speedup vs serial, and
    **core-normalized efficiency**: ``speedup / min(shards, cpu_count)``.

    Raw speedup is an honest machine-dependent number: on a single-core
    container 4 workers timeslice one CPU and raw speedup *cannot* exceed
    1.0, while the identical run on a 4-core machine approaches the
    efficiency bound × 4.  Efficiency is the machine-portable figure the
    baseline floors (see benchmarks/BENCH_baseline.json): on a >=4-core
    machine an efficiency of 0.5 *is* a 2x raw speedup at 4 shards.
    """
    from repro.parallel import ParallelSimulator, available_cpus

    walls: dict[int, float] = {}
    events: dict[int, int] = {}
    for shards in shard_counts:
        mode = "serial" if shards == 1 else "process"
        best = float("inf")
        for _ in range(repeats):
            sim = ParallelSimulator(
                "multi_ring", seed=11, params=SCALING_WORKLOAD
            )
            gc.collect()
            t0 = time.perf_counter()
            result = sim.run(sim_seconds, shards=shards, mode=mode)
            best = min(best, time.perf_counter() - t0)
            events[shards] = result.events
        walls[shards] = best
    cpus = available_cpus()
    curve = {
        str(shards): {
            "wall_seconds": round(walls[shards], 6),
            "speedup": round(walls[shard_counts[0]] / walls[shards], 4),
        }
        for shards in shard_counts
    }
    efficiency_4x = None
    if 4 in walls:
        efficiency_4x = round((walls[shard_counts[0]] / walls[4]) / min(4, cpus), 4)
    return {
        "workload": dict(SCALING_WORKLOAD, sim_seconds=sim_seconds),
        "cpu_count": cpus,
        "events": events[shard_counts[0]],
        "curve": curve,
        "shard_scaling_efficiency_4x": efficiency_4x,
    }


def run_suite(quick: bool = False, repeats: int | None = None) -> dict[str, Any]:
    """Run all benchmarks and return a report dict (see ``write_report``).

    Each benchmark runs ``repeats`` times; the best run is reported, which
    is the standard way to suppress scheduler noise when measuring a
    deterministic workload.
    """
    knobs = QUICK if quick else FULL
    if repeats is None:
        repeats = knobs["repeats"]
    best_loop = max(bench_event_loop(knobs["loop_events"]) for _ in range(repeats))
    best_ring = max(
        (bench_loaded_ring(knobs["ring_sim_seconds"]) for _ in range(repeats)),
        key=lambda r: r[0],
    )
    events_per_s, hops_per_s, wall_per_sim = best_ring
    best_overheads = {
        metric: min(
            bench_overhead(metric, knobs["ring_sim_seconds"])
            for _ in range(repeats)
        )
        for metric in OVERHEADS
    }
    # The scaling curve spawns process fleets; cap its repeats at 2 to
    # keep suite time sane (the floor on its metric is a coarse guard, not
    # a tight gate — see benchmarks/BENCH_baseline.json).
    scaling = bench_shard_scaling(
        knobs["scaling_sim_seconds"], repeats=min(repeats, 2)
    )
    return {
        "schema": 1,
        "quick": quick,
        "repeats": repeats,
        "workload": {
            "loop_events": knobs["loop_events"],
            "ring_sim_seconds": knobs["ring_sim_seconds"],
            "ring_nodes": 8,
            "ring_multicasts": 50,
        },
        "metrics": {
            "event_loop_events_per_sec": round(best_loop),
            "loaded_ring_events_per_sec": round(events_per_s),
            "token_hops_per_sec": round(hops_per_s),
            "wall_clock_per_sim_second": round(wall_per_sim, 6),
            **{m: round(r, 4) for m, r in best_overheads.items()},
            "shard_scaling_efficiency_4x": scaling["shard_scaling_efficiency_4x"],
        },
        "shard_scaling": scaling,
    }


def write_report(path: str, report: dict[str, Any]) -> None:
    """Write a report (stable key order, trailing newline) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def append_history(
    path: str,
    report: dict[str, Any],
    git_sha: str,
    date: str | None = None,
    label: str = "",
) -> dict[str, Any]:
    """Append one ``{git_sha, date, label, metrics}`` row to a history file.

    The file is a JSON object ``{"schema": 1, "rows": [...]}``; rows are
    kept in append order (oldest first).  Created if missing.  Returns the
    appended row.  ``date`` defaults to today — stamped here because
    perf.py is the one module allowed to read the wall clock (RC101).
    """
    if date is None:
        import datetime

        date = datetime.date.today().isoformat()
    try:
        with open(path, encoding="utf-8") as fh:
            history = json.load(fh)
    except FileNotFoundError:
        history = {"schema": 1, "rows": []}
    if "rows" not in history:
        raise ValueError(f"{path} is not a bench history file (no 'rows')")
    row = {
        "git_sha": git_sha,
        "date": date,
        "label": label,
        "quick": bool(report.get("quick", False)),
        "metrics": dict(report.get("metrics", {})),
    }
    history["rows"].append(row)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return row


def compare(
    current: dict[str, Any], baseline: dict[str, Any], tolerance: float
) -> list[str]:
    """Check ``current`` metrics against ``baseline`` metrics.

    Both arguments are report dicts (only their ``"metrics"`` maps are
    consulted; a bare metrics map is also accepted).  Returns a list of
    human-readable regression descriptions — empty when every shared metric
    is within ``tolerance`` (e.g. ``0.30`` = may be up to 30% worse).
    Metrics present on only one side are ignored, so the baseline file can
    gain metrics without breaking old checkouts.
    """
    cur = current.get("metrics", current)
    base = baseline.get("metrics", baseline)
    problems: list[str] = []
    for name, base_value in base.items():
        if name not in cur or not isinstance(base_value, (int, float)):
            continue
        if base_value <= 0:
            continue
        value = cur[name]
        if name in _LOWER_IS_BETTER:
            ratio = value / base_value  # >1 means slower
            if ratio > 1.0 + tolerance:
                problems.append(
                    f"{name}: {value} vs baseline {base_value} "
                    f"({ratio:.2f}x slower, tolerance {tolerance:.0%})"
                )
        else:
            ratio = value / base_value  # <1 means slower
            if ratio < 1.0 - tolerance:
                problems.append(
                    f"{name}: {value} vs baseline {base_value} "
                    f"({1 / ratio:.2f}x slower, tolerance {tolerance:.0%})"
                )
    return problems
