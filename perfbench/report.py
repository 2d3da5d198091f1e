"""Metrics and verdicts computed from measured episodes.

End-to-end metrics come from untraced episodes only; per-layer metrics
from traced ones (medians over traced episodes).  Wall-clock costs are
quartiles over slices of the measured windows (:func:`end_to_end`).  Latency
percentiles follow :mod:`perfbench.stats` (nearest rank, at least ten
samples beyond the reported percentile).
"""

from __future__ import annotations

import os
import statistics

from perfbench.check import failed_ops
from perfbench.stats import InsufficientSamples, median, percentile
from perfbench.trace import LAYERS
from perfbench.workloads import REFERENCE_S, peak_rss_mb

__all__ = ["END_TO_END", "PER_LAYER", "EXPORTED_LAYER", "verdict", "end_to_end", "per_layer"]

#: name -> (unit, better).  ``failed_frac`` is reported beside these but
#: is not a gated metric: it is 0 on a correct run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "deliveries_per_s": ("1/s", "higher"),
    "cpu_us_per_delivery": ("us", "lower"),
    "agreed_latency_p50_ms": ("ms", "lower"),
    "agreed_latency_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> unit, in report order: every per-layer figure the traced report
#: prints.  ``<layer>.share`` is the layer's self time over the traced wall.
PER_LAYER = {
    "net.events": "count",
    "net.self_s": "s",
    "net.share": "ratio",
    "net.datagrams": "count",
    "net.drops": "count",
    "net.queue_depth_mean": "count",
    "transport.sends": "count",
    "transport.retransmits": "count",
    "transport.send_failures": "count",
    "transport.self_s": "s",
    "transport.share": "ratio",
    "core.token_hops": "count",
    "core.msgs_per_hop": "count",
    "core.token_bytes_mean": "B",
    "core.us_per_hop": "us",
    "core.self_s": "s",
    "core.share": "ratio",
    "core.outbox_depth_mean": "count",
    "core.wakeups_per_node_s": "1/s",
    "core.regenerations": "count",
    "core.view_changes": "count",
    "data.writes": "count",
    "data.us_per_apply": "us",
    "data.self_s": "s",
    "data.share": "ratio",
    "data.log_bytes_max": "B",
    "data.resync_deltas": "count",
    "data.resync_snapshots": "count",
    "data.replicas_diverged": "count",
    "obs.events": "count",
    "obs.self_s": "s",
    "obs.share": "ratio",
    "obs.monitor_ticks": "count",
    "obs.us_per_tick": "us",
    "obs.alerts": "count",
    "cluster.self_s": "s",
    "cluster.share": "ratio",
    "cluster.invariant_samples": "count",
    "cluster.invariants_self_s": "s",
    "cluster.recorded_deliveries": "count",
    "chaos.faults_applied": "count",
    "chaos.self_s": "s",
    "chaos.share": "ratio",
    "runtime.self_s": "s",
    "runtime.share": "ratio",
    "runtime.datagrams": "count",
    "runtime.bytes_per_datagram": "B",
    "runtime.us_per_send": "us",
    "runtime.us_per_recv": "us",
    "runtime.drops": "count",
    "runtime.loop_lag_p99_ms": "ms",
    "bench.self_s": "s",
    "bench.share": "ratio",
    "bench.gen_late_p99_ms": "ms",
    "bench.trace_overhead": "ratio",
    "idle.self_s": "s",
    "idle.share": "ratio",
    "unattributed.self_s": "s",
    "unattributed.share": "ratio",
    "trace.wall_s": "s",
}

#: The per-layer metrics of the final JSON line (``per_layer`` in
#: BENCHMARK.json).  A time there must be measured on every gated
#: workload, never a constant 0 because the workload leaves a layer idle;
#: so layers are compared by their share of the traced wall, and the
#: per-call times of layers some workloads skip stay in the printed
#: report only.
EXPORTED_LAYER = tuple(
    name
    for name, unit in PER_LAYER.items()
    if unit not in ("s", "ms", "us") or name in ("core.us_per_hop", "trace.wall_s")
)

_SPAN_DIR = ".perfbench"


def _pct_ms(samples, p: float) -> float:
    return percentile(sorted(samples), p) * 1e3


def verdict(spec, episodes) -> dict:
    """Correctness over all episodes of one run."""
    where: dict[str, list[int]] = {}
    attempted = failed = 0
    for i, ep in enumerate(episodes):
        attempted += ep.attempted
        failed += failed_ops(ep.attempted, ep.incomplete, ep.misordered, ep.lost)
        for problem in ep.problems:
            where.setdefault(problem, []).append(i)
    problems = [
        f"{problem} (episode {', '.join(map(str, eps))})" for problem, eps in where.items()
    ]
    if spec.kind != "udp":
        digests = {ep.digest for ep in episodes}
        if len(digests) != 1:
            problems.append(
                f"same-seed episodes disagree on virtual-clock outputs: {sorted(digests)}"
            )
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def _latency_ms(spec, episodes) -> tuple[float, float, int]:
    """``(p50, p99, samples)`` of agreed latency.

    On the virtual clock the samples of the first episode are used (every
    episode repeats them exactly).  On the wall clock each episode's
    samples are grouped into slices by due time, and the median over all
    slices of each slice's percentile is reported, so one stall of the
    shared host moves one slice, not the figure.
    """
    if spec.kind != "udp":
        lat = sorted(episodes[0].latencies)
        return percentile(lat, 50) * 1e3, percentile(lat, 99) * 1e3, len(lat)
    full = []
    samples = 0
    for ep in episodes:
        groups: dict[int, list[float]] = {}
        first = min(ep.dues)
        for due, lat in zip(ep.dues, ep.latencies):
            groups.setdefault(int((due - first) / spec.slice), []).append(lat)
        full += [sorted(g) for g in groups.values() if len(g) >= 1000]
        samples += len(ep.latencies)
    if not full:
        raise InsufficientSamples("no latency slice holds 1000 samples")
    p50 = median([percentile(g, 50) for g in full]) * 1e3
    p99 = median([percentile(g, 99) for g in full]) * 1e3
    return p50, p99, samples


def end_to_end(spec, episodes) -> dict:
    """End-to-end metrics of an untraced run (set-up time added by caller).

    Wall-clock costs are taken per slice of the measured windows: the
    delivery rate at the upper quartile of the slices and the CPU cost
    per delivery at the lower quartile.  The host is shared and its speed
    swings by up to 2x within seconds; the favourable quartile tracks
    what the program costs when it has the CPU.  On the simulator each
    slice is also scaled to the reference host speed (``REFERENCE_S``)
    by the reference loop timed just before it, which removes the slower
    drifts of the host between runs.  Asyncio slices carry no reference
    time (a reference loop would stall the live event loop); where they
    carry instruction counts, the CPU cost comes from those
    (:func:`cpu_us`).
    """
    out = verdict(spec, episodes)
    rates: list[float] = []
    costs: list[float] = []
    times: list[float] = []
    for ep in episodes:
        for s in ep.slices:
            if s.wall > 0:
                rates.append(s.delivered / s.wall * _speed(s))
            if s.delivered > 0:
                costs.append(cpu_us(spec, s))
                times.append(s.cpu / s.delivered * 1e6)
    counted = all(s.instructions is not None for ep in episodes for s in ep.slices)
    metrics = {
        "deliveries_per_s": _quartiles(rates)[2],
        "cpu_us_per_delivery": _quartiles(costs)[0],
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = 0
    try:
        p50, p99, samples = _latency_ms(spec, episodes)
        metrics["agreed_latency_p50_ms"] = p50
        metrics["agreed_latency_p99_ms"] = p99
    except InsufficientSamples as exc:
        out["correct"] = False
        out["problems"].append(f"latency: {exc}")
    out["metrics"] = metrics
    out["info"] = {
        "episodes": len(episodes),
        "slices": len(rates),
        "cpu_basis": "instructions" if counted else "cpu time",
        "cpu_time_us_per_delivery": _quartiles(times)[0],
        "episode_walls": [ep.wall for ep in episodes],
        "latency_samples": samples,
        "latency_clock": "wall" if spec.kind == "udp" else "virtual",
        "failed_frac": out["failed"] / out["attempted"] if out["attempted"] else 0.0,
        "wakeups_per_node_s": _wakeups_per_node_s(spec, episodes[0]),
        "paper_L": 1.0 / (spec.nodes * spec.hop),
    }
    return out


def cpu_us(spec, s) -> float:
    """CPU microseconds per delivery of one slice, at the reference speed.

    A slice with an instruction count is charged its user-mode
    instructions at the workload's uncontended rate
    (``spec.instructions_per_us``) plus the system CPU time it took: the
    user-mode count does not move when a neighbour slows the core.  Any
    other slice is charged its process CPU time, scaled by its reference
    loop where it has one.
    """
    if s.instructions is not None:
        return (s.instructions / spec.instructions_per_us + s.sys_cpu * 1e6) / s.delivered
    return s.cpu / s.delivered * 1e6 / _speed(s)


def _speed(s) -> float:
    """Host speed in a slice relative to the reference (1.0 without one)."""
    return s.reference / REFERENCE_S if s.reference else 1.0


def _wakeups_per_node_s(spec, ep) -> float:
    return ep.counters.get("wakeups", 0) / spec.nodes / ep.vwindow


def _mean_us(incl: dict, name: str) -> float:
    calls, total = incl.get(name, (0, 0.0))
    return total / calls * 1e6 if calls else 0.0


def layer_metrics(spec, ep, baseline) -> dict:
    """Per-layer metrics of one traced episode.

    ``baseline`` is the untraced episode of the same run; tracing
    overhead is traced wall over untraced wall (process CPU time on
    ``udp_loopback``, whose wall time is fixed by the offered rate).
    """
    tr = ep.tracer
    c = ep.counters
    counts = tr.counts
    incl = tr.inclusive_by_name()
    own = tr.self_by_name()
    rows = tr.layer_self()
    wall = tr.window_end - tr.window_start
    hops = counts.get("core.token_hops", 0)
    events = counts.get("net.events", 0)
    tick = "obs.dispatch:ContractMonitor._tick"
    sample = "cluster.dispatch:InvariantMonitor._sample"
    datagrams = counts.get("runtime.datagrams", 0)
    if spec.kind == "udp":
        overhead = (ep.cpu / ep.deliveries) / (baseline.cpu / baseline.deliveries)
    else:
        overhead = ep.wall / baseline.wall
    m = {
        "net.events": events,
        "net.self_s": rows["net"],
        "net.datagrams": counts.get("net.datagrams", 0),
        "net.drops": c.get("net.drops", 0),
        "net.queue_depth_mean": counts.get("net.depth_sum", 0) / events if events else 0.0,
        "transport.sends": counts.get("transport.sends", 0),
        "transport.retransmits": incl.get(
            "transport.dispatch:ReliableUnicast._retransmit", (0, 0.0)
        )[0],
        "transport.send_failures": counts.get("transport.send_failures", 0),
        "transport.self_s": rows["transport"],
        "core.token_hops": hops,
        "core.msgs_per_hop": counts.get("core.msgs", 0) / hops if hops else 0.0,
        "core.token_bytes_mean": counts.get("core.token_bytes", 0) / hops if hops else 0.0,
        "core.us_per_hop": _mean_us(incl, "core.on_token"),
        "core.self_s": rows["core"],
        "core.outbox_depth_mean": counts.get("core.outbox", 0) / hops if hops else 0.0,
        "core.wakeups_per_node_s": _wakeups_per_node_s(spec, ep),
        "core.regenerations": c.get("regenerations", 0),
        "core.view_changes": c.get("views", 0),
        "data.writes": counts.get("data.writes", 0),
        "data.us_per_apply": _mean_us(incl, "data.on_deliver"),
        "data.self_s": rows["data"],
        "data.log_bytes_max": c.get("log_bytes_max", 0),
        "data.resync_deltas": c.get("ResyncDelta", 0),
        "data.resync_snapshots": c.get("ResyncSnapshot", 0),
        "data.replicas_diverged": c.get("replicas_diverged", 0),
        "obs.events": c.get("obs.events", 0),
        "obs.self_s": rows["obs"],
        "obs.monitor_ticks": incl.get(tick, (0, 0.0))[0],
        "obs.us_per_tick": _mean_us(incl, tick),
        "obs.alerts": c.get("alerts", 0),
        "cluster.self_s": rows["cluster"],
        "cluster.invariant_samples": incl.get(sample, (0, 0.0))[0],
        "cluster.invariants_self_s": own.get(sample, 0.0),
        "cluster.recorded_deliveries": incl.get("cluster.record", (0, 0.0))[0],
        "chaos.faults_applied": c.get("faults_applied", 0),
        "chaos.self_s": rows["chaos"],
        "runtime.self_s": rows["runtime"],
        "runtime.datagrams": datagrams,
        "runtime.bytes_per_datagram": (
            counts.get("runtime.bytes", 0) / datagrams if datagrams else 0.0
        ),
        "runtime.us_per_send": _mean_us(incl, "runtime.send"),
        "runtime.us_per_recv": _mean_us(incl, "runtime.recv"),
        "runtime.drops": c.get("runtime.drops", 0),
        "runtime.loop_lag_p99_ms": _tail_ms(c.get("loop_lag")),
        "bench.self_s": rows["bench"],
        "bench.gen_late_p99_ms": _tail_ms(ep.lateness),
        "bench.trace_overhead": overhead,
        "idle.self_s": rows["idle"],
        "unattributed.self_s": rows["unattributed"],
        "trace.wall_s": wall,
    }
    for layer, own_s in rows.items():
        m[f"{layer}.share"] = own_s / wall if wall else 0.0
    return m


def _tail_ms(samples) -> float:
    """p99 in ms, or 0.0 where the layer produced no samples."""
    if not samples:
        return 0.0
    return _pct_ms(samples, 99)


def per_layer(spec, episodes, root: str) -> dict:
    """Per-layer metrics of a traced run: medians over traced episodes."""
    out = verdict(spec, episodes)
    baseline, traced = episodes[0], episodes[1:]
    rows = [ep.layers for ep in traced]
    metrics = {name: median([r[name] for r in rows]) for name in PER_LAYER}
    first = traced[0]
    path = os.path.join(root, _SPAN_DIR, f"spans-{spec.name}.bin")
    first.tracer.dump(path, {"workload": spec.name, "episode": 1})
    layer_sum = sum(first.layers[f"{layer}.self_s"] for layer in LAYERS)
    out["metrics"] = metrics
    out["info"] = {
        "episodes": len(episodes),
        "traced_episodes": len(traced),
        "spans": first.tracer.spans,
        "spans_file": os.path.relpath(path, root),
        "layer_sum_s": layer_sum,
        "traced_wall_s": first.layers["trace.wall_s"],
        "paper_L": 1.0 / (spec.nodes * spec.hop),
    }
    if abs(layer_sum - first.layers["trace.wall_s"]) > 1e-6 * max(1.0, layer_sum):
        out["correct"] = False
        out["problems"].append(
            f"layer self times sum to {layer_sum} s, traced wall is "
            f"{first.layers['trace.wall_s']} s"
        )
    return out

