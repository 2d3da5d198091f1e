"""The benchmark's workloads.

Five workloads, each driven from one process and one thread by a seeded
open-loop generator (:mod:`perfbench.gen`); :data:`GATED` names those in
BENCHMARK.json:

``mcast_steady``
    Simulator, 8 nodes, 5 ms hop, small AGREED multicasts at 2000/s from
    random members; probes off, no replicas.  Exercises ``core``.
``kv_replicated``
    Simulator, 8 nodes, one ``SharedDict`` per node; 1000 ops/s, 80%
    ``SharedDict.set`` over 4096 keys and 20% SAFE multicasts, starting
    as soon as the ring forms.  Exercises ``data`` and SAFE ordering.
``chaos_monitored``
    ``ChaosEngine`` on a generated 8-node fault schedule, with probes,
    flight recorder, contract and invariant monitors exactly as
    ``repro chaos`` runs it.  Exercises ``obs`` and ``cluster``.
``monitored_steady``
    The same engine, monitors and replicas on an empty fault schedule.
``udp_loopback``
    One asyncio loop, 4 nodes on ``UdpFabric`` over 127.0.0.1 with a 1 ms
    hop, 200-byte AGREED multicasts at 5000/s.  Exercises ``runtime``.

A simulator *episode* builds a fresh cluster, forms the ring (set-up),
then runs a fixed stretch of virtual time (the measured window).  With
the same seed every episode repeats exactly, so a run repeats episodes
until its time budget is spent, reports wall-clock figures as quartiles
over timing slices of the windows, and checks that every episode
produced identical virtual-clock outputs.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import resource
import socket
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from perfbench import instrument, pmu
from perfbench.check import ChaosTracker, DeliveryTracker
from perfbench.gen import AsyncPacer, OpenLoop, SimPacer
from perfbench.trace import Tracer

__all__ = ["WORKLOADS", "GATED", "Episode", "Slice", "run_episode", "SetupDone"]


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  #: "sim", "chaos" or "udp"
    why: str
    nodes: int = 8
    hop: float = 0.005
    rate: float = 0.0
    window: float = 0.0  #: seconds of offered load per episode
    drain: float = 1.0  #: seconds after the last due op, still measured
    mix: tuple = (("agreed", 1.0),)
    sizes: tuple = (64, 256)
    slice: float = 0.5  #: length of one timing slice of the window
    faults: bool = True  #: chaos kind: inject the generated fault schedule
    #: asyncio kind: user-mode instructions the host retires per µs of
    #: user CPU time on this workload when no neighbour contends for the
    #: core; CPU cost is counted in instructions where the counter opens.
    instructions_per_us: float = 0.0


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            "mcast_steady",
            "sim",
            "tens of AGREED messages ride every hop, so core does the work; "
            "data, obs and runtime do none",
            rate=2000.0,
            window=20.0,
        ),
        Spec(
            "kv_replicated",
            "sim",
            "replicated writes and SAFE multicasts drive the data layer and "
            "the second token round through the same multicast layer",
            rate=1000.0,
            window=10.0,
            mix=(("set", 0.8), ("safe", 0.2)),
        ),
        Spec(
            "chaos_monitored",
            "chaos",
            "fault schedule with probes and monitors attached: obs and "
            "cluster dominate, 911 regeneration, merge and resync run",
            hop=0.010,
            window=240.0,
            slice=2.0,
        ),
        Spec(
            "monitored_steady",
            "chaos",
            "the chaos engine's monitors, probes, recorder and replicas "
            "without faults: obs and cluster do most of the work",
            hop=0.010,
            window=240.0,
            slice=2.0,
            faults=False,
        ),
        Spec(
            "udp_loopback",
            "udp",
            "real sockets on 127.0.0.1: the only workload where the runtime "
            "layer works and latency is wall time",
            nodes=4,
            hop=0.001,
            rate=5000.0,
            window=6.0,
            drain=0.5,
            sizes=(200, 200),
            # About the 90th percentile of the per-slice rate on a quiet
            # host (2 vCPUs) when the benchmark was defined.
            instructions_per_us=10_000.0,
        ),
    )
}

#: Workloads listed in BENCHMARK.json.  ``kv_replicated`` is left out
#: while the program fails it (replica loss at ring formation; see
#: perfbench/README.md): the benchmark contract admits only workloads on
#: which no operation fails.
GATED = ("mcast_steady", "monitored_steady", "udp_loopback")


class Slice(NamedTuple):
    """What one timing slice of a measured window cost."""

    wall: float
    cpu: float  #: process CPU seconds, user and system
    delivered: int
    #: :func:`reference_loop` CPU seconds timed just before the slice
    #: (simulator only)
    reference: float | None = None
    #: user-mode instructions retired (asyncio, where the counter opens)
    instructions: float | None = None
    sys_cpu: float | None = None  #: system CPU seconds, with ``instructions``


class SetupDone(Exception):
    """Raised to stop an episode once set-up is complete (set-up probes)."""


@dataclass
class Episode:
    """What one episode measured."""

    setup_done: float = 0.0  #: time.monotonic() when the window opened
    wall: float = 0.0  #: seconds of the measured window
    cpu: float = 0.0  #: process CPU seconds in the window
    vwindow: float = 0.0  #: seconds on the node clock in the window
    deliveries: int = 0
    attempted: int = 0
    incomplete: int = 0
    misordered: int = 0
    lost: int = 0
    latencies: object = None  #: array('d') of seconds
    dues: object = None  #: array('d'): due time of each latency sample
    slices: list = field(default_factory=list)  #: of :class:`Slice`
    lateness: object = None  #: array('d') of seconds (asyncio pacer only)
    digest: tuple = ()  #: virtual-clock outputs that must repeat exactly
    problems: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    layers: dict | None = None  #: per-layer metrics of a traced episode


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _tap_class():
    from repro.core.events import SessionListener

    class Tap(SessionListener):
        """Forwards one member's deliveries and views to a tracker."""

        def __init__(self, member: str, tracker, counters: dict) -> None:
            self.member = member
            self.tracker = tracker
            self.counters = counters

        def on_deliver(self, d) -> None:
            self.tracker.delivered(self.member, d.origin, d.msg_no, d.at)
            if d.origin == self.member:
                kind = type(d.payload).__name__
                if kind in ("ResyncDelta", "ResyncSnapshot"):
                    self.counters[kind] = self.counters.get(kind, 0) + 1

        def on_view_change(self, view) -> None:
            self.counters["views"] = self.counters.get("views", 0) + 1
            if isinstance(self.tracker, ChaosTracker):
                self.tracker.view(self.member, view.members)

    return Tap


def _capture_keys(node, accept, sink) -> None:
    """Report the id of every multicast ``accept`` admits to ``sink``."""
    multicast = node.multicast

    def captured(payload, *args, **kwargs):
        key = multicast(payload, *args, **kwargs)
        if accept(payload):
            sink(node, key)
        return key

    node.multicast = captured


def _free_ports(n: int) -> list[int]:
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _wakeups(stats) -> int:
    return sum(s.task_switches for s in stats)


#: CPU seconds :func:`reference_loop` takes on the host the benchmark was
#: defined on (2 vCPUs, when the neighbours leave the core alone).
REFERENCE_S = 1.25e-3


def reference_loop() -> float:
    """CPU seconds of a fixed piece of interpreter work: heap, dict and
    small-object churn like the simulator's.  The cyclic collector is off
    while it runs, so only the host's speed moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        heap: list[int] = []
        table: dict[int, tuple] = {}
        for i in range(4000):
            heapq.heappush(heap, (i * 7919) % 4001)
            table[i & 255] = (i, str(i))
        while heap:
            heapq.heappop(heap)
        return time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


class _SimSlicer:
    """Times a simulator window in fixed slices of virtual time.

    Wraps ``loop.run_until`` so that every run stops at slice edges and
    charges its wall time, CPU time and deliveries to the slice it ran
    in.  Stopping at an edge and resuming runs the same events in the
    same order, so slicing cannot change a run.  Before a slice starts,
    :func:`reference_loop` measures the host's current speed; virtual
    time stands still meanwhile, so this cannot change a run either.
    """

    def __init__(self, loop, tracker, start: float, length: float) -> None:
        self.rows: dict[int, list] = {}
        run_until = loop.run_until

        def sliced(deadline, max_events=None):
            executed = 0
            while True:
                k = int((loop.now - start) / length + 1e-9)
                stop = min(start + (k + 1) * length, deadline)
                row = self.rows.get(k)
                if row is None:
                    row = self.rows[k] = [0.0, 0.0, 0, reference_loop()]
                d0 = tracker.deliveries
                c0 = time.process_time()
                w0 = time.perf_counter()
                executed += run_until(stop, max_events=max_events)
                row[0] += time.perf_counter() - w0
                row[1] += time.process_time() - c0
                row[2] += tracker.deliveries - d0
                if stop >= deadline:
                    return executed

        loop.run_until = sliced

    def slices(self) -> list[Slice]:
        return [Slice(*self.rows[k]) for k in sorted(self.rows)]


def _trace_members(tracer: Tracer, cluster, tap_class) -> None:
    """Trace every node of a simulated cluster and its delivery listeners."""
    for cn in cluster.nodes.values():
        instrument.trace_node(tracer, cn.node)
        instrument.trace_listener(tracer, cn.listener, "cluster.record")
        for sub in cn.node.listener.listeners:
            if isinstance(sub, tap_class):
                instrument.trace_listener(tracer, sub, "bench.tap")


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def _sim_episode(spec: Spec, seed: int, tracer: Tracer | None, setup_only: bool) -> Episode:
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig
    from repro.core.events import ensure_composite
    from repro.core.token import Ordering

    ids = [f"n{i:02d}" for i in range(spec.nodes)]
    cluster = RaincoreCluster(
        ids,
        seed=seed,
        config=RaincoreConfig.tuned(ring_size=spec.nodes, hop_interval=spec.hop),
    )
    loop = cluster.loop
    tracker = DeliveryTracker(ids)
    counters: dict = {}
    Tap = _tap_class()
    kv = spec.name == "kv_replicated"
    dicts = {}
    if kv:
        from repro.data import SharedDict

        dicts = {nid: SharedDict(cluster.node(nid)) for nid in ids}
    for nid in ids:
        ensure_composite(cluster.node(nid)).add(Tap(nid, tracker, counters))
    nodes = [cluster.node(nid) for nid in ids]
    due = [None]  # due time of the operation being issued, else None
    for node in nodes:
        _capture_keys(
            node,
            lambda payload: due[0] is not None,
            lambda node, key: tracker.submit(key, due[0]),
        )
    if tracer is not None:
        instrument.trace_sim_network(tracer, loop, cluster.network)
        _trace_members(tracer, cluster, Tap)
        for replica in dicts.values():
            instrument.trace_replica(tracer, replica)

    cluster.start_all()
    ep = Episode(setup_done=time.monotonic())
    if setup_only:
        raise SetupDone(ep.setup_done)

    t_start = loop.now
    slicer = _SimSlicer(loop, tracker, t_start, spec.slice)
    gen = OpenLoop(
        seed,
        label=spec.name,
        rate=spec.rate,
        members=spec.nodes,
        start=t_start,
        stop=t_start + spec.window,
        mix=spec.mix,
        sizes=spec.sizes,
    )
    writes = [0]

    def issue(op) -> None:
        node = nodes[op.origin]
        due[0] = op.due
        if op.kind == "set":
            writes[0] += 1
            dicts[node.node_id].set(f"k{op.key}", writes[0])
        elif op.kind == "safe":
            node.multicast(bytes(op.size), ordering=Ordering.SAFE)
        else:
            node.multicast(bytes(op.size))
        due[0] = None

    pacer = SimPacer(loop, gen, issue)
    base_events = loop.events_processed
    base_wake = _wakeups(cluster.stats)
    base_regen = sum(n.recovery.regenerations for n in nodes)
    base_deliveries = tracker.deliveries
    base_drops = cluster.network.packets_dropped
    counters.clear()
    if tracer is not None:
        tracer.begin_window()
    cpu0 = time.process_time()
    w0 = time.perf_counter()
    pacer.start()
    cluster.run(spec.window + spec.drain)
    ep.wall = time.perf_counter() - w0
    ep.cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.end_window()
        ep.tracer = tracer
    ep.vwindow = spec.window + spec.drain
    ep.deliveries = tracker.deliveries - base_deliveries
    ep.attempted = pacer.issued
    ep.incomplete = tracker.in_flight
    ep.misordered = tracker.duplicates + tracker.order_mismatches
    ep.latencies = tracker.latencies
    ep.slices = slicer.slices()
    if ep.attempted != tracker.submitted:
        ep.problems.append(
            f"issued {ep.attempted} ops but tracked {tracker.submitted}"
        )
    if tracker.duplicates:
        ep.problems.append(f"{tracker.duplicates} duplicate or reordered deliveries")
    if tracker.order_mismatches:
        ep.problems.append(f"{tracker.order_mismatches} agreed-order mismatches")
    if tracker.in_flight:
        ep.problems.append(f"{tracker.in_flight} ops not delivered at every member")
    if kv:
        versions = {nid: d.version for nid, d in dicts.items()}
        missing = {nid: writes[0] - v for nid, v in versions.items() if v != writes[0]}
        reference = dicts[ids[0]].snapshot()
        diverged = [nid for nid in ids if dicts[nid].snapshot() != reference]
        ep.lost = max(missing.values(), default=0)
        if diverged and not ep.lost:
            ep.lost = 1
        if missing:
            ep.problems.append(
                f"replicas missing writes (of {writes[0]}): "
                + ", ".join(f"{nid} {m}" for nid, m in sorted(missing.items()))
            )
        if diverged:
            ep.problems.append(f"replicas differing from {ids[0]}: {diverged}")
        counters["replicas_diverged"] = len(diverged)
        counters["log_bytes_max"] = max(d.buffered_bytes() for d in dicts.values())
    counters["wakeups"] = _wakeups(cluster.stats) - base_wake
    counters["regenerations"] = sum(n.recovery.regenerations for n in nodes) - base_regen
    counters["net.drops"] = cluster.network.packets_dropped - base_drops
    ep.counters = counters
    ep.digest = (
        loop.events_processed - base_events,
        counters["wakeups"],
        ep.deliveries,
        len(ep.latencies),
        repr(sum(ep.latencies)),
    )
    return ep


# ----------------------------------------------------------------------
# chaos workload
# ----------------------------------------------------------------------
def _chaos_episode(spec: Spec, seed: int, tracer: Tracer | None, setup_only: bool) -> Episode:
    from repro.chaos import ChaosEngine, ChaosParams, Schedule
    from repro.core.events import ensure_composite
    from repro.data import ReplicaBase
    from repro.data.shared_dict import DictOp

    params = ChaosParams(nodes=spec.nodes, seconds=spec.window, seed=seed)
    schedule = Schedule.generate(params) if spec.faults else Schedule(params, [])
    tracker = ChaosTracker()
    counters: dict = {}
    ep = Episode()
    marks: dict = {}
    Tap = _tap_class()

    def instrument_cluster(cluster, bus) -> None:
        loop = cluster.loop
        ids = list(cluster.node_ids)

        def obliged(origin):
            """Members up and sharing a view with ``origin`` right now."""
            view = origin.members
            return [
                n.node_id
                for n in cluster.live_nodes()
                if n.node_id in view and origin.node_id in n.members
            ]

        for nid in ids:
            node = cluster.node(nid)
            ensure_composite(node).add(Tap(nid, tracker, counters))
            _capture_keys(
                node,
                lambda payload: isinstance(payload, (str, DictOp)),
                lambda node, key: tracker.submit(key, loop.now, obliged(node)),
            )
            for attr in ("crash", "shutdown"):
                original = getattr(node, attr)

                def down(*args, _orig=original, _nid=nid, **kwargs):
                    _orig(*args, **kwargs)
                    tracker.crashed(_nid)

                setattr(node, attr, down)
        if tracer is not None:
            instrument.trace_sim_network(tracer, loop, cluster.network)
            instrument.trace_probes(tracer, cluster, bus)
            _trace_members(tracer, cluster, Tap)
        start_all = cluster.start_all

        def formed(*args, **kwargs):
            start_all(*args, **kwargs)
            ep.setup_done = time.monotonic()
            if setup_only:
                raise SetupDone(ep.setup_done)
            # The engine attaches its SharedDict replicas after this hook
            # ran; they are found on the nodes' listeners.
            replicas = [
                sub
                for nid in ids
                for sub in cluster.node(nid).listener.listeners
                if isinstance(sub, ReplicaBase)
            ]
            marks["replicas"] = replicas
            if tracer is not None:
                for replica in replicas:
                    instrument.trace_replica(tracer, replica)
            marks["drops"] = cluster.network.packets_dropped
            marks["events"] = loop.events_processed
            marks["wake"] = _wakeups(cluster.stats)
            marks["regen"] = sum(
                cluster.node(n).recovery.regenerations for n in ids
            )
            marks["deliveries"] = tracker.deliveries
            marks["obs"] = bus.events_emitted
            marks["vstart"] = loop.now
            marks["slicer"] = _SimSlicer(loop, tracker, loop.now, spec.slice)
            counters.clear()
            if tracer is not None:
                tracer.begin_window()
            marks["cpu"] = time.process_time()
            marks["wall"] = time.perf_counter()

        cluster.start_all = formed
        marks["cluster"] = cluster

    engine = ChaosEngine(schedule, instrument=instrument_cluster)
    if tracer is not None:
        tracer.wrap_method(engine, "run", "chaos.run")
    result = engine.run()
    ep.wall = time.perf_counter() - marks["wall"]
    ep.cpu = time.process_time() - marks["cpu"]
    if tracer is not None:
        tracer.end_window()
        ep.tracer = tracer
    cluster = marks["cluster"]
    ids = list(cluster.node_ids)
    ep.vwindow = cluster.loop.now - marks["vstart"]
    ep.deliveries = tracker.deliveries - marks["deliveries"]
    ep.attempted = tracker.submitted
    ep.incomplete = tracker.in_flight
    ep.latencies = tracker.latencies
    ep.slices = marks["slicer"].slices()
    if tracker.in_flight:
        ep.problems.append(
            f"{tracker.in_flight} ops not delivered at members obliged to deliver them"
        )
    if not result.ok:
        ep.misordered = 1
        ep.problems.append(f"chaos verdict: {result.failure}: {result.detail}")
    counters["wakeups"] = _wakeups(cluster.stats) - marks["wake"]
    counters["regenerations"] = (
        sum(cluster.node(n).recovery.regenerations for n in ids) - marks["regen"]
    )
    counters["faults_applied"] = result.stats["ops_applied"]
    counters["alerts"] = len(result.alerts)
    counters["invariant_samples"] = result.stats["samples"]
    counters["net.drops"] = cluster.network.packets_dropped - marks["drops"]
    counters["log_bytes_max"] = max(r.buffered_bytes() for r in marks["replicas"])
    counters["obs.events"] = cluster.probes.events_emitted - marks["obs"]
    counters["released"] = tracker.released
    ep.counters = counters
    ep.digest = (
        cluster.loop.events_processed - marks["events"],
        counters["wakeups"],
        ep.deliveries,
        len(ep.latencies),
        repr(sum(ep.latencies)),
    )
    return ep


# ----------------------------------------------------------------------
# real-UDP workload
# ----------------------------------------------------------------------
def _udp_episode(spec: Spec, seed: int, tracer: Tracer | None, setup_only: bool) -> Episode:
    return asyncio.run(_udp_main(spec, seed, tracer, setup_only))


async def _udp_main(spec, seed, tracer, setup_only) -> Episode:
    from repro.core.config import RaincoreConfig
    from repro.runtime import AsyncioScheduler, UdpFabric
    from repro.core.session import RaincoreNode

    loop = asyncio.get_running_loop()
    ids = [f"n{i:02d}" for i in range(spec.nodes)]
    fabric = UdpFabric(dict(zip(ids, _free_ports(len(ids)))))
    scheduler = AsyncioScheduler(loop, seed=seed)
    config = RaincoreConfig.tuned(ring_size=spec.nodes, hop_interval=spec.hop)
    tracker = DeliveryTracker(ids)
    counters: dict = {}
    Tap = _tap_class()
    await fabric.open_all()
    if tracer is not None:
        instrument.trace_udp(tracer, loop, fabric, scheduler)
    nodes = []
    for nid in ids:
        tap = Tap(nid, tracker, counters)
        node = RaincoreNode(nid, scheduler, fabric, config, tap)
        nodes.append(node)
        if tracer is not None:
            instrument.trace_node(tracer, node)
            instrument.trace_listener(tracer, tap, "bench.tap")
    lag = None
    counter = pmu.open_counter() if spec.instructions_per_us else None
    try:
        nodes[0].start_new_group()
        for node in nodes[1:]:
            node.start_joining([ids[0]])
        deadline = loop.time() + 10.0
        want = set(ids)
        while not all(set(n.members) == want and n.is_member for n in nodes):
            if loop.time() > deadline:
                raise RuntimeError(
                    f"UDP ring did not form: { {n.node_id: n.members for n in nodes} }"
                )
            await asyncio.sleep(0.005)
        ep = Episode(setup_done=time.monotonic())
        if setup_only:
            raise SetupDone(ep.setup_done)

        start = loop.time() + 0.001
        gen = OpenLoop(
            seed,
            label=spec.name,
            rate=spec.rate,
            members=spec.nodes,
            start=start,
            stop=start + spec.window,
            sizes=spec.sizes,
        )
        due = [None]
        for node in nodes:
            _capture_keys(
                node,
                lambda payload: due[0] is not None,
                lambda node, key: tracker.submit(key, due[0]),
            )

        def issue(op) -> None:
            due[0] = op.due
            nodes[op.origin].multicast(bytes(op.size))
            due[0] = None

        pacer = AsyncPacer(loop, gen, issue)
        if tracer is not None:
            tracer.wrap_method(pacer, "_fire", "bench.pace")
            lag = _LagProbe(loop)
            lag.start()
            tracer.begin_window()
        counters.clear()
        base_wake = _wakeups(fabric.stats)
        base_drop = fabric.packets_dropped
        cpu0 = time.process_time()
        w0 = time.perf_counter()
        slicer = _WallSlicer(loop, tracker, spec.slice, counter)
        pacer.start()
        slicer.start()
        await asyncio.sleep(spec.window + spec.drain)
        slicer.stop()
        ep.wall = time.perf_counter() - w0
        ep.cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end_window()
            lag.stop()
            ep.tracer = tracer
            counters["loop_lag"] = lag.samples
        ep.vwindow = ep.wall
        ep.deliveries = tracker.deliveries
        ep.attempted = pacer.issued
        ep.incomplete = tracker.in_flight
        ep.misordered = tracker.duplicates + tracker.order_mismatches
        ep.latencies = tracker.latencies
        ep.dues = tracker.dues
        ep.slices = slicer.slices
        ep.lateness = pacer.lateness
        if not pacer.done:
            ep.problems.append("generator still had ops due after the window")
        if tracker.in_flight:
            ep.problems.append(f"{tracker.in_flight} ops not delivered at every member")
        if tracker.duplicates or tracker.order_mismatches:
            ep.problems.append(
                f"{tracker.duplicates} duplicates, {tracker.order_mismatches} "
                "agreed-order mismatches"
            )
        counters["wakeups"] = _wakeups(fabric.stats) - base_wake
        counters["regenerations"] = sum(n.recovery.regenerations for n in nodes)
        counters["runtime.drops"] = fabric.packets_dropped - base_drop
        ep.counters = counters
        return ep
    finally:
        for node in nodes:
            node.crash()
        fabric.close_all()
        if counter is not None:
            counter.close()
        await asyncio.sleep(0)


class _WallSlicer:
    """Times an asyncio window in fixed slices of wall time.

    With an instruction ``counter``, each slice also records the user-mode
    instructions and the system CPU time it took.  No reference loop
    runs here: it would stall the live event loop.
    """

    def __init__(self, loop, tracker, length: float, counter=None) -> None:
        self.loop = loop
        self.tracker = tracker
        self.length = length
        self.counter = counter
        self.slices: list[Slice] = []
        self._handle = None
        self._last = None

    def _mark(self) -> tuple:
        mark = (time.perf_counter(), time.process_time(), self.tracker.deliveries)
        if self.counter is None:
            return mark
        sys_cpu = resource.getrusage(resource.RUSAGE_SELF).ru_stime
        return (*mark, self.counter.read(), sys_cpu)

    def start(self) -> None:
        self._last = self._mark()
        self._handle = self.loop.call_later(self.length, self._tick)

    def _tick(self) -> None:
        self._close()
        self._handle = self.loop.call_later(self.length, self._tick)

    def _close(self) -> None:
        now = self._mark()
        wall, cpu, delivered, *counted = (b - a for a, b in zip(self._last, now))
        self.slices.append(Slice(wall, cpu, delivered, None, *counted))
        self._last = now

    def stop(self) -> None:
        self._handle.cancel()
        self._close()


class _LagProbe:
    """Samples how late the asyncio loop runs a timer due every 2 ms."""

    PERIOD = 0.002

    def __init__(self, loop) -> None:
        from array import array

        self.loop = loop
        self.samples = array("d")
        self._handle = None

    def start(self) -> None:
        self._arm(self.loop.time() + self.PERIOD)

    def _arm(self, when: float) -> None:
        self._handle = self.loop.call_at(when, self._tick, when)

    def _tick(self, when: float) -> None:
        now = self.loop.time()
        self.samples.append(now - when)
        self._arm(max(when + self.PERIOD, now))

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()


def run_episode(
    name: str, seed: int, *, traced: bool = False, setup_only: bool = False
) -> Episode:
    """Build, form and measure one episode of workload ``name``."""
    spec = WORKLOADS[name]
    tracer = Tracer() if traced else None
    if spec.kind == "sim":
        return _sim_episode(spec, seed, tracer, setup_only)
    if spec.kind == "chaos":
        return _chaos_episode(spec, seed, tracer, setup_only)
    return _udp_episode(spec, seed, tracer, setup_only)
