"""Layer boundaries of the traced run.

Every function here wraps public entry points of one layer *on the
instances the benchmark built*, so that the traced run records a span
per call and counts work at the same boundary.  Span names start with
the layer they charge (see :data:`perfbench.trace.LAYERS`):

=========  ==========================================================
net        ``EventLoop.run_until`` and every dispatched callback of a
           ``repro.net`` module; ``DatagramNetwork.send``
transport  handlers registered through ``bind``; ``ReliableUnicast.send``
           / ``send_best_effort``; retransmit and timer dispatches
core       the transport receiver, ``RaincoreNode.multicast``,
           ``MulticastService.on_token``; core timer dispatches
data       ``SharedDict.set``, replica ``on_deliver`` / ``on_view_change``
obs        ``ProbeBus.emit`` (subscribers included); monitor ticks
cluster    the harness ``RecordingListener``; ``InvariantMonitor`` samples
chaos      fault application and background load of ``ChaosEngine``
runtime    ``UdpFabric.send``, ``datagram_received``, scheduler timers
bench      the benchmark's own pacer and delivery tap
idle       the asyncio selector waiting for I/O
=========  ==========================================================
"""

from __future__ import annotations

from typing import Any

from perfbench.trace import DispatchHook, Tracer, callable_label

__all__ = [
    "trace_sim_network",
    "trace_node",
    "trace_listener",
    "trace_replica",
    "TracedBus",
    "trace_probes",
    "trace_udp",
]


def trace_sim_network(tracer: Tracer, loop, network) -> None:
    """Simulator loop and datagram network (call before nodes start)."""
    loop.profile = DispatchHook(tracer)
    tracer.wrap_method(loop, "run_until", "net.run")
    _trace_fabric(tracer, network, "net.send", "net.datagrams")


def _trace_fabric(tracer: Tracer, fabric, send_name: str, counter: str) -> None:
    """``send`` and ``bind`` of a datagram fabric (simulated or UDP)."""
    tracer.wrap_method(
        fabric, "send", send_name, lambda *a, **k: tracer.count(counter)
    )
    bind = fabric.bind

    def traced_bind(address, handler):
        bind(address, tracer.wrap("transport.on_packet", handler))

    fabric.bind = traced_bind


def trace_node(tracer: Tracer, node) -> None:
    """Transport endpoint, receiver, multicast and token visit of a node."""
    transport = node.transport
    send = tracer.wrap("transport.send", transport.send)

    def on_failure(on_result):
        def result(ok: bool) -> None:
            if not ok:
                tracer.count("transport.send_failures")
            on_result(ok)

        return result

    def traced_send(dst, payload, on_result=None):
        tracer.count("transport.sends")
        if on_result is not None:
            on_result = on_failure(on_result)
        return send(dst, payload, on_result)

    transport.send = traced_send
    tracer.wrap_method(
        transport,
        "send_best_effort",
        "transport.send_best_effort",
        lambda *a, **k: tracer.count("transport.sends"),
    )
    # The receiver the node installed at construction; re-installed
    # through the public setter wrapped in a core span.
    transport.set_receiver(tracer.wrap("core.receive", transport._receiver))
    tracer.wrap_method(node, "multicast", "core.multicast")
    service = node.multicast_service

    def visit(token) -> None:
        counts = tracer.counts
        counts["core.token_hops"] = counts.get("core.token_hops", 0) + 1
        counts["core.msgs"] = counts.get("core.msgs", 0) + len(token.messages)
        counts["core.token_bytes"] = counts.get("core.token_bytes", 0) + token.wire_size()
        counts["core.outbox"] = counts.get("core.outbox", 0) + service.outbox_depth()

    tracer.wrap_method(service, "on_token", "core.on_token", visit)


def trace_listener(tracer: Tracer, listener, name: str) -> None:
    """Deliveries into one subscriber of a node's listener."""
    tracer.wrap_method(listener, "on_deliver", name)


def trace_replica(tracer: Tracer, replica) -> None:
    """A ``SharedDict`` replica: writes, deliveries and view changes."""
    tracer.wrap_method(
        replica, "set", "data.set", lambda *a, **k: tracer.count("data.writes")
    )
    tracer.wrap_method(replica, "on_deliver", "data.on_deliver")
    tracer.wrap_method(replica, "on_view_change", "data.on_view_change")


class TracedBus:
    """Stands in for a ``ProbeBus`` on the emitting side.

    Emitters hold this proxy; subscribers stay on the real bus, so the
    span around ``emit`` covers every subscriber it fans out to.
    """

    def __init__(self, tracer: Tracer, bus) -> None:
        self._bus = bus
        self.loop = bus.loop
        self.emit = tracer.wrap("obs.emit", bus.emit)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._bus, name)


def trace_probes(tracer: Tracer, cluster, bus) -> TracedBus:
    """Route every emitter of a simulated cluster through a traced bus."""
    proxy = TracedBus(tracer, bus)
    cluster.network.probe = proxy
    for cn in cluster.nodes.values():
        cn.node.probe = proxy
        cn.node.transport.probe = proxy
    cluster.probes = proxy
    return proxy


def trace_udp(tracer: Tracer, loop, fabric, scheduler) -> None:
    """Real-UDP runtime: fabric, socket receive, timers and idle waits.

    Call after the fabric's sockets are open and before nodes start.
    """
    _trace_fabric(tracer, fabric, "runtime.send", "runtime.sends")
    for endpoint in fabric._endpoints.values():
        protocol = endpoint.get_protocol()

        def on_recv(data, addr):
            tracer.count("runtime.datagrams")
            tracer.count("runtime.bytes", len(data))

        tracer.wrap_method(protocol, "datagram_received", "runtime.recv", on_recv)

    def timer(schedule):
        def call(when, callback, *args, **kwargs):
            layer, qualname = callable_label(callback)
            traced = tracer.wrap(f"{layer}.dispatch:{qualname}", callback)
            return schedule(when, traced, *args, **kwargs)

        return call

    scheduler.call_later = timer(scheduler.call_later)
    scheduler.call_at = timer(scheduler.call_at)
    selector = loop._selector
    tracer.wrap_method(selector, "select", "idle.select")
