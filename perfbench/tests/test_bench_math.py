"""Tests for the benchmark's own arithmetic, on synthetic inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench.check import ChaosTracker, DeliveryTracker, failed_ops
from perfbench.pmu import open_counter
from perfbench.report import END_TO_END, EXPORTED_LAYER, PER_LAYER, cpu_us
from perfbench.gen import AsyncPacer, OpenLoop
from perfbench.stats import (
    InsufficientSamples,
    percentile,
    quartile_spread,
    tail_count,
)
from perfbench.trace import DispatchHook, Tracer, self_times
from perfbench.workloads import GATED, REFERENCE_S, WORKLOADS, Slice

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 1001)]
    assert tail_count(1000, 99) == 10
    assert percentile(values, 99) == 990.0
    with pytest.raises(InsufficientSamples):
        percentile(values[:999], 99)


def test_median_needs_ten_samples_beyond_it():
    assert percentile([float(i) for i in range(20)], 50) == 9.0
    with pytest.raises(InsufficientSamples):
        percentile([float(i) for i in range(19)], 50)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_subtracts_direct_children_only():
    # root [0, 10) > child [1, 6) > grandchild [2, 5); sibling [7, 9)
    starts = [0.0, 1.0, 2.0, 7.0]
    ends = [10.0, 6.0, 5.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 3.0, 2.0]


def test_layer_rows_sum_to_the_window_wall():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.begin_window()  # t = 0

    def inner():
        clock.t += 2.0

    def outer():
        clock.t += 1.0
        tracer.wrap("transport.on_packet", inner)()
        clock.t += 1.0

    tracer.wrap("core.receive", outer)()  # [0, 4): core 2 s, transport 2 s
    clock.t += 3.0  # outside any span
    tracer.end_window()  # t = 7
    rows = tracer.layer_self()
    assert rows["core"] == 2.0
    assert rows["transport"] == 2.0
    assert rows["unattributed"] == 3.0
    assert sum(rows.values()) == 7.0


def test_window_keeps_open_spans_clipped_to_its_start():
    clock = FakeClock()
    tracer = Tracer(clock)

    def body():
        clock.t += 5.0
        tracer.begin_window()  # t = 5, inside chaos.run
        clock.t += 2.0

    tracer.wrap("chaos.run", body)()
    tracer.end_window()
    assert tracer.layer_self()["chaos"] == 2.0


def test_dispatch_hook_adopts_spans_opened_by_the_callback():
    clock = FakeClock()
    tracer = Tracer(clock)
    hook = DispatchHook(tracer)
    tracer.begin_window()

    def _deliver():  # stands in for a repro.net callback
        clock.t += 1.0
        tracer.wrap("core.on_token", lambda: setattr(clock, "t", clock.t + 3.0))()

    _deliver.__module__ = "repro.net.datagram"
    t0 = hook.clock()
    _deliver()
    hook.account(_deliver, t0, hook.clock(), 7, 0.0)
    tracer.end_window()
    own = tracer.self_by_name()
    assert own == {"net.dispatch:test_dispatch_hook_adopts_spans_opened_by_the_callback.<locals>._deliver": 1.0, "core.on_token": 3.0}
    assert tracer.counts["net.events"] == 1
    assert tracer.counts["net.depth_sum"] == 7


# ----------------------------------------------------------------------
# latency from the due time, and generator lateness
# ----------------------------------------------------------------------
def test_latency_runs_from_due_time_to_last_member():
    tracker = DeliveryTracker(["a", "b"])
    tracker.submit(("a", 1), due=1.0)
    tracker.delivered("a", "a", 1, at=1.2)
    assert list(tracker.latencies) == []
    tracker.delivered("b", "a", 1, at=1.5)
    assert list(tracker.latencies) == [pytest.approx(0.5)]
    assert list(tracker.dues) == [1.0]
    assert tracker.in_flight == 0


class FakeAsyncLoop:
    def __init__(self) -> None:
        self.now = 0.0
        self.timers: list = []

    def time(self) -> float:
        return self.now

    def call_at(self, when, callback):
        self.timers.append((when, callback))


def test_generator_lateness_and_catch_up():
    ops = OpenLoop(7, label="t", rate=100.0, members=3, start=0.0, stop=1.0)
    expected = list(ops)
    loop = FakeAsyncLoop()
    issued = []
    pacer = AsyncPacer(loop, ops, issued.append)
    pacer.start()
    when, fire = loop.timers.pop()
    assert when == expected[0].due
    # The loop wakes 50 ms late: every op due by then goes out at once.
    loop.now = when + 0.05
    fire()
    due_now = [op for op in expected if op.due <= loop.now]
    assert issued == due_now
    assert list(pacer.lateness) == [pytest.approx(loop.now - op.due) for op in due_now]
    assert max(pacer.lateness) == pytest.approx(0.05)


def test_open_loop_is_seeded():
    a = list(OpenLoop(3, label="x", rate=50.0, members=4, start=0.0, stop=2.0))
    b = list(OpenLoop(3, label="x", rate=50.0, members=4, start=0.0, stop=2.0))
    c = list(OpenLoop(4, label="x", rate=50.0, members=4, start=0.0, stop=2.0))
    assert a == b != c
    assert all(0 <= op.origin < 4 and 64 <= op.size <= 256 for op in a)


# ----------------------------------------------------------------------
# failed-operation counting
# ----------------------------------------------------------------------
def test_missing_duplicate_and_misordered_deliveries_are_counted():
    tracker = DeliveryTracker(["a", "b"])
    for no in (1, 2, 3):
        tracker.submit(("a", no), due=0.0)
    tracker.delivered("a", "a", 1, 1.0)
    tracker.delivered("a", "a", 2, 1.0)
    tracker.delivered("a", "a", 3, 1.0)
    tracker.delivered("b", "a", 2, 1.0)  # b skips op 1: order mismatch
    tracker.delivered("b", "a", 2, 1.0)  # and repeats op 2: duplicate
    assert tracker.order_mismatches == 1
    assert tracker.duplicates == 1
    assert tracker.in_flight == 2  # ops 1 and 3 never reached b
    misordered = tracker.duplicates + tracker.order_mismatches
    assert failed_ops(3, tracker.in_flight, misordered, 0) == 3
    assert failed_ops(10, 1, 0, 2) == 3


def test_reference_order_is_trimmed_to_the_members_in_flight():
    tracker = DeliveryTracker(["a", "b"])
    tracker.TRIM_EVERY = 2
    for no in range(1, 101):
        tracker.submit(("a", no), due=0.0)
        tracker.delivered("a", "a", no, 0.0)
        tracker.delivered("b", "a", no, 0.0)
    assert tracker.in_flight == 0
    assert tracker.bookkeeping <= 2


def test_chaos_obligations_are_released_by_crash_and_views():
    tracker = ChaosTracker()
    tracker.submit(("a", 1), due=0.0, obliged=["a", "b", "c", "d"])
    tracker.delivered("a", "a", 1, 0.1)
    tracker.crashed("b")  # b went down: owes nothing
    tracker.view("c", ["c", "d"])  # c split from the origin
    assert tracker.in_flight == 1  # d still owes it
    tracker.view("a", ["a"])  # the origin's view drops d
    assert tracker.in_flight == 0
    assert list(tracker.latencies) == [pytest.approx(0.1)]
    tracker.submit(("a", 2), due=1.0, obliged=["a", "d"])
    tracker.delivered("a", "a", 2, 1.2)
    assert tracker.in_flight == 1  # d never delivers: a failed op


# ----------------------------------------------------------------------
# CPU cost per delivery
# ----------------------------------------------------------------------
def test_cpu_cost_is_scaled_by_the_reference_loop():
    sim = WORKLOADS["mcast_steady"]
    fast = Slice(wall=0.5, cpu=0.5, delivered=1000, reference=REFERENCE_S)
    slow_host = Slice(wall=1.0, cpu=1.0, delivered=1000, reference=2 * REFERENCE_S)
    assert cpu_us(sim, fast) == pytest.approx(500.0)
    assert cpu_us(sim, slow_host) == pytest.approx(500.0)


def test_cpu_cost_counts_instructions_where_counted():
    udp = WORKLOADS["udp_loopback"]
    rate = udp.instructions_per_us
    # The same work on a contended core: more CPU time, same instructions.
    quiet = Slice(0.5, 0.010, 100, None, instructions=80 * rate, sys_cpu=0.002)
    contended = Slice(0.5, 0.015, 100, None, instructions=80 * rate, sys_cpu=0.002)
    assert cpu_us(udp, quiet) == pytest.approx((80 + 2000) / 100)
    assert cpu_us(udp, contended) == cpu_us(udp, quiet)
    assert cpu_us(udp, Slice(0.5, 0.015, 100)) == pytest.approx(150.0)


def test_instruction_counter_counts_or_is_absent():
    counter = open_counter()
    if counter is None:
        pytest.skip("no readable instruction counter on this host")
    try:
        before = counter.read()
        sum(i * i for i in range(10000))
        assert counter.read() - before > 10000
    finally:
        counter.close()


# ----------------------------------------------------------------------
# BENCHMARK.json and the report agree
# ----------------------------------------------------------------------
def test_benchmark_json_lists_what_the_report_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in END_TO_END.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, PER_LAYER[name]) for name in EXPORTED_LAYER
    ]
