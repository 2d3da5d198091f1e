"""Smoke tests for the perf-regression harness (:mod:`repro.perf`)."""

from __future__ import annotations

import gc
import json

import pytest

from repro import perf
from repro.cli import main
from repro.cluster.harness import RaincoreCluster
from repro.obs import ContractMonitor


def test_run_suite_quick_reports_all_metrics():
    report = perf.run_suite(quick=True, repeats=1)
    metrics = report["metrics"]
    assert set(metrics) == {
        "event_loop_events_per_sec",
        "loaded_ring_events_per_sec",
        "token_hops_per_sec",
        "wall_clock_per_sim_second",
        "probe_overhead_ratio",
        "monitor_overhead_ratio",
        "resync_overhead_ratio",
        "prof_overhead_ratio",
        "agg_overhead_ratio",
        "telemetry_overhead_ratio",
        "shard_scaling_efficiency_4x",
    }
    assert all(v > 0 for v in metrics.values())
    assert report["quick"] is True
    assert report["workload"]["ring_nodes"] == 8
    scaling = report["shard_scaling"]
    assert set(scaling["curve"]) == {"1", "2", "4", "8"}
    assert scaling["curve"]["1"]["speedup"] == 1.0


def test_every_timed_ring_run_starts_from_a_collected_heap(monkeypatch):
    calls: list[str] = []
    real_run = RaincoreCluster.run

    def run(self, duration):
        calls.append("run")
        real_run(self, duration)

    monkeypatch.setattr(gc, "collect", lambda *args: calls.append("gc") or 0)
    monkeypatch.setattr(RaincoreCluster, "run", run)
    perf.run_suite(quick=True, repeats=1)
    runs = [i for i, call in enumerate(calls) if call == "run"]
    assert all(i > 0 and calls[i - 1] == "gc" for i in runs)
    # One loaded ring plus a base and an extra ring per overhead ratio.
    assert len(runs) == 1 + 2 * len(perf.OVERHEADS)


def test_monitor_entry_starts_monitor_after_formation(monkeypatch):
    formed_at: dict[int, float] = {}
    started: list[ContractMonitor] = []
    real_start_all = RaincoreCluster.start_all
    real_start = ContractMonitor.start

    def start_all(self, *args, **kwargs):
        real_start_all(self, *args, **kwargs)
        formed_at[id(self.loop)] = self.loop.now

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(RaincoreCluster, "start_all", start_all)
    monkeypatch.setattr(ContractMonitor, "start", start)
    perf.bench_overhead("monitor_overhead_ratio", 0.1)
    (monitor,) = started
    assert monitor.started_at >= formed_at[id(monitor.loop)] > 0.0


def test_compare_passes_identical_reports():
    metrics = {
        "event_loop_events_per_sec": 1000,
        "loaded_ring_events_per_sec": 100,
        "wall_clock_per_sim_second": 0.01,
    }
    assert perf.compare({"metrics": metrics}, {"metrics": dict(metrics)}, 0.30) == []


def test_compare_flags_rate_and_latency_regressions():
    base = {
        "event_loop_events_per_sec": 1000,
        "wall_clock_per_sim_second": 0.01,
    }
    bad = {
        "event_loop_events_per_sec": 500,  # 2x slower
        "wall_clock_per_sim_second": 0.02,  # 2x slower (higher is worse)
    }
    problems = perf.compare({"metrics": bad}, {"metrics": base}, 0.30)
    assert len(problems) == 2
    # Within tolerance: 25% down on a 30% gate is fine.
    ok = {"event_loop_events_per_sec": 750, "wall_clock_per_sim_second": 0.012}
    assert perf.compare({"metrics": ok}, {"metrics": base}, 0.30) == []


def test_compare_ignores_unshared_metrics():
    base = {"event_loop_events_per_sec": 1000, "brand_new_metric": 5}
    cur = {"event_loop_events_per_sec": 1000}
    assert perf.compare({"metrics": cur}, {"metrics": base}, 0.30) == []


def test_cli_bench_writes_report_and_gates(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--quick", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["metrics"]["loaded_ring_events_per_sec"] > 0

    # A sky-high baseline must trip the gate; a tiny one must pass.
    impossible = tmp_path / "impossible.json"
    impossible.write_text(
        json.dumps({"metrics": {"loaded_ring_events_per_sec": 10**12}})
    )
    assert (
        main(["bench", "--quick", "--repeats", "1", "--check", str(impossible)]) == 1
    )
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps({"metrics": {"loaded_ring_events_per_sec": 1}}))
    assert main(["bench", "--quick", "--repeats", "1", "--check", str(trivial)]) == 0
    capsys.readouterr()


def test_append_history_creates_and_appends(tmp_path):
    path = tmp_path / "history.json"
    report = {"quick": True, "metrics": {"loaded_ring_events_per_sec": 123}}
    row = perf.append_history(str(path), report, git_sha="abc1234", label="first")
    assert row["git_sha"] == "abc1234"
    assert row["date"]  # stamped inside perf (RC101: wall clock lives here)
    perf.append_history(str(path), report, git_sha="def5678")
    history = json.loads(path.read_text())
    assert history["schema"] == 1
    assert [r["git_sha"] for r in history["rows"]] == ["abc1234", "def5678"]
    assert history["rows"][0]["label"] == "first"
    assert history["rows"][1]["metrics"]["loaded_ring_events_per_sec"] == 123


def test_append_history_rejects_foreign_file(tmp_path):
    path = tmp_path / "notes.json"
    path.write_text(json.dumps({"something": "else"}))
    with pytest.raises(ValueError, match="rows"):
        perf.append_history(str(path), {"metrics": {}}, git_sha="abc")


def test_cli_bench_record_appends_row(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "hist.json"
    assert main(["bench", "--quick", "--repeats", "1", "--record", str(path)]) == 0
    history = json.loads(path.read_text())
    assert len(history["rows"]) == 1
    assert history["rows"][0]["quick"] is True
    assert history["rows"][0]["metrics"]["loaded_ring_events_per_sec"] > 0
    capsys.readouterr()
