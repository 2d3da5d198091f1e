"""Command-line interface: run scenarios and experiments without pytest.

Installed as ``raincore-repro`` (or ``python -m repro``).  Subcommands:

* ``info`` — package overview and experiment index;
* ``quickstart`` — form a group, multicast, crash and rejoin a member;
* ``trace`` — print a protocol event timeline for a short run;
* ``obs`` — probe-bus observability: live summary, JSONL export,
  diagnostic-bundle rendering, span-timeline reconstruction, and trace
  diff (docs/OBSERVABILITY.md, docs/MONITORING.md);
* ``prof`` — hot-path wall-clock profiler: per-callback attribution
  table, Chrome trace-event export, per-shard epoch utilization
  (docs/PROFILING.md);
* ``watch`` — run a cluster under the live contract monitor and stream
  per-node SLO health (plain-text, redraw-free, CI-safe);
* ``scaling`` — the Figure 3 Rainwall throughput sweep;
* ``failover`` — the §3.2 cable-unplug experiment;
* ``merge`` — split-brain and TBM merge walk-through;
* ``hierarchy`` — the §5 two-plane scalability extension;
* ``top`` — raintap live view of a REAL multi-process cluster: N workers
  over localhost UDP, the same status lines as ``watch``, SIGKILL fault
  injection and breach postmortems, gating on clean formation and zero
  wall-clock contract alerts (docs/TELEMETRY.md);
* ``chaos`` — seeded chaos campaigns: generated fault schedules,
  replayable traces, automatic shrinking of failures;
* ``lint`` — raincheck static analysis: determinism and protocol
  invariants checked before any test runs (docs/DETERMINISM.md);
* ``bench`` — wall-clock throughput of the simulator itself, with
  optional regression gating against a committed baseline.

Everything runs in simulated time — each command finishes in seconds of
wall clock regardless of how much virtual time it covers — except ``top``,
which drives a real multi-process cluster and runs for the wall-clock
duration you ask for.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raincore-repro",
        description=(
            "Reproduction of the Raincore Distributed Session Service "
            "(Fan & Bruck, IPPS 2001)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package overview and experiment index")

    p = sub.add_parser("quickstart", help="group formation, multicast, crash, rejoin")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--seed", type=int, default=2024)

    p = sub.add_parser("trace", help="print a protocol event timeline")
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--duration", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--limit", type=int, default=60)
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress the rendered output; exit code only (CI use)",
    )
    p.add_argument(
        "--kinds",
        default="state,view,token,deliver,shutdown",
        help="comma-separated event kinds to show",
    )
    p.add_argument(
        "--swimlanes",
        action="store_true",
        help="render one column per node instead of a flat timeline",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the filtered events as a stable JSON array instead",
    )

    p = sub.add_parser(
        "obs",
        help=(
            "probe-bus observability: live summary, JSONL export, bundle "
            "render, trace diff"
        ),
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "summary",
        help="run the probed quickstart scenario and summarize its streams",
    )
    q.add_argument(
        "file", nargs="?", metavar="FILE", default=None,
        help="summarize this bundle/capture/export instead of running "
        "the scenario (e.g. a raintap postmortem bundle)",
    )
    q.add_argument("--nodes", type=int, default=4)
    q.add_argument("--seed", type=int, default=2024)
    q.add_argument("--duration", type=float, default=1.0)
    q.add_argument(
        "--no-crash", action="store_true",
        help="skip the crash/recover phase of the scenario",
    )

    q = obs_sub.add_parser(
        "export",
        help="run the probed quickstart scenario and export JSONL streams",
    )
    q.add_argument("--nodes", type=int, default=4)
    q.add_argument("--seed", type=int, default=2024)
    q.add_argument("--duration", type=float, default=1.0)
    q.add_argument(
        "--no-crash", action="store_true",
        help="skip the crash/recover phase of the scenario",
    )
    q.add_argument(
        "--metrics", action="store_true",
        help="export the probe-stream rollup (StreamAggregator) as one "
        "JSON line instead of the probe event stream",
    )
    q.add_argument(
        "--out", metavar="FILE.jsonl",
        help="write the stream here (default: stdout)",
    )

    q = obs_sub.add_parser(
        "render",
        help="render a diagnostic bundle as timeline/swimlanes/causal chain",
    )
    q.add_argument("bundle", metavar="BUNDLE.json", help="bundle file to render")
    q.add_argument("--swimlanes", action="store_true")
    q.add_argument(
        "--kinds", default=None,
        help="comma-separated probe kinds to show (default: all)",
    )
    q.add_argument("--node", default=None, help="show only this node's events")
    q.add_argument("--limit", type=int, default=60)
    q.add_argument(
        "--span", metavar="ORIGIN#N",
        help="render the causal chain of one multicast span instead",
    )

    q = obs_sub.add_parser(
        "timeline",
        help=(
            "reconstruct the span timeline (token laps, 911 episodes, "
            "merge windows, resync ladders) from a run or an export"
        ),
    )
    q.add_argument(
        "events", nargs="?", metavar="EVENTS",
        help="probe export (.jsonl) or bundle (.json) to reconstruct from "
        "(default: run the probed quickstart scenario)",
    )
    q.add_argument("--nodes", type=int, default=4)
    q.add_argument("--seed", type=int, default=2024)
    q.add_argument("--duration", type=float, default=1.0)
    q.add_argument(
        "--no-crash", action="store_true",
        help="skip the crash/recover phase of the scenario",
    )
    q.add_argument("--limit", type=int, default=40)
    q.add_argument(
        "--kind", default=None,
        help="show only spans of this kind (e.g. episode.911)",
    )
    q.add_argument(
        "--out", metavar="FILE.jsonl",
        help="write the span records as JSONL (repro obs diff compatible)",
    )
    q.add_argument(
        "--check", action="store_true",
        help="check the paper bounds over the spans; exit 1 on breach",
    )
    q.add_argument(
        "--detection-bound", type=float, default=None, metavar="S",
        help="911 detection-latency bound per episode (default 0.15)",
    )

    q = obs_sub.add_parser(
        "diff",
        help=(
            "localize the first divergence between two probe exports "
            "or diagnostic bundles"
        ),
    )
    q.add_argument("left", metavar="LEFT", help="probe export (.jsonl) or bundle (.json)")
    q.add_argument("right", metavar="RIGHT", help="probe export (.jsonl) or bundle (.json)")
    q.add_argument(
        "--context", type=int, default=3,
        help="events of context around the divergence point (default 3)",
    )
    for q2 in obs_sub.choices.values():
        q2.add_argument(
            "--quiet", action="store_true",
            help="suppress informational output; exit code only (CI use)",
        )

    p = sub.add_parser(
        "watch",
        help="live contract monitor: per-node SLO health during a run",
    )
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--seconds", type=float, default=8.0, help="virtual run length")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--segments", type=int, default=1)
    p.add_argument(
        "--report-every", type=float, default=1.0, metavar="S",
        help="virtual seconds between status lines (default 1.0)",
    )
    p.add_argument(
        "--spike-at", type=float, default=None, metavar="T",
        help="inject delay spikes at virtual time T (known-bad demo/CI case)",
    )
    p.add_argument("--spike-prob", type=float, default=1.0)
    p.add_argument("--spike-extra", type=float, default=0.035, metavar="S",
                   help="extra one-way delay per spiked packet (default 0.035)")
    p.add_argument(
        "--blackout-at", type=float, default=None, metavar="T",
        help="inject an ack blackout at virtual time T",
    )
    p.add_argument("--blackout-src", default=None, metavar="NODE")
    p.add_argument("--blackout-dst", default=None, metavar="NODE")
    p.add_argument("--blackout-duration", type=float, default=2.0)
    p.add_argument(
        "--detection-bound", type=float, default=None, metavar="S",
        help="fd-latency bound (default: derived from the transport config)",
    )
    p.add_argument(
        "--fail-on-alerts", action="store_true",
        help="exit 1 if any contract alert fired (CI clean gate)",
    )
    p.add_argument(
        "--expect-alerts", action="store_true",
        help="exit 1 if NO contract alert fired (CI known-bad gate)",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="only print fired alerts and the final summary",
    )

    p = sub.add_parser(
        "prof",
        help=(
            "hot-path wall-clock profiler: attribution table, Chrome "
            "trace export, per-shard epoch utilization"
        ),
    )
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument(
        "--seconds", type=float, default=10.0,
        help="virtual seconds of the profiled chaos workload",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--segments", type=int, default=2)
    p.add_argument(
        "--intensity", type=float, default=1.0,
        help="fault event rate multiplier of the chaos schedule",
    )
    p.add_argument(
        "--top", type=int, default=12,
        help="attribution rows to show before folding the tail (default 12)",
    )
    p.add_argument(
        "--trace", metavar="TRACE.json",
        help="write Chrome trace-event JSON here (chrome://tracing, Perfetto)",
    )
    p.add_argument(
        "--timeline-limit", type=int, default=50_000,
        help="max per-dispatch spans retained for the trace export",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the profiler summary as JSON instead of the table",
    )
    p.add_argument(
        "--aggregate", action="store_true",
        help="also attach streaming aggregation and print the rollup",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="profile the sharded multi-ring engine at K shards instead "
        "of the chaos workload (per-shard epoch walls and imbalance)",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress the rendered output; exit code only (CI use)",
    )

    p = sub.add_parser("scaling", help="Figure 3: Rainwall throughput sweep")
    p.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4])
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("failover", help="the 2-second cable-unplug experiment")
    p.add_argument("--seed", type=int, default=11)

    p = sub.add_parser("merge", help="split-brain and group merge walk-through")
    p.add_argument("--seed", type=int, default=5)

    p = sub.add_parser("hierarchy", help="two-plane hierarchical demo (§5)")
    p.add_argument("--groups", type=int, default=3)
    p.add_argument("--group-size", type=int, default=3)
    p.add_argument("--seed", type=int, default=4)

    p = sub.add_parser(
        "top",
        help="raintap: live terminal view of a real multi-process cluster",
    )
    p.add_argument("--procs", type=int, default=3, metavar="N")
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--hop-interval", type=float, default=0.02)
    p.add_argument(
        "--every", type=float, default=1.0,
        help="seconds between status lines (redraw-free, CI-safe)",
    )
    p.add_argument(
        "--kill", metavar="NODE@T[,NODE@T]", default=None,
        help="SIGKILL NODE T wall seconds after start",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve the Prometheus-style /metrics exposition on this port "
        "(0 = pick a free one; printed at start)",
    )
    p.add_argument("--capture", metavar="FILE.jsonl", default=None)
    p.add_argument("--postmortem", metavar="FILE.json", default=None)
    p.add_argument(
        "--expect-alerts", action="store_true",
        help="exit 0 only if at least one alert fired (fault-injection CI)",
    )

    p = sub.add_parser(
        "chaos",
        help="seeded chaos campaigns with replayable traces and shrinking",
    )
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--seconds", type=float, default=30.0, help="fault window (virtual s)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--campaign", type=int, default=1, metavar="N",
        help="run N schedules with seeds seed, seed+1, ...",
    )
    p.add_argument("--segments", type=int, default=2)
    p.add_argument(
        "--intensity", type=float, default=1.0, help="fault event rate multiplier"
    )
    p.add_argument(
        "--strict", action="store_true",
        help="flag every double-token sample instead of bounding the window",
    )
    p.add_argument(
        "--replay", metavar="TRACE.json",
        help="replay a recorded trace instead of generating schedules",
    )
    p.add_argument(
        "--partition", metavar="NODES:DURATION[:AT]",
        help="run one explicit long_partition schedule instead of "
        "generating: isolate the comma-separated NODES for DURATION "
        "virtual seconds starting at AT (default 2.0), e.g. "
        "'n00,n01:20:2'",
    )
    p.add_argument(
        "--artifacts", default="chaos-artifacts", metavar="DIR",
        help="directory for failing traces and their shrunk reproducers",
    )
    p.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking failing schedules"
    )
    p.add_argument(
        "--print-trace", action="store_true",
        help="print the generated (or replayed) schedule's JSON trace",
    )
    p.add_argument(
        "--fail-on-alerts", action="store_true",
        help="exit nonzero if any contract-monitor alert fired (CI clean gate)",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="run the sharded multi-ring chaos campaign on the lockstep "
        "engine instead of the single-ring schedules (uses --seconds, "
        "--seed, --campaign; other knobs are ignored)",
    )

    p = sub.add_parser(
        "lint",
        help="raincheck: static determinism & protocol-invariant analysis",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p)

    p = sub.add_parser(
        "spec",
        help="rainspec: protocol spec conformance, model checking, rendering",
    )
    from repro.spec.cli import add_spec_arguments

    add_spec_arguments(p)

    p = sub.add_parser(
        "bench", help="simulator throughput benchmarks and regression gate"
    )
    p.add_argument(
        "--out", metavar="REPORT.json",
        help="write the JSON report here (default: print to stdout only)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="reduced workload for CI smoke runs (same rate metrics)",
    )
    p.add_argument(
        "--repeats", type=int, default=None,
        help="runs per benchmark, best-of reported (default: 5, or 3 with --quick)",
    )
    p.add_argument(
        "--check", metavar="BASELINE.json",
        help="compare against a baseline report; exit 1 on regression",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional slowdown vs the baseline (default 0.30)",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="run only the shard-scaling benchmark at 1..K shards and "
        "print the partition's cut-cost report",
    )
    p.add_argument(
        "--record", metavar="HISTORY.json", nargs="?",
        const="benchmarks/BENCH_history.json",
        help="append {git_sha, date, metrics} to a bench history file "
        "(default benchmarks/BENCH_history.json)",
    )
    p.add_argument(
        "--label", default="", metavar="TEXT",
        help="free-form label stored with the --record history row",
    )

    return parser


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_info(args) -> int:
    import repro

    print(f"raincore-repro {repro.__version__}")
    print(__doc__.split("\n\n")[0])
    print(
        "\nExperiments (pytest benchmarks/bench_<id>_*.py --benchmark-only -s):"
    )
    experiments = [
        ("e1", "CPU task-switching: L vs M*N vs 6*M*N (paper §4.1)"),
        ("e2", "network overhead: (N-1)^2 packets vs token piggybacking"),
        ("e3", "Figure 3: Rainwall throughput and scaling"),
        ("e4", "the 2-second fail-over claim (§3.2)"),
        ("e5", "multicast latency vs cluster size"),
        ("e6", "agreed vs safe ordering cost (§2.6)"),
        ("e7", "redundant-link resilience (§2.1)"),
        ("e8", "911 token regeneration (§2.3)"),
        ("e9", "hierarchical scalability extension (§5)"),
        ("e10", "failure-detection aggressiveness ablation (§2.2)"),
        ("e11", "token-rate dial ablation (§2.2)"),
        ("e12", "Fig. 3 scaling under heavy-tailed workloads"),
        ("e13", "split-brain merge convergence (§2.4)"),
    ]
    for eid, desc in experiments:
        print(f"  {eid:<4} {desc}")
    print("\nSee DESIGN.md and EXPERIMENTS.md for details.")
    return 0


def cmd_quickstart(args) -> int:
    from repro.cluster.harness import RaincoreCluster

    ids = [chr(ord("A") + i) for i in range(args.nodes)]
    cluster = RaincoreCluster(ids, seed=args.seed)
    cluster.start_all()
    print(f"group formed: {'-'.join(cluster.node(ids[0]).members)}")
    cluster.node(ids[0]).multicast(b"hello")
    cluster.run(1.0)
    delivered = sum(
        1 for nid in ids if cluster.listener(nid).deliveries
    )
    print(f"multicast delivered at {delivered}/{len(ids)} nodes")
    victim = ids[-1]
    cluster.faults.crash_node(victim)
    cluster.run_until_converged(5.0, expected=set(ids) - {victim})
    print(f"{victim} crashed; membership now {cluster.node(ids[0]).members}")
    cluster.faults.recover_node(victim)
    ok = cluster.run_until_converged(8.0, expected=set(ids))
    print(f"{victim} rejoined via 911: {cluster.node(ids[0]).members}")
    print(
        f"task switches/node: {cluster.stats.per_node('task_switches')}"
    )
    return 0 if ok else 1


def cmd_trace(args) -> int:
    from repro.cluster.harness import RaincoreCluster
    from repro.metrics.trace import TraceRecorder

    ids = [chr(ord("A") + i) for i in range(args.nodes)]
    cluster = RaincoreCluster(ids, seed=args.seed)
    trace = TraceRecorder(cluster)
    cluster.start_all()
    cluster.node(ids[0]).multicast(b"traced")
    cluster.run(args.duration)
    kinds = set(args.kinds.split(","))
    if args.quiet:
        return 0
    if args.json:
        from repro.metrics.trace import events_to_json

        print(events_to_json(trace.filter(kinds=kinds)))
    elif args.swimlanes:
        from repro.metrics.trace import render_swimlanes

        print(render_swimlanes(trace.filter(kinds=kinds), ids, limit=args.limit))
    else:
        print(trace.render(kinds=kinds, limit=args.limit))
    return 0


def _cli_error(message: str) -> int:
    """Report a usage/load failure on stderr; exit code 2 (not a diff/run
    verdict, which use 0/1)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_obs(args) -> int:
    quiet = getattr(args, "quiet", False)
    if args.obs_command == "render":
        from repro.obs import bundle_events, load_bundle, render_bundle, render_chain

        try:
            bundle = load_bundle(args.bundle)
        except ValueError as exc:
            return _cli_error(str(exc))
        if args.span:
            origin, _, msg_no = args.span.partition("#")
            if not msg_no.isdigit():
                return _cli_error(
                    f"--span takes ORIGIN#N (a span id like n01#2), got {args.span!r}"
                )
            text = render_chain(bundle_events(bundle), origin, int(msg_no))
            if not quiet:
                print(text)
            return 0
        kinds = set(args.kinds.split(",")) if args.kinds else None
        text = render_bundle(
            bundle,
            swimlanes=args.swimlanes,
            kinds=kinds,
            node=args.node,
            limit=args.limit,
        )
        if not quiet:
            print(text)
        return 0

    if args.obs_command == "timeline":
        import json as _json

        from repro.obs import load_events, reconstruct_spans

        if args.events:
            try:
                events = load_events(args.events)
            except ValueError as exc:
                return _cli_error(str(exc))
        else:
            from repro.obs.scenario import run_quickstart

            events = run_quickstart(
                nodes=args.nodes,
                seed=args.seed,
                duration=args.duration,
                crash=not args.no_crash,
            ).events
        timeline = reconstruct_spans(events)
        if args.out:
            text = "\n".join(
                _json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in timeline.to_records()
            )
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                return _cli_error(f"cannot write {args.out}: {exc}")
            if not quiet:
                print(f"{len(timeline.spans)} span records written to {args.out}")
        if not quiet:
            print(timeline.render(limit=args.limit, kind=args.kind))
        if args.check:
            bounds = (
                {"episode.911.detect": args.detection_bound}
                if args.detection_bound is not None
                else None
            )
            breaches = timeline.check(bounds)
            for breach in breaches:
                print(f"BREACH {breach}")
            if not quiet:
                print(
                    f"bounds check: {len(breaches)} breach(es) over "
                    f"{len(timeline.of_kind('episode.911'))} 911 episode(s)"
                )
            return 1 if breaches else 0
        return 0

    if args.obs_command == "diff":
        from repro.obs import first_divergence, load_events, render_divergence

        try:
            left = load_events(args.left)
            right = load_events(args.right)
        except ValueError as exc:
            return _cli_error(str(exc))
        divergence = first_divergence(left, right)
        report = render_divergence(
            left,
            right,
            divergence,
            context=args.context,
            left_label=args.left,
            right_label=args.right,
        )
        if not quiet:
            print(report)
        elif divergence is not None:
            print(divergence.describe())
        return 0 if divergence is None else 1

    run = None
    bundle: dict | None = None
    if args.obs_command == "summary" and args.file:
        from repro.obs import (
            StreamAggregator,
            bundle_events,
            event_from_record,
            load_bundle,
            load_events,
        )

        try:
            bundle = load_bundle(args.file)
        except ValueError:
            bundle = None
        if bundle is not None:
            if quiet:
                return 0
            print(
                f"bundle {args.file}: {bundle['schema']}  "
                f"reason={bundle['reason']}  at={bundle['at']:.3f}s"
            )
            if bundle.get("detail"):
                print(f"  detail: {bundle['detail']}")
            print(f"  nodes: {', '.join(bundle['nodes'])}")
            events = bundle_events(bundle)
        else:
            try:
                records = load_events(args.file)
            except ValueError as exc:
                return _cli_error(str(exc))
            if quiet:
                return 0
            ats = [float(r["at"]) for r in records]
            print(
                f"capture {args.file}: {len(records)} events over "
                f"{max(ats) - min(ats):.3f}s"
            )
            events = [event_from_record(r) for r in records]
        aggregator = StreamAggregator()
        aggregator.observe_all(events)
    else:
        from repro.obs.scenario import run_quickstart

        run = run_quickstart(
            nodes=args.nodes,
            seed=args.seed,
            duration=args.duration,
            crash=not args.no_crash,
        )
        events = run.events
        aggregator = run.aggregator
    if args.obs_command == "export":
        from repro.obs import events_to_jsonl, rollup_json

        text = (
            rollup_json(aggregator.to_dict())
            if args.metrics
            else events_to_jsonl(events)
        )
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                return _cli_error(f"cannot write {args.out}: {exc}")
            if not quiet:
                print(
                    f"{'metrics' if args.metrics else 'events'} "
                    f"written to {args.out}"
                )
        else:
            print(text)
        return 0

    # summary: one rollup, whichever source fed it
    if quiet:
        return 0
    if run is not None:
        print(
            f"quickstart scenario: nodes={args.nodes} seed={args.seed} "
            f"duration={args.duration:g} (virtual {run.cluster.loop.now:.3f}s)"
        )
        print(f"probe events: {run.bus.events_emitted}")
    rollup = aggregator.to_dict()
    print(
        "by node: "
        + "  ".join(f"{n}={d['events']}" for n, d in rollup["per_node"].items())
    )
    print("by kind:")
    for kind, count in sorted(
        rollup["by_kind"].items(), key=lambda kv: (-kv[1], kv[0])
    ):
        print(f"  {kind:<20} {count}")
    if run is not None:
        print("token inter-arrival (per node):")
        for node, d in rollup["per_node"].items():
            gap = d["token_gap"]
            if gap["count"]:
                print(
                    f"  {node}: n={gap['count']} "
                    f"mean={gap['total'] / gap['count'] * 1e3:.2f}ms "
                    f"max={gap['max'] * 1e3:.2f}ms"
                )
    if bundle is not None and bundle.get("alerts"):
        from repro.obs import render_alerts

        print(render_alerts(bundle["alerts"]))
    return 0


def cmd_watch(args) -> int:
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig
    from repro.obs import ContractMonitor, paper_contract_rules, render_alerts

    ids = [f"n{i:02d}" for i in range(args.nodes)]
    config = RaincoreConfig.tuned(ring_size=args.nodes)
    cluster = RaincoreCluster(
        ids, seed=args.seed, segments=args.segments, config=config
    )
    bus = cluster.enable_probes()
    rules = paper_contract_rules(
        config,
        args.nodes,
        segments=args.segments,
        detection_bound=args.detection_bound,
    )
    monitor = ContractMonitor(bus, rules)
    cluster.start_all()
    monitor.start()
    if not args.quiet:
        print(
            f"watching {args.nodes} nodes (seed={args.seed}, "
            f"segments={args.segments}) under {len(rules)} contract rules "
            f"for {args.seconds:g} virtual seconds"
        )
    if args.spike_at is not None:
        cluster.loop.call_later(
            args.spike_at,
            cluster.faults.set_delay_spikes,
            args.spike_prob,
            args.spike_extra,
        )
        if not args.quiet:
            print(
                f"will inject delay spikes at t+{args.spike_at:g}s "
                f"(prob={args.spike_prob:g}, extra={args.spike_extra:g}s)"
            )
    if args.blackout_at is not None:

        def blackout() -> None:
            # Default: silence the acks for some live token-forward edge —
            # the receiver (src of the acks) is the ring successor of its
            # forwarder (dst), resolved at injection time since ring order
            # is seed-dependent.
            src, dst = args.blackout_src, args.blackout_dst
            if src is None or dst is None:
                ring = cluster.node(ids[0]).members
                if len(ring) < 2:
                    ring = tuple(ids)
                dst = dst if dst is not None else ring[0]
                if src is None:
                    src = ring[(ring.index(dst) + 1) % len(ring)]
            print(
                f"injecting ack blackout {src} -> {dst} "
                f"for {args.blackout_duration:g}s"
            )
            cluster.faults.ack_blackout(src, dst, args.blackout_duration)

        cluster.loop.call_later(args.blackout_at, blackout)
        if not args.quiet:
            print(f"will inject an ack blackout at t+{args.blackout_at:g}s")

    def report() -> None:
        for alert in monitor.fresh_alerts():
            print("ALERT " + alert.describe())
        if not args.quiet:
            print(monitor.status_line())
        cluster.loop.call_later(args.report_every, report)

    cluster.loop.call_later(args.report_every, report)
    cluster.run(args.seconds)
    monitor.evaluate()
    monitor.stop()
    for alert in monitor.fresh_alerts():
        print("ALERT " + alert.describe())
    print(render_alerts(monitor.alerts))
    if args.expect_alerts and not monitor.alerts:
        print("expected at least one contract alert; none fired")
        return 1
    if args.fail_on_alerts and monitor.alerts:
        return 1
    return 0


def cmd_prof(args) -> int:
    import json as _json

    if args.shards is not None:
        from repro import perf
        from repro.obs.prof import render_epoch_stats
        from repro.parallel import ParallelSimulator

        if args.shards < 1:
            return _cli_error(f"--shards must be >= 1, got {args.shards}")
        sim = ParallelSimulator("multi_ring", seed=args.seed, params=perf.SCALING_WORKLOAD)
        mode = "serial" if args.shards == 1 else "process"
        result = sim.run(
            args.seconds,
            shards=args.shards,
            mode=mode,
            profile=True,
            aggregate=args.aggregate,
        )
        if args.json:
            print(_json.dumps(result.profiles, indent=2, sort_keys=True))
        elif not args.quiet:
            print(
                f"sharded profile: shards={args.shards} mode={mode} "
                f"events={result.events} epochs={result.epochs}"
            )
            print(render_epoch_stats(result.profiles))
        if args.aggregate and not args.quiet:
            from repro.obs import render_rollup

            print(render_rollup(result.rollup))
        return 0

    from repro.chaos import ChaosEngine, ChaosParams, Schedule
    from repro.obs.prof import Profiler

    schedule = Schedule.generate(
        ChaosParams(
            nodes=args.nodes,
            seconds=args.seconds,
            seed=args.seed,
            segments=args.segments,
            intensity=args.intensity,
        )
    )
    profiler = Profiler(timeline_limit=args.timeline_limit, label="chaos")
    aggregator = None

    def instrument(cluster, bus) -> None:
        nonlocal aggregator
        profiler.attach(cluster.loop).attach_bus(bus)
        if args.aggregate:
            from repro.obs import StreamAggregator

            aggregator = StreamAggregator().attach(bus)

    if not args.quiet:
        print(
            f"profiling chaos workload: nodes={args.nodes} "
            f"seconds={args.seconds:g} seed={args.seed} "
            f"ops={len(schedule.ops)}"
        )
    result = ChaosEngine(schedule, instrument=instrument).run()
    if args.json:
        print(_json.dumps(profiler.to_dict(), indent=2, sort_keys=True))
    elif not args.quiet:
        print(profiler.render_table(top=args.top))
    if aggregator is not None and not args.quiet:
        from repro.obs import render_rollup

        print(render_rollup(aggregator.to_dict()))
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(profiler.trace_json() + "\n")
        except OSError as exc:
            return _cli_error(f"cannot write {args.trace}: {exc}")
        if not args.quiet:
            print(f"Chrome trace written to {args.trace}")
    if not result.ok and not args.quiet:
        print(f"note: chaos run itself failed [{result.failure}] {result.detail}")
    return 0


def cmd_scaling(args) -> int:
    from repro.apps.rainwall import RainwallCluster, RainwallConfig

    print(f"{'nodes':>5} | {'Mbit/s':>8} | {'scaling':>7} | {'max CPU %':>9}")
    base = None
    for n in args.nodes:
        cfg = RainwallConfig(
            vips=[f"10.1.0.{i}" for i in range(1, n + 1)], arrival_rate=500.0
        )
        rw = RainwallCluster([f"g{i}" for i in range(n)], seed=args.seed, config=cfg)
        rw.start()
        rw.run(6.0)
        tp = rw.throughput_mbps(since=rw.loop.now - 4.0)
        cpu = max(rw.rainwall_cpu_percent(6.0).values())
        base = base if base is not None else tp
        print(f"{n:>5} | {tp:>8.1f} | {tp / base:>6.2f}x | {cpu:>8.2f}%")
    print("paper: 95 / 187 / 357 Mbit/s (1.97x, 3.76x), CPU < 1%")
    return 0


def cmd_failover(args) -> int:
    from repro.apps.rainwall import RainwallCluster, RainwallConfig

    rw = RainwallCluster(
        ["g0", "g1"], seed=args.seed, config=RainwallConfig(arrival_rate=300.0)
    )
    rw.start()
    rw.run(3.0)
    print(f"steady state: {rw.throughput_mbps(since=1.0):.1f} Mbit/s")
    rw.unplug_gateway("g1")
    rw.run(6.0)
    stalls = [f.total_stall for f in rw.engine.flows.values()]
    lost = sum(
        1 for f in rw.engine.flows.values() if not f.done and f.gateway is None
    )
    print(f"g1 unplugged: {rw.raincore.node('g1').shutdown_reason}")
    print(f"worst connection hiccup: {max(stalls):.3f}s (paper budget: 2s)")
    print(f"connections lost: {lost}")
    print(f"resumed at {rw.throughput_mbps(since=rw.loop.now - 2.0):.1f} Mbit/s")
    return 0 if max(stalls) < 2.0 and lost == 0 else 1


def cmd_merge(args) -> int:
    from repro.cluster.harness import RaincoreCluster

    cluster = RaincoreCluster(list("ABCDEF"), seed=args.seed)
    cluster.start_all()
    print(f"formed: {cluster.node('A').members}")
    cluster.faults.partition(["A", "B"], ["C", "D"], ["E", "F"])
    cluster.run(3.0)
    views = {v for v in cluster.membership_views().values()}
    print(f"split-brain: {len(views)} independent groups: {sorted(views)}")
    cluster.faults.heal_partition()
    ok = cluster.run_until_converged(20.0, expected=set("ABCDEF"))
    print(f"healed and merged: {cluster.node('A').members}")
    return 0 if ok else 1


def _parse_kill_spec(spec: str | None) -> dict[str, float]:
    """Parse ``--kill NODE@T[,NODE@T]`` into a node → seconds map."""
    kills: dict[str, float] = {}
    if not spec:
        return kills
    for part in spec.split(","):
        node, sep, at = part.strip().partition("@")
        if not sep or not node:
            raise ValueError(f"--kill takes NODE@T (e.g. n02@2.0), got {part!r}")
        try:
            kills[node] = float(at)
        except ValueError:
            raise ValueError(f"--kill {part!r}: {at!r} is not a number") from None
    return kills


def _live_verdict(args, result) -> int:
    """``repro top``'s exit code over a LiveRunResult."""
    print(
        f"live cluster: {args.procs} procs, {args.seconds:g}s, "
        f"formed={result.formed}, events={result.events_released}, "
        f"alerts={len(result.alerts)}, killed={result.killed or 'none'}"
    )
    for alert in result.alerts:
        print("  " + alert.describe())
    if result.capture_path:
        print(f"capture: {result.capture_path}")
    if result.postmortem_path:
        print(f"postmortem bundle: {result.postmortem_path}")
    if not result.metrics_text.strip():
        print("/metrics exposition came back empty")
    if args.expect_alerts:
        ok = bool(result.alerts) and result.postmortem_path is not None
        print(f"expected alerts: {'fired' if ok else 'MISSING'}")
        return 0 if ok else 1
    return 0 if result.clean else 1


def cmd_top(args) -> int:
    import asyncio

    from repro.runtime.collector import LiveCluster

    try:
        cluster = LiveCluster(
            args.procs,
            seconds=args.seconds,
            hop_interval=args.hop_interval,
            kill_at=_parse_kill_spec(args.kill),
            capture_path=args.capture,
            postmortem_path=args.postmortem,
            metrics_port=args.metrics_port,
            report_every=args.every,
            on_line=print,
        )
    except ValueError as exc:
        return _cli_error(str(exc))
    return _live_verdict(args, asyncio.run(cluster.run()))


def _run_chaos_schedule(schedule, fail_on_alerts: bool) -> tuple:
    """Run one schedule, print its alerts and verdict, and return
    ``(result, exit code)``: 1 on failure, or on alerts under
    ``--fail-on-alerts``."""
    from repro.chaos import ChaosEngine
    from repro.obs import render_alerts

    result = ChaosEngine(schedule).run()
    if result.alerts:
        print(render_alerts(result.alerts))
    if not result.ok:
        print(f"FAILED [{result.failure}] {result.detail}")
        return result, 1
    print(f"clean ({result.stats['deliveries']} deliveries)")
    if fail_on_alerts and result.alerts:
        print("failing: contract alerts fired (--fail-on-alerts)")
        return result, 1
    return result, 0


def cmd_chaos(args) -> int:
    from repro.chaos import ChaosEngine, Schedule, run_campaign, shrink_schedule

    if args.shards is not None:
        from repro.parallel.campaign import run_sharded_campaign

        if args.shards < 1:
            return _cli_error(f"--shards must be >= 1, got {args.shards}")
        failed = 0
        alerted = 0
        for i in range(args.campaign):
            seed = args.seed + i
            print(f"--- sharded campaign seed={seed} shards={args.shards} ---")
            result = run_sharded_campaign(
                seed, args.shards, seconds=args.seconds, log=print
            )
            alerted += len(result.alerts)
            if result.ok:
                print(
                    f"clean ({result.result.events} events, "
                    f"{result.result.epochs} epochs)"
                )
            else:
                failed += 1
                for alert in result.alerts:
                    print(f"ALERT: {alert}")
        if failed:
            print(f"{failed}/{args.campaign} sharded campaigns alerted")
        if alerted and args.fail_on_alerts:
            print("failing: campaign alerts fired (--fail-on-alerts)")
            return 1
        return 0

    if args.replay:
        try:
            with open(args.replay, encoding="utf-8") as fh:
                schedule = Schedule.from_json(fh.read())
        except OSError as exc:
            return _cli_error(f"cannot read trace {args.replay}: {exc}")
        except ValueError as exc:
            return _cli_error(f"{args.replay} is not a chaos trace: {exc}")
        params = schedule.params
        if args.print_trace:
            print(schedule.to_json(), end="")
        print(
            f"replaying {args.replay}: nodes={params.nodes} "
            f"seconds={params.seconds:g} seed={params.seed} "
            f"ops={len(schedule.ops)}"
        )
        result, code = _run_chaos_schedule(schedule, args.fail_on_alerts)
        if result.ok:
            return code
        if result.bundle is not None:
            import os

            from repro.obs import dump_bundle

            path = dump_bundle(
                result.bundle,
                os.path.join(
                    args.artifacts, f"replay-seed{params.seed}.bundle.json"
                ),
            )
            print(f"diagnostic bundle written to {path}")
            print(f"  inspect with: raincore-repro obs render {path}")
        if not args.no_shrink and len(schedule.ops) > 1:
            print("shrinking ...")
            minimal, tests = shrink_schedule(
                schedule, lambda s: not ChaosEngine(s).run().ok
            )
            print(
                f"shrunk {len(schedule.ops)} -> {len(minimal.ops)} ops "
                f"in {tests} engine runs:"
            )
            for op in minimal.ops:
                print(f"  t={op.at:<10g} {op.kind} {list(op.args)}")
        return 1

    if args.partition:
        from repro.chaos import ChaosParams, FaultOp

        try:
            spec, _, rest = args.partition.partition(":")
            isolated = tuple(n for n in spec.split(",") if n)
            duration_s, _, at_s = rest.partition(":")
            duration = float(duration_s)
            at = float(at_s) if at_s else 2.0
            if not isolated or duration <= 0.0 or at < 0.0:
                raise ValueError("empty node list or non-positive time")
        except ValueError as exc:
            return _cli_error(
                f"bad --partition spec {args.partition!r} "
                f"(want NODES:DURATION[:AT]): {exc}"
            )
        schedule = Schedule(
            params=ChaosParams(
                nodes=args.nodes,
                seconds=args.seconds,
                seed=args.seed,
                segments=args.segments,
                strict=args.strict,
            ),
            ops=[FaultOp(at=at, kind="long_partition", args=(isolated, duration))],
        )
        if args.print_trace:
            print(schedule.to_json(), end="")
        print(
            f"long partition: isolating {','.join(isolated)} for "
            f"{duration:g}s at t={at:g}s (window {args.seconds:g}s)"
        )
        return _run_chaos_schedule(schedule, args.fail_on_alerts)[1]

    if args.print_trace:
        from repro.chaos import ChaosParams

        print(
            Schedule.generate(
                ChaosParams(
                    nodes=args.nodes,
                    seconds=args.seconds,
                    seed=args.seed,
                    segments=args.segments,
                    intensity=args.intensity,
                    strict=args.strict,
                )
            ).to_json(),
            end="",
        )
    campaign = run_campaign(
        args.nodes,
        args.seconds,
        args.seed,
        campaign=args.campaign,
        segments=args.segments,
        intensity=args.intensity,
        strict=args.strict,
        artifacts_dir=args.artifacts,
        shrink=not args.no_shrink,
        log=print,
    )
    campaign.summary_table().print()
    if campaign.artifacts:
        print("artifacts:")
        for path in campaign.artifacts:
            print(f"  {path}")
    alerted = sum(len(r.alerts) for r in campaign.results)
    if alerted:
        print(f"contract alerts across campaign: {alerted}")
        if args.fail_on_alerts:
            print("failing: contract alerts fired (--fail-on-alerts)")
            return 1
    return 0 if campaign.ok else 1


def cmd_hierarchy(args) -> int:
    from repro.hierarchy import HierarchicalCluster

    groups = [
        [f"{chr(ord('a') + g)}{i}" for i in range(args.group_size)]
        for g in range(args.groups)
    ]
    h = HierarchicalCluster(groups, seed=args.seed)
    h.start()
    print(f"{args.groups} sub-rings of {args.group_size}; leaders: {h.current_leaders()}")
    print(f"top ring: {h.top_view()}")
    sender = groups[0][-1]
    h.members[sender].multicast_global("global hello")
    h.run(4.0)
    reach = sum(1 for nid in h.machine_ids if h.global_log[nid])
    print(f"global multicast from {sender} reached {reach}/{len(h.machine_ids)} machines")
    victim = h.current_leaders()[0]
    print(f"crashing leader {victim} ...")
    h.crash_machine(victim)
    ok = h.run_until_formed(20.0)
    print(f"re-formed: leaders {h.current_leaders()}, top ring {h.top_view()}")
    return 0 if ok and reach == len(h.machine_ids) else 1


def cmd_lint(args) -> int:
    from repro.lint.cli import cmd_lint as run_lint

    return run_lint(args)


def cmd_spec(args) -> int:
    from repro.spec.cli import cmd_spec as run_spec

    return run_spec(args)


def cmd_bench(args) -> int:
    import json

    from repro import perf

    if args.shards is not None:
        from repro.parallel import ParallelSimulator

        if args.shards < 1:
            return _cli_error(f"--shards must be >= 1, got {args.shards}")
        counts = tuple(k for k in (1, 2, 4, 8) if k <= args.shards)
        sim = ParallelSimulator("multi_ring", seed=11, params=perf.SCALING_WORKLOAD)
        print(sim.plan().render_report())
        knobs = perf.QUICK if args.quick else perf.FULL
        scaling = perf.bench_shard_scaling(
            knobs["scaling_sim_seconds"], shard_counts=counts
        )
        print(f"cpu_count: {scaling['cpu_count']}  events: {scaling['events']}")
        for shards, row in scaling["curve"].items():
            print(
                f"  shards={shards:>2}: wall={row['wall_seconds']:.3f}s "
                f"speedup={row['speedup']:.2f}x"
            )
        eff = scaling["shard_scaling_efficiency_4x"]
        if eff is not None:
            print(f"  efficiency_4x (speedup / min(4, cpus)): {eff:.2f}")
        if args.out:
            perf.write_report(args.out, {"schema": 1, "shard_scaling": scaling})
            print(f"report written to {args.out}")
        return 0

    report = perf.run_suite(quick=args.quick, repeats=args.repeats)
    for name, value in sorted(report["metrics"].items()):
        print(f"{name:>32}: {value:,}" if isinstance(value, int) else
              f"{name:>32}: {value}")
    if args.out:
        perf.write_report(args.out, report)
        print(f"report written to {args.out}")
    if args.record:
        import subprocess

        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            git_sha = "unknown"
        row = perf.append_history(
            args.record, report, git_sha=git_sha, label=args.label
        )
        print(f"recorded {row['git_sha']} ({row['date']}) in {args.record}")
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            baseline = json.load(fh)
        problems = perf.compare(report, baseline, args.tolerance)
        if problems:
            print(f"PERF REGRESSION vs {args.check}:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"within {args.tolerance:.0%} of baseline {args.check}")
    return 0


_COMMANDS = {
    "info": cmd_info,
    "quickstart": cmd_quickstart,
    "trace": cmd_trace,
    "obs": cmd_obs,
    "prof": cmd_prof,
    "watch": cmd_watch,
    "scaling": cmd_scaling,
    "failover": cmd_failover,
    "merge": cmd_merge,
    "hierarchy": cmd_hierarchy,
    "top": cmd_top,
    "chaos": cmd_chaos,
    "lint": cmd_lint,
    "spec": cmd_spec,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
