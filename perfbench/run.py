"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mcast_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

With ``--trace 0`` the run reports the end-to-end metrics: one process
measures the workload, and set-up time is the median over twenty more
fresh processes that only set up.  With ``--trace 1`` it
reports the per-layer metrics of a traced run.  ``--all`` runs every
workload in both modes and prints the reports only.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program under test is
imported from ``src/`` next to this directory; without it the run stops
with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.report import END_TO_END, EXPORTED_LAYER, PER_LAYER  # noqa: E402
from perfbench.workloads import GATED, REFERENCE_S, WORKLOADS  # noqa: E402

#: Fresh processes that only set up, besides the measuring one.
SETUP_PROBES = 20
#: Every run ends within this many seconds of starting.
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and parse its result line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker exceeded {timeout:.0f} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise RunFailed(
            f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"worker printed nothing: {' '.join(args)}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    result = _spawn([*common, "--trace", str(trace)], deadline)
    if trace == 0:
        # Each probe's set-up time is scaled to the reference host speed by
        # the reference loop it timed right after setting up.
        samples = []
        for _ in range(SETUP_PROBES):
            probe = _spawn([*common, "--setup-only"], deadline)
            samples.append(probe["setup_s"] * REFERENCE_S / probe["reference_s"])
        result["metrics"]["setup_s"] = statistics.median(samples)
        result["info"]["setup_samples"] = samples
    return result


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.6g}"


def render(workload: str, seed: int, trace: int, result: dict) -> str:
    spec = WORKLOADS[workload]
    info = result["info"]
    lines = [
        f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}, "
        f"{info['episodes']} episode(s))",
        f"   why: {spec.why}",
    ]
    if workload not in GATED:
        lines.append(
            "   not in BENCHMARK.json: the program fails operations on this "
            "workload (see perfbench/README.md, 'Known defects')"
        )
    if trace == 0:
        samples = info["latency_samples"]
        clock = (
            "virtual clock"
            if info["latency_clock"] == "virtual"
            else f"wall clock, median over {spec.slice:g} s slices"
        )
        notes = {
            "setup_s": f"median of {len(info['setup_samples'])} fresh processes",
            "deliveries_per_s": f"upper quartile of {info['slices']} slices",
            "cpu_us_per_delivery": f"lower quartile of {info['slices']} slices, "
            + (
                "from user-mode instructions; process CPU time "
                f"{info['cpu_time_us_per_delivery']:.4g} us"
                if info["cpu_basis"] == "instructions"
                else "process CPU time"
            ),
            "agreed_latency_p50_ms": f"n={samples}, {clock}",
            "agreed_latency_p99_ms": f"n={samples}, {clock}",
            "peak_rss_mb": "ru_maxrss of the measuring process",
        }
        for name, (unit, better) in END_TO_END.items():
            value = result["metrics"].get(name)
            shown = "missing" if value is None else _fmt(value)
            lines.append(f"   {name:<24} {shown:>14} {unit:<5} ({better} is better; {notes[name]})")
        lines.append(
            f"   {'failed_frac':<24} {_fmt(info['failed_frac']):>14} ratio "
            f"({result['failed']} of {result['attempted']} ops)"
        )
        lines.append(
            f"   paper claim: {info['wakeups_per_node_s']:.4g} wakeups/node/s "
            f"against L = 1/(N*hop) = {info['paper_L']:.4g}"
        )
    else:
        m = result["metrics"]
        for name, unit in PER_LAYER.items():
            lines.append(f"   {name:<30} {_fmt(m[name]):>14} {unit}")
        lines.append(
            f"   first traced episode: layer self times sum to {info['layer_sum_s']:.6f} s, "
            f"traced wall {info['traced_wall_s']:.6f} s; {info['spans']} spans in "
            f"{info['spans_file']}"
        )
        lines.append(
            f"   paper claim: {m['core.wakeups_per_node_s']:.4g} wakeups/node/s "
            f"against L = 1/(N*hop) = {info['paper_L']:.4g}, carrying "
            f"{m['core.msgs_per_hop']:.4g} messages per hop"
        )
    verdict = "correct" if result["correct"] else "NOT correct"
    lines.append(f"   verdict: {verdict}")
    lines.extend(f"     - {p}" for p in result["problems"])
    return "\n".join(lines)


def final_line(result: dict, trace: int) -> str:
    if trace:
        units = {name: PER_LAYER[name] for name in EXPORTED_LAYER}
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, both modes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no program to measure: {os.path.join('src', 'repro')} "
            "is missing next to perfbench/",
            file=sys.stderr,
        )
        return 2
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=False,
        timeout=120,
    )
    if args.all:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_one(workload, args.seed, args.seconds, trace)
                print(render(workload, args.seed, trace, result), flush=True)
                if workload in GATED:
                    ok = ok and result["correct"]
        return 0 if ok else 1
    try:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(render(args.workload, args.seed, args.trace, result))
    print(final_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
