"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload mcast_steady --seeds 1-10 --seconds 10

Runs ``run.py`` once per seed (untraced) and prints, for every
end-to-end metric, the median and the inter-quartile distance as a share
of the median (quartiles from ``statistics.quantiles(values, n=4)``),
next to the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import median, quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(
            f"seed {seed:>3} {time.monotonic() - t0:6.1f}s correct={result['correct']} "
            + " ".join(f"{k}={v:.5g}" for k, v in row.items()),
            flush=True,
        )
    print(f"{'metric':<24} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        spread = quartile_spread(vals)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<24} {median(vals):>12.6g} {spread:>8.4f} {bound!s:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
