"""One measurement process of the benchmark (spawned by ``run.py``).

Runs a workload in this fresh process and prints one JSON object on its
last stdout line.  ``--t0`` is the ``time.monotonic()`` reading the
parent took just before spawning this process, so set-up time covers
interpreter start and imports as well.

Modes:

* ``--setup-only``: build and form, report set-up time, exit;
* ``--trace 0``: untraced episodes; end-to-end metrics;
* ``--trace 1``: one untraced episode, then traced ones; per-layer
  metrics, with the untraced episode as the tracing-overhead baseline.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _paths() -> None:
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _summarize(spec, episodes) -> None:
    """Reduce the newest traced episode to its per-layer metrics.

    Only the first traced episode keeps its spans (they are written out
    at the end); later ones keep just their metrics, so memory stays flat
    however many episodes fit in the budget.
    """
    from perfbench import report

    ep = episodes[-1]
    if ep.tracer is None:
        return
    ep.layers = report.layer_metrics(spec, ep, episodes[0])
    if sum(e.tracer is not None for e in episodes) > 1:
        ep.tracer = None


def _episode(episodes, *args, **kwargs):
    """Run one more episode, first freeing the previous episodes' garbage.

    A finished cluster is a large cyclic object graph; left to the
    cyclic collector it is traced again and again during the next
    episode's window, which made identical episodes differ by up to 50%.
    """
    from perfbench.workloads import run_episode

    if episodes:
        gc.collect()
    episodes.append(run_episode(*args, **kwargs))
    return episodes[-1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    _paths()
    from perfbench import report
    from perfbench.workloads import WORKLOADS, SetupDone, reference_loop, run_episode

    spec = WORKLOADS[args.workload]
    if args.setup_only:
        try:
            run_episode(args.workload, args.seed, setup_only=True)
        except SetupDone as done:
            setup_s = done.args[0] - args.t0
            reference = statistics.median(reference_loop() for _ in range(5))
            print(json.dumps({"setup_s": setup_s, "reference_s": reference}))
            return 0
        raise RuntimeError("episode finished without reaching set-up")

    episodes: list = []
    run = functools.partial(_episode, episodes, args.workload, args.seed)
    spent = 0.0
    if args.trace:
        # An untraced baseline, then the same episode traced: tracing must
        # not change a single virtual-clock output.
        spent = run().wall
        while len(episodes) < 2 or spent < args.seconds:
            spent += run(traced=True).wall
            _summarize(spec, episodes)
    else:
        # Repeat the episode until the measured windows fill the budget.
        while not episodes or spent < args.seconds:
            spent += run().wall
    setup_s = episodes[0].setup_done - args.t0
    if args.trace:
        result = report.per_layer(spec, episodes, ROOT)
    else:
        result = report.end_to_end(spec, episodes)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
