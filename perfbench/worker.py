"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py WORKLOAD SEED SCRATCH_DIR [--trace]

``run.py`` starts one worker per pass, so every pass begins with cold
caches, as a command-line user's process does.  The worker puts the
checkout's ``src`` on the import path itself.

The pass runs the host-speed probe (``probe.py``) from its first line to
the end of the timed phase and reports set-up, timed-phase and
per-operation times scaled to the probe's reference speed, with the raw
set-up and timed-phase times (less the probe's own time) beside them.  A
traced pass times its spans on a clock that excludes the probe's time;
span times are raw, not scaled.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from probe import Probe  # noqa: E402

PROBE = Probe().install()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("scratch")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS  # imports the package: part of set-up

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.scratch)
    setup_end = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(PROBE.clock).install()
    t0 = time.perf_counter()
    ops = workload.run(inputs)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    PROBE.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(inputs, ops)
    for problem in problems:
        if problem:
            print(problem, file=sys.stderr)

    wall_raw_s = t1 - t0 - PROBE.probe_time(t0, t1)
    result = {
        "setup_s": PROBE.scaled(START, setup_end),
        "wall_s": PROBE.scaled(t0, t1),
        "setup_raw_s": setup_end - START - PROBE.probe_time(START, setup_end),
        "wall_raw_s": wall_raw_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [[op.label, PROBE.scaled(op.start, op.end)] for op in ops],
        "failed": sum(1 for p in problems if p),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_raw_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
