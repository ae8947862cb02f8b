#!/usr/bin/env python3
"""Benchmark of the superelliptic certifier: three workloads, checked outputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; no install and no PYTHONPATH are needed.  The run
repeats passes of the workload for about ``--seconds`` seconds.  Each pass
is a fresh interpreter (``worker.py``), so caches start cold as they do
for a command-line user; passes run one after another, one thread each.
Every output is checked outside the timed phase.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over passes).  With ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics;
``trace.overhead_s`` is the traced minus the untraced wall time.  A line
before it gives the machine facts, the raw times and how the latency tail
was taken.

Times are scaled to a fixed reference speed of the host by the speed
probe in ``probe.py``, which samples the speed while each pass runs; the
raw times, less the probe's own share, are in the line before the result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import BUSY, COUNTS, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-sweep", "oracle-queries", "homology-lifts")
PASS_TIMEOUT_S = 150
# The tail is the highest order statistic with ten samples above it; a pass
# of fewer than eleven operations reports its maximum.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
# Per-grid-point totals, from the untraced passes of a traced run: metric
# name -> label of the grid point's operation in workloads.py.
POINT_METRICS = {
    "verify-sweep": {f"cli.verify_all.{p}.s": p for p in ("n2k3", "n3k4", "n4k3")},
    "homology-lifts": {f"theorems.homology.{p}.s": p for p in ("n3k4", "n6k6", "n8k5")},
}


def per_layer_names() -> list[str]:
    names = []
    for name, _, _ in TRACED:
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [f"{name}.busy_s" for name in BUSY]
    names += list(COUNTS)
    names += ["oracle.kernel_runs_per_query", "trace.unattributed_s", "trace.overhead_s"]
    for metrics in POINT_METRICS.values():
        names += list(metrics)
    return names


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_per_query"):
        return "ratio"
    return "count"


def beyond_tail(count: int) -> int:
    return TAIL_BEYOND if count > TAIL_BEYOND else 0


def tail(values: list[float]) -> float:
    return sorted(values)[len(values) - beyond_tail(len(values)) - 1]


def run_pass(workload: str, seed: int, scratch: str, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), scratch]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, scratch: str, trace: bool):
    """Passes until the next would end after ``seconds``; at least one round.

    A round is one untraced pass, followed by one traced pass when tracing.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload, seed, scratch, False))
        if trace:
            traced.append(run_pass(workload, seed, scratch, True))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced


def machine_facts() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            sha = out.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "git_sha": sha,
    }


def end_to_end(passes: list[dict], success_ratio: float) -> dict[str, float]:
    def med(key):
        return statistics.median(p[key] for p in passes)

    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "latency_p50_ms": 1000 * statistics.median(
            statistics.median(s for _, s in p["ops"]) for p in passes
        ),
        "latency_tail_ms": 1000 * statistics.median(
            tail([s for _, s in p["ops"]]) for p in passes
        ),
        "peak_rss_mb": med("peak_rss_mb"),
        "success_ratio": success_ratio,
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = per_layer_names()
    values = {name: 0.0 for name in names}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(p["layers"][name] for p in traced)
    values["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain)
    )
    for name, label in POINT_METRICS.get(workload, {}).items():
        values[name] = statistics.median(dict(p["ops"])[label] for p in plain)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "superelliptic" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        plain, traced = run_passes(
            args.workload, args.seed, args.seconds, scratch, bool(args.trace)
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    ops_per_pass = len(plain[0]["ops"])
    beyond = beyond_tail(ops_per_pass)
    print(json.dumps({
        "machine": machine_facts(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": ops_per_pass,
        "pass_wall_s": [round(p["wall_s"], 4) for p in plain],
        "pass_wall_raw_s": [round(p["wall_raw_s"], 4) for p in plain],
        "pass_setup_s": [round(p["setup_s"], 4) for p in plain],
        "pass_setup_raw_s": [round(p["setup_raw_s"], 4) for p in plain],
        "latency_tail": f"p{100 * (ops_per_pass - beyond) / ops_per_pass:.2f} per pass "
        f"({beyond} of {ops_per_pass} operations beyond), median over passes",
        "failed_ratio": failed / attempted,
    }))
    if args.trace:
        metrics = per_layer(args.workload, plain, traced)
        units = {name: unit(name) for name in metrics}
    else:
        metrics = end_to_end(plain, 1 - failed / attempted)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
