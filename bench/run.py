"""Benchmark entry point.

    python3 bench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Runs one workload (``solve``, ``reduce-check`` or ``crosscheck``, see
``workloads.py``) in fresh single-threaded worker processes, one caller in
a closed loop.  With ``--trace 0`` it starts ``SETUPS`` workers in turn:
all but the last only set up, the last also measures.  ``setup_s`` is the
median, over those workers, of the time from process start to the
worker's ``ready`` line (interpreter start, imports, input generation,
certificate checks and instance files).  With ``--trace 1`` one worker
measures the loop untraced, replays the same operations with every
``probecut`` layer function traced, and reports per-layer metrics.

Prints a metadata JSON line, then the result JSON line.  Exits non-zero,
without a result line, when the program is missing or any worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_worker(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return seconds until its ``ready`` line and the
    rest of its output.  Kills it at the deadline."""
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - began
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return ready_s, rest


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["solve", "reduce-check", "crosscheck"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the benchmark's own test")
    args = ap.parse_args()

    if not (ROOT / "src" / "probecut" / "__init__.py").is_file():
        print("error: no probecut sources under src/", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    workers = 1 if args.trace else SETUPS
    setups = []
    try:
        for _ in range(workers - 1):
            setups.append(run_worker(cmd + ["--setup-only"], deadline)[0])
        ready_s, out = run_worker(cmd, deadline)
    except RuntimeError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(ready_s)
    result = json.loads(out.strip().splitlines()[-1])

    meta = result.pop("meta")
    meta.update(
        python=platform.python_version(),
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        src_lines=src_lines(),
        setup_samples_s=setups,
        trace=args.trace,
    )
    values = result["metrics"]
    if args.trace:
        units = metric_units()
    else:
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
