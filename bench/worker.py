"""One workload process: set up, say ``ready``, run the closed loop,
check the outputs and print one JSON result line.

Started by ``run.py``; its standard output is a protocol of exactly two
lines (``ready``, then the result), because every operation's own output
is captured in memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
from workloads import WHY, WORKLOADS  # noqa: E402


def closed_loop(ops, seconds):
    """One caller runs whole passes over ``ops``, each operation after the
    previous one returns, until ``seconds`` have passed.  Returns every
    output (by pass, then op), the per-op latencies (by op, then pass), the
    wall time of each pass and the peak RSS in MB after the first pass."""
    outputs, walls = [], []
    rss_mb = 0.0
    latencies = [[] for _ in ops]
    clock = time.perf_counter
    began = clock()
    while clock() - began < seconds:
        pass_began = clock()
        for k, op in enumerate(ops):
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raises has failed
                out = exc
            latencies[k].append(clock() - t0)
            outputs.append(out)
        walls.append(clock() - pass_began)
        if len(walls) == 1:
            # later passes repeat the same ops; their kept outputs would
            # make the peak depend on how many passes the host allowed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outputs, latencies, walls, rss_mb


def _timed(run) -> float:
    t0 = time.perf_counter()
    try:
        run()
    except Exception:
        pass  # judged on the closed loop's outputs
    return time.perf_counter() - t0


def traced_pass(ops, tracer):
    """Run every op once untraced and once traced, back to back in
    alternating order, so that both see the same host conditions.  Returns
    the summed untraced and traced latencies."""
    untraced = traced = 0.0
    for k, op in enumerate(ops):
        for is_traced in (k % 2 == 0, k % 2 == 1):
            if not is_traced:
                untraced += _timed(op.run)
                continue
            tracer.install()
            try:
                traced += _timed(tracer.root(op.run))
            finally:
                tracer.uninstall()
    return untraced, traced


def judge(workload, ops, outputs):
    """Per-op verdicts: an op fails if any of its runs raised or gave an
    output that does not check out."""
    ok = [True] * len(ops)
    for i, out in enumerate(outputs):
        k = i % len(ops)
        if isinstance(out, Exception):
            ok[k] = False
            continue
        try:
            good = workload.check(ops[k], out)
        except Exception as exc:  # a malformed output fails its operation
            print(f"check of {ops[k].key} raised {exc!r}", file=sys.stderr)
            good = False
        ok[k] = ok[k] and good
    failed_runs = sum(
        1 for i, out in enumerate(outputs) if not ok[i % len(ops)]
    )
    return ok, failed_runs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    # crosscheck dumps mismatching instances under the temp dir: keep them here
    tempfile.tempdir = str(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.scale)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        return measure(args, workload)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload) -> int:
    ops = workload.ops
    outputs, latencies, walls, rss_mb = closed_loop(ops, args.seconds)
    metrics: dict[str, float] = {}
    if args.trace:
        tracer = tracing.Tracer()
        untraced_s, traced_s = traced_pass(ops, tracer)
        metrics = tracing.layer_metrics(tracer, traced_s)
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}.bin")
        metrics["trace.ops_per_s_untraced"] = len(ops) / untraced_s
        metrics["trace.ops_per_s_traced"] = len(ops) / traced_s
        metrics["trace.overhead_frac"] = 1.0 - untraced_s / traced_s

    ok, failed_runs = judge(workload, ops, outputs)
    # each op's latency is its best run: other tenants of a shared host
    # slow single runs by up to half, rarely every run of an op
    best = sorted(min(runs) for runs in latencies)
    p90 = statistics.quantiles(best, n=10)[8] if len(best) > 1 else best[0]
    meta = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "distinct_ops": len(ops),
        "passes": len(walls),
        "pass_wall_s": walls,
        "latency_samples": len(best),
        "samples_beyond_p90": sum(1 for b in best if b > p90),
        "stats": dict(sorted(workload.stats.items())),
    }
    if args.trace:
        metrics["latency_samples"] = len(best)
        metrics["fail_frac"] = failed_runs / len(outputs)
        metrics["cli.crosscheck.skipped"] = workload.stats.get("skipped", 0)
    else:
        metrics = {
            "ops_per_s": sum(ok) / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": rss_mb,
        }
    result = {"attempted": len(outputs), "failed": failed_runs, "metrics": metrics, "meta": meta}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
