"""cosmoflux benchmark: one workload, one seed, one JSON result line.

    python3 cosmobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it benchmarks the package
under the checkout's ``src``. Workloads are listed in ``workloads.py`` and
explained in ``README.md``.

With ``--trace 0`` it takes set-up samples from fresh processes, then runs
the workload's closed loop in one more fresh process with BLAS pinned to one
thread, and prints the end-to-end metrics. With ``--trace 1`` it runs the
traced loop instead, prints the per-layer metrics and writes the spans to
``.bench_out/`` at the checkout root. Every op's output is checked; the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Exits 2 without a result when there is no cosmoflux source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap
import workloads
from probe import ProbeProcess

WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = bootstrap.ROOT / ".bench_out"
# Set-up is sampled in this many fresh set-up-only processes per run.
SETUP_SAMPLES = 5
# A typical single-thread probe time on the 2-CPU machine the benchmark was
# tuned on (0.060-0.072 s over its tuning runs). Set-up walls are scaled by
# PROBE_REF_S / (probe time measured around them): seconds at that
# machine's speed, so that the drift of a shared machine (20-30 % between
# runs 20 minutes apart) cancels.
PROBE_REF_S = 0.065
# The whole run, set-up samples included, must end well inside 180 s.
RUN_BUDGET_S = 170.0


def spawn_worker(args, extra: list[str], deadline: float) -> dict:
    """Run one fresh worker process and return its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run budget spent before the workload process started")
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd,
        env=bootstrap.pin_threads(dict(os.environ)),
        stdout=subprocess.PIPE,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(args, deadline: float) -> tuple[list[float], list[float]]:
    """Raw set-up walls of fresh processes, and the same scaled by the probe."""
    probe = ProbeProcess(bootstrap.pin_threads(dict(os.environ)))
    raw, scaled = [], []
    try:
        for _ in range(SETUP_SAMPLES):
            before = probe.batch(0.0)
            wall = spawn_worker(args, ["--setup-only"], deadline)["setup_s"]
            after = probe.batch(0.0)
            raw.append(wall)
            scaled.append(wall * PROBE_REF_S / (0.5 * (before + after)))
    finally:
        probe.close()
    return raw, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (bootstrap.SRC / "cosmoflux" / "__init__.py").is_file():
        print(f"run.py: no cosmoflux source under {bootstrap.SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            trace_out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            result = spawn_worker(args, ["--trace-out", str(trace_out)], deadline)
            metrics = result["metrics"]
        else:
            setup_raw, setup = setup_samples(args, deadline)
            result = spawn_worker(args, [], deadline)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "ops_per_ref": {"value": result["ops_per_ref"], "unit": "1/ref"},
                "op_latency_p50_ref": {"value": result["op_latency_p50_ref"], "unit": "ref"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            }
            result["setup_raw_s"] = setup_raw
            result["setup_scaled_s"] = setup
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    # Everything but the result line goes to stderr.
    detail = {k: v for k, v in result.items() if k not in ("metrics", "latencies_s")}
    detail["op_samples"] = len(result.get("latencies_s", [])) or result.get("summary", {}).get("ops")
    print(json.dumps(detail, indent=1), file=sys.stderr)
    attempted = result["attempted"]
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
