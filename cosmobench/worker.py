"""One workload process: set-up, a closed loop of ops, a check after every op.

    python3 cosmobench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at T [--setup-only]

``run.py`` starts this in a fresh process per run and per set-up sample.
Set-up is everything from process start (``--spawned-at``, a
``time.monotonic`` reading taken just before the spawn) to the first op
being ready: interpreter start, imports and config build. With ``--setup-only``
the process exits right after set-up. Otherwise it runs ops until
``--seconds`` have passed, each between two batches of the reference probe
(``probe.py``), and prints one JSON line with its measurements.

Timed ops call only ``run_simulation``, ``run_sweep`` and
``verify_invariants``; check time is outside the op timer. ``--trace 1``
runs the traced loop of ``tracing.py`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import bootstrap
import checks
import workloads
from probe import ProbeProcess


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    return ap.parse_args(argv)


class Workload:
    """The configs of one seeded workload and the op that runs them."""

    def __init__(self, cf, name: str, seed: int) -> None:
        self.cf = cf
        self.name = name
        self.seed = seed
        self.grid = workloads.grid(name, seed)
        self.points = [cf.RunConfig.from_mapping(m) for m in workloads.point_mappings(name, seed)]
        self.sweep = None
        if self.grid:
            self.axis = workloads.sweep_axis(name)
            self.sweep = cf.SweepConfig.from_mapping(workloads.sweep_mapping(name, seed))

    def run(self):
        if self.name == "verify-battery":
            return self.cf.verify_invariants()
        if self.sweep is not None:
            return self.cf.run_sweep(self.sweep)
        return self.cf.run_simulation(self.points[0])

    def problems(self, output, refs) -> list[str]:
        ref = refs[self.name]
        if self.name == "verify-battery":
            lines, failures = output
            return checks.verify_problems(lines, failures, ref["checks"])
        if self.sweep is not None:
            return checks.sweep_problems(output, self.axis, self.grid, ref)
        return checks.row_problems(output, ref["canonical"])


def environment(cf) -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    pool = getattr(cf.report, "sweep_workers", None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "sweep_pool_width": pool() if callable(pool) else "no pool",
        "pinned": {v: os.environ.get(v) for v in bootstrap.PINNED_THREAD_VARS},
        "COSMOFLUX_THREADS": os.environ.get("COSMOFLUX_THREADS"),
    }


def timed_loop(wl: Workload, refs, seconds: float) -> dict:
    """Closed loop of ops, each timed and then checked, between probe batches."""
    probe = ProbeProcess(bootstrap.pin_threads(dict(os.environ)))
    try:
        return _timed_loop(wl, refs, seconds, probe)
    finally:
        probe.close()


def _timed_loop(wl: Workload, refs, seconds: float, probe: ProbeProcess) -> dict:
    latencies: list[float] = []
    relative: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    before = probe.batch(0.0)
    start = time.perf_counter()
    while True:
        attempted += 1
        t0 = time.perf_counter()
        try:
            output = wl.run()
        except Exception as exc:  # an op that raises counts as failed
            failed += 1
            problems.append(f"op {attempted}: {type(exc).__name__}: {exc}")
            output = None
        latency = time.perf_counter() - t0
        after = probe.batch(latency)
        if output is not None:
            found = wl.problems(output, refs)
            if found:
                failed += 1
                problems.extend(f"op {attempted}: {p}" for p in found[:5])
            else:  # only passed ops are timed, so both sides count the same ops
                latencies.append(latency)
                relative.append(latency / (0.5 * (before + after)))
        before = after
        if time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "latencies_s": latencies,
        "op_latency_p50_s": statistics.median(latencies) if latencies else None,
        "ops_per_s": len(latencies) / sum(latencies) if latencies else None,
        "op_latency_p50_ref": statistics.median(relative) if relative else None,
        "ops_per_ref": len(relative) / sum(relative) if relative else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cf = bootstrap.load_cosmoflux()
    except bootstrap.CheckoutError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = Workload(cf, args.workload, args.seed)
    setup_s = None if args.spawned_at is None else time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    refs = checks.load_refs()
    if args.trace:
        import tracing  # imports numpy, so only after BLAS is pinned

        result = tracing.traced_loop(wl, refs, args.seconds, args.trace_out)
    else:
        result = timed_loop(wl, refs, args.seconds)
    result["worker_setup_s"] = setup_s
    result["environment"] = environment(cf)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
