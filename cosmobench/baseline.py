"""One-off baseline answers for the sweep pool and dense-array questions.

    python3 cosmobench/baseline.py > cosmobench/baseline.json

Not a workload. For both sweep workloads at seed 0 it measures
``report.sweep_vs_points_ratio`` (``run_sweep`` wall over the summed
single-point ``run_simulation`` walls of the same grid) with the default
pool and with ``COSMOFLUX_THREADS=1``, as the median of a few repeats. It
also computes the bytes of the dense kernel, the two joints and the
``_lattice_masses`` integer delta matrix at N in {20, 40, 56} from array
sizes.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import bootstrap
import workloads
from worker import environment

REPEATS = 3
CUTOFFS = (20, 40, 56)


def sweep_ratio(cf, name: str) -> float:
    sweep = cf.SweepConfig.from_mapping(workloads.sweep_mapping(name, 0))
    points = [cf.RunConfig.from_mapping(m) for m in workloads.point_mappings(name, 0)]
    ratios = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        cf.run_sweep(sweep)
        swept = time.perf_counter() - t0
        serial = 0.0
        for cfg in points:
            t0 = time.perf_counter()
            cf.run_simulation(cfg)
            serial += time.perf_counter() - t0
        ratios.append(swept / serial)
    return statistics.median(ratios)


def computed_bytes(cf, cutoff: int) -> dict:
    import numpy as np

    from tracing import array_bytes

    spec = cf.TruncationSpec(cutoff, 1e-8)
    kernel = cf.transition_kernel(workloads.CANONICAL_Z, spec)
    thermal = cf.thermal_distribution(1.0, 1.0, spec)
    joints = array_bytes(cf.forward_joint(kernel, thermal)) + array_bytes(
        cf.reverse_joint(kernel, thermal)
    )
    dim = (cutoff + 1) ** 2
    return {
        "kernel_bytes": array_bytes(kernel),
        "joint_bytes": joints,
        "lattice_delta_bytes": dim * dim * np.dtype(np.intp).itemsize,
    }


def main() -> int:
    cf = bootstrap.load_cosmoflux()
    pool = cf.report.sweep_workers()
    out = {
        "environment": environment(cf),
        "sweep_vs_points_ratio": {"kind": f"measured, median of {REPEATS}, seed 0"},
        "computed_bytes": {"kind": "computed from array sizes, not measured"},
    }
    for name in ("sweep-temperature", "sweep-sigma-vacuum"):
        os.environ.pop("COSMOFLUX_THREADS", None)
        default = sweep_ratio(cf, name)
        os.environ["COSMOFLUX_THREADS"] = "1"
        single = sweep_ratio(cf, name)
        out["sweep_vs_points_ratio"][name] = {
            f"default_pool_{pool}": default,
            "COSMOFLUX_THREADS=1": single,
        }
    os.environ.pop("COSMOFLUX_THREADS", None)
    for n in CUTOFFS:
        out["computed_bytes"][f"N={n}"] = computed_bytes(cf, n)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
