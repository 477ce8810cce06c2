"""Per-stage memory, page faults per op and the peak of a large run.

    python3 scripts/stage_memory.py

Prints one JSON object with three parts:

- ``stages``: at N = 40, 56 and 170, each stage's ``tracemalloc`` peak on
  its second call, in bytes per kernel entry, beside the work buffers the
  package holds for the thread after it (``held``), the per-cutoff tables
  (``tables``) and the kernel's total table (``total_table``). The stages
  are the kernel build (``transition_kernel``, which also forms the total
  table; its peak includes the 8 bytes per entry of the amplitudes and
  the table it returns), the two contractions of the total table at one
  temperature (the work bookkeeping's, ``thermo._work_pass``, and the
  entropy distributions', ``entropy_distributions``) and the quantum
  relative entropy. ``us`` holds the median wall time of 21 calls of the
  build and of each contraction, in microseconds. N = 40 and 56 run the
  canonical z at T = 1; N = 170 runs z = 1 at T = 2, under a leakage
  budget of 1e-2.
- ``faults``: ``ru_minflt`` per call over 100 calls of
  ``run_simulation(canonical_config())`` and of ``verify_invariants()``,
  each after 2 warm-up calls, in one fresh process.
- ``large``: for one ``run_simulation`` at z = 1, T = 2 (budget 1e-2) and
  N = 170 and 250, each in a fresh process, its wall time and the
  process's ``ru_maxrss``.

BLAS is pinned to one thread. Run it from the checkout root; it imports
the package from ``src``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cosmoflux as cf  # noqa: E402
from cosmoflux import fluctuation, fock, thermo  # noqa: E402

Z_CANON = float(np.arctanh(0.5))
CALLS = 100
WARM_UP = 2
FAULTS_RUN = """
import resource, sys
sys.path.insert(0, {src!r})
from cosmoflux.report import canonical_config, run_simulation, verify_invariants
cfg = canonical_config()
for fn in (lambda: run_simulation(cfg), verify_invariants):
    for _ in range({warm_up}):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range({calls}):
        fn()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / {calls})
"""
LARGE_RUN = """
import resource, sys, time
sys.path.insert(0, {src!r})
from cosmoflux.report import canonical_config, run_simulation
cfg = canonical_config().replace(z=1.0, temperature=2.0, cutoff={cutoff}, leakage_tolerance=1e-2)
start = time.perf_counter()
try:
    run_simulation(cfg)
    outcome = "ok"
except Exception as exc:
    outcome = type(exc).__name__
wall = time.perf_counter() - start
print(wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, outcome)
"""


def second_call_peak(fn, *args):
    """fn(*args) once, then its result and tracemalloc peak on a second call."""
    fn(*args)
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def median_us(fn, *args, calls: int = 21) -> float:
    """Median wall time of calls calls of fn(*args), in microseconds."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e6, 1)


def held_bytes() -> int:
    """Bytes of the work buffers the package holds for this thread (0 where
    the package holds none)."""
    arrays = getattr(getattr(fock, "_BUFFERS", None), "arrays", {})
    return sum(a.nbytes for a in arrays.values())


def table_bytes(cutoff: int) -> int:
    """Bytes of the per-cutoff tables the kernel build and the passes read."""
    tables = [fock.sector_index(cutoff), fock._recurrence_table(cutoff)]
    return fock.cell_changes(cutoff).nbytes + sum(
        value.nbytes
        for table in tables
        for value in (table._asdict() if hasattr(table, "_asdict") else vars(table)).values()
        if isinstance(value, np.ndarray)
    )


def stages(cutoff: int, z: float, temperature: float, tolerance: float) -> dict:
    spec = cf.TruncationSpec(cutoff, tolerance)
    entries = sum(n * n for n in range(cutoff + 1, 0, -1))
    kernel, build = second_call_peak(cf.transition_kernel, z, spec)
    thermal = cf.thermal_distribution(temperature, 1.0, spec)
    _, work = second_call_peak(thermo._work_pass, kernel, thermal)
    _, entropy = second_call_peak(fluctuation.entropy_distributions, kernel, thermal)
    t_ad = 2.0 * temperature
    _, qre = second_call_peak(fluctuation.quantum_relative_entropy, thermal, kernel, t_ad)

    def per_entry(value: int) -> float:
        return round(value / entries, 2)

    return {
        "entries": entries,
        "kernel_build": per_entry(build),
        "work_contraction": per_entry(work),
        "entropy_contraction": per_entry(entropy),
        "qre": per_entry(qre),
        "amplitudes": per_entry(kernel.flat_amplitudes.nbytes),
        "total_table": per_entry(kernel.total_table.nbytes),
        "us": {
            "kernel_build": median_us(cf.transition_kernel, z, spec),
            "work_contraction": median_us(thermo._work_pass, kernel, thermal),
            "entropy_contraction": median_us(fluctuation.entropy_distributions, kernel, thermal),
        },
        "held": per_entry(held_bytes()),
        "tables": per_entry(table_bytes(cutoff)),
    }


def faults_per_call() -> dict:
    """ru_minflt per call of the canonical run and of the battery, measured
    in a fresh process: the heap's state after the large stages of this
    one would hide the faults of a process that runs only these."""
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_RUN.format(src=str(SRC), warm_up=WARM_UP, calls=CALLS)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    simulate, verify = map(float, proc.stdout.split())
    return {"run_simulation": simulate, "verify_invariants": verify}


def large_run(cutoff: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", LARGE_RUN.format(src=str(SRC), cutoff=cutoff)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    wall, maxrss_kib, outcome = proc.stdout.split()
    return {
        "wall_s": round(float(wall), 3),
        "ru_maxrss_mib": round(int(maxrss_kib) / 1024, 1),
        "outcome": outcome,
    }


def main() -> int:
    points = [(40, Z_CANON, 1.0, 1e-8), (56, Z_CANON, 1.0, 1e-8), (170, 1.0, 2.0, 1e-2)]
    report = {"stages": {str(p[0]): stages(*p) for p in points}}
    report["faults"] = faults_per_call()
    report["large"] = {str(n): large_run(n) for n in (170, 250)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
