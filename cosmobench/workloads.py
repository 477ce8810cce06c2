"""The four benchmark workloads and the seeded configs they run.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns. The program only ever sees the mappings built here,
passed through the public ``from_mapping`` constructors.

Seeds draw sweep grid points from fixed candidate lattices inside each
workload's stated range, so every point any seed can produce has a frozen
reference row in ``refs.json`` (see ``freeze.py``).
"""

from __future__ import annotations

import random

WORKLOADS = (
    "point-canonical",
    "sweep-temperature",
    "sweep-sigma-vacuum",
    "verify-battery",
)

# float(numpy.arctanh(0.5)): tanh z = 1/2, the package's reference point.
CANONICAL_Z = 0.5493061443340549

# point-canonical: the reference report every user and test runs. It touches
# every stage once and is bound by the quantum relative entropy (QRE).
CANONICAL = {
    "scenario": "direct-z",
    "z": CANONICAL_Z,
    "omega_in": 1.0,
    "omega_out": 2.0,
    "temperature": 1.0,
    "cutoff": 40,
    "leakage_tolerance": 1e-8,
}

# sweep-temperature: every point shares (z, cutoff), so this is the only
# workload where kernel reuse and the sweep thread pool can show; QRE-heavy.
TEMPERATURE_BASE = {k: v for k, v in CANONICAL.items() if k != "temperature"}
TEMPERATURES = tuple(round(0.25 + 0.05 * k, 2) for k in range(26))  # [0.25, 1.5]
TEMPERATURE_POINTS = 4

# sweep-sigma-vacuum: every point has its own z (0 to 0.35) and the T = 0
# vacuum path skips the fluctuation module, so kernel build, thermo and the
# dense O(N^4) memory dominate; QRE and kernel-reuse work cannot show here.
SIGMA_BASE = {
    "scenario": "cosmology",
    "momentum": 1.0,
    "mass": 1.0,
    "epsilon": 3.0,
    "temperature": 0.0,
    "cutoff": 56,
    "leakage_tolerance": 1e-8,
}
SIGMAS = tuple(10.0 ** (-1.0 + k / 16.0) for k in range(49))  # log lattice, [0.1, 100]
SIGMA_POINTS = 16

# verify-battery: the only workload that runs the spectral oracle (three dense
# 1681^2 operators plus the S^T S check) and the dense battery scans.
ORACLE_ZS = (CANONICAL_Z, 1.0, 1.2)
ORACLE_CUTOFF = 40
ORACLE_TOLERANCE = 1e-2


def grid(workload: str, seed: int) -> list[float]:
    """Sorted sweep grid drawn by ``seed``; empty for the fixed workloads."""
    rng = random.Random(seed)
    if workload == "sweep-temperature":
        return sorted(rng.sample(TEMPERATURES, TEMPERATURE_POINTS))
    if workload == "sweep-sigma-vacuum":
        return sorted(rng.sample(SIGMAS, SIGMA_POINTS))
    return []


def sweep_axis(workload: str) -> str:
    return {"sweep-temperature": "temperature", "sweep-sigma-vacuum": "sigma"}[workload]


def sweep_base(workload: str) -> dict:
    return {"sweep-temperature": TEMPERATURE_BASE, "sweep-sigma-vacuum": SIGMA_BASE}[workload]


def sweep_mapping(workload: str, seed: int) -> dict:
    """SweepConfig mapping: the base point plus an explicit seeded grid."""
    points = grid(workload, seed)
    axis = sweep_axis(workload)
    return {**sweep_base(workload), axis: points[0], "axis": axis, "grid": points}


def point_mappings(workload: str, seed: int) -> list[dict]:
    """RunConfig mappings of the single points an op evaluates."""
    if workload == "verify-battery":
        return []
    if workload == "point-canonical":
        return [dict(CANONICAL)]
    axis = sweep_axis(workload)
    return [{**sweep_base(workload), axis: v} for v in grid(workload, seed)]
