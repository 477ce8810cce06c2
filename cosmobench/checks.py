"""Per-op correctness gate: frozen references plus seed-independent invariants.

An op fails when any check here returns a problem. Reference rows come from
``refs.json``; the invariants are recomputed from closed forms written out
here, independent of the package's own helpers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# mean_work through kl_quantum: held to the frozen rows at 1e-9 relative.
PHYSICS_FIELDS = (
    "mean_work",
    "adiabatic_work",
    "inner_friction",
    "mean_created",
    "mean_entropy",
    "kl_classical",
    "kl_quantum",
)
REFERENCE_RTOL = 1e-9
CROOKS_BOUND = 1e-8
KL_IDENTITY_ATOL = 1e-8
QRE_FRICTION_RTOL = 1e-5
CREATED_FLOOR = 1e-6
# Weighted leakage of every candidate point stays below 3e-7; this bound keeps
# the mean_created truncation tolerance (2N + 1) * leakage under 1e-4.
LEAKAGE_BOUND = 1e-6


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def ref_key(value: float) -> str:
    return repr(float(value))


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def created_closed_form(z: float, temperature: float, omega_in: float) -> float:
    """Untruncated pair count 2 sinh^2(z) (<n_a + n_b> + 1) of a thermal input."""
    n_init = 0.0
    if temperature > 0.0:
        x = math.exp(-omega_in / temperature)
        n_init = 2.0 * x / (1.0 - x)
    return 2.0 * math.sinh(z) ** 2 * (n_init + 1.0)


def invariant_problems(row: dict) -> list[str]:
    """Physics identities every report row must satisfy, whatever the seed."""
    problems = []
    if row.get("error") or "error" in str(row.get("flags", "error")).split(";"):
        return [f"row flagged error: {row.get('error') or row.get('flags')}"]
    # The row's leakage adds the Crooks floored mass to the kernel-weighted
    # leakage, so (2N + 1) * leakage is at least the program's own bound.
    closed = created_closed_form(row["z"], row["T"], row["omega_in"])
    gap = abs(row["mean_created"] - closed)
    tol = max(CREATED_FLOOR, (2 * row["cutoff"] + 1) * row["leakage"])
    if gap > tol:
        problems.append(f"mean_created off closed form by {gap:.3e} > {tol:.3e}")
    if row["leakage"] > LEAKAGE_BOUND:
        problems.append(f"leakage {row['leakage']:.3e} > {LEAKAGE_BOUND:.0e}")
    if row["mean_entropy"] is not None:
        gap = abs(row["mean_entropy"] - row["kl_classical"])
        if gap > KL_IDENTITY_ATOL:
            problems.append(f"|<s> - KL| = {gap:.3e} > {KL_IDENTITY_ATOL:.0e}")
    if row["kl_quantum"] is not None:
        t_ad = row["T"] * row["omega_out"] / row["omega_in"]
        gap = abs(t_ad * row["kl_quantum"] - row["inner_friction"])
        if gap > QRE_FRICTION_RTOL * abs(row["inner_friction"]):
            problems.append(f"|T_ad K - W_fric| = {gap:.3e} exceeds 1e-5 relative")
    if row["crooks_dev"] is not None and row["crooks_dev"] > CROOKS_BOUND:
        problems.append(f"crooks_dev {row['crooks_dev']:.3e} > {CROOKS_BOUND:.0e}")
    return problems


def reference_problems(row: dict, ref: dict) -> list[str]:
    problems = [
        f"{name} = {row[name]!r}, frozen {ref[name]!r}"
        for name in PHYSICS_FIELDS
        if not _close(row[name], ref[name], REFERENCE_RTOL)
    ]
    if row["flags"] != ref["flags"]:
        problems.append(f"flags {row['flags']!r}, frozen {ref['flags']!r}")
    return problems


def row_problems(row: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return ["no frozen reference for this point"]
    problems = invariant_problems(row)
    if not problems or not problems[0].startswith("row flagged error"):
        problems += reference_problems(row, ref)
    return problems


def sweep_problems(rows: list[dict], axis: str, points: list[float], refs: dict) -> list[str]:
    """Rows of one sweep op, in grid order, each against its frozen point."""
    if len(rows) != len(points):
        return [f"{len(rows)} rows for {len(points)} grid points"]
    row_axis = "T" if axis == "temperature" else axis
    problems = []
    for row, value in zip(rows, points):
        if row.get(row_axis) != value:
            problems.append(f"row {row_axis} = {row.get(row_axis)!r}, grid {value!r}")
            continue
        for p in row_problems(row, refs.get(ref_key(value))):
            problems.append(f"{axis}={value:g}: {p}")
    return problems


def verify_problems(lines: list[str], failures: int, check_names: list[str]) -> list[str]:
    """0 failures and the frozen check names; residual details may move."""
    problems = []
    if failures != 0:
        problems.append(f"verify reported {failures} failure(s)")
    names = [ln.split()[1] for ln in lines if ln.startswith(("  PASS", "  FAIL"))]
    if names != check_names:
        problems.append(f"verify check names {names} differ from frozen {check_names}")
    return problems
