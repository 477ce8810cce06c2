"""Regenerate ``refs.json``, the frozen reference output of every workload.

    python3 cosmobench/freeze.py

Evaluates every candidate point a seed can draw, one ``run_simulation`` call
each, plus the canonical point and the verify battery's check names. Every
frozen row must already pass the seed-independent invariants. Run it only
when the program's reports are meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import bootstrap
import checks
import workloads


def frozen_row(cf, mapping: dict) -> dict:
    cfg = cf.RunConfig.from_mapping(mapping)
    row = cf.run_simulation(cfg)
    problems = checks.invariant_problems(row)
    if problems:
        raise SystemExit(f"refusing to freeze {mapping}: {problems}")
    return row


def main() -> int:
    cf = bootstrap.load_cosmoflux()
    refs = {
        "point-canonical": {"canonical": frozen_row(cf, workloads.CANONICAL)},
        "sweep-temperature": {
            checks.ref_key(t): frozen_row(cf, {**workloads.TEMPERATURE_BASE, "temperature": t})
            for t in workloads.TEMPERATURES
        },
        "sweep-sigma-vacuum": {
            checks.ref_key(s): frozen_row(cf, {**workloads.SIGMA_BASE, "sigma": s})
            for s in workloads.SIGMAS
        },
    }
    lines, failures = cf.verify_invariants()
    if failures:
        raise SystemExit(f"refusing to freeze a battery with {failures} failure(s)")
    refs["verify-battery"] = {
        "checks": [ln.split()[1] for ln in lines if ln.startswith("  PASS")],
    }
    checks.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
