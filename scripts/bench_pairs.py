"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_name.json \\
        [--change REV] [--workload W ...] [--pairs 10] [--seed-start 1] \\
        [--seconds S] [--note TEXT]

The parent revision is exported with ``git archive`` into a temporary
directory; the change is this checkout's working tree, or ``--change REV``
exported the same way. Each pair runs ``cosmobench/run.py`` once on each
side with the same seed, the parent first in pairs 1, 3, 5, ... and the
change first in pairs 2, 4, 6, ..., so that a drift of the machine falls
on both sides alike. Seeds run from ``--seed-start`` up, one per pair;
the run length defaults to ``run_seconds`` of BENCHMARK.json.

For every workload and every end-to-end metric of BENCHMARK.json the
output holds each side's runs, median and quartiles, the change's wins
(pairs in which it is strictly better, in the metric's better direction)
and the relative median change in that direction, and per workload the
ops each side attempted and failed. Progress goes to stderr; a run that
fails raises RuntimeError with the last lines of its stderr. Standard
library only; nothing under ``cosmobench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# stderr lines of a failed run kept in its RuntimeError
STDERR_TAIL_LINES = 20


def export(revision: str, into: Path) -> Path:
    """The files of revision, as git archive writes them, under into."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One cosmobench/run.py result line from checkout."""
    cmd = [
        sys.executable, "cosmobench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL_LINES:])
        raise RuntimeError(
            f"{' '.join(cmd)} in {checkout} exited {proc.returncode}; "
            f"the last lines of its stderr:\n{tail}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sig(value: float) -> float:
    """value to 5 significant digits, enough to rank any pair of runs."""
    return float(f"{value:.5g}")


def summary(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles and wins of one metric over the pairs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0

    def quartiles(runs):
        if len(runs) < 2:
            return [sig(runs[0])] * 2
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return [sig(q1), sig(q3)]

    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent_median": sig(p_med),
        "change_median": sig(c_med),
        "parent_runs": [sig(v) for v in parent],
        "change_runs": [sig(v) for v in change],
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "median_change_in_better_direction": round(sign * (c_med - p_med) / p_med, 4),
        "bound": metric["bound"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", help="git revision of the change side (default: the working tree)")
    ap.add_argument("--out", required=True, help="where to write the BENCH json")
    ap.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--note", default="", help="what the change is, for the 'what' line")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    workloads = args.workload or names
    seeds = range(args.seed_start, args.seed_start + args.pairs)
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        sides = {"parent": export(args.parent, tmp / "parent")}
        sides["change"] = export(args.change, tmp / "change") if args.change else ROOT
        result = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, seed, args.seconds))
                    metrics = runs[side][-1]["metrics"]
                    print(
                        f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                        + ", ".join(f"{k} {v['value']:.4g}" for k, v in metrics.items()),
                        file=sys.stderr, flush=True,
                    )
            entry = {"pairs": args.pairs}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                entry[name] = summary(
                    metric,
                    [r["metrics"][name]["value"] for r in runs["parent"]],
                    [r["metrics"][name]["value"] for r in runs["change"]],
                )
            entry["ops"] = {
                side: {key: sum(r[key] for r in runs[side]) for key in ("attempted", "failed")}
                for side in runs
            }
            result[workload] = entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    change = args.change or "the working tree"
    report = {
        "what": (
            f"cosmobench/run.py end-to-end metrics, parent {args.parent} vs {change}"
            + (f" ({args.note})" if args.note else "")
            + ", paired runs in alternating order"
        ),
        "command": (
            f"python3 cosmobench/run.py --workload W --seed S --seconds {args.seconds:g}, "
            f"seeds {seeds.start}..{seeds.stop - 1}, the same seed for both sides of a pair; "
            "pairs 1, 3, 5, ... run the parent first, pairs 2, 4, 6, ... the change"
        ),
        "machine": f"{platform.system()} {platform.machine()}, Python {platform.python_version()}",
        "workloads": result,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
