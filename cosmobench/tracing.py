"""Traced ops: stage spans timed from outside the program.

During each program call of a traced op, the stage functions that
``report.py`` looks up by name are rebound to wrappers that record a span
around the same public function, so a call's stage spans and its wall time
come from that one call. The wrappers are only bound around calls made on
the benchmark's own thread, never around ``run_sweep``'s pool.

After the call, ``run_simulation``'s stages are replayed one public function
at a time, from ``resolve_channel`` through ``quantum_relative_entropy``, and
the replayed row must render identically to the program's row. The replay
also measures peak memory with ``tracemalloc``, so the timed spans carry no
tracemalloc cost. A stage whose function is gone or no longer accepts the
replay's arguments is reported as missing, and the replay's later stages
are skipped, instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Where report.py looks each stage up when it calls it: (module, attribute,
# span name). report.py imports the kernel and thermo functions into its own
# namespace and reaches fluctuation and fock through their modules.
HOOKS = (
    ("report", "resolve_channel", "spacetime.resolve_channel"),
    ("report", "transition_kernel", "fock.transition_kernel"),
    ("report", "thermal_distribution", "thermo.thermal_distribution"),
    ("report", "inner_friction", "thermo.inner_friction"),
    ("fluctuation", "forward_joint", "fluctuation.joints"),
    ("fluctuation", "reverse_joint", "fluctuation.joints"),
    ("fluctuation", "entropy_distributions", "fluctuation.entropy_distributions"),
    ("fluctuation", "crooks_deviation", "fluctuation.crooks_deviation"),
    ("fluctuation", "mean_entropy_and_kl", "fluctuation.mean_entropy_and_kl"),
    ("fluctuation", "entropy_friction_identity", "fluctuation.entropy_friction_identity"),
    ("fluctuation", "quantum_relative_entropy", "fluctuation.quantum_relative_entropy"),
    ("fock", "squeeze_operator_oracle", "fock.squeeze_operator_oracle"),
)
ORACLE = "fock.squeeze_operator_oracle"
# run_simulation's stages, in its order; the rest of its wall is orchestration.
STAGES = tuple(dict.fromkeys(span for _, _, span in HOOKS if span != ORACLE))
# Stages whose results' array bytes are recorded on their spans.
SIZED = ("fock.transition_kernel", "fluctuation.joints")
MIB = float(2**20)


def array_bytes(obj) -> int:
    """Bytes held in numpy arrays reachable through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


class Tracer:
    """Spans (name, start, end, parent, op id) kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = 0
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def stage(self, name: str, fn):
        """``fn`` recording a span ``name``; a call nested in a stage is counted there."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._open and self._open[-1].get("stage"):
                return fn(*args, **kwargs)
            with self.span(name) as record:
                record["stage"] = True
                result = fn(*args, **kwargs)
                if name in SIZED:
                    record["bytes"] = array_bytes(result)
                return result

        return timed

    def of_op(self, name: str, op: int) -> list[dict]:
        return [s for s in self.spans if s["op"] == op and s["name"] == name]

    def total(self, name: str, op: int) -> float:
        """Seconds spent in spans called ``name`` during op ``op``."""
        return sum(s["end"] - s["start"] for s in self.of_op(name, op))


@contextmanager
def hooked(cf, tracer: Tracer, missing: set):
    """Bind the HOOKS to span-recording wrappers for the length of one call."""
    saved = []
    try:
        for module_name, attr, name in HOOKS:
            module = getattr(cf, module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.add(name)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.stage(name, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class MissingStage(Exception):
    """A stage's public function is absent or its signature changed."""


def _checked(fn, name: str, args: tuple):
    if fn is None:
        raise MissingStage(name)
    try:
        inspect.signature(fn).bind(*args)
    except TypeError as exc:
        raise MissingStage(name) from exc
    return fn


def peak_mib(fn, *args) -> float:
    """Peak bytes newly allocated during one call, in MiB, from tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()


class Replay:
    """run_simulation's stages through the package's public functions."""

    def __init__(self, cosmoflux) -> None:
        self.cf = cosmoflux
        self.missing: set[str] = set()

    def _stage(self, name: str, fn, *args):
        return _checked(fn, name, args)(*args)

    def point(self, cfg) -> tuple[dict | None, dict]:
        """Replay one configuration; returns (row or None, per-point peaks)."""
        values: dict = {}
        try:
            return self._point(cfg, values), values
        except MissingStage as exc:
            self.missing.add(str(exc))
        except AttributeError as exc:  # a stage result changed shape
            self.missing.add(f"row assembly ({exc})")
        return None, values

    def _point(self, cfg, values: dict) -> dict:
        report = self.cf.report
        fock = self.cf.fock
        thermo = self.cf.thermo
        fl = self.cf.fluctuation
        g = getattr
        channel, flags = self._stage(
            "spacetime.resolve_channel", g(report, "resolve_channel", None), cfg
        )
        spec = fock.TruncationSpec(cfg.cutoff, cfg.leakage_tolerance)
        build_kernel = g(fock, "transition_kernel", None)
        kernel = self._stage("fock.transition_kernel", build_kernel, channel.z, spec)
        thermal = self._stage(
            "thermo.thermal_distribution",
            g(thermo, "thermal_distribution", None),
            cfg.temperature, channel.omega_in, spec,
        )
        work = self._stage(
            "thermo.inner_friction",
            g(thermo, "inner_friction", None),
            kernel, thermal, channel.omega_in, channel.omega_out,
        )
        values["fock.transition_kernel_peak_mb"] = peak_mib(build_kernel, channel.z, spec)

        if thermal.is_vacuum:
            flags = flags + ["vacuum-path"]
            s_mean = kl = k_quantum = crooks_dev = None
            leakage = work.weighted_leakage
        else:
            fwd = self._stage("fluctuation.joints", g(fl, "forward_joint", None), kernel, thermal)
            rev = self._stage("fluctuation.joints", g(fl, "reverse_joint", None), kernel, thermal)
            entropy_fn = g(fl, "entropy_distributions", None)
            entropy_args = (fwd, rev, channel, cfg.temperature)
            p_e, p_c = self._stage("fluctuation.entropy_distributions", entropy_fn, *entropy_args)
            crooks_fn = g(fl, "crooks_deviation", None)
            crooks = self._stage("fluctuation.crooks_deviation", crooks_fn, p_e, p_c, fwd, rev)
            s_mean, kl = self._stage(
                "fluctuation.mean_entropy_and_kl", g(fl, "mean_entropy_and_kl", None), p_e, p_c
            )
            self._stage(
                "fluctuation.entropy_friction_identity",
                g(fl, "entropy_friction_identity", None),
                work, s_mean,
            )
            k_quantum = self._stage(
                "fluctuation.quantum_relative_entropy",
                g(fl, "quantum_relative_entropy", None),
                thermal, kernel, work.adiabatic_temperature, work,
            )
            crooks_dev = max(crooks.distribution_deviation, crooks.microstate_deviation)
            leakage = work.weighted_leakage + crooks.floored_mass
            values["fluctuation.entropy_distributions_peak_mb"] = peak_mib(entropy_fn, *entropy_args)
            values["fluctuation.crooks_deviation_peak_mb"] = peak_mib(crooks_fn, p_e, p_c, fwd, rev)

        # Row assembly as in run_simulation; it must render identically.
        is_cosmo = cfg.scenario == "cosmology"
        return {
            "scenario": cfg.scenario,
            "k": cfg.momentum if is_cosmo else None,
            "m": cfg.mass if is_cosmo else None,
            "epsilon": cfg.epsilon if is_cosmo else None,
            "sigma": cfg.sigma if is_cosmo else None,
            "T": cfg.temperature,
            "cutoff": cfg.cutoff,
            "z": channel.z,
            "omega_in": channel.omega_in,
            "omega_out": channel.omega_out,
            "mean_work": work.mean_work,
            "adiabatic_work": work.adiabatic_work,
            "inner_friction": work.inner_friction,
            "mean_created": work.mean_created,
            "mean_entropy": s_mean,
            "kl_classical": kl,
            "kl_quantum": k_quantum,
            "crooks_dev": crooks_dev,
            "leakage": leakage,
            "flags": ";".join(["ok"] + flags),
        }


# Per-layer metrics of the traced run, name -> unit. Each is the median over
# the run's traced ops of a per-op value computed in traced_op.
PER_LAYER_UNITS = {
    "spacetime.resolve_channel_ms": "ms",
    "fock.transition_kernel_ms": "ms",
    "fock.transition_kernel_peak_mb": "MiB",
    "fock.kernel_bytes": "bytes",
    "fock.squeeze_operator_oracle_ms": "ms",
    "thermo.thermal_distribution_ms": "ms",
    "thermo.inner_friction_ms": "ms",
    "fluctuation.joints_ms": "ms",
    "fluctuation.joint_bytes": "bytes",
    "fluctuation.entropy_distributions_ms": "ms",
    "fluctuation.entropy_distributions_peak_mb": "MiB",
    "fluctuation.crooks_deviation_ms": "ms",
    "fluctuation.crooks_deviation_peak_mb": "MiB",
    "fluctuation.mean_entropy_and_kl_ms": "ms",
    "fluctuation.quantum_relative_entropy_ms": "ms",
    "fluctuation.qre_share": "ratio",
    "report.orchestration_ms": "ms",
    "report.render_ms": "ms",
    "report.verify_remainder_ms": "ms",
    "report.sweep_vs_points_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}


def traced_op(wl, tracer: Tracer, replay: Replay) -> tuple[object, dict, list[str]]:
    """One op with spans; returns (program output, per-op values, mismatches).

    The op's program call is the one the timed run makes. For a sweep the
    stages are timed in one ``run_simulation`` per grid point, made after
    the untimed ``run_sweep``, because the sweep runs its points on a pool.
    """
    cf = wl.cf
    op = tracer.op
    values: dict = {}
    mismatches: list[str] = []
    sweep_wall = verify_wall = None
    with tracer.span("op") as whole:
        if wl.name == "verify-battery":
            with hooked(cf, tracer, replay.missing), tracer.span("report.verify_invariants") as s:
                output = cf.verify_invariants()
            verify_wall = s["end"] - s["start"]
        else:
            if wl.sweep is not None:
                with tracer.span("report.run_sweep") as s:
                    output = cf.run_sweep(wl.sweep)
                sweep_wall = s["end"] - s["start"]
            rows = []
            for i, cfg in enumerate(wl.points):
                with hooked(cf, tracer, replay.missing), tracer.span("report.run_simulation"):
                    row = cf.run_simulation(cfg)
                rows.append(row)
                with tracer.span("replay"):
                    replayed, peaks = replay.point(cfg)
                for key, v in peaks.items():  # peaks: largest point
                    values[key] = max(values.get(key, v), v)
                rendered = cf.render_json(row, cfg.precision)
                if replayed is not None and cf.render_json(replayed, cfg.precision) != rendered:
                    mismatches.append(f"replayed row differs from run_simulation at point {i}")
                if sweep_wall is not None:
                    swept = {k: v for k, v in output[i].items() if k != "error"}
                    if cf.render_json(swept, cfg.precision) != rendered:
                        mismatches.append(f"run_sweep row {i} differs from run_simulation")
            if sweep_wall is None:
                output = rows[0]
            with tracer.span("report.render"):
                cf.render_json(rows if sweep_wall is not None else rows[0], wl.points[0].precision)

    # Stage spans and the wall they are part of come from the same calls.
    sim_wall = tracer.total("report.run_simulation", op)
    span_wall = verify_wall if verify_wall is not None else sim_wall
    stage_s = {name: tracer.total(name, op) for name in STAGES}
    stages_total = sum(stage_s.values())
    oracle_s = tracer.total(ORACLE, op)
    values.update({f"{name}_ms": 1e3 * t for name, t in stage_s.items()})
    values[f"{ORACLE}_ms"] = 1e3 * oracle_s
    values["fock.kernel_bytes"] = max(
        (s.get("bytes", 0) for s in tracer.of_op("fock.transition_kernel", op)), default=0
    )
    joint_bytes: dict = defaultdict(int)  # forward plus reverse, per calling span
    for s in tracer.of_op("fluctuation.joints", op):
        joint_bytes[s["parent"]] += s.get("bytes", 0)
    values["fluctuation.joint_bytes"] = max(joint_bytes.values(), default=0)
    values["fluctuation.qre_share"] = stage_s["fluctuation.quantum_relative_entropy"] / span_wall
    values["report.orchestration_ms"] = 1e3 * (sim_wall - stages_total) if verify_wall is None else 0.0
    values["report.render_ms"] = 1e3 * tracer.total("report.render", op)
    values["report.verify_remainder_ms"] = (
        1e3 * (verify_wall - stages_total - oracle_s) if verify_wall is not None else 0.0
    )
    values["report.sweep_vs_points_ratio"] = sweep_wall / sim_wall if sweep_wall is not None else 0.0
    call_wall = verify_wall or sweep_wall or sim_wall
    values["bench.trace_overhead_ratio"] = (whole["end"] - whole["start"]) / call_wall
    values["span_coverage"] = stages_total / span_wall
    values["op_wall_s"] = call_wall
    return output, values, mismatches


def traced_loop(wl, refs, seconds: float, out_path: str | None) -> dict:
    tracer = Tracer()
    replay = Replay(wl.cf)
    per_op: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        tracer.op = attempted
        attempted += 1
        try:
            output, values, found = traced_op(wl, tracer, replay)
        except Exception as exc:  # an op that raises counts as failed
            failed += 1
            problems.append(f"op {attempted}: {type(exc).__name__}: {exc}")
        else:
            per_op.append(values)
            found = found + wl.problems(output, refs)
            if found:
                failed += 1
                problems.extend(f"op {attempted}: {p}" for p in found[:5])
        if time.perf_counter() - start >= seconds:
            break

    def median(key: str) -> float:
        vals = [v.get(key, 0.0) for v in per_op]
        return float(np.median(vals)) if vals else 0.0

    metrics = {
        name: {"value": median(name), "unit": unit} for name, unit in PER_LAYER_UNITS.items()
    }
    summary = {
        "ops": len(per_op),
        "span_coverage_p50": median("span_coverage"),
        "op_wall_p50_s": median("op_wall_s"),
        "missing_stages": sorted(replay.missing),
    }
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(json.dumps({
            "workload": wl.name,
            "seed": wl.seed,
            "summary": summary,
            "per_op": per_op,
            "spans": tracer.spans,
        }))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "summary": summary,
    }
