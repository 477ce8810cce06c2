"""Configuration, scenario dispatch, sweeps, invariant battery, reports.

Config files are flat JSON with explicitly named keys; unknown keys are
errors so a typo cannot silently run different physics. Reports serialize
with a fixed field order and a fixed significant-digit rounding, making
repeated runs byte-identical.

A run holds its last kernel and its last Gibbs state (_KernelSlot): the
kernel is reused while (z, spec) repeats, which is the temperature axis of
a sweep, and the Gibbs state while (T, omega_in, spec) repeats, which is
the sigma and epsilon axes. A full kernel carries its total table, from
which each T > 0 point contracts its work and entropy statistics, so a
temperature axis forms that table once; a T = 0 point builds the vacuum
column alone and never forms it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, fields as dataclass_fields, replace as dataclass_replace

import numpy as np

from .errors import ConfigError, VerificationError
from . import fock, spacetime, thermo, fluctuation
from .fock import TruncationSpec, transition_kernel
from .spacetime import (
    BlackHoleParams,
    CosmologyParams,
    SqueezeChannel,
    UnruhParams,
    channel_from_blackhole,
    channel_from_cosmology,
    channel_from_unruh,
)
from .thermo import inner_friction, thermal_distribution

SCENARIOS = ("cosmology", "unruh", "blackhole", "direct-z")
SCENARIO_KEYS = {
    "cosmology": ("momentum", "mass", "epsilon", "sigma"),
    "unruh": ("omega", "acceleration"),
    "blackhole": ("omega", "mass_bh"),
    "direct-z": ("z", "omega_in", "omega_out"),
}
FLOAT_KEYS = {
    "momentum", "mass", "epsilon", "sigma", "omega", "acceleration",
    "mass_bh", "z", "omega_in", "omega_out", "temperature", "leakage_tolerance",
}
INT_KEYS = {"cutoff", "precision"}
SWEEP_AXES = ("momentum", "sigma", "epsilon", "temperature")
SWEEP_ONLY_KEYS = ("axis", "grid", "grid_min", "grid_max", "grid_count", "grid_scale")

REPORT_FIELDS = (
    "scenario", "k", "m", "epsilon", "sigma", "T", "cutoff", "z",
    "omega_in", "omega_out", "mean_work", "adiabatic_work", "inner_friction",
    "mean_created", "mean_entropy", "kl_classical", "kl_quantum",
    "crooks_dev", "leakage", "flags",
)


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    momentum: float | None = None
    mass: float | None = None
    epsilon: float | None = None
    sigma: float | None = None
    omega: float | None = None
    acceleration: float | None = None
    mass_bh: float | None = None
    z: float | None = None
    omega_in: float | None = None
    omega_out: float | None = None
    temperature: float = 1.0
    cutoff: int = 40
    leakage_tolerance: float = 1e-8
    output: str = "json"
    precision: int = 12

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        unknown = sorted(set(mapping) - _FIELD_NAMES)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        coerced = {}
        for key, value in mapping.items():
            coerced[key] = _coerce(key, value)
        if "scenario" not in coerced:
            raise ConfigError("missing required key: scenario")
        cfg = cls(**coerced)
        cfg.validate()
        return cfg

    def to_mapping(self) -> dict:
        out = {}
        for name in CONFIG_KEYS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def replace(self, **updates) -> "RunConfig":
        """This config with updates, coerced and validated as from_mapping does.

        The copy takes this instance's field values as they stand and sets
        only the updated ones; the frozen __init__ would re-run over every
        field.
        """
        unknown = sorted(set(updates) - _FIELD_NAMES)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg = object.__new__(type(self))
        cfg.__dict__.update(
            self.__dict__, **{key: _coerce(key, value) for key, value in updates.items()}
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
            )
        needed = SCENARIO_KEYS[self.scenario]
        missing = [k for k in needed if getattr(self, k) is None]
        if missing:
            raise ConfigError(
                f"scenario {self.scenario!r} requires keys: {', '.join(missing)}"
            )
        foreign = sorted(
            k
            for scen, keys in SCENARIO_KEYS.items()
            if scen != self.scenario
            for k in keys
            if k not in needed and getattr(self, k) is not None
        )
        if foreign:
            raise ConfigError(
                f"keys {', '.join(foreign)} do not belong to scenario "
                f"{self.scenario!r}: exactly one scenario block may be present"
            )
        if self.temperature < 0.0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.cutoff < 8:
            raise ConfigError(f"cutoff must be >= 8, got {self.cutoff}")
        if not 0.0 < self.leakage_tolerance <= 0.01:
            raise ConfigError(
                f"leakage_tolerance must lie in (0, 0.01], got {self.leakage_tolerance}"
            )
        if self.output not in ("json", "csv"):
            raise ConfigError(f"output must be json or csv, got {self.output!r}")
        if self.precision < 1:
            raise ConfigError(f"precision must be >= 1, got {self.precision}")
        if self.scenario == "direct-z":
            if self.z < 0.0:
                raise ConfigError(f"z must be >= 0, got {self.z}")
            if not 0.0 < self.omega_in <= self.omega_out:
                raise ConfigError("need 0 < omega_in <= omega_out")


# RunConfig's field names in declaration order, its float fields and the
# fields whose default is a value (a null there is an error, not an absent
# key), read once here rather than scanned on every replace and validate;
# CONFIG_KEYS is also the CLI's list of config flags
CONFIG_KEYS = tuple(f.name for f in dataclass_fields(RunConfig))
_FIELD_NAMES = frozenset(CONFIG_KEYS)
_FLOAT_FIELDS = tuple(name for name in CONFIG_KEYS if name in FLOAT_KEYS)
_VALUED_FIELDS = frozenset(
    f.name for f in dataclass_fields(RunConfig) if f.default not in (None, MISSING)
)


def _coerce(key: str, value):
    if value is None:
        if key in _VALUED_FIELDS:
            raise ConfigError(f"config key {key!r} may not be null")
        return None
    if key in FLOAT_KEYS:
        return _number(key, value)
    if key in INT_KEYS:
        return _integer(key, value)
    return value


def _number(key: str, value) -> float:
    # a JSON true would otherwise run as 1.0
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"config key {key!r}: {value!r} is not a number")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"config key {key!r}: {value!r} is not a finite number")
    return number


def _integer(key: str, value) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"config key {key!r}: {value!r} is not an integer")
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value} is not an integer")
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    axis: str
    grid: tuple[float, ...]

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SweepConfig":
        mapping = dict(mapping)
        axis = mapping.pop("axis", None)
        grid = mapping.pop("grid", None)
        grid_min = mapping.pop("grid_min", None)
        grid_max = mapping.pop("grid_max", None)
        grid_count = mapping.pop("grid_count", None)
        grid_scale = mapping.pop("grid_scale", "linear")
        base = RunConfig.from_mapping(mapping)
        if axis not in SWEEP_AXES:
            raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
        if axis != "temperature" and base.scenario != "cosmology":
            raise ConfigError(
                f"axis {axis!r} applies only to the cosmology scenario"
            )
        if grid is not None:
            if grid_min is not None or grid_max is not None or grid_count is not None:
                raise ConfigError("give either an explicit grid or min/max/count, not both")
            if not isinstance(grid, (list, tuple)):
                raise ConfigError(f"grid must be a list of numbers, got {grid!r}")
            values = tuple(_number("grid", v) for v in grid)
        else:
            if grid_min is None or grid_max is None or grid_count is None:
                raise ConfigError("grid requires grid_min, grid_max and grid_count")
            count = _integer("grid_count", grid_count)
            if count < 2:
                raise ConfigError(f"grid_count must be >= 2, got {count}")
            lo, hi = _number("grid_min", grid_min), _number("grid_max", grid_max)
            if grid_scale == "linear":
                values = tuple(np.linspace(lo, hi, count).tolist())
            elif grid_scale == "log":
                if lo <= 0.0 or hi <= 0.0:
                    raise ConfigError("log grids need positive endpoints")
                values = tuple(np.geomspace(lo, hi, count).tolist())
            else:
                raise ConfigError(
                    f"grid_scale must be linear or log, got {grid_scale!r}"
                )
        if len(values) < 2:
            raise ConfigError("grid must contain at least 2 points")
        return cls(base=base, axis=axis, grid=values)


def resolve_channel(cfg: RunConfig) -> tuple[SqueezeChannel, list[str]]:
    """Map the configured scenario to a squeeze channel plus report flags."""
    try:
        if cfg.scenario == "cosmology":
            params = CosmologyParams(
                epsilon=cfg.epsilon,
                sigma=cfg.sigma,
                mass=cfg.mass,
                momentum=cfg.momentum,
            )
            return channel_from_cosmology(params), []
        if cfg.scenario == "unruh":
            return (
                channel_from_unruh(
                    UnruhParams(acceleration=cfg.acceleration, omega=cfg.omega)
                ),
                ["formal-horizon"],
            )
        if cfg.scenario == "blackhole":
            return (
                channel_from_blackhole(
                    BlackHoleParams(mass_bh=cfg.mass_bh, omega=cfg.omega)
                ),
                ["formal-horizon"],
            )
        return (
            SqueezeChannel(
                z=cfg.z, omega_in=cfg.omega_in, omega_out=cfg.omega_out
            ),
            [],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class _Entropy:
    """Entropy statistics and identity checks; a failed check holds its error."""

    p_e: fluctuation.EntropyDistribution
    crooks: fluctuation.CrooksReport | VerificationError
    kl: tuple[float, float] | VerificationError  # (<s>, KL)
    friction: dict[str, float] | VerificationError
    k_quantum: float | VerificationError


def _capture(fn, *args):
    """fn(*args), or the VerificationError it raised, so later checks still run."""
    try:
        return fn(*args)
    except VerificationError as exc:
        return exc


class _KernelSlot:
    """The last kernel and the last Gibbs state built for a run, each held
    while its key repeats.

    The kernel is reused while (z, spec) repeats, as along a temperature
    axis, and it serves the point: a full kernel serves every point, a
    vacuum kernel only a vacuum point. Block d depends on (z, cutoff) only,
    and the vacuum kernel's one column and its leakage are the full
    kernel's bit for bit; every check transition_kernel makes depends on
    (z, cutoff, leakage budget) and the blocks built, and so does the
    total table a full kernel holds. So a held kernel with that key is one
    already checked, and a full kernel serves a vacuum point unchanged:
    the work pass reads that column alone at T = 0, so either kernel gives
    the point the same bits.

    The Gibbs state, and its thermal gate, depend on (T, omega_in, spec)
    only, so it is reused while that key repeats, as along a sigma or
    epsilon axis. Each entry holds at most one object and is dropped before
    its rebuild; a build that raises leaves the entry empty, so the next
    point builds, and fails, again.
    """

    def __init__(self) -> None:
        self.kernel: fock.TransitionKernel | None = None
        self.thermal: thermo.ThermalDistribution | None = None

    def kernel_for(
        self, z: float, spec: TruncationSpec, vacuum: bool
    ) -> fock.TransitionKernel:
        held = self.kernel
        if held is None or (held.z, held.spec) != (z, spec) or (held.vacuum and not vacuum):
            self.kernel = None  # dropped before the build: one kernel alive at most
            self.kernel = transition_kernel(z, spec, vacuum)
        return self.kernel

    def thermal_for(
        self, temperature: float, omega: float, spec: TruncationSpec
    ) -> thermo.ThermalDistribution:
        held = self.thermal
        if held is None or (held.temperature, held.omega, held.spec) != (temperature, omega, spec):
            self.thermal = None
            self.thermal = thermal_distribution(temperature, omega, spec)
        return self.thermal


def _run_stages(cfg: RunConfig, fluctuations: bool, kernels: _KernelSlot) -> tuple:
    """One point's stages in order: (channel, flags, kernel, work, entropy).

    The kernel comes from kernels; on the vacuum path (T = 0) it may be a
    vacuum kernel, which holds the vacuum column alone. entropy is None on
    the vacuum path and when, without fluctuations, the sequence stops at
    the work. A failed identity check is captured and the later ones still
    run (<s> then comes from mean_entropy); other errors propagate.
    """
    channel, flags = resolve_channel(cfg)
    spec = TruncationSpec(cfg.cutoff, cfg.leakage_tolerance)
    kernel = kernels.kernel_for(channel.z, spec, cfg.temperature == 0.0)
    thermal = kernels.thermal_for(cfg.temperature, channel.omega_in, spec)
    if not fluctuations or thermal.is_vacuum:
        work = inner_friction(kernel, thermal, channel.omega_in, channel.omega_out)
        return channel, flags, kernel, work, None
    svds = fluctuation.start_relative_entropy(thermal, kernel)  # run meanwhile
    try:
        work = inner_friction(kernel, thermal, channel.omega_in, channel.omega_out)
        p_e, p_c, micro_dev = fluctuation.entropy_distributions(kernel, thermal)
        crooks = _capture(fluctuation.crooks_deviation, p_e, p_c, micro_dev)
        kl = _capture(fluctuation.mean_entropy_and_kl, p_e, p_c)
        s_mean = fluctuation.mean_entropy(p_e) if isinstance(kl, VerificationError) else kl[0]
        friction = _capture(fluctuation.entropy_friction_identity, work, s_mean)
        k_quantum = _capture(
            fluctuation.quantum_relative_entropy,
            thermal, kernel, work.adiabatic_temperature, work, svds,
        )
    except BaseException:
        svds.sectors.clear()  # the helper stops after the block it is on
        raise
    return channel, flags, kernel, work, _Entropy(p_e, crooks, kl, friction, k_quantum)


def _config_fields(cfg: RunConfig) -> dict:
    """The report's leading config fields; scenario parameters only for cosmology."""
    is_cosmo = cfg.scenario == "cosmology"
    return {
        "scenario": cfg.scenario,
        "k": cfg.momentum if is_cosmo else None,
        "m": cfg.mass if is_cosmo else None,
        "epsilon": cfg.epsilon if is_cosmo else None,
        "sigma": cfg.sigma if is_cosmo else None,
        "T": cfg.temperature,
        "cutoff": cfg.cutoff,
    }


def _error_row(fields: dict, error: str) -> dict:
    return {**dict.fromkeys(REPORT_FIELDS), **fields, "flags": "error", "error": error}


def run_simulation(cfg: RunConfig) -> dict:
    """End-to-end pipeline for one configuration; deterministic report.
    The first failed identity check is raised as its VerificationError."""
    cfg.validate()
    return _simulate(cfg, _KernelSlot())


def _simulate(cfg: RunConfig, kernels: _KernelSlot) -> dict:
    """One validated point's report row; kernels may hold a kernel to reuse."""
    channel, flags, _kernel, work, ent = _run_stages(cfg, True, kernels)
    if ent is None:
        flags = flags + ["vacuum-path"]
        s_mean = kl = k_quantum = crooks_dev = None
        leakage = work.weighted_leakage
    else:
        for check in (ent.crooks, ent.kl, ent.friction, ent.k_quantum):
            if isinstance(check, VerificationError):
                raise check
        (s_mean, kl), k_quantum = ent.kl, ent.k_quantum
        crooks_dev = max(ent.crooks.distribution_deviation, ent.crooks.microstate_deviation)
        leakage = work.weighted_leakage + ent.crooks.floored_mass
    return {
        **_config_fields(cfg),
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


def run_sweep(sweep: SweepConfig) -> list[dict]:
    """Evaluate the grid point by point; rows come in grid order. A failed
    point is an error row: with only the scenario when the config rejects
    its value, with its config fields when it fails at run time.

    Consecutive points sharing (z, cutoff, leakage budget), as on a
    temperature axis, share one transition kernel, and consecutive points
    sharing (T, omega_in, cutoff, leakage budget), as on a sigma or
    epsilon axis, one Gibbs state; each is built for the first of them
    and dropped when the sweep returns.
    """
    kernels = _KernelSlot()
    rows = []
    for value in sweep.grid:
        try:
            cfg = sweep.base.replace(**{sweep.axis: value})
        except ConfigError:
            rows.append(_error_row(
                {"scenario": sweep.base.scenario},
                f"ConfigError: invalid {sweep.axis} value {value}",
            ))
            continue
        try:
            rows.append({**_simulate(cfg, kernels), "error": ""})
        except Exception as exc:  # per-row capture: a bad point must not abort the sweep
            rows.append(_error_row(_config_fields(cfg), f"{type(exc).__name__}: {exc}"))
    return rows


def round_sig(value: float, digits: int) -> float:
    """Round to a fixed significant-digit count for stable serialization."""
    if value == 0.0 or not np.isfinite(value):
        return float(value)
    return float(f"{value:.{digits - 1}e}")


def _rounded(row: dict, precision: int) -> dict:
    out = {}
    for key, value in row.items():
        if isinstance(value, float):
            out[key] = round_sig(value, precision)
        else:
            out[key] = value
    return out


def render_json(rows: dict | list[dict], precision: int) -> str:
    if isinstance(rows, dict):
        payload = _rounded(rows, precision)
    else:
        payload = [_rounded(r, precision) for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: dict | list[dict], precision: int) -> str:
    if isinstance(rows, dict):
        rows = [rows]
    columns = list(REPORT_FIELDS)
    if any("error" in r for r in rows):
        columns.append("error")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        rounded = _rounded(row, precision)
        writer.writerow([_csv_cell(rounded.get(c)) for c in columns])
    return buf.getvalue()


# Canonical reference point used by the invariant battery.
def canonical_config() -> RunConfig:
    return RunConfig(
        scenario="direct-z",
        z=float(np.arctanh(0.5)),
        omega_in=1.0,
        omega_out=2.0,
        temperature=1.0,
        cutoff=40,
        leakage_tolerance=1e-8,
    )


def _battery_point(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """Identity checks at one configuration; returns (name, ok, detail)."""
    kernels = _KernelSlot()
    channel, _flags, staged, work, ent = _run_stages(cfg, True, kernels)
    layout = fock.sector_layout(cfg.cutoff)
    # the kernel checks read the full kernel; a vacuum point builds its
    # vacuum column only
    kernel = kernels.kernel_for(channel.z, staged.spec, False)
    items: list[tuple[str, bool, str]] = []

    sym = _max_asymmetry(kernel)
    items.append(("kernel-symmetry", sym <= 1e-12, f"max |p(m|n)-p(n|m)| = {sym:.3e}"))
    items.extend(_conservation_checks(kernel, layout))

    vac_leak = fock.vacuum_column_leakage(channel.z, cfg.cutoff)
    items.append((
        "vacuum-column-budget",
        vac_leak <= cfg.leakage_tolerance,
        f"vacuum leakage = {vac_leak:.3e} (tol {cfg.leakage_tolerance:.1e})",
    ))

    ch = np.cosh(channel.z)
    sh = np.sinh(channel.z)
    bog = abs(ch * ch - sh * sh - 1.0)
    items.append(("bogoliubov-identity", bog <= 1e-12, f"|cosh^2-sinh^2-1| = {bog:.3e}"))

    closed = thermo.mean_created_closed_form(
        channel.z, cfg.temperature, channel.omega_in
    )
    gap = abs(work.mean_created - closed)
    tol = max(1e-6, work.truncation_bound / max(channel.omega_out, 1e-300))
    items.append((
        "created-closed-form",
        gap <= tol,
        f"|<n_c> - closed| = {gap:.3e} (tol {tol:.1e})",
    ))
    items.append((
        "second-law",
        work.inner_friction >= -work.truncation_bound,
        f"W_fric = {work.inner_friction:.6e} >= -{work.truncation_bound:.3e}",
    ))
    if ent is None:
        return items

    t_ad, w_fric = work.adiabatic_temperature, work.inner_friction
    ift = fluctuation.integral_fluctuation_defect(ent.p_e)
    # the gap mean_entropy_and_kl judges: <s> less the left-out P_E(s) s, less KL
    out_mass, out_s = fluctuation.left_out_points(ent.p_e)
    return items + [
        _line("crooks-microstate", ent.crooks, lambda c: (
            c.microstate_deviation <= 1e-10, f"residual = {c.microstate_deviation:.3e}"
        )),
        _line("crooks-distribution", ent.crooks, lambda c: (
            c.distribution_deviation <= 1e-8, f"deviation = {c.distribution_deviation:.3e}"
        )),
        _line("kl-identity", ent.kl, lambda r: (True, (
            f"|<s>-out-KL| = {abs(r[0] - out_s - r[1]):.3e}, "
            f"left out {out_mass:.3e}, <s> = {r[0]:.6e}"
        ))),
        ("integral-fluctuation", ift <= 1e-6, f"|E[e^-s]-1| = {ift:.3e}"),
        _line("entropy-friction-chain", ent.friction, lambda r: (
            True, f"residuals = {r['residual_friction']:.3e}, {r['residual_creation']:.3e}"
        )),
        _line("quantum-relative-entropy", ent.k_quantum, lambda K: (
            True, f"|T_ad K - W_fric| = {abs(t_ad * K - w_fric):.3e}"
        )),
    ]


def _line(name: str, result, judge) -> tuple[str, bool, str]:
    """A check's battery line: FAIL with the message of a captured failure."""
    if isinstance(result, VerificationError):
        return name, False, str(result)
    return name, *judge(result)


@fock.holds_buffers("values")
def _max_asymmetry(kernel: fock.TransitionKernel) -> float:
    """The largest max |p(m|n) - p(n|m)| of the blocks, d ascending."""
    asymmetries = []
    for chunk in fock.sector_chunks(kernel.spec.cutoff):
        P = np.square(
            kernel.flat_amplitudes[chunk.entries],
            out=fock.work_buffer("values", chunk.size),
        )
        asymmetries.extend(
            float(np.max(np.abs(block - block.T))) for block in chunk.views(P)
        )
    return max(asymmetries)


def _max_mass(P: np.ndarray, where: np.ndarray) -> float:
    return float(np.max(P[where])) if where.any() else 0.0


def _conservation_checks(
    kernel: fock.TransitionKernel, layout: tuple[fock.Sector, ...]
) -> list[tuple[str, bool, str]]:
    """Difference and parity conservation of the sector-stored kernel.

    The kernel stores only in-sector blocks, so it conserves n_a - n_b and
    changes total(n) by even steps exactly when every computation reads
    those blocks through the right layout: the states of block d have
    difference d (mirror -d) and cover the box once, and the totals it
    carries are the states' own. Mass a wrong layout would place between
    states of another sector, or on an odd change of total, is reported.

    One flat pass over the states of every sector flags each state whose
    index or mirror index lies outside its sector, whose total is not its
    own, or whose total's parity is not its sector's first state's. Every
    entry either check reports lies in the row or the column of a flagged
    state, so only those lines of the kernel are read: none for a right
    layout.
    """
    side = kernel.spec.cutoff + 1
    sizes = np.array([s.size for s in layout])
    index, mirror, totals = (
        np.concatenate([getattr(s, name) for s in layout])
        for name in ("index", "mirror_index", "totals")
    )
    d = np.repeat([s.d for s in layout], sizes)
    a, b = np.divmod(index, side)
    ma, mb = np.divmod(mirror, side)
    cover = np.bincount(np.concatenate([index, mirror[d > 0]]), minlength=side * side)
    uncovered = int(np.count_nonzero(cover != 1))
    foreign = (a - b != d) | (mb - ma != d)
    mislabeled = totals != a + b
    parity = totals % 2
    first = np.cumsum(sizes) - sizes  # each sector's first state
    flagged = foreign | mislabeled | (parity != np.repeat(parity[first], sizes))
    # each flagged state's row, then its column: the entries, their final
    # and their initial states
    t = np.flatnonzero(flagged)
    sector = np.repeat(np.arange(len(layout)), sizes)[t]
    n = sizes[sector]
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # along the line
    n, i, block, start = (
        np.repeat(v, n)
        for v in (n, t - first[sector], (np.cumsum(sizes**2) - sizes**2)[sector], first[sector])
    )
    entries = np.concatenate([block + i * n + j, block + j * n + i])
    final = np.concatenate([start + i, start + j])
    initial = np.concatenate([start + j, start + i])
    P = kernel.flat_amplitudes[entries] ** 2
    off_sector = _max_mass(P, foreign[final] | foreign[initial])
    odd_change = _max_mass(
        P, mislabeled[final] | mislabeled[initial] | (parity[final] != parity[initial])
    )
    return [
        (
            "difference-conservation",
            off_sector == 0.0 and uncovered == 0,
            f"max off-sector mass = {off_sector:.3e}, "
            f"states not covered once = {uncovered}",
        ),
        ("parity-support", odd_change == 0.0, f"max odd-change mass = {odd_change:.3e}"),
    ]


def _battery_global() -> list[tuple[str, bool, str]]:
    """Point-independent checks: oracles, scenario limits, closed forms."""
    items: list[tuple[str, bool, str]] = []
    z_canon = float(np.arctanh(0.5))

    # Each oracle call decomposes a sector once for all three z; blocks
    # carry a leading z axis.
    spec40 = TruncationSpec(40, 1e-2)
    worst = 0.0
    for S in fock.squeeze_operator_oracle([z_canon, 1.0, 1.2], spec40):
        defect = S.mT @ S - np.eye(S.shape[-1])
        worst = max(worst, float(np.max(np.abs(defect))))
    items.append(("oracle-orthogonality", worst <= 1e-12, f"max |S^T S - I| = {worst:.3e}"))

    # The 9 x 9 corners of blocks d = 0..8 of the pipeline's kernel, whose
    # entries do not depend on the box, against the spectral route on a
    # box large enough that states up to index 8 keep their image inside;
    # the spectral route reflects mass otherwise.
    zs = (0.25, z_canon, 1.0)
    kernels = [transition_kernel(z, TruncationSpec(16, 1e-2)).amplitudes for z in zs]
    worst = 0.0
    for d in range(9):
        built = np.array([blocks[d][:9, :9] for blocks in kernels])
        spe = fock.sector_spectral(zs, d, 97 - d, corner=9)
        worst = max(worst, float(np.max(np.abs(built - spe))))
    items.append(("oracle-equivalence", worst <= 1e-10, f"max |kernel - spectral| = {worst:.3e}"))

    tau = 0.5
    vacuum = transition_kernel(z_canon, TruncationSpec(11, 1e-2), vacuum=True)
    col = vacuum.amplitudes[0][:, 0] ** 2
    expect = (1.0 - tau * tau) * tau ** (2 * np.arange(12))
    rel = float(np.max(np.abs(col[:11] - expect[:11]) / expect[:11]))
    items.append(("vacuum-law", rel <= 1e-9, f"max relative error = {rel:.3e}"))

    p = CosmologyParams(epsilon=1.0, sigma=1.0, mass=0.0, momentum=1.0)
    w_in, w_out = spacetime.asymptotic_frequencies(p)
    z0 = spacetime.squeeze_from_cosmology(w_in, w_out, p.sigma)
    items.append(("massless-null", z0 == 0.0, f"z(m=0) = {z0!r}"))

    w_in, w_out = np.sqrt(2.0), 2.0
    sudden = abs(
        np.tanh(spacetime.squeeze_from_cosmology(w_in, w_out, 1e6))
        - (w_out - w_in) / (w_out + w_in)
    )
    items.append(("sudden-limit", sudden <= 1e-9, f"deviation = {sudden:.3e}"))

    grid = np.geomspace(1e-3, 1e3, 7)
    zs = [spacetime.squeeze_from_cosmology(w_in, w_out, s) for s in grid]
    monotone = all(a <= b for a, b in zip(zs, zs[1:])) and zs[0] <= 1e-12
    items.append(("quasistatic-limit", monotone, f"z(sigma->0) = {zs[0]:.3e}, monotone = {monotone}"))

    wad = thermo.adiabatic_work(1.0, 1.0, 2.0)
    gap = abs(wad - 2.1639534137386528)
    items.append(("adiabatic-work-closed-form", gap <= 1e-12, f"|W_ad - ref| = {gap:.3e}"))

    *_, w0, _ = _run_stages(canonical_config().replace(z=0.0), False, _KernelSlot())
    adiabatic_gap = abs(w0.mean_work - w0.adiabatic_work)
    items.append((
        "adiabatic-consistency",
        adiabatic_gap <= 1e-12 and w0.mean_created == 0.0,
        f"|<W> - W_ad| = {adiabatic_gap:.3e}, <n_c> = {w0.mean_created!r}",
    ))
    return items


def verify_invariants(cfg: RunConfig | None = None) -> tuple[list[str], int]:
    """Run the invariant battery; returns printable lines and failure count.

    A failed identity is a FAIL line: a missed threshold, or the
    VerificationError of crooks_deviation (both Crooks lines),
    mean_entropy_and_kl, entropy_friction_identity or
    quantum_relative_entropy. Every other error propagates: LeakageError
    and NumericError mean the point cannot be evaluated at all (a budget
    problem, not a failed identity), a VerificationError from
    inner_friction that the work bookkeeping itself is broken.
    """
    canon = canonical_config()
    if cfg is None:
        cfg = canon
    sections: list[tuple[str, list[tuple[str, bool, str]]]] = []
    sections.append((f"configured point (scenario={cfg.scenario})", _battery_point(cfg)))
    # output and precision only render a report; they do not move the point
    if dataclass_replace(cfg, output=canon.output, precision=canon.precision) != canon:
        sections.append(("canonical point", _battery_point(canon)))
    sections.append(("global", _battery_global()))

    lines: list[str] = []
    failures = 0
    for title, items in sections:
        lines.append(f"[{title}]")
        for name, ok, detail in items:
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            lines.append(f"  {status}  {name:28s} {detail}")
    lines.append(
        f"{failures} failure(s) out of "
        f"{sum(len(items) for _, items in sections)} checks"
    )
    return lines, failures
