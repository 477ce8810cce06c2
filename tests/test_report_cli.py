import json
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmoflux import (
    ConfigError,
    LeakageError,
    RunConfig,
    SweepConfig,
    TruncationSpec,
    VerificationError,
    canonical_config,
    crooks_deviation,
    entropy_distributions,
    mean_entropy,
    thermal_distribution,
    verify_invariants,
)
import cosmoflux.fock as fock_mod
import cosmoflux.report as report_mod
from cosmoflux.cli import build_parser, main
from cosmoflux.report import (
    REPORT_FIELDS,
    SWEEP_ONLY_KEYS,
    render_csv,
    render_json,
    resolve_channel,
    round_sig,
    run_simulation,
    run_sweep,
)

from conftest import CHILD_ENV, Z_CANON, spy_on

SMALL_DIRECT = {
    "scenario": "direct-z",
    "z": 0.3,
    "omega_in": 1.0,
    "omega_out": 2.0,
    "temperature": 0.5,
    "cutoff": 16,
    "leakage_tolerance": 1e-6,
}


def test_run_simulation_canonical_fields():
    row = run_simulation(canonical_config())
    assert tuple(row.keys()) == REPORT_FIELDS
    assert row["scenario"] == "direct-z"
    assert row["k"] is None and row["epsilon"] is None
    assert row["z"] == pytest.approx(Z_CANON, abs=1e-15)
    assert row["mean_work"] == pytest.approx(5.049224632056856, abs=1e-6)
    assert row["inner_friction"] == pytest.approx(2.885271218318204, abs=1e-6)
    assert row["mean_entropy"] == pytest.approx(row["mean_created"], abs=1e-6)
    assert row["crooks_dev"] <= 1e-10
    assert row["leakage"] <= 1e-8
    assert row["flags"] == "ok"


def test_run_simulation_vacuum_path():
    cfg = RunConfig.from_mapping({**SMALL_DIRECT, "temperature": 0.0})
    row = run_simulation(cfg)
    assert row["flags"] == "ok;vacuum-path"
    assert row["mean_entropy"] is None
    assert row["kl_classical"] is None
    assert row["kl_quantum"] is None
    assert row["crooks_dev"] is None
    assert row["mean_created"] == pytest.approx(
        2.0 * np.sinh(0.3) ** 2, abs=1e-8
    )


def test_run_simulation_horizon_flag():
    cfg = RunConfig.from_mapping(
        {"scenario": "unruh", "omega": 1.0, "acceleration": np.pi,
         "temperature": 1.0}
    )
    row = run_simulation(cfg)
    assert row["flags"] == "ok;formal-horizon"
    assert row["omega_in"] == row["omega_out"] == 1.0
    assert row["adiabatic_work"] == 0.0


def test_config_unknown_key_fails_closed():
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({**SMALL_DIRECT, "cutofff": 12})


def test_config_missing_scenario_fails():
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"z": 0.3, "omega_in": 1.0, "omega_out": 2.0})


def test_config_foreign_scenario_key_fails():
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({**SMALL_DIRECT, "epsilon": 1.0})


@pytest.mark.parametrize("patch", [
    {"cutoff": 7},
    {"leakage_tolerance": 0.0},
    {"leakage_tolerance": 0.02},
    {"temperature": -1.0},
    {"output": "yaml"},
    {"scenario": "dejitter"},
    {"omega_in": 3.0},          # would exceed omega_out
    {"z": -0.5},
    {"z": float("nan")},
    {"temperature": float("inf")},
    {"omega_out": "-inf"},
])
def test_config_validation_rejects(patch):
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({**SMALL_DIRECT, **patch})


def test_config_coercion_from_strings():
    cfg = RunConfig.from_mapping(
        {**SMALL_DIRECT, "cutoff": "24", "z": "0.25", "leakage_tolerance": "1e-6"}
    )
    assert cfg.cutoff == 24 and isinstance(cfg.cutoff, int)
    assert cfg.z == 0.25
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({**SMALL_DIRECT, "cutoff": "16.5"})


@pytest.mark.parametrize("updates", [
    {"cutofff": 12},
    {"cutoff": 7},
    {"cutoff": "16.5"},
    {"temperature": -1.0},
    {"temperature": float("nan")},
    {"z": "inf"},
    {"z": "abc"},
    {"leakage_tolerance": 0.02},
    {"omega_in": 3.0},
    {"epsilon": 1.0},
])
def test_replace_rejects_what_from_mapping_rejects(updates):
    # a sweep point is validated once, by replace; it must refuse every
    # value from_mapping refuses, with the same message
    base = RunConfig.from_mapping(SMALL_DIRECT)
    with pytest.raises(ConfigError) as direct:
        RunConfig.from_mapping({**SMALL_DIRECT, **updates})
    with pytest.raises(ConfigError) as replaced:
        base.replace(**updates)
    assert str(replaced.value) == str(direct.value)


def test_replace_coerces_like_from_mapping():
    base = RunConfig.from_mapping(SMALL_DIRECT)
    updates = {"cutoff": "24", "z": "0.25", "sigma": None}
    assert base.replace(**updates) == RunConfig.from_mapping({**SMALL_DIRECT, **updates})


# candidate values per key, valid and invalid, for SMALL_DIRECT's scenario
REPLACE_CANDIDATES = {
    "scenario": ["direct-z", "cosmology"],
    "z": [0.0, 0.25, "0.5", -0.5, "nan", None],
    "omega_in": [0.5, "1", 3.0],
    "omega_out": [2.0, "2.5", 0.25],
    "sigma": [None, 1.0],
    "temperature": [0.0, 0.5, "1.5", -1.0, float("inf"), None, True],
    "cutoff": [8, "24", 20.0, 7, "16.5", None, True],
    "leakage_tolerance": [1e-8, "1e-6", 0.02, None],
    "output": ["json", "csv", "yaml"],
    "precision": [6, "12", 0, None],
}


@settings(max_examples=300, deadline=None)
@given(updates=st.fixed_dictionaries({}, optional={
    key: st.sampled_from(values) for key, values in REPLACE_CANDIDATES.items()
}))
def test_replace_equals_from_mapping_over_many_updates(updates):
    # replace copies the instance state and sets the updated fields; it must
    # give the config from_mapping builds from the merged mapping, field
    # values and types alike, or refuse it with the same message
    base = RunConfig.from_mapping(SMALL_DIRECT)
    # updates first, so that both coerce them in the same order
    merged = {**updates, **{k: v for k, v in base.to_mapping().items() if k not in updates}}
    try:
        direct = RunConfig.from_mapping(merged)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as replaced:
            base.replace(**updates)
        assert str(replaced.value) == str(exc)
        return
    replaced = base.replace(**updates)
    assert replaced == direct and hash(replaced) == hash(direct)
    assert {k: (type(v), v) for k, v in vars(replaced).items()} == {
        k: (type(v), v) for k, v in vars(direct).items()
    }
    with pytest.raises(FrozenInstanceError):
        replaced.cutoff = 12


def test_config_round_trip():
    cfg = RunConfig.from_mapping(SMALL_DIRECT)
    assert RunConfig.from_mapping(cfg.to_mapping()) == cfg


def test_resolve_channel_cosmology():
    cfg = RunConfig.from_mapping(
        {"scenario": "cosmology", "momentum": 1.0, "mass": 1.0,
         "epsilon": 1.0, "sigma": 1.0, "temperature": 1.0}
    )
    channel, flags = resolve_channel(cfg)
    assert flags == []
    assert channel.omega_in == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert channel.z == pytest.approx(0.009895078074440641, abs=1e-12)


def test_round_sig():
    assert round_sig(0.0, 12) == 0.0
    assert round_sig(1.0 / 3.0, 12) == 0.333333333333
    assert round_sig(-2.718281828459045e-7, 6) == -2.71828e-7
    assert round_sig(float("inf"), 12) == float("inf")


def test_render_json_deterministic():
    row = run_simulation(RunConfig.from_mapping(SMALL_DIRECT))
    assert render_json(row, 12) == render_json(dict(row), 12)


def test_render_csv_schema():
    row = run_simulation(RunConfig.from_mapping({**SMALL_DIRECT, "temperature": 0.0}))
    text = render_csv(row, 12)
    header, line = text.splitlines()
    assert header == ",".join(REPORT_FIELDS)
    cells = line.split(",")
    assert cells[0] == "direct-z"
    assert cells[1] == ""                     # k: not a cosmology run
    assert cells[REPORT_FIELDS.index("mean_entropy")] == ""  # vacuum path
    assert cells[-1] == "ok;vacuum-path"


def test_sweep_rows_match_single_runs():
    sweep = SweepConfig.from_mapping(
        {**SMALL_DIRECT, "axis": "temperature", "grid": [0.25, 0.5]}
    )
    rows = run_sweep(sweep)
    for value, row in zip([0.25, 0.5], rows):
        single = run_simulation(sweep.base.replace(temperature=value))
        assert row["error"] == ""
        for field in REPORT_FIELDS:
            assert row[field] == single[field], field


def test_sweep_bad_point_reports_error():
    sweep = SweepConfig.from_mapping(
        {**SMALL_DIRECT, "axis": "temperature", "grid": [0.5, 50.0]}
    )
    rows = run_sweep(sweep)
    assert rows[0]["error"] == ""
    assert rows[1]["error"].startswith("LeakageError")
    assert rows[1]["flags"] == "error"
    assert rows[1]["mean_work"] is None
    text = render_csv(rows, 12)
    assert text.splitlines()[0].endswith(",error")


def test_sweep_error_rows_are_exact():
    # the config fields come from one place: a point rejected at run time
    # keeps them, a value the config rejects keeps only the scenario
    base = {"scenario": "cosmology", "momentum": 1.0, "mass": 1.0,
            "epsilon": 1.0, "sigma": 1.0, "cutoff": 8}
    sweep = SweepConfig.from_mapping({**base, "axis": "temperature", "grid": [50.0, -1.0]})
    with pytest.raises(LeakageError) as leak:
        run_simulation(sweep.base.replace(temperature=50.0))
    none = dict.fromkeys(REPORT_FIELDS)
    rows = run_sweep(sweep)
    assert rows == [
        {**none, "scenario": "cosmology", "k": 1.0, "m": 1.0, "epsilon": 1.0,
         "sigma": 1.0, "T": 50.0, "cutoff": 8, "flags": "error",
         "error": f"LeakageError: {leak.value}"},
        {**none, "scenario": "cosmology", "flags": "error",
         "error": "ConfigError: invalid temperature value -1.0"},
    ]
    for row in rows:
        assert list(row) == [*REPORT_FIELDS, "error"]


def _temperature_sweep(grid, **base):
    return SweepConfig.from_mapping(
        {**SMALL_DIRECT, **base, "axis": "temperature", "grid": grid}
    )


def test_temperature_sweep_builds_one_kernel(monkeypatch):
    # the T = 0 point builds the vacuum table; the first T > 0 point needs
    # the kernel, and that kernel serves the rest
    tables = spy_on(monkeypatch, report_mod, "vacuum_table")
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    rows = run_sweep(_temperature_sweep([0.0, 0.25, 0.5, 0.75]))
    assert [r["error"] for r in rows] == [""] * 4
    spec = TruncationSpec(16, 1e-6)
    assert tables == builds == [(0.3, spec)]


def test_vacuum_points_reuse_a_full_kernel(monkeypatch):
    # a held kernel's table serves a vacuum point
    grid = [1.0, 0.0, 0.5, 0.0]
    sweep = _temperature_sweep(grid)
    singles = [run_simulation(sweep.base.replace(temperature=t)) for t in grid]
    tables = spy_on(monkeypatch, report_mod, "vacuum_table")
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    rows = run_sweep(sweep)
    assert builds == [(0.3, TruncationSpec(16, 1e-6))] and tables == []
    assert rows == [{**single, "error": ""} for single in singles]


def test_vacuum_kernel_gives_way_to_a_full_kernel(monkeypatch):
    # a held vacuum table never serves a T > 0 point; the kernel built for
    # it serves the vacuum point after it with its table
    grid = [0.0, 0.5, 0.0]
    sweep = _temperature_sweep(grid)
    singles = [run_simulation(sweep.base.replace(temperature=t)) for t in grid]
    tables = spy_on(monkeypatch, report_mod, "vacuum_table")
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    rows = run_sweep(sweep)
    spec = TruncationSpec(16, 1e-6)
    assert tables == builds == [(0.3, spec)]
    assert rows == [{**single, "error": ""} for single in singles]


LARGE_VACUUM = {**SMALL_DIRECT, "z": 1.2, "cutoff": 64, "leakage_tolerance": 1e-2,
                "temperature": 0.0}


def test_large_cutoff_vacuum_point_verifies(tmp_path, capsys):
    # the alternating analytic sum lost double precision here, so verify,
    # whose kernel checks read the full kernel, exited 3; the recurrence
    # holds, and the point simulates and verifies
    row = run_simulation(RunConfig.from_mapping(LARGE_VACUUM))
    assert row["flags"] == "ok;vacuum-path"
    assert row["mean_created"] == pytest.approx(2.0 * np.sinh(1.2) ** 2, abs=1e-6)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(LARGE_VACUUM))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["verify", "--config", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("z, cutoff", [
    (Z_CANON, 57), (Z_CANON, 80), (Z_CANON, 120), (Z_CANON, 170), (1.5, 170),
])
def test_vacuum_point_evaluates_past_the_full_kernels_reach(z, cutoff):
    # these cutoffs were past the reach of the alternating analytic sum,
    # whose full kernel failed its column-sum check at every one of them;
    # the vacuum point gives the paper's 2 sinh^2 z within its leakage
    cfg = canonical_config().replace(z=z, cutoff=cutoff, temperature=0.0)
    row = run_simulation(cfg)
    assert row["flags"] == "ok;vacuum-path"
    assert row["mean_created"] == pytest.approx(2.0 * np.sinh(z) ** 2, abs=1e-6)
    assert row["leakage"] <= cfg.leakage_tolerance


@pytest.mark.parametrize("changes", [
    {"temperature": 0.0, "cutoff": 120}, {"temperature": 5.0, "cutoff": 160},
])
def test_verify_passes_at_large_cutoffs(changes):
    # the north-star domain: T/omega = 5 at the cutoff its 1e-8 budget needs,
    # and the vacuum at cutoff 120; both exited 3 on the analytic sum's
    # column-sum check (excess 2.9e56 and 9.5e34)
    lines, failures = verify_invariants(canonical_config().replace(**changes))
    assert failures == 0, "\n".join(lines)


def _sigma_sweep(grid):
    return SweepConfig.from_mapping({
        "scenario": "cosmology", "momentum": 1.0, "mass": 1.0, "epsilon": 1.0,
        "sigma": 0.5, "temperature": 0.0, "cutoff": 16,
        "axis": "sigma", "grid": grid,
    })


def test_sigma_sweep_builds_one_kernel_per_z(monkeypatch):
    # at T = 0 each z builds its vacuum table, and no kernel
    tables = spy_on(monkeypatch, report_mod, "vacuum_table")
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    rows = run_sweep(_sigma_sweep([0.5, 1.0, 1.0, 2.0]))
    zs = [r["z"] for r in rows]
    assert len(set(zs)) == 3
    assert [z for z, _spec in tables] == list(dict.fromkeys(zs))
    assert builds == []


def test_sweep_holds_the_gibbs_state_along_sigma(monkeypatch):
    # (T, omega_in, spec) repeats on every point of a sigma axis, so one
    # Gibbs state serves the sweep while each z builds its vacuum table
    sweep = _sigma_sweep([0.5, 1.0, 2.0])
    singles = [run_simulation(sweep.base.replace(sigma=v)) for v in sweep.grid]
    gibbs = spy_on(monkeypatch, report_mod, "thermal_distribution")
    builds = spy_on(monkeypatch, report_mod, "vacuum_table")
    rows = run_sweep(sweep)
    assert len(gibbs) == 1 and len(builds) == 3
    assert rows == [{**single, "error": ""} for single in singles]


def test_temperature_sweep_builds_a_gibbs_state_per_point(monkeypatch):
    gibbs = spy_on(monkeypatch, report_mod, "thermal_distribution")
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    run_sweep(_temperature_sweep([0.25, 0.5, 0.75]))
    assert [t for t, _omega, _spec in gibbs] == [0.25, 0.5, 0.75]
    assert len(builds) == 1


def test_failed_gibbs_state_is_not_held(monkeypatch):
    # T = 50 fails the thermal gate: the slot is left empty, so the next
    # point with the same key builds again and raises again, and the point
    # after it builds its own state
    grid = [0.5, 50.0, 50.0, 0.5]
    sweep = _temperature_sweep(grid)
    with pytest.raises(LeakageError) as leak:
        run_simulation(sweep.base.replace(temperature=50.0))
    single = run_simulation(sweep.base.replace(temperature=0.5))
    gibbs = spy_on(monkeypatch, report_mod, "thermal_distribution")
    rows = run_sweep(sweep)
    assert [t for t, _omega, _spec in gibbs] == grid
    assert [r["error"] for r in rows[1:3]] == [f"LeakageError: {leak.value}"] * 2
    assert rows[0] == rows[3] == {**single, "error": ""}


def test_no_kernel_outlives_a_call(monkeypatch):
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    sweep = _temperature_sweep([0.25, 0.5])
    run_sweep(sweep)
    run_sweep(sweep)
    assert len(builds) == 2
    run_simulation(sweep.base)
    run_simulation(sweep.base)
    assert len(builds) == 4


def test_sweep_points_after_a_failed_point_match_single_runs(monkeypatch):
    # T = 50 fails the thermal gate after the kernel is built; the held
    # kernel must serve the later points unchanged
    grid = [0.25, 50.0, 0.5, 0.75]
    sweep = _temperature_sweep(grid)
    singles = {}
    for value in grid:
        try:
            singles[value] = run_simulation(sweep.base.replace(temperature=value))
        except LeakageError:
            singles[value] = None
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    rows = run_sweep(sweep)
    assert len(builds) == 1
    assert singles[50.0] is None and rows[1]["error"].startswith("LeakageError")
    for value, row in zip(grid, rows):
        if singles[value] is not None:
            assert row == {**singles[value], "error": ""}


def test_sweep_failing_vacuum_gate_errors_every_point(monkeypatch):
    # a failed build is not held: each point raises its own error row.
    # T = 0.75 also fails the thermal gate; the kernel stage comes first
    sweep = _temperature_sweep([0.25, 0.5, 0.75], z=1.2, cutoff=8)
    with pytest.raises(LeakageError, match="vacuum column leaks") as leak:
        run_simulation(sweep.base)
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    rows = run_sweep(sweep)
    assert len(builds) == 3
    none = dict.fromkeys(REPORT_FIELDS)
    assert rows == [
        {**none, "scenario": "direct-z", "T": t, "cutoff": 8, "flags": "error",
         "error": f"LeakageError: {leak.value}"}
        for t in (0.25, 0.5, 0.75)
    ]


def test_sweep_axis_validation():
    with pytest.raises(ConfigError):
        SweepConfig.from_mapping({**SMALL_DIRECT, "axis": "cutoff", "grid": [8, 16]})
    with pytest.raises(ConfigError):
        # momentum axis demands a cosmology base
        SweepConfig.from_mapping({**SMALL_DIRECT, "axis": "momentum", "grid": [1, 2]})
    with pytest.raises(ConfigError):
        SweepConfig.from_mapping({**SMALL_DIRECT, "axis": "temperature", "grid": [1.0]})
    with pytest.raises(ConfigError):
        SweepConfig.from_mapping(
            {**SMALL_DIRECT, "axis": "temperature",
             "grid_min": 0.5, "grid_max": 1.0, "grid_count": 3,
             "grid_scale": "cubic"}
        )


def test_sweep_grid_generation():
    sweep = SweepConfig.from_mapping(
        {**SMALL_DIRECT, "axis": "temperature",
         "grid_min": 0.5, "grid_max": 2.0, "grid_count": 3, "grid_scale": "log"}
    )
    assert sweep.grid == pytest.approx((0.5, 1.0, 2.0), rel=1e-12)


@pytest.fixture
def bounded_grids(monkeypatch):
    """np.linspace and np.geomspace, failing a request for more points
    than report.MAX_GRID_POINTS before anything is allocated."""
    for name in ("linspace", "geomspace"):
        def guarded(lo, hi, num, real=getattr(np, name), name=name):
            assert num <= report_mod.MAX_GRID_POINTS, f"np.{name} asked for {num} points"
            return real(lo, hi, num)

        monkeypatch.setattr(np, name, guarded)


@pytest.mark.parametrize("scale", ["linear", "log"])
def test_grid_count_fails_closed_before_the_grid_is_made(bounded_grids, scale):
    # a billion points would take 8 GB before the first one ran
    mapping = {**SMALL_DIRECT, "axis": "temperature", "grid_min": 0.5,
               "grid_max": 1.0, "grid_scale": scale}
    with pytest.raises(ConfigError, match="10000"):
        SweepConfig.from_mapping({**mapping, "grid_count": 1_000_000_000})
    with pytest.raises(ConfigError, match="10000"):
        SweepConfig.from_mapping({**mapping, "grid_count": 10_001})
    most = SweepConfig.from_mapping({**mapping, "grid_count": 10_000})
    assert len(most.grid) == report_mod.MAX_GRID_POINTS == 10_000


def test_cli_refuses_a_grid_count_past_the_ceiling(bounded_grids, capsys):
    argv = ["sweep", *_flags({**SMALL_DIRECT, "axis": "temperature", "grid_min": 0.5,
                              "grid_max": 1, "grid_count": 1_000_000_000})]
    assert main(argv) == 1
    assert "10000" in capsys.readouterr().err


def test_an_explicit_grid_takes_no_scale():
    # the scale of an explicit grid would be ignored unchecked, a typo and all
    for scale in ("cubic", "log", "linear"):
        with pytest.raises(ConfigError, match="not both"):
            SweepConfig.from_mapping(
                {**SMALL_DIRECT, "axis": "temperature", "grid": [0.5, 1.0],
                 "grid_scale": scale}
            )


def test_directly_built_config_rejects_nan():
    cfg = RunConfig(scenario="direct-z", z=float("nan"), omega_in=1.0, omega_out=2.0)
    with pytest.raises(ConfigError):
        run_simulation(cfg)


def _flags(mapping):
    return [arg for key, value in mapping.items() for arg in (f"--{key}", str(value))]


COSMOLOGY = {"scenario": "cosmology", "momentum": 1.0, "mass": 1.0, "epsilon": 1.0,
             "sigma": 1.0}


@pytest.mark.parametrize("argv, key", [
    (["simulate", *_flags({**SMALL_DIRECT, "z": "nan"})], "z"),
    (["simulate", *_flags({**SMALL_DIRECT, "temperature": "nan"})], "temperature"),
    (["simulate", *_flags({**COSMOLOGY, "sigma": "nan"})], "sigma"),
    (["simulate", *_flags({**SMALL_DIRECT, "z": "inf"})], "z"),
    (["sweep", *_flags({**SMALL_DIRECT, "axis": "temperature", "grid_min": "abc",
                        "grid_max": 1.0, "grid_count": 3})], "grid_min"),
    (["sweep", *_flags({**SMALL_DIRECT, "axis": "temperature", "grid_min": 0.5,
                        "grid_max": 1.0, "grid_count": "two"})], "grid_count"),
])
def test_cli_rejects_bad_numbers(argv, key, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert repr(key) in err


@pytest.mark.parametrize("precision", [0, 18, 2**31])
def test_cli_rejects_a_precision_outside_1_to_17(precision, capsys):
    # 17 digits round-trip a float64; 2^31 once printed every float to one
    # digit, since CPython formats .2147483647e as 1e+00, and 2^31 + 1
    # raised a bare ValueError
    assert main(["simulate", *_flags({**SMALL_DIRECT, "precision": precision})]) == 1
    assert capsys.readouterr().err.startswith("config error: precision must lie in [1, 17]")


def test_precision_17_round_trips_every_float(capsys):
    assert main(["simulate", *_flags({**SMALL_DIRECT, "precision": 17})]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row == run_simulation(RunConfig.from_mapping(SMALL_DIRECT))


@pytest.mark.parametrize(
    "grid", ["0.5,1.0", [0.5, "abc"], [0.5, None], [0.5, "nan"], [True, 2.0]]
)
def test_cli_rejects_bad_grid_in_config_file(grid, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_DIRECT, "axis": "temperature", "grid": grid}))
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("key, value", [
    ("cutoff", None), ("temperature", None), ("leakage_tolerance", None),
    ("precision", None), ("temperature", True), ("cutoff", True), ("cutoff", False),
])
def test_cli_rejects_null_and_boolean_config_values(key, value, tmp_path, capsys):
    # a null for a key with a default once crashed validate with TypeError,
    # and a JSON true once ran as the number 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_DIRECT, key: value}))
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err


def test_sweep_rejects_a_boolean_grid_count():
    with pytest.raises(ConfigError, match="'grid_count'"):
        SweepConfig.from_mapping({**SMALL_DIRECT, "axis": "temperature", "grid_min": 0.5,
                                  "grid_max": 1.0, "grid_count": True})


def test_cli_simulate_roundtrip(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_DIRECT))
    assert main(["simulate", "--config", str(path)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["flags"] == "ok"
    assert row["cutoff"] == 16


def test_cli_override_beats_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_DIRECT))
    assert main(["simulate", "--config", str(path), "--temperature", "0"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["flags"] == "ok;vacuum-path"


def test_cli_outfile(tmp_path):
    path = tmp_path / "cfg.json"
    out = tmp_path / "report.csv"
    path.write_text(json.dumps({**SMALL_DIRECT, "output": "csv"}))
    assert main(["simulate", "--config", str(path), "--outfile", str(out)]) == 0
    assert out.read_text().startswith("scenario,")


def test_cli_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    # a Latin-1 byte once escaped as a UnicodeDecodeError traceback
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(SMALL_DIRECT)[:-1].encode() + b', "note": "caf\xe9"}')
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config file is not UTF-8 text:")
    assert err.count("\n") == 1


def test_cli_rejects_a_deeply_nested_config_file(tmp_path, capsys):
    # json decodes arrays by recursion; 100,000 nested [ once escaped as a
    # RecursionError traceback
    path = tmp_path / "cfg.json"
    path.write_text("[" * 100_000)
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config file nests too deeply:")
    assert err.count("\n") == 1


def test_cli_out_of_memory_is_budget_error(monkeypatch, capsys):
    # a cutoff whose kernel does not fit in memory once ended in a numpy
    # _ArrayMemoryError traceback
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(report_mod, "transition_kernel", out_of_memory)
    argv = ["simulate", "--scenario", "direct-z", "--z", "0.5",
            "--omega_in", "1", "--omega_out", "2", "--cutoff", "100000"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == "numerical budget error: out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_cli_unwritable_outfile_fails_closed(tmp_path, capsys):
    # a run that succeeds but cannot write its report once ended in a
    # FileNotFoundError traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_DIRECT))
    out = tmp_path / "absent" / "report.json"
    assert main(["simulate", "--config", str(path), "--outfile", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report:") and str(out) in err
    assert err.count("\n") == 1
    assert not out.parent.exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL_DIRECT, "mistyped": True}))
    assert main(["simulate", "--config", str(bad)]) == 1
    leaky = tmp_path / "leaky.json"
    leaky.write_text(json.dumps({**SMALL_DIRECT, "z": 1.2, "cutoff": 8}))
    assert main(["simulate", "--config", str(leaky)]) == 3
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_large_epsilon_cosmology_is_budget_error(capsys):
    # log sinh b - log sinh a no longer rounds tanh z to 1 at epsilon = 1e40:
    # z stays finite and the vacuum gate suggests a cutoff
    argv = ["simulate", "--scenario", "cosmology", "--momentum", "0",
            "--mass", "1", "--epsilon", "1e40", "--sigma", "1e3"]
    assert main(argv) == 3
    assert "suggested cutoff >= 2931" in capsys.readouterr().err


def test_overflowing_work_fails_closed(capsys):
    # omega_out near the float64 limit overflows <W> to inf and W_fric to
    # NaN; the report once printed both (not valid JSON) with flags "ok"
    argv = ["simulate", "--scenario", "direct-z", "--z", "0.5", "--omega_in", "1",
            "--omega_out", "1e308", "--temperature", "1"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "NaN" not in out and "Infinity" not in out
    assert "work is not finite" in err


def test_overflowing_work_is_a_sweep_error_row():
    rows = run_sweep(_temperature_sweep([0.5, 1.0], omega_out=1e308))
    assert [row["flags"] for row in rows] == ["error", "error"]
    for row in rows:
        assert row["error"].startswith("NumericError: work is not finite")
        assert row["mean_work"] is None and row["inner_friction"] is None
    rendered = render_json(rows, 12)
    assert "NaN" not in rendered and "Infinity" not in rendered


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unholdable_squeeze_suggests_no_cutoff():
    # tanh(20) rounds to 1: the vacuum column leaks everything at any cutoff
    with pytest.raises(LeakageError, match="no cutoff can hold") as leak:
        run_simulation(RunConfig.from_mapping({**SMALL_DIRECT, "z": 20.0}))
    assert "suggested cutoff" not in str(leak.value)


@pytest.mark.parametrize(
    "scenario",
    [
        {"scenario": "unruh", "omega": 1.0, "acceleration": 1e17},
        {"scenario": "blackhole", "omega": 1.0, "mass_bh": 1e-18},
        {"scenario": "unruh", "omega": 1e-300, "acceleration": 1e100},
    ],
    ids=["unruh", "blackhole", "unruh-underflow"],
)
def test_horizon_squeeze_past_tanh_one_is_budget_error(scenario):
    # a z whose tanh rounds to 1 fails the vacuum gate, warning-free; it
    # stays finite where pi omega / a underflows to 0
    with pytest.raises(LeakageError, match="no cutoff can hold"):
        run_simulation(RunConfig.from_mapping(scenario))


def test_cli_rejects_unknown_flag(capsys):
    assert main(["simulate", "--frobnicate", "1"]) == 1
    # --quiet belongs to sweep and verify; simulate has nothing to quieten
    valid = ["--scenario", "direct-z", "--z", "0.3", "--omega_in", "1",
             "--omega_out", "2", "--temperature", "0.5", "--cutoff", "16"]
    assert main(["simulate", *valid]) == 0
    assert main(["simulate", "--quiet", *valid]) == 1
    capsys.readouterr()


def test_every_config_key_is_a_cli_flag():
    parser = build_parser()
    config_keys = [f.name for f in fields(RunConfig)]
    for command, keys in (
        ("simulate", config_keys),
        ("sweep", config_keys + list(SWEEP_ONLY_KEYS)),
    ):
        for key in keys:
            args = parser.parse_args([command, f"--{key}", "1"])
            assert getattr(args, key) == "1", (command, key)


BATTERY_CHECKS = [
    "kernel-symmetry", "difference-conservation", "parity-support",
    "vacuum-column-budget", "bogoliubov-identity", "created-closed-form",
    "second-law", "crooks-microstate", "crooks-distribution", "kl-identity",
    "integral-fluctuation", "entropy-friction-chain",
    "quantum-relative-entropy", "oracle-orthogonality", "oracle-equivalence",
    "vacuum-law", "massless-null", "sudden-limit", "quasistatic-limit",
    "adiabatic-work-closed-form", "adiabatic-consistency",
]


def _check_names(lines):
    return [ln.split()[1] for ln in lines if ln.startswith(("  PASS", "  FAIL"))]


def test_verify_reports_kl_identity_failure(monkeypatch):
    # a broken <s> = KL identity is one failed check, not an aborted battery
    import cosmoflux.fluctuation as fluctuation_mod

    def broken(p_e, p_c):
        raise VerificationError("<s> and KL disagree by 1.000e+00 (> 1e-8)")

    monkeypatch.setattr(fluctuation_mod, "mean_entropy_and_kl", broken)
    lines, failures = verify_invariants()
    assert _check_names(lines) == BATTERY_CHECKS
    assert failures == 1
    assert [ln.split()[1] for ln in lines if ln.startswith("  FAIL")] == ["kl-identity"]


def test_verify_reports_crooks_failure(monkeypatch):
    # a Crooks support mismatch fails both Crooks lines; the battery goes on
    import cosmoflux.fluctuation as fluctuation_mod

    message = "support mismatch: P_E(1) > floor but P_C(-1) = 0"

    def broken(p_e, p_c, microstate_deviation):
        raise VerificationError(message)

    monkeypatch.setattr(fluctuation_mod, "crooks_deviation", broken)
    lines, failures = verify_invariants()
    assert _check_names(lines) == BATTERY_CHECKS
    assert failures == 2
    assert [ln.split(None, 2)[1:] for ln in lines if ln.startswith("  FAIL")] == [
        ["crooks-microstate", message], ["crooks-distribution", message],
    ]


def test_verify_catches_a_shifted_vacuum_column(monkeypatch):
    # failure witness for created-closed-form on the vacuum path: moving
    # 1e-5 of probability from 2 to 4 quanta shifts <n_c> by 2e-5, past
    # the 1e-6 tolerance; the kernel checks read the kernel and pass.
    # vacuum-law reads the vacuum table too, and fails beside it
    real = fock_mod._vacuum_build

    def shifted(z, cutoff):
        amps, _colsums, table = real(z, cutoff)
        table[2, 0] -= 1e-5  # cells (2p, 0) hold the squares of column 0
        table[4, 0] += 1e-5
        return amps, np.cumsum(table[0::2, 0])[-1:], table

    monkeypatch.setattr(fock_mod, "_vacuum_build", shifted)
    lines, failures = verify_invariants(canonical_config().replace(temperature=0.0))
    assert failures == 2
    created, law = [ln for ln in lines if ln.startswith("  FAIL")]
    assert created.split()[1] == "created-closed-form"
    assert "|<n_c> - closed| = 2.000e-05 (tol 1.0e-06)" in created
    assert law.split()[1] == "vacuum-law"


def test_battery_catches_a_shifted_kernel_entry(monkeypatch):
    # failure witness for oracle-equivalence: one entry inside the 9 x 9
    # corner of block d = 2 moves by 3e-10, past the line's 1e-10
    # tolerance and below the 1e-9 column-sum limit, so the kernel builds
    real = fock_mod._amplitudes

    def shifted(z, cutoff):
        amps = real(z, cutoff)
        if z > 0.0:
            size = cutoff - 1  # block 2 follows blocks 0 and 1
            amps[(cutoff + 1) ** 2 + cutoff**2 + 3 * size + 1] += 3e-10
        return amps

    monkeypatch.setattr(fock_mod, "_amplitudes", shifted)
    items = report_mod._battery_global()
    assert [name for name, ok, _detail in items if not ok] == ["oracle-equivalence"]


@pytest.mark.parametrize("rendering", [{"precision": 6}, {"output": "csv"}])
def test_verify_runs_the_canonical_point_once(rendering):
    # output and precision only render a report: the canonical point with
    # either changed is still the canonical point, checked once
    lines, failures = verify_invariants(canonical_config().replace(**rendering))
    assert failures == 0
    assert "canonical point" not in "\n".join(lines)
    assert lines[-1] == "0 failure(s) out of 21 checks"


def _section(lines, title):
    start = lines.index(f"[{title}]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    return lines[start:end]


def test_verify_vacuum_point_checks_the_full_kernel():
    # the vacuum path builds the vacuum table only, but the kernel checks read
    # every sector; the configured point stops after second-law
    lines, failures = verify_invariants(canonical_config().replace(temperature=0.0))
    assert failures == 0
    configured = _section(lines, "configured point (scenario=direct-z)")
    assert _check_names(configured) == BATTERY_CHECKS[:7]
    assert "states not covered once = 0" in configured[1]
    assert _check_names(_section(lines, "canonical point")) == BATTERY_CHECKS[:13]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_integral_fluctuation_finite_at_low_temperature():
    # at T = 0.05, e^(-s) alone overflows where P_E(s) = 0, and the
    # contraction masses of the highest lattice points underflow to 0 where
    # the expansion masses pass the floor, as the relation predicts: both
    # Crooks checks leave those points out and pass
    cfg = canonical_config().replace(temperature=0.05)
    lines, failures = verify_invariants(cfg)
    assert failures == 0
    configured = _section(lines, "configured point (scenario=direct-z)")
    checks = {ln.split()[1]: ln.split()[0] for ln in configured}
    for name in ("integral-fluctuation", "crooks-microstate", "crooks-distribution"):
        assert checks[name] == "PASS"
    row = run_simulation(cfg)
    assert row["flags"] == "ok" and row["crooks_dev"] <= 1e-8


@pytest.mark.parametrize("temperature", [0.04, 0.03])
def test_kl_identity_holds_below_t_005(temperature):
    # below T = 0.05 more lattice points have partners below the smallest
    # normal double; the KL pairing leaves them out, as the Crooks checks
    # do, so the point runs and the battery passes
    cfg = canonical_config().replace(temperature=temperature)
    row = run_simulation(cfg)
    assert row["flags"] == "ok"
    lines, failures = verify_invariants(cfg)
    assert failures == 0


def test_kl_identity_line_prints_the_gap_it_judges(kernel40, spec40):
    # at T = 0.02 the points whose partner underflows carry 6.1e-5 of P_E,
    # and <s> - KL is 4.5e-2; the line once printed that beside PASS. It
    # prints the gap mean_entropy_and_kl holds to 1e-8, <s> less the
    # left-out points' P_E(s) s less KL, and the left-out mass
    cfg = canonical_config().replace(temperature=0.02)
    configured = _section(verify_invariants(cfg)[0], "configured point (scenario=direct-z)")
    line = next(ln for ln in configured if ln.split()[1] == "kl-identity")
    status, _name, detail = line.split(None, 2)
    assert status == "PASS" and detail.startswith("|<s>-out-KL| = ")
    gap, mass, s_mean = (float(part.split()[-1]) for part in detail.split(", "))
    assert gap <= 1e-8
    p_e, p_c, micro_dev = entropy_distributions(
        kernel40.table, thermal_distribution(0.02, 1.0, spec40)
    )
    floored = crooks_deviation(p_e, p_c, micro_dev).floored_mass
    assert mass == float(f"{floored:.3e}") and 6e-5 < mass < 6.2e-5
    assert abs(s_mean - mean_entropy(p_e)) <= 1e-6 * s_mean


def test_battery_decomposes_each_sector_once(monkeypatch):
    # one decomposition per sector serves all three z: 40 sectors of size
    # >= 2 at cutoff 40 for orthogonality, 9 sectors for equivalence. The
    # table holds them, so a second battery in the process decomposes none
    fock_mod._sector_eigen.cache_clear()
    decompositions = spy_on(monkeypatch, fock_mod, "dstevd")
    items = report_mod._battery_global()
    assert len(decompositions) == 49
    assert all(ok for _name, ok, _detail in items)
    assert report_mod._battery_global() == items
    assert len(decompositions) == 49


def test_run_simulation_raises_first_failed_check(monkeypatch):
    import cosmoflux.fluctuation as fluctuation_mod

    def failing(message):
        def check(*args):
            raise VerificationError(message)
        return check

    monkeypatch.setattr(fluctuation_mod, "mean_entropy_and_kl", failing("kl"))
    monkeypatch.setattr(fluctuation_mod, "quantum_relative_entropy", failing("qre"))
    with pytest.raises(VerificationError, match="^kl$"):
        run_simulation(canonical_config())


@pytest.mark.parametrize("flags, rendering", [
    (["--precision", "6"], {"precision": 6}), (["--output", "csv"], {"output": "csv"}),
])
def test_cli_verify_with_rendering_flags_checks_the_canonical_point(
    monkeypatch, capsys, flags, rendering
):
    # rendering flags alone once made verify build a config without a
    # scenario and exit 1; they leave the canonical point to check
    import cosmoflux.cli as cli_mod

    checked = []
    monkeypatch.setattr(
        cli_mod, "verify_invariants", lambda cfg: (checked.append(cfg), (["ok"], 0))[1]
    )
    assert main(["verify", *flags]) == 0
    assert checked == [canonical_config().replace(**rendering)]
    assert main(["verify", "--precision", "0"]) == 1  # still validated
    capsys.readouterr()


def test_cli_verify_failure_exit(monkeypatch, capsys):
    import cosmoflux.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "verify_invariants", lambda cfg: (["FAIL stub"], 1)
    )
    assert main(["verify"]) == 2
    capsys.readouterr()


def test_cli_sweep_csv(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {**SMALL_DIRECT, "output": "csv", "axis": "temperature",
             "grid": [0.25, 0.5]}
        )
    )
    assert main(["sweep", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].split(",")[-1] == "error"


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cosmoflux", "simulate",
         "--scenario", "direct-z", "--z", "0.3", "--omega_in", "1",
         "--omega_out", "2", "--temperature", "0.5", "--cutoff", "16",
         "--leakage_tolerance", "1e-6"],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)
    assert row["flags"] == "ok"
