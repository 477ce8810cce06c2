import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from cosmoflux import (
    ConfigError,
    LeakageError,
    NumericError,
    RunConfig,
    SweepConfig,
    TruncationSpec,
    VerificationError,
    canonical_config,
    transition_kernel,
    verify_invariants,
)
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
    # the T = 0 point builds sector 0 only; the first T > 0 point needs
    # every sector, and that kernel serves the rest
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    rows = run_sweep(_temperature_sweep([0.0, 0.25, 0.5, 0.75]))
    assert [r["error"] for r in rows] == [""] * 4
    assert builds == [(0.3, TruncationSpec(16, 1e-6), 1), (0.3, TruncationSpec(16, 1e-6), 17)]


def test_vacuum_points_reuse_a_full_kernel(monkeypatch):
    # a held kernel with at least the needed sectors serves the point
    grid = [1.0, 0.0, 0.5, 0.0]
    sweep = _temperature_sweep(grid)
    singles = [run_simulation(sweep.base.replace(temperature=t)) for t in grid]
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    rows = run_sweep(sweep)
    assert builds == [(0.3, TruncationSpec(16, 1e-6), 17)]
    assert rows == [{**single, "error": ""} for single in singles]


UNSTABLE_VACUUM = {**SMALL_DIRECT, "z": 1.2, "cutoff": 64, "leakage_tolerance": 1e-2,
                   "temperature": 0.0}


def test_unstable_vacuum_point_fails_closed(tmp_path, capsys):
    # the full kernel loses double precision here, and so does its d = 0 block
    spec = TruncationSpec(64, 1e-2)
    with pytest.raises(NumericError):
        transition_kernel(1.2, spec)
    with pytest.raises(NumericError, match="column mass exceeds 1"):
        run_simulation(RunConfig.from_mapping(UNSTABLE_VACUUM))
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(UNSTABLE_VACUUM))
    assert main(["simulate", "--config", str(path)]) == 3
    capsys.readouterr()


def test_sigma_sweep_builds_one_kernel_per_z(monkeypatch):
    builds = spy_on(monkeypatch, report_mod, "transition_kernel")
    sweep = SweepConfig.from_mapping({
        "scenario": "cosmology", "momentum": 1.0, "mass": 1.0, "epsilon": 1.0,
        "sigma": 0.5, "temperature": 0.0, "cutoff": 16,
        "axis": "sigma", "grid": [0.5, 1.0, 1.0, 2.0],
    })
    rows = run_sweep(sweep)
    zs = [r["z"] for r in rows]
    assert len(set(zs)) == 3
    assert [z for z, _spec, _sectors in builds] == list(dict.fromkeys(zs))
    assert [sectors for *_, sectors in builds] == [1, 1, 1]


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


@pytest.mark.parametrize("grid", ["0.5,1.0", [0.5, "abc"], [0.5, None], [0.5, "nan"]])
def test_cli_rejects_bad_grid_in_config_file(grid, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_DIRECT, "axis": "temperature", "grid": grid}))
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


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


def _section(lines, title):
    start = lines.index(f"[{title}]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    return lines[start:end]


def test_verify_vacuum_point_checks_the_full_kernel():
    # the vacuum path builds sector 0 only, but the kernel checks read
    # every sector; the configured point stops after second-law
    lines, failures = verify_invariants(canonical_config().replace(temperature=0.0))
    assert failures == 0
    configured = _section(lines, "configured point (scenario=direct-z)")
    assert _check_names(configured) == BATTERY_CHECKS[:7]
    assert "states not covered once = 0" in configured[1]
    assert _check_names(_section(lines, "canonical point")) == BATTERY_CHECKS[:13]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_integral_fluctuation_finite_at_low_temperature():
    # at T = 0.05, e^(-s) alone overflows where P_E(s) = 0, and contraction
    # masses underflow to 0 where the expansion masses pass the floor: the
    # microstate residual meets log(0) before the support check runs
    lines, _failures = verify_invariants(canonical_config().replace(temperature=0.05))
    configured = _section(lines, "configured point (scenario=direct-z)")
    line = next(ln for ln in configured if ln.split()[1] == "integral-fluctuation")
    assert line.split()[0] == "PASS"
    message = "support mismatch: P_E(720) > floor but P_C(-720) = 0"
    assert [ln.split(None, 2) for ln in configured if "crooks" in ln] == [
        ["FAIL", "crooks-microstate", message], ["FAIL", "crooks-distribution", message],
    ]


def test_battery_decomposes_each_sector_once(monkeypatch):
    # one decomposition per sector serves all three z: 40 sectors of size
    # >= 2 at cutoff 40 for orthogonality, 9 sectors for equivalence
    import cosmoflux.fock as fock_mod

    decompositions = spy_on(monkeypatch, fock_mod, "eigh_tridiagonal")
    items = report_mod._battery_global()
    assert len(decompositions) == 49
    assert all(ok for _name, ok, _detail in items)


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
