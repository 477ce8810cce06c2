"""Frozen script reports and the README's Python examples."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cosmoflux.report import (
    RunConfig,
    SweepConfig,
    canonical_config,
    render_csv,
    run_sweep,
)

from conftest import CHILD_ENV

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


# script -> its frozen default-precision report
GOLDEN_REPORTS = {
    "run_canonical": "run_canonical.json",
    "horizon_scenarios": "horizon_scenarios.json",
    "sweep_expansion_rate": "sweep_expansion_rate.csv",
}


@pytest.mark.parametrize("script", GOLDEN_REPORTS)
def test_script_report_is_byte_identical(script, capsys, monkeypatch):
    # default-precision reports frozen before sector-block storage and the
    # dgejsv SVD, which reorder floating-point sums only; the leakage lines
    # were refrozen when the thermal tail mass became the closed form
    # t(2 - t), which dropped about 1.1e-16 of cancellation noise. The sweep
    # CSV was frozen after that, with the script's default arguments; its
    # noise-level crooks_dev and leakage at sigma = 15.81 and 50 were
    # refrozen when the cosmology squeeze map stopped cancelling two large
    # log sinh values, which moved z in its last bits. All three were
    # refrozen when the su(1,1) recurrence replaced the alternating analytic
    # sum: leakage, crooks_dev and a few mean_created, inner_friction and
    # kl_quantum cells moved at noise level (CHANGES.md lists each cell).
    # The sweep CSV's mean_created of rows 0-4 moved onto the closed form
    # (row 0 from 7.556e-78 to 2.166e-77), and inner_friction of rows 0-2
    # by one ulp of mean_work, when the work pass stopped taking <n_c> as a
    # difference of two sums of totals. When every T > 0 statistic came to
    # be contracted from the kernel's total table, run_canonical's
    # crooks_dev moved from 1.42e-14 to 7.11e-15, the sweep CSV's crooks_dev
    # of rows 5-9, 11 and 12 by at most 1.8e-15, and its inner_friction of
    # rows 0-2 from -2.2e-16 to 2.2e-16, one ulp of mean_work either way.
    path = str(ROOT / "scripts" / f"{script}.py")
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / GOLDEN_REPORTS[script]).read_bytes()


# the canonical point swept over temperature, with a thermal-gate failure
# (T = 50) mid-grid; frozen before the sweep shared one kernel between
# points, and refrozen when the recurrence replaced the analytic sum
# (leakage, crooks_dev and kl_quantum moved at noise level) and when the
# statistics came from the kernel's total table (crooks_dev at T = 1 moved
# from 1.42e-14 to 7.11e-15)
TEMPERATURE_GRID = (0.25, 0.5, 0.75, 50.0, 1.0, 1.25, 1.5)


def test_temperature_sweep_is_byte_identical():
    sweep = SweepConfig(base=canonical_config(), axis="temperature", grid=TEMPERATURE_GRID)
    out = render_csv(run_sweep(sweep), 12)
    assert out.encode() == (GOLDEN / "sweep_temperature.csv").read_bytes()


# the cosmology sigma sweep on the T = 0 vacuum path (k = 1, m = 1,
# epsilon = 3, N = 56), then one point whose vacuum column overflows the
# budget at a starved cutoff; frozen before the vacuum path built only the
# d = 0 sector, at 17 digits so any change in the last bit shows; z and
# mean_created of the rows at sigma <= 4.33 and sigma = 53.4 were then
# refrozen with the squeeze map's cancellation-free form (z moved by at
# most 7.2e-15 relative), and rows 7, 9, 10 and 12 in their last digits
# when the vacuum column became sech(z) tanh(z)^p from the recurrence's start;
# mean_work, inner_friction and mean_created of row 7 and mean_created of
# row 12 moved by at most 1.3e-15 relative when the T = 0 work pass began
# to sum the vacuum column correctly rounded
SIGMA_BASE = RunConfig(
    scenario="cosmology", momentum=1.0, mass=1.0, epsilon=3.0, sigma=1.0,
    temperature=0.0, cutoff=56,
)
SIGMA_GRID = tuple(np.geomspace(0.1, 100.0, 12).tolist())


def sigma_vacuum_rows() -> list[dict]:
    starved = SIGMA_BASE.replace(cutoff=8, leakage_tolerance=1e-12)
    return (
        run_sweep(SweepConfig(base=SIGMA_BASE, axis="sigma", grid=SIGMA_GRID))
        + run_sweep(SweepConfig(base=starved, axis="sigma", grid=(100.0,)))
    )


def test_sigma_vacuum_sweep_is_byte_identical():
    rows = sigma_vacuum_rows()
    assert rows[-1]["error"].startswith("LeakageError: vacuum column leaks")
    out = render_csv(rows, 17)
    assert out.encode() == (GOLDEN / "sweep_sigma_vacuum.csv").read_bytes()


def test_verify_output_is_byte_identical():
    # `python -m cosmoflux verify` stdout, frozen before the spectral oracle
    # shared one decomposition between its z; the oracle-equivalence detail
    # was then refrozen, since the rescaled eigenvalues moved it at noise
    # level (2.748e-13 -> 2.768e-13); refrozen when the recurrence replaced
    # the analytic sum, which moved that detail to 2.720e-15 (now "max
    # |kernel - spectral|"), the vacuum-law and one entropy-friction residual;
    # refrozen when the work pass became one flat pass, which moved the
    # entropy-friction creation residual and adiabatic-consistency's
    # |<W> - W_ad| to 4.441e-16, and when the kl-identity line began to
    # print the gap it judges and the left-out mass; refrozen when the
    # squeeze map stopped cancelling at small a and b, which moved the
    # sudden-limit deviation at sigma = 1e6 from 4.492e-12 to 7.983e-13
    # (mpmath: 7.9825e-13); refrozen when the statistics came from the
    # kernel's total table, which moved the crooks-microstate residual, now
    # per cell of the table, from 1.421e-14 to 7.105e-15 and the
    # entropy-friction creation residual from 4.441e-16 to 0
    proc = subprocess.run(
        [sys.executable, "-m", "cosmoflux", "verify"],
        capture_output=True, env=CHILD_ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "verify.txt").read_bytes()


def _readme_python_blocks():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_examples_run(capsys):
    blocks = _readme_python_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
