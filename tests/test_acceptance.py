"""End-to-end acceptance battery.

Each test measures one contract of the pipeline at its stated tolerance
and records a single PASS/FAIL line (printed in the terminal summary).
The canonical operating point is tanh z = 1/2, omega 1 -> 2, T = 1,
cutoff 40, leakage tolerance 1e-8.
"""

import json
import subprocess
import sys

import numpy as np

from cosmoflux import (
    TruncationSpec,
    asymptotic_frequencies,
    CosmologyParams,
    crooks_deviation,
    entropy_distributions,
    inner_friction,
    integral_fluctuation_defect,
    mean_created_closed_form,
    mean_entropy,
    mean_entropy_and_kl,
    quantum_relative_entropy,
    squeeze_from_cosmology,
    thermal_distribution,
    transition_kernel,
)
from cosmoflux.fock import sector_spectral

from conftest import CHILD_ENV, Z_CANON

N_CREATED_CANON = 1.442635609159102
W_FRIC_CANON = 2.885271218318204
W_MEAN_CANON = 5.049224632056856
W_AD_CANON = 2.163953413738653


def _accept(request, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {name:34s} {detail}"
    request.config._acceptance_lines.append(line)
    assert ok, line


def test_01_amplitude_dual_route(request):
    # the 13 x 13 corners of blocks d = 0..12 of the pipeline's kernel
    worst = 0.0
    for z in (0.25, Z_CANON, 1.0):
        blocks = transition_kernel(z, TruncationSpec(24, 1e-2)).amplitudes
        for d in range(13):
            built = blocks[d][:13, :13]
            spe = sector_spectral(z, d, 128)[:13, :13]
            worst = max(worst, float(np.max(np.abs(built - spe))))
    spot = abs(blocks[3][5, 2] - sector_spectral(1.0, 3, 128)[5, 2])
    worst = max(worst, spot)
    _accept(
        request, "01-amplitude-dual-route", worst <= 1e-10,
        f"max |kernel - spectral| = {worst:.3e} (tol 1e-10, indices <= 12)",
    )


def test_02_vacuum_pair_law(request, kernel40):
    tau = np.tanh(Z_CANON)
    col = kernel40.amplitudes[0][:, 0] ** 2  # sector d = 0: states (n, n)
    worst = 0.0
    for n in range(11):
        expected = (1.0 - tau * tau) * tau ** (2 * n)
        worst = max(worst, abs(col[n] - expected) / expected)
    head = [col[n] for n in range(4)]
    _accept(
        request, "02-vacuum-pair-law", worst <= 1e-9,
        f"max rel err = {worst:.3e} (tol 1e-9); p(0..3) = "
        + ", ".join(f"{v:.8f}" for v in head),
    )


def test_03_crooks_symmetry(request, dists40):
    report = crooks_deviation(*dists40)
    ok = (
        report.microstate_deviation <= 1e-10
        and report.distribution_deviation <= 1e-8
    )
    _accept(
        request, "03-crooks-symmetry", ok,
        f"microstate = {report.microstate_deviation:.3e} (tol 1e-10), "
        f"distribution = {report.distribution_deviation:.3e} (tol 1e-8)",
    )


def test_04_entropy_kl_identity(request, dists40):
    p_e, p_c, _ = dists40
    s_mean, kl = mean_entropy_and_kl(p_e, p_c)
    ok = abs(s_mean - kl) <= 1e-8 and s_mean >= -1e-10
    _accept(
        request, "04-entropy-kl-identity", ok,
        f"|<s> - KL| = {abs(s_mean - kl):.3e} (tol 1e-8), <s> = {s_mean:.9f}",
    )


def test_05_entropy_friction_chain(request, work40, dists40):
    p_e, p_c, _ = dists40
    s_mean, _ = mean_entropy_and_kl(p_e, p_c)
    t_ad = work40.adiabatic_temperature
    r1 = abs(s_mean - work40.inner_friction / t_ad)
    r2 = abs(s_mean - (work40.omega_out / t_ad) * work40.mean_created)
    r3 = abs(s_mean - N_CREATED_CANON)
    r4 = abs(work40.inner_friction - W_FRIC_CANON)
    ok = r1 <= 1e-6 and r2 <= 1e-6 and r3 <= 1e-6 and r4 <= 1e-6
    _accept(
        request, "05-entropy-friction-chain", ok,
        f"|<s> - W_fric/T_ad| = {r1:.3e}, |<s> - (w_out/T_ad)<n_c>| = {r2:.3e}, "
        f"<s> = {s_mean:.6f}, W_fric = {work40.inner_friction:.6f} (tol 1e-6)",
    )


def test_06_quantum_relative_entropy(request, thermal40, kernel40, work40):
    K = quantum_relative_entropy(
        thermal40, kernel40, work40.adiabatic_temperature, work40
    )
    resid = abs(work40.adiabatic_temperature * K - work40.inner_friction)
    tol = 1e-5 * max(1.0, abs(work40.inner_friction))
    _accept(
        request, "06-quantum-relative-entropy", resid <= tol,
        f"|T_ad K - W_fric| = {resid:.3e} (tol {tol:.3e})",
    )


def test_07_work_bookkeeping(request, work40, thermal40):
    r1 = abs(work40.mean_work - W_MEAN_CANON)
    r2 = abs(work40.adiabatic_work - W_AD_CANON)
    kern0 = transition_kernel(0.0, TruncationSpec(40, 1e-8))
    work0 = inner_friction(kern0, thermal40, 1.0, 2.0)
    r3 = abs(work0.mean_work - work0.adiabatic_work)
    ok = r1 <= 1e-6 and r2 <= 1e-9 and r3 <= 1e-12
    _accept(
        request, "07-work-bookkeeping", ok,
        f"|<W> - ref| = {r1:.3e} (tol 1e-6), |W_ad - ref| = {r2:.3e}, "
        f"z=0 |<W> - W_ad| = {r3:.3e} (tol 1e-12)",
    )


def test_08_created_pairs_closed_form(request):
    def kernel_created(z, t_ratio, size):
        spec = TruncationSpec(size, 0.5)
        thermal = thermal_distribution(t_ratio, 1.0, spec)
        return inner_friction(transition_kernel(z, spec), thermal, 1.0, 2.0).mean_created

    def ladder(z, t_ratio):
        prev = kernel_created(z, t_ratio, 40)
        size = 40
        while size < 232:
            size += 24
            cur = kernel_created(z, t_ratio, size)
            if abs(cur - prev) <= 1e-7:
                return cur
            prev = cur
        return prev

    worst = 0.0
    for z in (0.0, 0.25, 0.5, 1.0):
        for t_ratio in (0.1, 1.0, 2.0):
            created = ladder(z, t_ratio)
            target = mean_created_closed_form(z, t_ratio, 1.0)
            worst = max(worst, abs(created - target))
    _accept(
        request, "08-created-pairs-closed-form", worst <= 1e-6,
        f"max |<n_c> - 2 sinh^2 z (<n_i>+1)| = {worst:.3e} "
        f"(tol 1e-6, z in [0,1], T/omega in [0.1,2])",
    )


def test_09_scenario_limits(request):
    massless = CosmologyParams(epsilon=1.0, sigma=1.0, mass=0.0, momentum=1.0)
    w_in, w_out = asymptotic_frequencies(massless)
    z_massless = squeeze_from_cosmology(w_in, w_out, 1.0)

    w_in, w_out = np.sqrt(2.0), 2.0
    zs = [squeeze_from_cosmology(w_in, w_out, s) for s in np.geomspace(1e-3, 1e3, 9)]
    monotone = zs[0] <= 1e-12 and all(a <= b for a, b in zip(zs, zs[1:]))

    sudden = abs(
        np.tanh(squeeze_from_cosmology(w_in, w_out, 1e6))
        - (w_out - w_in) / (w_out + w_in)
    )

    z_ref = squeeze_from_cosmology(w_in, w_out, 1.0)
    point = abs(z_ref - 0.009895078074440641)
    ok = (
        z_massless == 0.0
        and monotone
        and sudden <= 1e-9
        and point <= 1e-9
        and abs(z_ref - 0.009899) <= 5e-6
    )
    _accept(
        request, "09-scenario-limits", ok,
        f"z(m=0) = {z_massless!r}, quasistatic monotone = {monotone}, "
        f"sudden dev = {sudden:.3e} (tol 1e-9), z(unit point) = {z_ref:.9f}",
    )


def test_10_second_law_positivity(request):
    spec = TruncationSpec(cutoff=44, leakage_tolerance=1e-2)
    min_fric_margin = np.inf
    min_s = np.inf
    for z in (0.0, 0.6, 1.2):
        kern = transition_kernel(z, spec)
        for t_ratio in (0.1, 2.5, 5.0):
            thermal = thermal_distribution(t_ratio, 1.0, spec)
            # the entropy lattice runs at omega_in / T whatever omega_out is
            p_e, _, _ = entropy_distributions(kern, thermal)
            min_s = min(min_s, mean_entropy(p_e))
            for ratio in (1.0, 2.0, 3.0):
                work = inner_friction(kern, thermal, 1.0, ratio)
                min_fric_margin = min(
                    min_fric_margin, work.inner_friction + work.truncation_bound
                )
    ok = min_fric_margin >= 0.0 and min_s >= -1e-10
    _accept(
        request, "10-second-law-positivity", ok,
        f"min (W_fric + bound) = {min_fric_margin:.3e} (>= 0), "
        f"min <s> = {min_s:.3e} (>= -1e-10) over 27-point grid",
    )


def test_11_integral_fluctuation(request, dists40):
    p_e, _, _ = dists40
    defect = integral_fluctuation_defect(p_e)
    _accept(
        request, "11-integral-fluctuation", defect <= 1e-6,
        f"|E[e^-s] - 1| = {defect:.3e} (tol 1e-6)",
    )


def test_12_cli_contract(request, tmp_path):
    cfg = {
        "scenario": "direct-z",
        "z": Z_CANON,
        "omega_in": 1.0,
        "omega_out": 2.0,
        "temperature": 1.0,
        "cutoff": 40,
        "leakage_tolerance": 1e-8,
        "output": "json",
        "precision": 12,
    }
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(cfg))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "cosmoflux", *args],
            capture_output=True, env=CHILD_ENV, text=True, timeout=300,
        )

    first = run("simulate", "--config", str(path))
    second = run("simulate", "--config", str(path))
    identical = first.returncode == 0 and first.stdout == second.stdout

    verify_ok = run("verify", "--config", str(path))
    leaky = run(
        "verify", "--scenario", "direct-z", "--z", "1.2", "--omega_in", "1",
        "--omega_out", "2", "--cutoff", "8",
    )
    ok = (
        identical
        and verify_ok.returncode == 0
        and leaky.returncode == 3
    )
    _accept(
        request, "12-cli-contract", ok,
        f"byte-identical = {identical}, verify exit = {verify_ok.returncode} "
        f"(want 0), starved-cutoff exit = {leaky.returncode} (want 3)",
    )
