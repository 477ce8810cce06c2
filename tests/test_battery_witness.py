"""Failure witnesses for the verify battery.

Each test injects one program fault by monkeypatching a stage, asserts
that the check it witnesses FAILs at the canonical point, and pins every
other line that FAILs beside it. Witnesses for oracle-equivalence,
vacuum-law and created-closed-form live in test_report_cli.
"""

import dataclasses

import numpy as np
import pytest

from cosmoflux import VerificationError, verify_invariants
import cosmoflux.fluctuation as fluctuation_mod
import cosmoflux.fock as fock_mod
import cosmoflux.thermo as thermo_mod


def _failed(lines):
    return [ln.split()[1] for ln in lines if ln.startswith("  FAIL")]


def test_crooks_microstate_catches_a_shifted_change_key(monkeypatch, kernel40, thermal40):
    # the live entry of least expansion mass, just over PROBABILITY_FLOOR
    # (1.0e-12), is keyed one step of p - q off: its increment s is off by
    # 2 omega_in / T, so its residual |log J - log Q - s| reads 2. Its mass
    # moves to the next lattice bin in both distributions, which
    # crooks-distribution sees too (3.2e-5); no other line does
    ix = fock_mod.sector_index(40)
    J = np.take(thermal40.flat_weights, ix.col) * kernel40.flat_amplitudes**2
    live = np.flatnonzero(J > fluctuation_mod.PROBABILITY_FLOOR)
    entry = live[np.argmin(J[live])]
    assert J[entry] < 2 * fluctuation_mod.PROBABILITY_FLOOR
    change = ix.change.copy()
    change[entry] += 1 if change[entry] < 2 * 40 else -1
    shifted = dataclasses.replace(ix, change=change)
    monkeypatch.setattr(
        fluctuation_mod, "sector_index",
        lambda cutoff: shifted if cutoff == 40 else fock_mod.sector_index(cutoff),
    )
    lines, failures = verify_invariants()
    assert _failed(lines) == ["crooks-microstate", "crooks-distribution"]
    assert failures == 2


def _noisy(weights):
    """weights times 1 + 1e-3 standard normal noise, from a fixed seed."""
    rng = np.random.default_rng(20)
    return weights * (1.0 + 1e-3 * rng.standard_normal(weights.shape))


def test_crooks_lines_catch_noise_on_the_gibbs_weights(monkeypatch):
    # no kernel fault can move either Crooks residual (entropy_distributions
    # says why); a fault in the weights the entropy pass reads breaks
    # w(p) / w(q) = e^(-s), and both lines FAIL, with every line that reads
    # the lattice. The work bookkeeping and the QRE read the true weights
    real = fluctuation_mod.entropy_distributions

    def noisy(kernel, thermal):
        weights = _noisy(thermal.flat_weights)
        return real(kernel, dataclasses.replace(thermal, flat_weights=weights))

    monkeypatch.setattr(fluctuation_mod, "entropy_distributions", noisy)
    lines, failures = verify_invariants()
    assert _failed(lines) == [
        "crooks-microstate", "crooks-distribution", "kl-identity",
        "integral-fluctuation", "entropy-friction-chain",
    ]
    assert failures == 5


def test_noise_in_the_gibbs_stage_stops_the_battery(monkeypatch):
    # the same noise where the weights are built also moves <n_i> and
    # <n_f>, and inner_friction's friction/creation check raises before
    # any line is printed: the battery fails closed
    real = thermo_mod._gibbs_weights

    def noisy(temperature, omega, cutoff):
        weights, defect = real(temperature, omega, cutoff)
        return _noisy(weights), defect

    monkeypatch.setattr(thermo_mod, "_gibbs_weights", noisy)
    with pytest.raises(VerificationError, match="friction/creation mismatch"):
        verify_invariants()


def test_kernel_symmetry_catches_an_asymmetric_bump(monkeypatch):
    # 1e-9 on amplitude [5, 0] of block d = 0 (tanh^5 z sech z = 0.027 at
    # the canonical z) and not on [0, 5] moves p(5|0) by 5.4e-11 and leaves
    # p(0|5). The bump is made at z != 0 only, so the identity kernel of
    # adiabatic-consistency stays exact; oracle-equivalence reads the same
    # builder at cutoff 16 and FAILs beside it, at 1e-9
    real = fock_mod._amplitudes

    def bumped(z, cutoff, vacuum):
        amps = real(z, cutoff, vacuum)
        if not vacuum and z != 0.0:
            amps[5 * (cutoff + 1)] += 1e-9  # block d = 0 is row-major at the start
        return amps

    monkeypatch.setattr(fock_mod, "_amplitudes", bumped)
    lines, failures = verify_invariants()
    assert _failed(lines) == ["kernel-symmetry", "oracle-equivalence"]
    assert failures == 2
