"""Failure witnesses for the verify battery.

Each test injects one program fault by monkeypatching a stage or the
layout the battery reads, asserts that the check it witnesses FAILs at
the canonical point, and pins every other line that FAILs beside it. Witnesses for oracle-equivalence,
vacuum-law and created-closed-form live in test_report_cli.
"""

import dataclasses

import numpy as np
import pytest

from cosmoflux import VerificationError, verify_invariants
import cosmoflux.fluctuation as fluctuation_mod
import cosmoflux.fock as fock_mod
import cosmoflux.report as report_mod
import cosmoflux.thermo as thermo_mod


def _failed(lines):
    return [ln.split()[1] for ln in lines if ln.startswith("  FAIL")]


def test_crooks_microstate_catches_a_shifted_change_key(monkeypatch, kernel40, thermal40):
    # the live cell of the total table with the least expansion mass
    # R[t_f, t_i] w(t_i), just over PROBABILITY_FLOOR (1.0e-12), is keyed
    # one lattice step, a total change of 2, off: its increment s is off by
    # 2 omega_in / T, so its residual |log J - log Q - s| reads 2. Its mass
    # moves to the next lattice bin in both distributions, which
    # crooks-distribution sees too (5.8e-2); no other line does
    J = (kernel40.table.masses * thermal40.total_weights).ravel()
    live = np.flatnonzero(J > fluctuation_mod.PROBABILITY_FLOOR)
    cell = live[np.argmin(J[live])]
    assert J[cell] < 2 * fluctuation_mod.PROBABILITY_FLOOR
    keys = fock_mod.cell_changes(40).copy()
    keys[cell] += 2 if keys[cell] < 4 * 40 else -2
    monkeypatch.setattr(
        fluctuation_mod, "cell_changes",
        lambda cutoff: keys if cutoff == 40 else fock_mod.cell_changes(cutoff),
    )
    lines, failures = verify_invariants()
    assert _failed(lines) == ["crooks-microstate", "crooks-distribution"]
    assert failures == 2
    line = next(ln for ln in lines if "crooks-microstate" in ln)
    assert "residual = 2.000e+00" in line


def _noisy(weights):
    """weights times 1 + 1e-3 standard normal noise, from a fixed seed."""
    rng = np.random.default_rng(20)
    return weights * (1.0 + 1e-3 * rng.standard_normal(weights.shape))


def test_crooks_lines_catch_noise_on_the_gibbs_weights(monkeypatch):
    # no kernel fault can move either Crooks residual (entropy_distributions
    # says why); a fault in the per-total weights the entropy pass reads
    # breaks w(t_f) / w(t_i) = e^(-s), and both lines FAIL, with every line
    # that reads the lattice. The work bookkeeping and the QRE read the true
    # weights
    real = fluctuation_mod.entropy_distributions

    def noisy(kernel, thermal):
        weights = _noisy(thermal.total_weights)
        return real(kernel, dataclasses.replace(thermal, total_weights=weights))

    monkeypatch.setattr(fluctuation_mod, "entropy_distributions", noisy)
    lines, failures = verify_invariants()
    assert _failed(lines) == [
        "crooks-microstate", "crooks-distribution", "kl-identity",
        "integral-fluctuation", "entropy-friction-chain",
    ]
    assert failures == 5


def test_noise_in_the_gibbs_stage_stops_the_battery(monkeypatch):
    # the same noise where the per-total weights are built reaches every
    # sector state's weight too, moves <n_i> and <n_f>, and
    # inner_friction's friction/creation check raises before any line is
    # printed: the battery fails closed
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

    def bumped(z, cutoff):
        amps = real(z, cutoff)
        if z != 0.0:
            amps[5 * (cutoff + 1)] += 1e-9  # block d = 0 is row-major at the start
        return amps

    monkeypatch.setattr(fock_mod, "_amplitudes", bumped)
    lines, failures = verify_invariants()
    assert _failed(lines) == ["kernel-symmetry", "oracle-equivalence"]
    assert failures == 2


class _FockWithLayout:
    """The fock module as report sees it, with the cutoff-40 layout
    replaced: the battery's layout scan reads the faulty layout, while
    every stage and the oracle keep reading fock's own."""

    def __init__(self, layout):
        self._layout = layout

    def __getattr__(self, name):
        return getattr(fock_mod, name)

    def sector_layout(self, cutoff):
        return self._layout if cutoff == 40 else fock_mod.sector_layout(cutoff)


def _with_sector(index, **arrays):
    """sector_layout(40) with sector index's arrays replaced."""
    layout = list(fock_mod.sector_layout(40))
    layout[index] = dataclasses.replace(layout[index], **arrays)
    return tuple(layout)


def test_difference_conservation_catches_a_shifted_mirror_index(monkeypatch):
    # state 3 of sector 1, (4, 3), gets the mirror index of (3, 5) in place
    # of (3, 4): its mirror lies in sector -2, so the mass of its row and
    # column is off-sector (up to 0.215 at the canonical point), and
    # (3, 4) is left uncovered while (3, 5) is covered twice. The scan
    # reads the layout's mirror_index; no other line reads the layout
    mirror = fock_mod.sector_layout(40)[1].mirror_index.copy()
    mirror[3] += 1
    monkeypatch.setattr(report_mod, "fock", _FockWithLayout(_with_sector(1, mirror_index=mirror)))
    lines, failures = verify_invariants()
    assert _failed(lines) == ["difference-conservation"]
    assert failures == 1
    line = next(ln for ln in lines if "difference-conservation" in ln)
    assert "max off-sector mass = 2.153e-01, states not covered once = 2" in line


def test_parity_support_catches_a_mislabeled_total(monkeypatch):
    # state 2 of sector 0, (2, 2), carries total 6 in place of 4: the
    # parity is kept, but the total is not the state's own, so the mass of
    # its row and column counts as odd-change mass (up to 0.293). The scan
    # reads the layout's totals; difference-conservation reads index and
    # mirror_index only, and passes
    totals = fock_mod.sector_layout(40)[0].totals.copy()
    totals[2] += 2
    monkeypatch.setattr(report_mod, "fock", _FockWithLayout(_with_sector(0, totals=totals)))
    lines, failures = verify_invariants()
    assert _failed(lines) == ["parity-support"]
    assert failures == 1
    line = next(ln for ln in lines if "parity-support" in ln)
    assert "max odd-change mass = 2.930e-01" in line


def test_a_misplaced_cell_of_the_total_table_fails_the_lines_that_read_it(monkeypatch):
    # the build places block d = 1's cell (1, 1), the square of its first
    # state's amplitude to itself, two totals up at (3, 1): the column sum
    # and the parity are kept. The layout lines read fock.sector_layout
    # alone and pass; <n_c> moves in every kernel the battery builds, so
    # the lines that read R FAIL, z = 0's adiabatic-consistency among them
    real = fock_mod._full_build

    def misplaced(z, cutoff):
        amps, colsums, table = real(z, cutoff)
        table[3, 1] += table[1, 1]
        table[1, 1] = 0.0
        return amps, colsums, table

    monkeypatch.setattr(fock_mod, "_full_build", misplaced)
    lines, failures = verify_invariants()
    assert _failed(lines) == [
        "created-closed-form", "integral-fluctuation", "quantum-relative-entropy",
        "adiabatic-consistency",
    ]
    assert failures == 4
