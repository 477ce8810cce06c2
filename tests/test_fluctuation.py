import ctypes
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmoflux import (
    EntropyUndefinedError,
    NumericError,
    TruncationSpec,
    VerificationError,
    crooks_deviation,
    entropy_distributions,
    entropy_friction_identity,
    integral_fluctuation_defect,
    mean_entropy,
    mean_entropy_and_kl,
    quantum_relative_entropy,
    thermal_distribution,
    transition_kernel,
)
import cosmoflux.lapack as lapack_mod
from cosmoflux.fluctuation import (
    LOG_TINY,
    PROBABILITY_FLOOR,
    EntropyDistribution,
)
from cosmoflux.fock import sector_layout

from conftest import Z_CANON, staged_svd
from dense_reference import dense_state_vector, reference_column_leakage, sector_weights

Q_11_TO_00 = 0.01013939726055356  # 0.1875 * (1-1/e)^2 / e^2
N_CREATED_CANON = 1.442635609159102


def _trajectory_masses(kernel, thermal):
    """Per-sector expansion and contraction masses, as the lattice pass forms them."""
    probabilities = [A**2 for A in kernel.amplitudes]
    return (
        [P * w[None, :] for P, w in zip(probabilities, sector_weights(thermal))],
        [P * w[:, None] for P, w in zip(probabilities, sector_weights(thermal))],
    )


def _total_mass(blocks):
    return sum((2 if s.d else 1) * b.sum() for s, b in zip(sector_layout(40), blocks))


def test_joint_shapes_and_mass(kernel40, thermal40):
    fwd, rev = _trajectory_masses(kernel40, thermal40)
    assert [b.shape for b in fwd] == [(41 - d, 41 - d) for d in range(41)]
    assert [b.shape for b in rev] == [(41 - d, 41 - d) for d in range(41)]
    assert _total_mass(fwd) == pytest.approx(1.0, abs=1e-9)
    assert _total_mass(rev) == pytest.approx(1.0, abs=1e-9)


def test_reverse_jump_reference_value(kernel40, thermal40):
    # sector d = 0, final (1, 1) at position 1, initial (0, 0) at position 0
    q = kernel40.amplitudes[0][1, 0] ** 2 * sector_weights(thermal40)[0][1]
    assert q == pytest.approx(Q_11_TO_00, rel=1e-13)


def test_microstate_ratio_is_exponential(kernel40, thermal40):
    fwd, rev = _trajectory_masses(kernel40, thermal40)
    # (0, 0) -> (1, 1) raises the total by 2 at the lattice rate omega_in / T
    s = thermal40.omega / thermal40.temperature * 2
    assert s == 2.0
    assert fwd[0][1, 0] / rev[0][1, 0] == pytest.approx(np.exp(s), rel=4e-15)


def test_entropy_distributions_lattice(dists40):
    p_e, p_c, _ = dists40
    # canonical rate omega/T = 1 puts the support on the even integers
    assert np.all(np.diff(p_e.support) > 0.0)
    steps = np.diff(p_e.support)
    assert np.allclose(steps, 2.0, atol=1e-12)
    assert p_e.masses.sum() == pytest.approx(1.0, abs=1e-9)
    assert p_c.masses.sum() == pytest.approx(1.0, abs=1e-9)
    # contraction support is the negated expansion lattice
    assert p_c.support[0] == pytest.approx(-p_e.support[-1], abs=1e-12)


def test_distributions_require_temperature(kernel40, spec40):
    with pytest.raises(EntropyUndefinedError):
        entropy_distributions(kernel40.table, thermal_distribution(0.0, 1.0, spec40))


def test_crooks_canonical(dists40):
    report = crooks_deviation(*dists40)
    assert report.distribution_deviation <= 1e-10
    assert report.microstate_deviation <= 1e-10
    assert report.floored_mass <= 1e-9


def test_mean_entropy_and_kl_canonical(dists40):
    p_e, p_c, _ = dists40
    s_mean, kl = mean_entropy_and_kl(p_e, p_c)
    assert abs(s_mean - kl) <= 1e-8
    assert s_mean >= -1e-10
    assert abs(s_mean - N_CREATED_CANON) <= 1e-7
    assert mean_entropy(p_e) == s_mean


def test_integral_fluctuation_canonical(dists40):
    p_e, _, _ = dists40
    assert integral_fluctuation_defect(p_e) <= 1e-6


def test_entropy_friction_identity_canonical(work40, dists40):
    p_e, p_c, _ = dists40
    s_mean, _ = mean_entropy_and_kl(p_e, p_c)
    record = entropy_friction_identity(work40, s_mean)
    assert record["residual_friction"] <= 1e-6
    assert record["residual_creation"] <= 1e-6


def test_entropy_friction_identity_rejects_drift(work40):
    with pytest.raises(VerificationError):
        entropy_friction_identity(work40, work40.inner_friction / 2.0 + 0.01)


def test_quantum_relative_entropy_canonical(thermal40, kernel40, work40):
    K = quantum_relative_entropy(thermal40, kernel40, 2.0, work40)
    assert K >= 0.0
    assert abs(2.0 * K - work40.inner_friction) <= 1e-5 * max(
        1.0, abs(work40.inner_friction)
    )


def test_quantum_relative_entropy_zero_squeeze(thermal40):
    spec = TruncationSpec(cutoff=40, leakage_tolerance=1e-8)
    kern = transition_kernel(0.0, spec)
    assert quantum_relative_entropy(thermal40, kern, 2.0) == pytest.approx(
        0.0, abs=1e-12
    )


def _underflowing(p_e):
    """The live lattice points and those whose partner P_E(s) e^(-s) falls
    below the smallest normal double."""
    live = p_e.masses > PROBABILITY_FLOOR
    with np.errstate(divide="ignore"):
        under = live & (np.log(p_e.masses) - p_e.support < LOG_TINY)
    return live, under


def _without_partner(p_e, p_c, live, under):
    """p_c with the partner of the highest live point whose partner should
    be representable set to 0."""
    bad = np.flatnonzero(live & ~under)[-1]
    masses = p_c.masses.copy()
    masses[len(masses) - 1 - bad] = 0.0
    return EntropyDistribution(support=p_c.support, masses=masses)


def test_kl_pairing_fails_closed_when_reverse_underflows():
    # z = 1.2 from a near-vacuum state reaches entropy values s ~ 900,
    # where the reverse masses P_E(s) e^(-s) underflow float64 as the
    # relation predicts: the KL pairing leaves those points out of both
    # sides of the identity, as the Crooks checks do, and the identity
    # holds on the rest. A reverse mass that underflows where it should be
    # representable must still be refused
    spec = TruncationSpec(cutoff=44, leakage_tolerance=1e-2)
    table = transition_kernel(1.2, spec).table
    thermal = thermal_distribution(0.1, 1.0, spec)
    p_e, p_c, micro_dev = entropy_distributions(table, thermal)
    live, under = _underflowing(p_e)
    assert under.any()
    left_out = ~live | under
    s_mean, kl = mean_entropy_and_kl(p_e, p_c)
    assert s_mean == mean_entropy(p_e) >= 0.0  # the full-support mean
    assert abs(s_mean - float(p_e.support[left_out] @ p_e.masses[left_out]) - kl) <= 1e-8
    report = crooks_deviation(p_e, p_c, micro_dev)
    assert report.floored_mass == float(p_e.masses[left_out].sum())
    with pytest.raises(VerificationError, match="disagree by inf"):
        mean_entropy_and_kl(p_e, _without_partner(p_e, p_c, live, under))


def test_crooks_rejects_unmirrored_support(dists40):
    p_e, p_c, micro_dev = dists40
    shifted = EntropyDistribution(support=p_c.support + 2.0, masses=p_c.masses)
    with pytest.raises(VerificationError):
        crooks_deviation(p_e, shifted, micro_dev)
    with pytest.raises(VerificationError):
        mean_entropy_and_kl(p_e, shifted)


def _cold_canonical_distributions():
    """Entropy distributions at the canonical z and T = 0.05, N = 40, and the
    lattice points whose partner P_E(s) e^(-s) falls below the smallest
    normal double."""
    spec = TruncationSpec(cutoff=40, leakage_tolerance=1e-8)
    p_e, p_c, micro_dev = entropy_distributions(
        transition_kernel(Z_CANON, spec).table, thermal_distribution(0.05, 1.0, spec)
    )
    return p_e, p_c, micro_dev, *_underflowing(p_e)


def test_crooks_leaves_out_underflowing_partners():
    # at T = 0.05 the partners of the highest lattice points underflow to
    # 0, as the relation predicts; they are left out of both residuals and
    # their mass is floored, and every other point keeps the relation
    p_e, p_c, micro_dev, live, under = _cold_canonical_distributions()
    assert under.any() and np.all(p_c.masses[::-1][under] == 0.0)
    report = crooks_deviation(p_e, p_c, micro_dev)
    assert report.distribution_deviation <= 1e-8
    assert report.microstate_deviation == micro_dev <= 1e-10
    assert report.floored_mass == float(p_e.masses[~live | under].sum())
    assert report.floored_mass > float(p_e.masses[~live].sum())


def test_crooks_still_rejects_a_missing_representable_partner():
    # failure witness: zero the partner of the highest lattice point whose
    # partner should be representable; the mismatch must still be raised
    p_e, p_c, micro_dev, live, under = _cold_canonical_distributions()
    zeroed = _without_partner(p_e, p_c, live, under)
    with pytest.raises(VerificationError, match="support mismatch"):
        crooks_deviation(p_e, zeroed, micro_dev)


def test_jacobi_svd_identity():
    U, s, info = staged_svd(np.eye(6))
    assert info == 0
    assert np.allclose(np.sort(s), np.ones(6), atol=1e-15)
    assert np.max(np.abs(U.T @ U - np.eye(6))) <= 1e-14


def test_jacobi_svd_graded_relative_accuracy():
    # singular values spanning 30 decades: a multiplicatively perturbed
    # diagonal keeps them to relative machine accuracy, and one-sided
    # Jacobi must recover them; a bidiagonalizing solver cannot
    rng = np.random.default_rng(7)
    g = 10.0 ** -np.linspace(0.0, 30.0, 8)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    B = np.asfortranarray(Q * g[None, :])
    U, s, _info = staged_svd(B)
    rel = np.abs(np.sort(s)[::-1] - g) / g
    assert np.max(rel) <= 1e-12
    assert np.max(np.abs(U.T @ U - np.eye(8))) <= 1e-12


def test_jacobi_svd_single_column():
    # one nonzero column, in the square block a sector's call takes
    U, s, info = staged_svd(np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert info == 0 and s[1] == 0.0
    assert s[0] == pytest.approx(5.0, rel=1e-15)
    assert np.allclose(U[:, 0], [0.6, 0.8], atol=1e-15)


def test_jacobi_svd_failure_is_numeric_error(monkeypatch):
    # LAPACK reports info = 1 for a sector: the relative entropy raises it
    spec = TruncationSpec(12, 1e-2)
    kernel, thermal = transition_kernel(Z_CANON, spec), thermal_distribution(1.0, 1.0, spec)
    lapack = lapack_mod._routines()
    real = lapack.dgejsv

    def failing(*args):
        real(*args)
        ctypes.c_int64.from_address(args[18]).value = 1  # info

    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 1)
    monkeypatch.setattr(lapack, "dgejsv", failing)
    with pytest.raises(NumericError, match="dgejsv failed with info = 1"):
        quantum_relative_entropy(thermal, kernel, 2.0)


@settings(max_examples=10, deadline=None)
@given(
    z=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    t_ratio=st.floats(min_value=0.2, max_value=1.0, allow_nan=False),
)
def test_crooks_exact_for_geometric_weights(z, t_ratio):
    # distribution-level symmetry holds for every truncation because the
    # kernel is symmetric and the weights are geometric; leakage shifts
    # mass but never the log-ratio
    spec = TruncationSpec(cutoff=16, leakage_tolerance=1e-2)
    kern = transition_kernel(z, spec)
    thermal = thermal_distribution(t_ratio, 1.0, spec)
    p_e, p_c, micro_dev = entropy_distributions(kern.table, thermal)
    report = crooks_deviation(p_e, p_c, micro_dev)
    assert report.distribution_deviation <= 1e-8
    assert report.microstate_deviation <= 1e-10
    s_mean, kl = mean_entropy_and_kl(p_e, p_c)
    assert abs(s_mean - kl) <= 1e-8
    assert s_mean >= -1e-10
    # the integral-fluctuation defect equals the kernel leakage weighted
    # by the renormalized initial state, exactly
    leak_w = float(
        dense_state_vector(reference_column_leakage(kern.amplitudes), 16)
        @ dense_state_vector(sector_weights(thermal), 16)
    )
    assert abs(integral_fluctuation_defect(p_e) - leak_w) <= 1e-9


def test_identity_checks_fail_closed_on_nan(kernel40, thermal40, work40, dists40):
    # a NaN residual makes every "residual > tolerance" False; each check
    # must pass only when its residual is <= its tolerance
    nan = float("nan")
    p_e, p_c, _ = dists40
    with pytest.raises(VerificationError):
        mean_entropy_and_kl(dataclasses.replace(p_e, masses=p_e.masses * nan), p_c)
    nan_work = dataclasses.replace(work40, inner_friction=nan)
    with pytest.raises(VerificationError):
        entropy_friction_identity(nan_work, mean_entropy(p_e))
    with pytest.raises(VerificationError):
        quantum_relative_entropy(
            thermal40, kernel40, nan_work.adiabatic_temperature, nan_work
        )
