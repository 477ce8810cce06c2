"""Two-point-measurement entropy statistics and fluctuation-relation checks.

Trajectories are joint-microstate pairs (n, m): measuring energy before and
after the squeeze. For geometric thermal weights the entropy increment per
trajectory s = (omega/T)(total(m) - total(n)) cancels the weight ratio
exactly, so the forward/reverse log-ratio identity holds microstate by
microstate and every deviation measured here is pure floating-point or
truncation noise. Coarse-graining to the entropy lattice happens only for
reporting; sector degeneracies would otherwise contaminate the increment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgejsv

from .errors import EntropyUndefinedError, NumericError, VerificationError
from .fock import TransitionKernel, sector_layout, sector_tables
from .spacetime import SqueezeChannel
from .thermo import FLOAT_SLACK, ThermalDistribution, WorkReport, weighted_sectors

PROBABILITY_FLOOR = 1e-12
EIGENVALUE_CLIP = 1e-300


@dataclass(frozen=True)
class ProcessJoint:
    """Trajectory masses per difference sector, [final-of-expansion, initial].

    entries[d] follows the kernel's sector layout; the mirrored states of a
    sector d > 0 carry the same block. For direction "expansion"
    entries[d][p, q] is the mass of trajectory n -> m with n, m the sector
    states at positions q, p. For "contraction" it is the mass of the
    reverse trajectory m -> n (same conditional by kernel symmetry, thermal
    weight taken at the contraction's initial state m).
    """

    entries: tuple[np.ndarray, ...]
    direction: str
    omega: float
    temperature: float


@dataclass(frozen=True)
class EntropyDistribution:
    """Finitely supported distribution over the entropy increment."""

    support: np.ndarray
    masses: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class CrooksReport:
    distribution_deviation: float
    microstate_deviation: float
    floored_mass: float


def forward_joint(
    kernel: TransitionKernel, thermal: ThermalDistribution
) -> ProcessJoint:
    """Expansion trajectories: p(n -> m) = p(m|n) p_th(n)."""
    return ProcessJoint(
        entries=tuple(
            P * w[None, :] for _s, P, w in weighted_sectors(kernel.probabilities, thermal)
        ),
        direction="expansion",
        omega=thermal.omega,
        temperature=thermal.temperature,
    )


def reverse_joint(
    kernel: TransitionKernel, thermal: ThermalDistribution
) -> ProcessJoint:
    """Contraction trajectories: q(m -> n) = p(m|n) p_th(m).

    The contraction's initial thermal state at the rescaled frequency and
    adiabatic temperature has the same Boltzmann factor x, so its weights
    coincide with the expansion's thermal weights on the shared basis.
    """
    return ProcessJoint(
        entries=tuple(
            P * w[:, None] for _s, P, w in weighted_sectors(kernel.probabilities, thermal)
        ),
        direction="contraction",
        omega=thermal.omega,
        temperature=thermal.temperature,
    )


def _lattice_masses(joint: ProcessJoint) -> np.ndarray:
    """Mass per integer total-change, offset by 2*cutoff (length 4N+1)."""
    cutoff = len(joint.entries) - 1
    bins = sector_tables(cutoff).total_change + 2 * cutoff
    masses = np.zeros(4 * cutoff + 1)
    for s, block in zip(sector_layout(cutoff), joint.entries):
        masses += s.multiplicity * np.bincount(
            bins[:s.size, :s.size].ravel(),
            weights=block.ravel(),
            minlength=4 * cutoff + 1,
        )
    return masses


def entropy_distributions(
    forward: ProcessJoint,
    reverse: ProcessJoint,
    channel: SqueezeChannel,
    temperature: float,
) -> tuple[EntropyDistribution, EntropyDistribution]:
    """Aggregate trajectory mass onto the entropy lattice.

    Both processes live on the same integer lattice of total change, so the
    expansion value s and the contraction value -s land on shared points.
    The contraction distribution is returned over its own increment (the
    negated lattice, in ascending order). channel is unused: the lattice
    rate omega_in / T comes from the joints and temperature.
    """
    if temperature == 0.0:
        raise EntropyUndefinedError(
            "entropy distributions are undefined on the T = 0 vacuum path"
        )
    rate = forward.omega / temperature
    cutoff = len(forward.entries) - 1
    mass_e = _lattice_masses(forward)
    mass_c = _lattice_masses(reverse)
    delta = np.arange(-2 * cutoff, 2 * cutoff + 1)
    keep = (mass_e > 0.0) | (mass_c > 0.0)
    s_vals = rate * delta[keep].astype(float)
    p_e = EntropyDistribution(support=s_vals, masses=mass_e[keep])
    # Contraction increment for trajectory m -> n is -s(n -> m); flip to
    # ascending order in its own variable.
    p_c = EntropyDistribution(
        support=(-s_vals)[::-1].copy(),
        masses=mass_c[keep][::-1].copy(),
    )
    return p_e, p_c


def _mirrored_masses(
    p_e: EntropyDistribution, p_c: EntropyDistribution
) -> np.ndarray:
    """P_C(-s) aligned with P_E's support: the reversed contraction masses.

    Both distributions come from one integer lattice, so the contraction
    support is exactly the negated, reversed expansion support; anything
    else means the two were not built together.
    """
    if not np.array_equal(p_c.support, -p_e.support[::-1]):
        raise VerificationError(
            "support mismatch: the contraction support is not the mirrored "
            "expansion support"
        )
    return p_c.masses[::-1]


def crooks_deviation(
    p_e: EntropyDistribution,
    p_c: EntropyDistribution,
    forward: ProcessJoint,
    reverse: ProcessJoint,
) -> CrooksReport:
    """max |log(P_E(s)/P_C(-s)) - s| plus the microstate-level residual.

    Support points with P_E(s) <= PROBABILITY_FLOOR are excluded and their
    mass is reported for the truncation budget. A floored point whose
    partner mass is exactly zero is a support mismatch: impossible for
    thermal inputs, so it surfaces as a verification error instead of an
    infinity.
    """
    paired = _mirrored_masses(p_e, p_c)
    live = p_e.masses > PROBABILITY_FLOOR
    floored = float(p_e.masses[~live].sum())
    if np.any(live & (paired <= 0.0)):
        bad = p_e.support[live & (paired <= 0.0)][0]
        raise VerificationError(
            f"support mismatch: P_E({bad:.6g}) > floor but P_C({-bad:.6g}) = 0"
        )
    dist_dev = 0.0
    if np.any(live):
        logratio = np.log(p_e.masses[live]) - np.log(paired[live])
        dist_dev = float(np.max(np.abs(logratio - p_e.support[live])))

    rate = forward.omega / forward.temperature
    total_change = sector_tables(len(forward.entries) - 1).total_change
    micro_dev = 0.0
    for J, Q in zip(forward.entries, reverse.entries):
        mask = J > PROBABILITY_FLOOR
        if np.any(mask):
            s_vals = rate * total_change[:len(J), :len(J)][mask]
            resid = np.log(J[mask]) - np.log(Q[mask]) - s_vals
            micro_dev = max(micro_dev, float(np.max(np.abs(resid))))
    return CrooksReport(
        distribution_deviation=dist_dev,
        microstate_deviation=micro_dev,
        floored_mass=floored,
    )


def mean_entropy(p_e: EntropyDistribution) -> float:
    """<s> over the full forward support.

    Stays evaluable in regimes where the reverse-side masses e^(-s)
    underflow float64 and the KL pairing cannot be formed.
    """
    return float(p_e.support @ p_e.masses)


def mean_entropy_and_kl(
    p_e: EntropyDistribution, p_c: EntropyDistribution
) -> tuple[float, float]:
    """<s> and K[P_E || P_C(-s)], asserting their identity.

    The mean runs over the full support; the KL sum applies
    PROBABILITY_FLOOR so sub-truncation masses cannot inject log noise.
    """
    s_mean = mean_entropy(p_e)
    paired = _mirrored_masses(p_e, p_c)
    live = p_e.masses > PROBABILITY_FLOOR
    kl = float(
        p_e.masses[live]
        @ (np.log(p_e.masses[live]) - np.log(np.maximum(paired[live], 1e-300)))
    )
    if abs(s_mean - kl) > 1e-8:
        raise VerificationError(
            f"<s> and KL disagree by {abs(s_mean - kl):.3e} (> 1e-8)"
        )
    if s_mean < -1e-10:
        raise VerificationError(f"<s> = {s_mean:.3e} violates positivity")
    return s_mean, kl


def integral_fluctuation_defect(p_e: EntropyDistribution) -> float:
    """|sum_s P_E(s) e^(-s) - 1|; deviation equals the escaped mass.

    Each term is summed as exp(log P_E(s) - s), which is P_C(-s) <= 1, over
    the points of positive mass: at low temperature e^(-s) alone overflows
    where P_E(s) is 0.
    """
    live = p_e.masses > 0.0
    terms = np.exp(np.log(p_e.masses[live]) - p_e.support[live])
    return abs(float(terms.sum()) - 1.0)


def entropy_friction_identity(work: WorkReport, s_mean: float) -> dict[str, float]:
    """Check <s> = W_fric / T_ad = (omega_out / T_ad) <n_c>.

    The tolerance is 1e-6 widened by the truncation bound: at an inadequate
    cutoff both sides drift by the leaked mass the bound covers.
    """
    t_ad = work.adiabatic_temperature
    if t_ad == 0.0:
        raise EntropyUndefinedError(
            "entropy identities are undefined on the T = 0 vacuum path"
        )
    tolerance = max(
        1e-6, work.truncation_bound / t_ad + FLOAT_SLACK * max(1.0, abs(s_mean))
    )
    resid_friction = abs(s_mean - work.inner_friction / t_ad)
    resid_creation = abs(s_mean - (work.omega_out / t_ad) * work.mean_created)
    record = {
        "residual_friction": resid_friction,
        "residual_creation": resid_creation,
        "tolerance": tolerance,
    }
    if resid_friction > tolerance or resid_creation > tolerance:
        raise VerificationError(
            f"entropy/friction identity violated: residuals "
            f"{resid_friction:.3e}, {resid_creation:.3e} > {tolerance:.3e}"
        )
    return record


def _graded_svd(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of B (rows >= columns).

    LAPACK dgejsv is the preconditioned one-sided Jacobi SVD of Drmac and
    Veselic (SIAM J. Matrix Anal. Appl. 29, 2008). It keeps high relative
    accuracy on column-graded matrices, whose small singular values a
    bidiagonalizing SVD loses. dgejsv may return the singular values in
    the factored form (work[0] / work[1]) * sva, which is undone here.
    """
    sva, U, _v, work, _iwork, info = dgejsv(B, joba=0, jobu=0, jobv=3)
    if info != 0:
        raise NumericError(f"dgejsv failed with info = {info}")
    return U, sva * (work[0] / work[1])


def quantum_relative_entropy(
    thermal: ThermalDistribution,
    kernel: TransitionKernel,
    t_ad: float,
    work: WorkReport | None = None,
) -> float:
    """K[rho || rho'] with rho' the squeezed image of the thermal state.

    rho is diagonal and simultaneously thermal for the rescaled adiabatic
    Hamiltonian at t_ad, so K = tr rho log rho - tr rho log rho'. rho'
    block-diagonalizes per difference sector as B B^T with B the amplitude
    block times sqrt of the sector weights; its eigenpairs come from the
    one-sided Jacobi SVD of B (LAPACK dgejsv). Eigendirections below the
    clip are excluded from the trace (their rho-weight is bounded by the
    leaked mass). When a work report is supplied, asserts T_ad K = W_fric
    within 1e-5 relative, widened by the truncation bound at inadequate
    cutoffs.
    """
    if thermal.is_vacuum or t_ad == 0.0:
        raise EntropyUndefinedError(
            "quantum relative entropy is undefined on the T = 0 vacuum path"
        )
    K = 0.0
    for s, A, wd in weighted_sectors(kernel.amplitudes, thermal):
        pos = wd > 0.0
        rho_term = float(wd[pos] @ np.log(wd[pos])) if pos.any() else 0.0
        U, sv = _graded_svd(A * np.sqrt(wd)[None, :])
        lam = sv * sv
        keep = lam > EIGENVALUE_CLIP
        if keep.any():
            r = (U[:, keep] ** 2).T @ wd
            rho_prime_term = float(r @ np.log(lam[keep]))
        else:
            rho_prime_term = 0.0
        K += s.multiplicity * (rho_term - rho_prime_term)
    if work is not None:
        scale = max(1.0, abs(work.inner_friction))
        tolerance = max(1e-5 * scale, work.truncation_bound + FLOAT_SLACK * scale)
        if abs(t_ad * K - work.inner_friction) > tolerance:
            raise VerificationError(
                f"quantum relative entropy mismatch: |T_ad K - W_fric| = "
                f"{abs(t_ad * K - work.inner_friction):.3e} > {tolerance:.3e}"
            )
    return K
