"""Two-point-measurement entropy statistics and fluctuation-relation checks.

Trajectories are joint-microstate pairs (n, m): measuring energy before and
after the squeeze. For geometric thermal weights the entropy increment per
trajectory s = (omega/T)(total(m) - total(n)) cancels the weight ratio
exactly, so the forward/reverse log-ratio identity holds microstate by
microstate and every deviation measured here is pure floating-point or
truncation noise. The trajectory masses of every sector are formed in one
pass over the kernel's sector-major buffer, squared once into p(m|n),
binned onto the entropy lattice and checked microstate by microstate;
coarse-graining to the lattice happens only for reporting, since sector
degeneracies would otherwise contaminate the increment. The Crooks and KL
checks pair the same lattice points, leaving out those whose partner
underflows as the relation predicts. Every check here fails closed on a
NaN: it passes only when its residual is <= its tolerance.

The quantum relative entropy is the only stage that calls LAPACK, through
dgejsv, which loads scipy's compiled LAPACK module on its first call
(fock._lapack), never the package scipy.linalg. A T = 0 point skips that
stage, so a process that runs only vacuum points never loads scipy; any
other process loads the module once, in about 16 ms, inside its first
quantum relative entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EntropyUndefinedError, NumericError, VerificationError
from .fock import TransitionKernel, _lapack, sector_index
from .thermo import FLOAT_SLACK, ThermalDistribution, WorkReport, _require_pairing

PROBABILITY_FLOOR = 1e-12
EIGENVALUE_CLIP = 1e-300
# log of the smallest normal double: a partner mass P e^(-s) with
# log P - s below it underflows, as the Crooks relation predicts
LOG_TINY = float(np.log(np.finfo(float).tiny))


@dataclass(frozen=True)
class EntropyDistribution:
    """Finitely supported distribution over the entropy increment."""

    support: np.ndarray
    masses: np.ndarray


@dataclass(frozen=True)
class CrooksReport:
    distribution_deviation: float
    microstate_deviation: float
    floored_mass: float


def entropy_distributions(
    kernel: TransitionKernel, thermal: ThermalDistribution
) -> tuple[EntropyDistribution, EntropyDistribution, float]:
    """Entropy distributions of both processes and the microstate Crooks residual.

    The expansion masses p(n -> m) = p(m|n) p_th(n) and the contraction
    masses q(m -> n) = p(m|n) p_th(m) of every sector are formed in one pass
    over the squared kernel buffer: the contraction's initial thermal state
    at the rescaled frequency and adiabatic temperature has the same
    Boltzmann factor, so its weights coincide with the expansion's on the
    shared basis. Both are binned onto one integer lattice of total change at the
    rate omega_in / T, so the expansion value s and the contraction value
    -s land on shared points; the contraction distribution is returned over
    its own increment (the negated lattice, in ascending order; _binned
    says how the sectors add up). The residual is max |log p - log q - s|
    over p > PROBABILITY_FLOOR, leaving out the microstates with
    log p - s < LOG_TINY: there the relation puts q below the smallest
    normal double, so it underflows at low temperature and its log carries
    no digits. A q that is 0 where it should be representable gives +inf.

    No kernel fault can move this residual, nor the distribution residual
    of crooks_deviation: entry [p, q] of P enters the expansion mass as
    P w(q) and the contraction mass as P w(p), and w(p)/w(q) = e^(-s) on
    every lattice bin, so both residuals vanish for any kernel up to
    rounding. Their witness is a fault in the weights or in the lattice
    key (sector_index's change); the kernel is checked by the spectral
    oracle.
    """
    if thermal.is_vacuum:
        raise EntropyUndefinedError(
            "entropy distributions are undefined on the T = 0 vacuum path"
        )
    _require_pairing(kernel, thermal)
    rate = thermal.omega / thermal.temperature
    cutoff = thermal.spec.cutoff
    ix = sector_index(cutoff)
    P, w = kernel.flat_amplitudes**2, thermal.flat_weights
    # expansion masses weigh each entry by its initial state, contraction
    # masses by its final state; only the live entries are kept past binning
    J = np.take(w, ix.col)
    J *= P
    mass_e = _binned(J, ix.change, cutoff)
    live = J > PROBABILITY_FLOOR
    J = J[live]
    Q = np.repeat(w, ix.state_size)
    Q *= P
    mass_c = _binned(Q, ix.change, cutoff)
    Q = Q[live]
    micro_dev = 0.0
    # total(m) - total(n) = 2(p - q)
    change = np.arange(-2 * cutoff, 2 * cutoff + 1, 2)
    s_vals = rate * np.take(change, ix.change[live])
    log_j = np.log(J)
    normal = log_j - s_vals >= LOG_TINY  # q = J e^(-s) is a normal double
    if normal.any():
        with np.errstate(divide="ignore"):
            resid = log_j[normal] - np.log(Q[normal]) - s_vals[normal]
        micro_dev = float(np.max(np.abs(resid)))
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
    return p_e, p_c, micro_dev


def _binned(masses: np.ndarray, change: np.ndarray, cutoff: int) -> np.ndarray:
    """Trajectory masses of a kernel buffer per total change -2N..2N, keyed
    by sector_index's change: the d = 0 block once, the blocks d > 0 twice
    for their mirrors. Odd total changes hold 0."""
    bins, d0 = 2 * cutoff + 1, (cutoff + 1) ** 2
    total = np.zeros(4 * cutoff + 1)
    total[::2] = np.bincount(change[:d0], weights=masses[:d0], minlength=bins)
    total[::2] += 2.0 * np.bincount(change[d0:], weights=masses[d0:], minlength=bins)
    return total


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


def _paired_points(p_e: EntropyDistribution) -> np.ndarray:
    """The support points whose partner the relations are checked on:
    P_E(s) > PROBABILITY_FLOOR and log P_E(s) - s >= LOG_TINY, so that the
    partner P_C(-s) = P_E(s) e^(-s) is a normal double."""
    checked = p_e.masses > PROBABILITY_FLOOR
    checked[checked] = np.log(p_e.masses[checked]) - p_e.support[checked] >= LOG_TINY
    return checked


def left_out_points(p_e: EntropyDistribution) -> tuple[float, float]:
    """Mass and sum of P_E(s) s over the points left out (_paired_points)."""
    out = ~_paired_points(p_e)
    return float(p_e.masses[out].sum()), float(p_e.support[out] @ p_e.masses[out])


def crooks_deviation(
    p_e: EntropyDistribution,
    p_c: EntropyDistribution,
    microstate_deviation: float,
) -> CrooksReport:
    """max |log(P_E(s)/P_C(-s)) - s| beside the microstate-level residual.

    microstate_deviation is the residual entropy_distributions returns with
    p_e and p_c. Support points with P_E(s) <= PROBABILITY_FLOOR are
    excluded, and so are those with log P_E(s) - s < LOG_TINY, whose
    partner P_C(-s) = P_E(s) e^(-s) underflows at low temperature; the mass
    of both is reported for the truncation budget. A checked point whose
    partner mass is exactly zero is a support mismatch: impossible for
    thermal inputs, so it surfaces as a verification error instead of an
    infinity.

    No kernel fault can move either residual: each lattice bin's masses
    carry w(p)/w(q) = e^(-s) whatever the kernel entries are
    (entropy_distributions). Their witness is a fault in the weights or in
    the lattice keys.
    """
    paired = _mirrored_masses(p_e, p_c)
    checked = _paired_points(p_e)
    floored = float(p_e.masses[~checked].sum())
    if np.any(checked & (paired <= 0.0)):
        bad = p_e.support[checked & (paired <= 0.0)][0]
        raise VerificationError(
            f"support mismatch: P_E({bad:.6g}) > floor but P_C({-bad:.6g}) = 0"
        )
    dist_dev = 0.0
    if np.any(checked):
        logratio = np.log(p_e.masses[checked]) - np.log(paired[checked])
        dist_dev = float(np.max(np.abs(logratio - p_e.support[checked])))
    return CrooksReport(
        distribution_deviation=dist_dev,
        microstate_deviation=microstate_deviation,
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

    The mean runs over the full support. The KL sum pairs the points the
    Crooks checks pair (_paired_points): sub-truncation masses would inject
    log noise, and a partner that underflows, as the relation predicts at
    low temperature, carries no digits. The points left out are left out
    of both sides, so KL is compared with <s> less their P_E(s) s; their
    mass is crooks_deviation's floored_mass. A paired point whose partner
    is 0 makes KL infinite, and the identity fails.
    """
    s_mean = mean_entropy(p_e)
    paired = _mirrored_masses(p_e, p_c)
    checked = _paired_points(p_e)
    masses = p_e.masses[checked]
    with np.errstate(divide="ignore"):
        kl = float(masses @ (np.log(masses) - np.log(paired[checked])))
    gap = abs(s_mean - left_out_points(p_e)[1] - kl)
    if not gap <= 1e-8:
        raise VerificationError(f"<s> and KL disagree by {gap:.3e} (> 1e-8)")
    if not s_mean >= -1e-10:
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
    if not (resid_friction <= tolerance and resid_creation <= tolerance):
        raise VerificationError(
            f"entropy/friction identity violated: residuals "
            f"{resid_friction:.3e}, {resid_creation:.3e} > {tolerance:.3e}"
        )
    return record


def dgejsv(a: np.ndarray, **options):
    """LAPACK dgejsv, from scipy's compiled module loaded on the first call."""
    return _lapack().dgejsv(a, **options)


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
    block times sqrt of the sector weights; B and log rho are formed for
    every sector in one pass over the buffers, and the eigenpairs of each
    block come from the one-sided Jacobi SVD of its B (LAPACK dgejsv).
    Eigendirections below the clip are excluded from the trace (their
    rho-weight is bounded by the leaked mass). When a work report is
    supplied, asserts T_ad K = W_fric within 1e-5 relative, widened by the
    truncation bound at inadequate cutoffs.
    """
    if thermal.is_vacuum or t_ad == 0.0:
        raise EntropyUndefinedError(
            "quantum relative entropy is undefined on the T = 0 vacuum path"
        )
    _require_pairing(kernel, thermal)
    ix = sector_index(thermal.spec.cutoff)
    w = thermal.flat_weights
    B = np.take(np.sqrt(w), ix.col)
    B *= kernel.flat_amplitudes
    # tr rho log rho per sector over its states of positive weight
    pos = w > 0.0
    w_pos = w[pos]
    log_w = np.log(w_pos)
    pos_before = np.concatenate(([0], np.cumsum(pos)))  # positive states before each
    K = 0.0
    for d, size in enumerate(range(thermal.spec.cutoff + 1, 0, -1)):
        a, b = pos_before[ix.state_start[d]], pos_before[ix.state_start[d + 1]]
        rho_term = float(w_pos[a:b] @ log_w[a:b]) if b > a else 0.0
        U, sv = _graded_svd(
            B[ix.block_start[d]:ix.block_start[d + 1]].reshape(size, size)
        )
        lam = sv * sv
        keep = lam > EIGENVALUE_CLIP
        if keep.any():
            wd = w[ix.state_start[d]:ix.state_start[d + 1]]
            r = (U[:, keep] ** 2).T @ wd
            rho_prime_term = float(r @ np.log(lam[keep]))
        else:
            rho_prime_term = 0.0
        K += (2 if d else 1) * (rho_term - rho_prime_term)
    if work is not None:
        scale = max(1.0, abs(work.inner_friction))
        tolerance = max(1e-5 * scale, work.truncation_bound + FLOAT_SLACK * scale)
        if not abs(t_ad * K - work.inner_friction) <= tolerance:
            raise VerificationError(
                f"quantum relative entropy mismatch: |T_ad K - W_fric| = "
                f"{abs(t_ad * K - work.inner_friction):.3e} > {tolerance:.3e}"
            )
    return K
