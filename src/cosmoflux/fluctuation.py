"""Two-point-measurement entropy statistics and fluctuation-relation checks.

Trajectories are joint-microstate pairs (n, m): measuring energy before and
after the squeeze. For geometric thermal weights the entropy increment per
trajectory s = (omega/T)(total(m) - total(n)) cancels the weight ratio
exactly, so the forward/reverse log-ratio identity holds microstate by
microstate and every deviation measured here is pure floating-point or
truncation noise. A Gibbs weight depends on a state's total alone, so the
trajectory masses are contractions of the run's total table R
(fock.TotalTable) with the per-total weights: O(N^2) cells, whatever the
box's O(N^3) kernel entries. They are binned onto the entropy lattice
and checked cell by cell; coarse-graining to the lattice happens only for
reporting. The Crooks and KL checks pair the same lattice points, leaving
out those whose partner underflows as the relation predicts. Every check
here fails closed on a NaN: it passes only when its residual is <= its
tolerance.

The quantum relative entropy alone reads the kernel's amplitudes and
calls LAPACK (lapack.Dgejsv), one sector block at a time, and a T = 0
point never does; it reads sector d's weights as a stride-2 slice of the
per-total ones. Where the process may use two CPUs, lapack's helper
thread runs some of its calls, which this thread stages and finishes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EntropyUndefinedError, NumericError, VerificationError
from .fock import TotalTable, TransitionKernel, cell_changes
from .lapack import Dgejsv, helper_jobs
from .thermo import FLOAT_SLACK, ThermalDistribution, WorkReport, _require_pairing

PROBABILITY_FLOOR = 1e-12
EIGENVALUE_CLIP = 1e-300
# log of the smallest normal double: a partner mass P e^(-s) with
# log P - s below it underflows, as the Crooks relation predicts
LOG_TINY = float(np.log(np.finfo(float).tiny))
_QRE_UNDEFINED = "quantum relative entropy is undefined on the T = 0 vacuum path"
# calls staged for lapack's helper: the one it runs and the next it takes
HELPER_DEPTH = 2


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
    table: TotalTable, thermal: ThermalDistribution
) -> tuple[EntropyDistribution, EntropyDistribution, float]:
    """Entropy distributions of both processes and the microstate Crooks residual.

    The expansion masses p(n -> m) = p(m|n) p_th(n) and the contraction
    masses q(m -> n) = p(m|n) p_th(m), summed per cell [t_f, t_i] of the
    total table R (fock.TotalTable), are J = R[t_f, t_i] w(t_i) and
    Q = R[t_f, t_i] w(t_f): the contraction's initial thermal state at the
    rescaled frequency and adiabatic temperature has the same Boltzmann
    factor, so its weights coincide with the expansion's on the shared
    basis. Both are binned onto one integer lattice of total change
    t_f - t_i (fock.cell_changes) at the rate omega_in / T, so that
    P_E(c) = sum_t R[t + c, t] w(t) and P_C is the same sum with
    w(t + c); the expansion value s and the contraction value -s land on
    shared points, and the contraction distribution is returned over its
    own increment (the negated lattice, in ascending order). The residual
    is max |log J - log Q - s| over the cells with J > PROBABILITY_FLOOR,
    leaving out those with log J - s < LOG_TINY: there the relation puts Q
    below the smallest normal double, so it underflows at low temperature
    and its log carries no digits. A Q that is 0 where it should be
    representable gives +inf.

    No kernel fault can move this residual, nor the distribution residual
    of crooks_deviation: a cell's R enters J as R w(t_i) and Q as
    R w(t_f), and w(t_f)/w(t_i) = e^(-s) on every cell, so both residuals
    vanish for any R up to rounding. Their witness is a fault in the
    weights or in a cell's lattice key (cell_changes); the kernel is
    checked by the spectral oracle. So the masses weigh R by its columns
    and by its rows, never through the keys.
    """
    if thermal.is_vacuum:
        raise EntropyUndefinedError(
            "entropy distributions are undefined on the T = 0 vacuum path"
        )
    _require_pairing(table, thermal)
    rate = thermal.omega / thermal.temperature
    cutoff = thermal.spec.cutoff
    R, w = table.masses, thermal.total_weights
    keys = cell_changes(cutoff)
    J, Q = (R * w).ravel(), (R * w[:, None]).ravel()
    mass_e = np.bincount(keys, weights=J, minlength=4 * cutoff + 1)
    mass_c = np.bincount(keys, weights=Q, minlength=4 * cutoff + 1)
    # the microstate residual, cell by cell
    live = np.flatnonzero(J > PROBABILITY_FLOOR)
    s = rate * (keys[live] - 2 * cutoff)
    log_j = np.log(J[live])
    with np.errstate(divide="ignore"):
        resid = np.abs(log_j - np.log(Q[live]) - s)
    # q = J e^(-s) is a normal double
    micro_dev = float(np.max(resid, where=log_j - s >= LOG_TINY, initial=0.0))
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

    No kernel fault can move either residual (entropy_distributions).
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


def quantum_relative_entropy(
    thermal: ThermalDistribution, kernel: TransitionKernel, t_ad: float,
    work: WorkReport | None = None,
) -> float:
    """K[rho || rho'] with rho' the squeezed image of the thermal state.

    rho is diagonal and simultaneously thermal for the rescaled adiabatic
    Hamiltonian at t_ad, so K = tr rho log rho - tr rho log rho'. rho'
    block-diagonalizes per difference sector as B B^T with B the amplitude
    block times sqrt of the sector weights; each sector's eigenpairs come
    from the one-sided Jacobi SVD of its B (lapack.Dgejsv), the
    preconditioned one of Drmac and Veselic (SIAM J. Matrix Anal. Appl.
    29, 2008), which keeps high relative accuracy on a column-graded B,
    whose small singular values a bidiagonalizing SVD loses.
    Eigendirections below the clip are excluded from the trace (their
    rho-weight is bounded by the leaked mass). When a work report is
    supplied, asserts T_ad K = W_fric within 1e-5 relative, widened by the
    truncation bound at inadequate cutoffs.

    The SVDs start with the call. This thread stages each sector's call
    (lapack.Dgejsv, in a buffer sized for that sector and dropped once the
    sector is finished) and finishes each. Where the process may use two
    CPUs, it hands the helper thread (lapack.helper_jobs) the largest
    sector first and keeps HELPER_DEPTH staged for it, runs its own from
    the small end and runs any the helper has not taken, so a stalled
    helper holds it up for none. K sums the terms in sector order: its
    bits do not depend on which thread ran which call. The T = 0 vacuum
    raises before LAPACK loads.
    """
    if thermal.is_vacuum or t_ad == 0.0:
        raise EntropyUndefinedError(_QRE_UNDEFINED)
    _require_pairing(kernel.table, thermal)
    cutoff, w = thermal.spec.cutoff, thermal.total_weights
    amplitudes, sqrt_w = kernel.amplitudes, np.sqrt(w)
    terms = [0.0] * (cutoff + 1)
    jobs = helper_jobs()

    def stage(d: int) -> tuple[int, Dgejsv]:
        # sector d's states have the totals d, d + 2, ..., 2N - d
        n = cutoff + 1 - d
        call = Dgejsv(n)
        np.multiply(amplitudes[d], sqrt_w[d:d + 2 * n:2], out=call.B)
        return d, call

    def finish(d: int, call: Dgejsv) -> None:
        """Sector d's term: tr rho log rho less <rho> log lam over rho' = B B^T."""
        U, sv, info = call.result()
        if info != 0:
            raise NumericError(f"dgejsv failed with info = {info}")
        # BLAS reads a contiguous copy: a strided view moved K's last bit;
        # weights fall along a sector, so the positive ones lead
        wd = w[d:d + 2 * len(sv):2].copy()
        live = wd[:np.count_nonzero(wd)]
        lam = sv * sv
        keep = lam > EIGENVALUE_CLIP  # none kept: an empty sum, 0.0
        r = np.square(U, out=U).T @ wd
        terms[d] = float(live @ np.log(live)) - float(r[keep] @ np.log(lam[keep]))

    low, high, ahead = 0, cutoff, deque()
    while low <= high:
        if jobs is not None and len(ahead) < HELPER_DEPTH:
            ahead.append(stage(low))
            jobs.put(ahead[-1][1])
            low += 1
        else:
            finish(*stage(high))
            high -= 1
            while ahead and ahead[0][1].ready():
                finish(*ahead.popleft())
    # the last staged call first, which the helper has most likely not taken
    while ahead:
        finish(*ahead.pop())
    K = 0.0
    for d, term in enumerate(terms):
        K += (2 if d else 1) * term
    if work is not None:
        scale = max(1.0, abs(work.inner_friction))
        tolerance = max(1e-5 * scale, work.truncation_bound + FLOAT_SLACK * scale)
        if not abs(t_ad * K - work.inner_friction) <= tolerance:
            raise VerificationError(
                f"quantum relative entropy mismatch: |T_ad K - W_fric| = "
                f"{abs(t_ad * K - work.inner_friction):.3e} > {tolerance:.3e}"
            )
    return K
