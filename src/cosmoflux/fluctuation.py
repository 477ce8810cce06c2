"""Two-point-measurement entropy statistics and fluctuation-relation checks.

Trajectories are joint-microstate pairs (n, m): measuring energy before and
after the squeeze. For geometric thermal weights the entropy increment per
trajectory s = (omega/T)(total(m) - total(n)) cancels the weight ratio
exactly, so the forward/reverse log-ratio identity holds microstate by
microstate and every deviation measured here is pure floating-point or
truncation noise. The trajectory masses are formed in one pass over the
kernel's sector-major buffer, in chunks of whole sectors held in the
thread's work buffers (fock.sector_chunks, fock.work_buffer), squared
into p(m|n), binned onto the entropy lattice and checked microstate by
microstate; coarse-graining to the lattice happens only for reporting,
since sector degeneracies would otherwise contaminate the increment. The
Crooks and KL checks pair the same lattice points, leaving out those whose
partner underflows as the relation predicts. Every check here fails closed
on a NaN: it passes only when its residual is <= its tolerance.

The quantum relative entropy is the only stage that calls LAPACK: dgejsv,
bound on its first call by fock._lapack, which never loads the package
scipy.linalg. A process that runs only T = 0 points never loads scipy;
any other loads its LAPACK module once, in about 8 ms and 2.6 MiB. Where
the process may use two CPUs, that first call also starts the package's
one helper thread (_helper_jobs), which decomposes about half the sector
blocks with the GIL released. It costs a daemon thread and its blocks in
flight, and a forked child starts its own.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EntropyUndefinedError, NumericError, VerificationError
from .fock import (
    CHUNK_ENTRIES,
    Chunk,
    TransitionKernel,
    _lapack,
    chunk_keys,
    holds_buffers,
    sector_chunks,
    sector_index,
    work_buffer,
)
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


@holds_buffers("values", "keys", "mask", "logs", "s", "checked")
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
    says how the sectors add up; each bin accumulates chunk after chunk in
    entry order, as one pass over the whole buffer would). The residual is
    max |log p - log q - s| over p > PROBABILITY_FLOOR, leaving out the
    microstates with log p - s < LOG_TINY: there the relation puts q below
    the smallest normal double, so it underflows at low temperature and its
    log carries no digits. A q that is 0 where it should be representable
    gives +inf.

    No kernel fault can move this residual, nor the distribution residual
    of crooks_deviation: entry [p, q] of P enters the expansion mass as
    P w(q) and the contraction mass as P w(p), and w(p)/w(q) = e^(-s) on
    every lattice bin, so both residuals vanish for any kernel up to
    rounding. Their witness is a fault in the weights or in the lattice
    key (sector_index's change); the kernel is checked by the spectral
    oracle. So the pass weighs each block by its columns and its rows
    (_masses), never through change.
    """
    if thermal.is_vacuum:
        raise EntropyUndefinedError(
            "entropy distributions are undefined on the T = 0 vacuum path"
        )
    _require_pairing(kernel, thermal)
    rate = thermal.omega / thermal.temperature
    cutoff = thermal.spec.cutoff
    ix = sector_index(cutoff)
    # s per change key: total(m) - total(n) = 2(p - q)
    s_of_key = rate * np.arange(-2 * cutoff, 2 * cutoff + 1, 2)
    # per total change, the d = 0 block's masses and the rest's
    sums_e, sums_c = np.zeros((2, 2 * cutoff + 1)), np.zeros((2, 2 * cutoff + 1))
    micro_dev = 0.0
    for chunk in sector_chunks(cutoff):
        amps, w = kernel.flat_amplitudes[chunk.entries], thermal.flat_weights[chunk.states]
        keys = chunk_keys(ix.change, chunk)
        once = (cutoff + 1) ** 2 if chunk.sectors.start == 0 else 0
        J = _masses(amps, w, chunk, final=False)
        _add_bins(sums_e, J, keys, once)
        # the microstate residual, entry by entry; the max reads the entries
        # checked only, so the others may hold -inf or NaN
        live = np.greater(J, PROBABILITY_FLOOR, out=work_buffer("mask", chunk.size, np.bool_))
        with np.errstate(divide="ignore"):
            log_j = np.log(J, out=work_buffer("logs", chunk.size))
        Q = _masses(amps, w, chunk, final=True)  # in J's buffer
        _add_bins(sums_c, Q, keys, once)
        s = np.take(s_of_key, keys, out=work_buffer("s", chunk.size), mode="clip")
        with np.errstate(divide="ignore", invalid="ignore"):
            resid = np.subtract(log_j, np.log(Q, out=Q), out=Q)
            resid -= s
            np.abs(resid, out=resid)
            log_j -= s
        # live, and q = J e^(-s) is a normal double
        checked = np.greater_equal(
            log_j, LOG_TINY, out=work_buffer("checked", chunk.size, np.bool_)
        )
        checked &= live
        micro_dev = float(np.max(resid, where=checked, initial=micro_dev))
    mass_e, mass_c = _binned(sums_e), _binned(sums_c)
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


def _masses(amps: np.ndarray, w: np.ndarray, chunk: Chunk, final: bool) -> np.ndarray:
    """p(m|n) of the chunk's entries times the weight of each entry's
    initial state, its block's column, or with final of its final state,
    its row; held in the work buffer "values". Neither reads a lattice
    key, so a fault in one moves s and the bins, not the weights."""
    masses = np.square(amps, out=work_buffer("values", chunk.size))
    for block, w_d in zip(chunk.views(masses, True), chunk.views(w, False)):
        block *= w_d[:, None] if final else w_d
    return masses


def _add_bins(sums: np.ndarray, masses: np.ndarray, keys: np.ndarray, once: int) -> None:
    """Add a chunk's masses per change key to sums: its first once entries
    (the d = 0 block) to sums[0], the rest to sums[1]. np.add.at adds them
    one by one in entry order, so each bin's sum over the whole buffer is
    the one a single bincount over it takes, whatever the chunks."""
    np.add.at(sums[0], keys[:once], masses[:once])
    np.add.at(sums[1], keys[once:], masses[once:])


def _binned(sums: np.ndarray) -> np.ndarray:
    """Trajectory masses per total change -2N..2N from a kernel buffer's
    masses binned per change key: the d = 0 block once (sums[0]) and the
    blocks d > 0 twice for their mirrors (sums[1]). Odd total changes hold
    0."""
    total = np.zeros(2 * len(sums[0]) - 1)
    total[::2] = sums[0]
    total[::2] += 2.0 * sums[1]
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


def dgejsv(a: np.ndarray):
    """LAPACK dgejsv with the jobs C, U, N, R, N, P: the left singular vectors
    and the singular values of a (rows >= columns), with no right vectors.

    Returns what scipy.linalg.lapack.dgejsv(a, joba=0, jobu=0, jobv=3) does,
    bit for bit: sva, u in Fortran order, an empty v, work[:7], iwork[:3]
    and info, from the same workspace sizes and zeroed workspaces (a larger
    work array, or u in C order, moves K in its last digit). The routine
    overwrites a when a is a Fortran-ordered float64 array (a single
    column is one), else a Fortran copy of it; a read-only one raises. It
    runs with the GIL released (fock._lapack), and every array it reads or
    writes is held here until it returns.
    """
    a = np.asfortranarray(a, np.float64)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError(f"dgejsv takes a matrix with rows >= columns, got shape {a.shape}")
    m, n = a.shape
    lwork = max(6 * n + 2 * n * n, 2 * m + n, 4 * n + n * n, 2 * n + n * n + 6, 7)
    # u, sva, work and v in one zeroed buffer, each starting 16-byte aligned
    u_end = m * n + m * n % 2
    sva_end = u_end + n + n % 2
    out = np.zeros(sva_end + lwork + 1)
    # m, n, lda, ldu, ldv, lwork, info, then the integer workspace
    ints = np.zeros(7 + max(3, m + 3 * n), np.intc)
    ints[:6] = m, n, m, m, 1, lwork
    lapack = _lapack()
    p, o = lapack.address(ints), lapack.address(out)
    i, f = ints.itemsize, out.itemsize
    lapack.dgejsv(
        b"C", b"U", b"N", b"R", b"N", b"P", p, p + i, lapack.address(a.T), p + 2 * i,
        o + u_end * f, o, p + 3 * i, o + (sva_end + lwork) * f, p + 4 * i,
        o + sva_end * f, p + 5 * i, p + 7 * i, p + 6 * i,
    )
    u = out[:m * n].reshape((m, n), order="F")
    sva, work = out[u_end:u_end + n], out[sva_end:sva_end + 7]
    return sva, u, np.empty((0, 0)), work, ints[7:10], int(ints[6])


def _graded_svd(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of B (rows >= columns).

    LAPACK dgejsv is the preconditioned one-sided Jacobi SVD of Drmac and
    Veselic (SIAM J. Matrix Anal. Appl. 29, 2008). It keeps high relative
    accuracy on column-graded matrices, whose small singular values a
    bidiagonalizing SVD loses. dgejsv may return the singular values in
    the factored form (work[0] / work[1]) * sva, which is undone here.
    """
    sva, U, _v, work, _iwork, info = dgejsv(B)
    if info != 0:
        raise NumericError(f"dgejsv failed with info = {info}")
    return U, sva * (work[0] / work[1])


def _rho_prime_term(B: np.ndarray, wd: np.ndarray) -> float:
    """One sector's sum over the kept eigendirections of rho' = B B^T of
    <rho> log lam, from the Jacobi SVD of B (dgejsv overwrites a B in
    Fortran order); wd is the sector's weights, the diagonal of rho."""
    U, sv = _graded_svd(B)
    lam = sv * sv
    keep = lam > EIGENVALUE_CLIP
    if not keep.any():
        return 0.0
    r = (U**2).T @ wd
    return float(r[keep] @ np.log(lam[keep]))


def _run_job(d: int, B: np.ndarray, wd: np.ndarray, results) -> None:
    """One sector's _rho_prime_term, or the exception it raised, put on the
    caller's results queue with d."""
    try:
        term = _rho_prime_term(B, wd)
    except BaseException as exc:  # raised again on the caller's thread
        term = exc
    results.put((d, term))


def _serve(jobs) -> None:
    """The helper thread: run each job of the queue, in order, for ever."""
    while True:
        _run_job(*jobs.get())  # a job and its arrays are dropped once it is done


_HELPER_LOCK = threading.Lock()
_helper_queue = None


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_jobs():
    """The job queue of the helper thread that every thread's relative
    entropy shares, started on the first call; None while the process may
    run on one CPU only, where the helper gains no time and its hand-offs
    cost 4 % of a canonical run_simulation. queue is imported under the
    lock a fork waits for (below), so no child inherits it half imported."""
    global _helper_queue
    if _cpus() < 2:
        return None
    with _HELPER_LOCK:
        if _helper_queue is None:
            import queue

            jobs = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(jobs,), name="cosmoflux-dgejsv", daemon=True
            ).start()
            _helper_queue = jobs
        return _helper_queue


def _forget_helper() -> None:
    """In a forked child, which has no helper thread: the next relative
    entropy starts its own."""
    global _helper_queue
    _helper_queue = None
    _HELPER_LOCK.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_HELPER_LOCK.acquire,
        after_in_parent=_HELPER_LOCK.release,
        after_in_child=_forget_helper,
    )


@holds_buffers("values", "keys")
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
    block times sqrt of the sector weights; log rho is formed once, B chunk
    by chunk in a held work buffer, and the eigenpairs of each block come
    from the one-sided Jacobi SVD of its B (LAPACK dgejsv, _rho_prime_term).
    Eigendirections below the clip are excluded from the trace (their
    rho-weight is bounded by the leaked mass). When a work report is
    supplied, asserts T_ad K = W_fric within 1e-5 relative, widened by the
    truncation bound at inadequate cutoffs.

    The SVDs run on two threads where the process may use two CPUs: the
    helper thread (_helper_jobs) takes the sectors d = 0, 2, 4, ..., whose
    blocks shrink with d, so its n^3 share (52 % at N = 40) offsets the B
    formation done here. Each of its blocks is copied into Fortran order
    here, the copy dgejsv would make, and sent before this thread
    decomposes the odd ones. Its copies in flight stay within
    CHUNK_ENTRIES entries, or two blocks where blocks are larger: before it
    sends more, this thread takes back the oldest result. K adds the
    sectors' terms up in sector order once all are back, so its bits do not
    depend on which thread took a block. An exception on the helper is
    raised here.
    """
    if thermal.is_vacuum or t_ad == 0.0:
        raise EntropyUndefinedError(
            "quantum relative entropy is undefined on the T = 0 vacuum path"
        )
    _require_pairing(kernel, thermal)
    cutoff = thermal.spec.cutoff
    ix = sector_index(cutoff)
    w = thermal.flat_weights
    sqrt_w = np.sqrt(w)
    _lapack()  # loaded on this thread, before the helper takes a block
    jobs = _helper_jobs()
    if jobs is not None:
        import queue  # imported by _helper_jobs

        results = queue.SimpleQueue()
    rho_prime_terms = [0.0] * (cutoff + 1)
    sent = in_flight = 0  # blocks and entries on the helper

    def take_back() -> None:
        nonlocal sent, in_flight
        d, term = results.get()
        if isinstance(term, BaseException):
            raise term
        rho_prime_terms[d] = term
        sent, in_flight = sent - 1, in_flight - (cutoff + 1 - d) ** 2

    for chunk in sector_chunks(cutoff):
        B = np.take(
            sqrt_w[chunk.states], chunk_keys(ix.col, chunk, chunk.states.start),
            out=work_buffer("values", chunk.size), mode="clip",
        )
        B *= kernel.flat_amplitudes[chunk.entries]
        blocks = list(zip(chunk.sectors, chunk.views(B, True), chunk.views(w[chunk.states], False)))
        first_odd = 1 - chunk.sectors.start % 2
        helpers, own = (blocks[1 - first_odd::2], blocks[first_odd::2]) if jobs else ((), blocks)
        for d, block, wd in helpers:  # sent first
            while sent > 1 and in_flight + block.size > CHUNK_ENTRIES:
                take_back()
            jobs.put((d, np.array(block, order="F"), wd, results))
            sent, in_flight = sent + 1, in_flight + block.size
        for d, block, wd in own:
            rho_prime_terms[d] = _rho_prime_term(block, wd)
    while sent:
        take_back()
    # tr rho log rho per sector over its states of positive weight
    pos = w > 0.0
    w_pos = w[pos]
    log_w = np.log(w_pos)
    pos_before = np.concatenate(([0], np.cumsum(pos)))  # positive states before each
    K = 0.0
    for d, rho_prime_term in enumerate(rho_prime_terms):
        a, b = pos_before[ix.state_start[d]], pos_before[ix.state_start[d + 1]]
        rho_term = float(w_pos[a:b] @ log_w[a:b]) if b > a else 0.0
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
