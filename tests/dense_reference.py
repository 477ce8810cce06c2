"""Dense small-cutoff reference versions of the sector-block computations.

The package stores every operator as difference-sector blocks. The loops
and dense (N+1)^2 x (N+1)^2 arrays here compute the same quantities the
way the pipeline did before sector storage, independently of
fock.sector_layout, and serve as the tests' oracle for it. They are
O(N^4) in memory: keep the cutoff at about 16 or less. The exceptions
work at any cutoff: reference_sector_amplitudes is the plain per-sector
analytic formula, the normal-ordered alternating sum the package once
evaluated, an independent route to the amplitudes whose cancellation
costs it digits as blocks grow (up to 2.8e-13 on a 9 x 9 block and
1.1e-11 at cutoff 16); reference_sector_recurrence is the kernel's own
recurrence run on one sector block alone, which the flat builder must
reproduce bit for bit; and the reference_* loops after them are the
per-sector loops the pipeline ran before it kept each quantity in one
sector-major buffer, before it took the work averages in one flat
pass, or before it read every T > 0 statistic from the kernel's total
table. Fed the production kernel, they are accuracy references: where a
stage keeps the loop's float operations (the column leakage, the Gibbs
weights, K, and the microstate Crooks residual of each cell of the total
table) the bits must agree, and where it sums in another order (the
total table, the lattice masses and the work sums) it must agree within
a rounding bound of terms x eps x scale, stated in test_sector_blocks.
reference_work_sums forms <n_c> as the loops did, a difference of two
sums of totals, which cancels as z -> 0.
"""

import dataclasses

import numpy as np
from scipy.linalg.lapack import dgejsv
from scipy.special import gammaln

from cosmoflux.fock import sector_views


def basis_states(cutoff):
    side = cutoff + 1
    return [(a, b) for a in range(side) for b in range(side)]


def dense_totals(cutoff):
    occ = np.arange(cutoff + 1)
    return (occ[:, None] + occ[None, :]).reshape(-1).astype(float)


def dense_view(blocks, cutoff):
    """Embed blocks[d][p, q] into the dense basis, one entry at a time.

    The entry <m|X|n> of a difference-conserving operator lives in sector
    d = |n_a - n_b| at positions min(m), min(n); every other entry is 0.
    """
    states = basis_states(cutoff)
    dense = np.zeros((len(states), len(states)))
    for i, m in enumerate(states):
        for j, n in enumerate(states):
            if m[0] - m[1] == n[0] - n[1]:
                dense[i, j] = blocks[abs(n[0] - n[1])][min(m), min(n)]
    return dense


def sector_weights(thermal):
    """The Gibbs weights of each occupied sector, as read-only views."""
    return sector_views(thermal.flat_weights, thermal.spec.cutoff, False)


def dense_state_vector(vectors, cutoff):
    """Embed per-sector state values vectors[d][i] into the dense basis.

    State n sits in sector d = |n_a - n_b| at position min(n); a mirrored
    state takes the value of its partner.
    """
    return np.array(
        [vectors[abs(n[0] - n[1])][min(n)] for n in basis_states(cutoff)]
    )


def dense_generator(z, cutoff):
    """Antisymmetric generator z(a+b+ - ab) on the truncated basis."""
    side = cutoff + 1
    G = np.zeros((side * side, side * side))
    for a in range(cutoff):
        for b in range(cutoff):
            amp = z * np.sqrt((a + 1.0) * (b + 1.0))
            G[(a + 1) * side + b + 1, a * side + b] = amp
            G[a * side + b, (a + 1) * side + b + 1] = -amp
    return G


def reference_sector_amplitudes(z, d, size):
    """The analytic sector block as one self-contained per-sector formula:
    the normal-ordered finite sum S = exp(tau a+b+) sech(z)^(n_a+n_b+1)
    exp(-tau ab), evaluated as a triangular matrix product. The sum
    alternates, so it is accurate only for small blocks.
    """
    if z == 0.0:
        return np.eye(size)
    logtau = np.log(np.tanh(z))
    logcosh = np.log(np.cosh(z))
    lf = gammaln(np.arange(size + d + 1) + 1.0)
    i = np.arange(size)
    p, q = i[:, None], i[None, :]
    diff = p - q
    sign = np.where(diff % 2, -1.0, 1.0)
    L = np.exp(np.where(
        diff >= 0,
        diff * logtau
        - lf[np.abs(diff)]
        + 0.5 * (lf[p] + lf[p + d] - lf[q] - lf[q + d]),
        -np.inf,
    ))
    U = np.triu(sign * L.T)
    D = np.exp(-(2 * i + d + 1) * logcosh)
    M = L @ (D[:, None] * U)
    return np.tril(M) + np.triu(sign * M.T, 1)


def reference_sector_recurrence(z, d, size):
    """The kernel's recurrence for one sector block, run on that block alone.

    The same float operations, in the same order, as fock._amplitudes takes
    for sector d, with none of its flat buffers or gather tables: start
    column sech(z)^(d+1), one column q + 1 at a time from columns q and
    q - 1 on the rows p > q, the factor sqrt(C_p / C_q), then each entry
    of the upper triangle from its mirror with the sign and tanh(z)^|p-q|.
    The flat builder must reproduce it bit for bit, signed zeros included.
    """
    if z == 0.0:
        return np.eye(size)
    # the powers are taken as the kernel takes them, over arrays of the
    # box's side size + d: numpy's vector pow may round a power one ulp
    # away from the scalar pow, and which lanes it takes depends on the
    # array's length
    side = size + d
    sech, tau = 1.0 / np.cosh(z), np.tanh(z)
    tau_powers = tau ** np.arange(side)
    start = (sech ** (np.arange(side) + 1.0))[d]
    t2 = tau * tau
    k = np.arange(1.0, size)
    beta = np.sqrt(np.cumprod(np.concatenate([[1.0], (k + d) / k])))
    p = np.arange(size)
    phi = np.zeros((size, size))
    phi[:, 0] = start
    for q in range(size - 1):
        rows = p[q + 1:]
        coef = (rows - q) - ((rows + d + 1.0) * t2 + q * t2)
        new = coef * phi[q + 1:, q]
        if q:
            new -= (d * t2 + q * t2) * phi[q + 1:, q - 1]
        phi[q + 1:, q + 1] = new / (q + 1.0)
    lower = np.zeros((size, size))
    for q in range(size):
        lower[q:, q] = phi[q:, q] * beta[q:] / beta[q]
    block = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            k = abs(i - j)
            sign = (-1.0) ** k if i < j else 1.0
            block[i, j] = lower[max(i, j), min(i, j)] * (sign * tau_powers[k])
    return block


def reference_gibbs_weights(temperature, omega, cutoff):
    """Box-renormalized Gibbs weights per occupied sector, and the tail mass."""
    x = 0.0 if temperature == 0.0 else float(np.exp(-omega / temperature))
    t = x ** (cutoff + 1)
    scale = ((1.0 - x) / (1.0 - t)) ** 2 if t < 1.0 else 0.0
    occupied = 1 if temperature == 0.0 else cutoff + 1
    weights = [scale * x ** (2 * np.arange(cutoff + 1 - d) + d) for d in range(occupied)]
    return weights, t * (2.0 - t)


def reference_work_sums(probabilities, column_leakage, weights, renorm_defect):
    """(weighted leakage, <n_f>, <n_i>, <n_c>) as four per-sector loops.

    These are the loops the work bookkeeping ran before it took every
    average in one pass; weights lists the occupied sectors only.
    """
    def totals(w, d):
        return 2 * np.arange(len(w)) + d

    def multiplicity(d):
        return 2 if d else 1

    sectors = list(enumerate(zip(probabilities, column_leakage, weights)))
    leakage = sum(
        multiplicity(d) * float(leak @ w) for d, (_P, leak, w) in sectors
    ) + renorm_defect
    final = sum(
        multiplicity(d) * float(totals(w, d) @ P @ w) for d, (P, _leak, w) in sectors
    )
    initial = sum(multiplicity(d) * float(totals(w, d) @ w) for d, (*_, w) in sectors)
    created = sum(
        multiplicity(d)
        * float((totals(w, d) @ P - totals(w, d) * P.sum(axis=0)) @ w)
        for d, (P, _leak, w) in sectors
    )
    return leakage, final, initial, created


def reference_entropy_pass(probabilities, weights, cutoff):
    """Expansion and contraction masses per total change -2N..2N (offset by
    2N), one sector at a time, each entry weighed by its own states."""
    i = np.arange(cutoff + 1)
    bins = 2 * (i[:, None] - i[None, :]) + 2 * cutoff
    mass_e = np.zeros(4 * cutoff + 1)
    mass_c = np.zeros(4 * cutoff + 1)
    for d, (P, w) in enumerate(zip(probabilities, weights)):
        size, multiplicity = len(w), 2 if d else 1
        J, Q = P * w[None, :], P * w[:, None]
        sector_bins = bins[:size, :size].ravel()
        mass_e += multiplicity * np.bincount(
            sector_bins, weights=J.ravel(), minlength=4 * cutoff + 1
        )
        mass_c += multiplicity * np.bincount(
            sector_bins, weights=Q.ravel(), minlength=4 * cutoff + 1
        )
    return mass_e, mass_c


def reference_total_table(probabilities, cutoff):
    """R[t_f, t_i]: p(m|n) summed over the box states of totals t_f and
    t_i, one sector and one entry at a time, a mirrored sector added once
    more for its mirror states."""
    R = np.zeros((2 * cutoff + 1, 2 * cutoff + 1))
    for d, P in enumerate(probabilities):
        for p in range(len(P)):
            for q in range(len(P)):
                for _ in range(2 if d else 1):
                    R[2 * p + d, 2 * q + d] += P[p, q]
    return R


def reference_cell_residual(table, total_weights, rate, floor=1e-12):
    """max |log J - log Q - s| over the cells [t_f, t_i] of a total table,
    one cell at a time: J = R w(t_i), Q = R w(t_f), s = rate (t_f - t_i).

    Cells with J <= floor are left out, and so are those with log J - s
    below the log of the smallest normal double, whose contraction mass
    J e^(-s) underflows as the relation predicts."""
    log_tiny = np.log(np.finfo(float).tiny)
    worst = 0.0
    for t_f, row in enumerate(table):
        for t_i, R in enumerate(row):
            J, Q = R * total_weights[t_i], R * total_weights[t_f]
            s = rate * (t_f - t_i)
            if J > floor and np.log(J) - s >= log_tiny:
                with np.errstate(divide="ignore"):
                    worst = max(worst, float(abs(np.log(J) - np.log(Q) - s)))
    return worst


def reference_relative_entropy(amplitudes, weights, clip=1e-300):
    """K[rho || rho'] summed one sector at a time (dgejsv per sector)."""
    K = 0.0
    for d, (A, wd) in enumerate(zip(amplitudes, weights)):
        pos = wd > 0.0
        rho_term = float(wd[pos] @ np.log(wd[pos])) if pos.any() else 0.0
        sva, U, _v, work, _iwork, info = dgejsv(
            A * np.sqrt(wd)[None, :], joba=0, jobu=0, jobv=3
        )
        assert info == 0
        sv = sva * (work[0] / work[1])
        lam = sv * sv
        keep = lam > clip
        if keep.any():
            r = (U[:, keep] ** 2).T @ wd
            rho_prime_term = float(r @ np.log(lam[keep]))
        else:
            rho_prime_term = 0.0
        K += (2 if d else 1) * (rho_term - rho_prime_term)
    return K


def dense_mean_final_total(P, w, cutoff):
    """<total(m)> under p(m|n) w(n)."""
    return float(dense_totals(cutoff) @ P @ w)


def dense_mean_created(P, w, cutoff):
    """<total(m) - total(n)> under p(m|n) w(n), in-box."""
    tot = dense_totals(cutoff)
    return float((tot @ P - tot * P.sum(axis=0)) @ w)


def dense_entropy_lattice(J, cutoff):
    """Mass per integer total change, offset by 2*cutoff (length 4N+1)."""
    tot = dense_totals(cutoff).astype(int)
    delta = (tot[:, None] - tot[None, :]) + 2 * cutoff
    return np.bincount(delta.ravel(), weights=J.ravel(), minlength=4 * cutoff + 1)


def dense_total_table(P, cutoff):
    """Dense p(m|n) summed per cell [total(m), total(n)]."""
    tot = dense_totals(cutoff).astype(int)
    cells = tot[:, None] * (2 * cutoff + 1) + tot[None, :]
    side = 2 * cutoff + 1
    return np.bincount(cells.ravel(), weights=P.ravel(), minlength=side * side).reshape(side, side)


def array_bytes(obj):
    """Bytes held in numpy arrays reachable through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0
