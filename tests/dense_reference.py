"""Dense small-cutoff reference versions of the sector-block computations.

The package stores every operator as difference-sector blocks. The loops
and dense (N+1)^2 x (N+1)^2 arrays here compute the same quantities the
way the pipeline did before sector storage, independently of
fock.sector_layout, and serve as the tests' oracle for it. They are
O(N^4) in memory: keep the cutoff at about 16 or less. The one exception,
reference_sector_amplitudes, is the plain per-sector analytic formula
that fock's table-driven builder must match bit for bit, at any cutoff.
"""

import dataclasses

import numpy as np
from scipy.special import gammaln


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
    """The analytic sector block as one self-contained per-sector formula.

    Every float operation is in the order the package's table-driven
    builder (fock.sector_amplitudes) must keep, so the two agree bit for
    bit; the sum is ill-conditioned, and any reordering moves entries.
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


def dense_mean_final_total(P, w, cutoff):
    """<total(m)> under p(m|n) w(n)."""
    return float(dense_totals(cutoff) @ P @ w)


def dense_mean_created(P, w, cutoff):
    """<total(m) - total(n)> under p(m|n) w(n), in-box."""
    tot = dense_totals(cutoff)
    return float((tot @ P - tot * P.sum(axis=0)) @ w)


def dense_lattice_masses(J, cutoff):
    """Mass per integer total change, offset by 2*cutoff (length 4N+1)."""
    tot = dense_totals(cutoff).astype(int)
    delta = (tot[:, None] - tot[None, :]) + 2 * cutoff
    return np.bincount(delta.ravel(), weights=J.ravel(), minlength=4 * cutoff + 1)


def dense_crooks_microstate(J, Q, rate, cutoff, floor=1e-12):
    """max |log J - log Q - rate * (total(m) - total(n))| over J > floor."""
    tot = dense_totals(cutoff)
    s_mat = rate * (tot[:, None] - tot[None, :])
    mask = J > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(np.log(J[mask]) - np.log(Q[mask]) - s_mat[mask])))


def array_bytes(obj):
    """Bytes held in numpy arrays reachable through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0
