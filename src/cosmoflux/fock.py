"""Truncated two-mode Fock space and the squeeze-transition kernel.

Mode occupations (n_a, n_b) live on a square box 0..cutoff per mode. The
squeeze unitary S = exp(z(a+b+ - ab)) conserves n_a - n_b, so every operator
is block-diagonal in the difference sector d and is stored only as its
blocks. This module owns the sector layout (sector_layout); downstream code
iterates over it instead of indexing dense (N+1)^2 x (N+1)^2 arrays.

Two independent evaluation routes are provided:

- sector_amplitudes: the analytic normal-ordered finite sum. Entries are
  exact in exact arithmetic, and each column's missing mass is the true
  probability that the image escaped the box, which is what downstream
  truncation budgets need. The alternating sum loses accuracy silently:
  against the spectral route on a box padded by 300, its worst entry is off
  by 1.3e-5 at tanh z = 1/2 with cutoff 40, by 4.4e-4 at z = 1 with cutoff
  40 and by 0.14 at tanh z = 1/2 with cutoff 52. The column-sum excess
  check (COLSUM_EXCESS_LIMIT) catches only the gross failure: at
  tanh z = 1/2 it first fires at cutoff 57.

- sector_spectral: the spectral exponential of the tridiagonal generator.
  Orthogonal-in-the-box at any size (columns renormalize escaped mass back
  into the box), so it is entrywise stable at sizes where the analytic sum
  is not, at the price of reflecting leaked mass instead of measuring it.
  The sector generator is z times a z-free tridiagonal matrix, so one
  eigendecomposition per sector serves every z: the eigenvalues scale with
  z and the block is rebuilt in real arithmetic. It and
  squeeze_operator_oracle take one z or a 1-D array of z; an array gives
  every block a leading z axis.

Both routes raise ValueError for a negative or non-finite z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.typing import ArrayLike
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .errors import LeakageError, NumericError

# Column sums of squared analytic amplitudes may exceed 1 only by accumulated
# rounding noise; anything larger means the alternating sum cancelled badly.
COLSUM_EXCESS_LIMIT = 1e-9


@dataclass(frozen=True)
class TruncationSpec:
    """Box truncation: maximum occupation per mode and the leakage budget."""

    cutoff: int
    leakage_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        if not 0.0 < self.leakage_tolerance < 1.0:
            raise ValueError(
                f"leakage_tolerance must lie in (0, 1), got {self.leakage_tolerance}"
            )


@dataclass(frozen=True)
class Sector:
    """Difference sector d: the states (i + d, i) for i = 0..cutoff-d.

    For d > 0 the mirrored states (i, i + d) carry an identical block and
    identical per-state values, so sector sums count them once with
    multiplicity 2. index and mirror_index are the states' positions
    n_a * (cutoff + 1) + n_b in the row-major box; totals holds
    total(n) = 2i + d.
    """

    d: int
    multiplicity: int
    totals: np.ndarray
    index: np.ndarray
    mirror_index: np.ndarray

    @property
    def size(self) -> int:
        return len(self.totals)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def sector_layout(cutoff: int) -> tuple[Sector, ...]:
    """Every difference sector of the box, d = 0..cutoff in order.

    Built once per cutoff and shared by every caller, so its arrays are
    read-only.
    """
    side = cutoff + 1
    layout = []
    for d in range(side):
        i = np.arange(side - d)
        layout.append(Sector(
            d=d,
            multiplicity=2 if d else 1,
            totals=_frozen(2 * i + d),
            index=_frozen((i + d) * side + i),
            mirror_index=_frozen(i * side + i + d),
        ))
    return tuple(layout)


def vacuum_column_leakage(z: float, cutoff: int) -> float:
    """Exact mass the squeezed vacuum loses beyond the box: tanh(z)^(2(N+1)).

    The vacuum image is geometric over pair number with ratio tanh^2(z), so
    the out-of-box tail has this closed form at any cutoff.
    """
    if z == 0.0:
        return 0.0
    return float(np.tanh(z) ** (2 * (cutoff + 1)))


def suggested_cutoff(z: float, leakage_tolerance: float) -> int:
    """Smallest cutoff whose vacuum-column leakage fits the budget.

    Raises ValueError when tanh(z) rounds to 1: the vacuum column then leaks
    everything at every cutoff.
    """
    if z == 0.0:
        return 0
    logtau = np.log(np.tanh(z))
    if logtau == 0.0:
        raise ValueError("no cutoff can hold this squeeze, since tanh(z) rounds to 1")
    needed = np.log(leakage_tolerance) / (2.0 * logtau) - 1.0
    return int(np.ceil(max(needed, 0.0)))


def _squeeze_values(z: ArrayLike) -> np.ndarray:
    """z as a float array, or ValueError unless every entry is finite and >= 0."""
    zs = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zs) & (zs >= 0.0)):
        raise ValueError(f"squeeze parameter must be finite and >= 0, got {z}")
    return zs


def sector_amplitudes(z: float, d: int, size: int) -> np.ndarray:
    """Analytic amplitudes <(p+d, p)|S|(q+d, q)> for p, q in 0..size-1.

    Normal-ordered form S = exp(tau a+b+) sech(z)^(n_a+n_b+1) exp(-tau ab)
    with tau = tanh z gives each entry as a finite alternating sum over the
    lowering count. The sum is evaluated as a triangular matrix product in
    log magnitude. Only the lower triangle (p >= q, net raising) is taken
    from the product; the upper triangle follows from the mirror identity
    <m|S|n> = (-1)^(total(n)-total(m)) <n|S|m>, which makes the returned
    matrix satisfy the transpose symmetry of squared entries exactly.
    """
    _squeeze_values(z)
    if size < 1:
        raise ValueError("sector size must be >= 1")
    if d < 0:
        raise ValueError("difference sector label must be >= 0")
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


def sector_spectral(
    z: ArrayLike, d: int, size: int, corner: int | None = None
) -> np.ndarray:
    """Spectral exponential of the sector generator (brute-force route).

    The generator restricted to a difference sector is z times i times a
    real symmetric tridiagonal matrix T after the phase rotation diag(i^k).
    T does not depend on z, so one eigendecomposition T = V diag(lam) V^T
    serves every z: the block is the real part of
    i^(j-k) [V cos(z lam) V^T - i V sin(z lam) V^T]_jk, which takes the
    cosine part where j - k is even and the sine part where it is odd, with
    the sign of the period-4 pattern of i^(j-k). The result is orthogonal
    to machine precision at any size; z = 0 gives the exact identity.

    z is one value or a 1-D array; for an array the result gains a leading
    z axis. corner, if given, forms only the leading corner x corner entries.
    """
    zs = _squeeze_values(z)
    if zs.ndim > 1:
        raise ValueError("squeeze parameter must be a scalar or a 1-D array")
    if size < 1:
        raise ValueError("sector size must be >= 1")
    if d < 0:
        raise ValueError("difference sector label must be >= 0")
    n = size if corner is None else corner
    if not 1 <= n <= size:
        raise ValueError(f"corner must lie in [1, {size}], got {corner}")
    if size == 1 or not zs.any():
        return np.broadcast_to(np.eye(n), zs.shape + (n, n)).copy()
    k = np.arange(size - 1)
    lam, V = eigh_tridiagonal(np.zeros(size), np.sqrt((k + 1.0 + d) * (k + 1.0)))
    theta = zs[..., None, None] * lam
    Vn = V[:n]
    cos_part = (Vn * np.cos(theta)) @ Vn.T
    sin_part = (Vn * np.sin(theta)) @ Vn.T
    j = np.arange(n)
    phase = (j[:, None] - j[None, :]) % 4
    S = np.where(phase % 2, sin_part, cos_part) * np.where(phase < 2, 1.0, -1.0)
    S[zs == 0.0] = np.eye(n)
    return S


def _gate_vacuum_leakage(z: float, spec: TruncationSpec) -> None:
    vac_leak = vacuum_column_leakage(z, spec.cutoff)
    if vac_leak > spec.leakage_tolerance:
        try:
            hint = f"suggested cutoff >= {suggested_cutoff(z, spec.leakage_tolerance)}"
        except ValueError as exc:
            hint = str(exc)
        raise LeakageError(
            f"vacuum column leaks {vac_leak:.3e} > tolerance "
            f"{spec.leakage_tolerance:.3e} at cutoff {spec.cutoff}; {hint}"
        )


def squeeze_operator_oracle(
    z: ArrayLike, spec: TruncationSpec
) -> tuple[np.ndarray, ...]:
    """Squeeze operator blocks via the spectral route, with a leakage gate.

    Returns one block per difference sector in sector_layout order, each
    from one z-free decomposition of its sector (sector_spectral). z is one
    value or a 1-D array; for an array every block gains a leading z axis.
    Raises LeakageError when the vacuum column already loses more mass than
    the budget allows at any z; entries of such an operator renormalize
    escaped mass back into the box and are not trustworthy for any state of
    interest.
    """
    zs = _squeeze_values(z)
    for value in zs.flat:
        _gate_vacuum_leakage(float(value), spec)
    return tuple(
        sector_spectral(zs, s.d, s.size) for s in sector_layout(spec.cutoff)
    )


@dataclass(frozen=True)
class TransitionKernel:
    """Squared squeeze amplitudes p(m|n) with truncation diagnostics.

    probabilities[d] is the block of difference sector d (sector_layout),
    indexed [final, initial] by the sector position i; amplitudes[d] holds
    the signed amplitudes it squares. column_leakage[d][i] is the true
    probability that the image of the sector state at position i escaped
    the box. The three hold the sectors d = 0..sectors-1 that were built:
    every sector of the box, or only d = 0 for a T = 0 vacuum point, whose
    initial state occupies no other (thermo.occupied_sectors). All hold
    read-only arrays, since a sweep shares one kernel between its points.
    """

    z: float
    spec: TruncationSpec
    probabilities: tuple[np.ndarray, ...] = field(repr=False)
    column_leakage: tuple[np.ndarray, ...] = field(repr=False)
    amplitudes: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def sectors(self) -> int:
        """Number of difference sectors held, d = 0..sectors-1."""
        return len(self.probabilities)


def transition_kernel(
    z: float, spec: TruncationSpec, sectors: int | None = None
) -> TransitionKernel:
    """Build the transition kernel from analytic amplitudes.

    Builds the blocks of sectors d = 0..sectors-1, by default every sector
    of the box. A T = 0 vacuum point needs d = 0 only
    (thermo.occupied_sectors).

    Gates on the closed-form vacuum-column leakage: the vacuum column is the
    slowest-leaking low-lying column, so a budget violation there means the
    box cannot represent this squeeze at all. Columns of higher total leak
    more; their losses are recorded per column and must be folded into
    downstream truncation bounds rather than gated here. The column-sum
    check runs on every block built.
    """
    if z < 0.0:
        raise ValueError(f"squeeze parameter must be >= 0, got {z}")
    layout = sector_layout(spec.cutoff)
    if sectors is not None and not 1 <= sectors <= len(layout):
        raise ValueError(f"sectors must lie in [1, {len(layout)}], got {sectors}")
    _gate_vacuum_leakage(z, spec)
    amps = tuple(_frozen(sector_amplitudes(z, s.d, s.size)) for s in layout[:sectors])
    probs = tuple(_frozen(a**2) for a in amps)
    colsums = [P.sum(axis=0) for P in probs]
    excess = max(float(c.max()) for c in colsums) - 1.0
    if excess > COLSUM_EXCESS_LIMIT:
        raise NumericError(
            f"column mass exceeds 1 by {excess:.3e}: the analytic amplitude "
            f"sum lost double precision at z={z}, cutoff={spec.cutoff}; "
            "reduce the cutoff or the squeeze parameter"
        )
    return TransitionKernel(
        z=z,
        spec=spec,
        probabilities=probs,
        column_leakage=tuple(_frozen(np.maximum(1.0 - c, 0.0)) for c in colsums),
        amplitudes=amps,
    )
