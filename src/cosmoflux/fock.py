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
  tanh z = 1/2 it first fires at cutoff 57. Its z-free parts (log
  factorials, the p - q grids, the signs and the triangle mask) are read
  from sector_tables, built once per cutoff beside the layout;
  transition_kernel forms the parts that depend on z but not on d once
  for all its sectors, and every block keeps the float operations of the
  plain per-sector formula in order. A T = 0 point reads only the vacuum
  column of d = 0; transition_kernel with vacuum builds that column alone
  in O(N) work (_vacuum_block), bit for bit the block's, so such a point
  evaluates at cutoffs where the full kernel fails the column-sum check.

- sector_spectral: the spectral exponential of the tridiagonal generator.
  Orthogonal-in-the-box at any size (columns renormalize escaped mass back
  into the box), so it is entrywise stable at sizes where the analytic sum
  is not, at the price of reflecting leaked mass instead of measuring it.
  The sector generator is z times a z-free tridiagonal matrix, so one
  eigendecomposition per sector serves every z: the eigenvalues scale with
  z and the block is rebuilt in real arithmetic. It and
  squeeze_operator_oracle take one z or a 1-D array of z; an array gives
  every block a leading z axis.

Both routes raise ValueError for a negative or non-finite z, or for a
sector label or size that is not an integer; transition_kernel checks z
before its leakage gate.
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


@dataclass(frozen=True)
class SectorTables:
    """z-free grids shared by every difference sector of one box.

    Sector d of the box has size cutoff + 1 - d, and its grids are the
    leading size x size corner of each grid here, indexed [p, q] by final
    and initial sector position. total_change holds
    total(m) - total(n) = 2(p - q), the same in every sector; the rest are
    the z-free parts of the analytic amplitude sum. All arrays are
    read-only.
    """

    log_factorial: np.ndarray  # log k!, k = 0..cutoff
    diff: np.ndarray  # p - q, as float
    neg_log_factorial_diff: np.ndarray  # -log |p - q|!
    sign: np.ndarray  # (-1)^(p - q)
    upper_sign: np.ndarray  # (-1)^(p - q) where p <= q, 0 below the diagonal
    lower: np.ndarray  # p >= q
    total_change: np.ndarray  # 2(p - q), as int


@cache
def sector_tables(cutoff: int) -> SectorTables:
    """The z-free grids of the box, built once per cutoff and shared."""
    i = np.arange(cutoff + 1)
    diff = i[:, None] - i[None, :]
    lf = gammaln(i + 1.0)
    sign = np.where(diff % 2, -1.0, 1.0)
    return SectorTables(
        log_factorial=_frozen(lf),
        diff=_frozen(diff.astype(float)),
        neg_log_factorial_diff=_frozen(-lf[np.abs(diff)]),
        sign=_frozen(sign),
        upper_sign=_frozen(np.triu(sign)),
        lower=_frozen(diff >= 0),
        total_change=_frozen(2 * diff),
    )


def _squeeze_values(z: ArrayLike) -> np.ndarray:
    """z as a float array, or ValueError unless every entry is finite and >= 0."""
    zs = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zs) & (zs >= 0.0)):
        raise ValueError(f"squeeze parameter must be finite and >= 0, got {z}")
    return zs


def _check_sector(d: int, size: int) -> None:
    """ValueError unless d >= 0 and size >= 1 are integers."""
    if not all(isinstance(v, (int, np.integer)) for v in (d, size)):
        raise ValueError(f"sector label and size must be integers, got {d!r}, {size!r}")
    if size < 1:
        raise ValueError("sector size must be >= 1")
    if d < 0:
        raise ValueError("difference sector label must be >= 0")


def _block_terms(
    z: float, cutoff: int
) -> tuple[SectorTables, np.ndarray, np.ndarray] | None:
    """What every analytic block of the box shares at one validated z.

    The box's tables, (p - q) log tanh z - log |p - q|! on its p - q grid,
    and sech(z)^j = exp(-j log cosh z) for j = 0..2 cutoff + 1. None at
    z = 0, where every block is the identity.
    """
    if z == 0.0:
        return None
    t = sector_tables(cutoff)
    grid = t.diff * np.log(np.tanh(z)) + t.neg_log_factorial_diff
    sech_powers = np.exp(-np.arange(2 * cutoff + 2) * np.log(np.cosh(z)))
    return t, grid, sech_powers


def _amplitude_block(
    d: int, size: int, terms: tuple[SectorTables, np.ndarray, np.ndarray] | None
) -> np.ndarray:
    """Analytic block of sector (d, size) from _block_terms of its box.

    Only the log-factorial ratio, which depends on d, and the z-dependent
    exponential and product are formed per sector. Every float operation
    keeps the operands and order of the plain per-sector formula (x - y
    only becomes x + (-y), which is exact): the sum is ill-conditioned, so
    a reordering would move entries.
    """
    if terms is None:
        return np.eye(size)
    t, grid, sech_powers = terms
    lf = t.log_factorial
    lower = t.lower[:size, :size]
    half = 0.5 * ((lf[:size] + lf[d:size + d])[:, None] - lf[:size] - lf[d:size + d])
    L = np.exp(np.where(lower, grid[:size, :size] + half, -np.inf))
    # sech(z)^(total + 1) for the initial state at each position q
    D = sech_powers[d + 1:2 * size + d:2]
    M = L @ (D[:, None] * (t.upper_sign[:size, :size] * L.T))
    # lower triangle from the product, upper from the mirror identity;
    # + 0.0 turns -0 into +0, as adding the two zero-padded triangles does
    return np.where(lower, M, t.sign[:size, :size] * M.T) + 0.0


def sector_amplitudes(z: float, d: int, size: int) -> np.ndarray:
    """Analytic amplitudes <(p+d, p)|S|(q+d, q)> for p, q in 0..size-1.

    Normal-ordered form S = exp(tau a+b+) sech(z)^(n_a+n_b+1) exp(-tau ab)
    with tau = tanh z gives each entry as a finite alternating sum over the
    lowering count. The sum is evaluated as a triangular matrix product in
    log magnitude. Only the lower triangle (p >= q, net raising) is taken
    from the product; the upper triangle follows from the mirror identity
    <m|S|n> = (-1)^(total(n)-total(m)) <n|S|m>, which makes the returned
    matrix satisfy the transpose symmetry of squared entries exactly.

    The parts that do not depend on z (log factorials, the p - q grids, the
    signs and the triangle mask) come from sector_tables of the box whose
    sector d has this size, built once per cutoff. Per call only the
    log-factorial ratio of sector d, the tau powers, the sech(z) weights
    and the product are formed; transition_kernel forms the tau powers and
    sech(z) weights once for all its sectors.
    """
    _squeeze_values(z)
    _check_sector(d, size)
    return _amplitude_block(d, size, _block_terms(z, size + d - 1))


def _vacuum_block(z: float, cutoff: int) -> np.ndarray:
    """The d = 0 block of the box with only its vacuum column, in O(N) work.

    Column 0 equals the analytic block's bit for bit: of the triangular
    product only the term of the initial vacuum survives there, so each
    entry is L[p,0] * (sech z * (1.0 * L[0,0])) + 0.0 with the log
    magnitude L[p,0] formed as in _amplitude_block (whose d = 0
    log-factorial ratio is log p! exactly, and L[0,0] is exactly 1). Every
    other column is 0: a vacuum point reads only column 0, and the block
    keeps its full size so that every sum over it takes the same path.
    """
    side = cutoff + 1
    block = np.zeros((side, side))
    if z == 0.0:
        block[0, 0] = 1.0
        return block
    t = sector_tables(cutoff)
    grid = t.diff[:, 0] * np.log(np.tanh(z)) + t.neg_log_factorial_diff[:, 0]
    L = np.exp(grid + t.log_factorial)
    sech = np.exp(-np.log(np.cosh(z)))
    block[:, 0] = L * (sech * (1.0 * L[0])) + 0.0
    return block


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
    _check_sector(d, size)
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
    the box. A full kernel holds every sector of the box. A vacuum kernel
    (vacuum True) serves only a T = 0 point, whose initial state is the
    vacuum (0, 0): it holds the d = 0 block alone, and of that block only
    column 0; its other columns are 0, so their leakage reads 1. All hold
    read-only arrays, since a sweep shares one kernel between its points.
    """

    z: float
    spec: TruncationSpec
    vacuum: bool
    probabilities: tuple[np.ndarray, ...] = field(repr=False)
    column_leakage: tuple[np.ndarray, ...] = field(repr=False)
    amplitudes: tuple[np.ndarray, ...] = field(repr=False)


def transition_kernel(
    z: float, spec: TruncationSpec, vacuum: bool = False
) -> TransitionKernel:
    """Build the transition kernel from analytic amplitudes.

    Builds every sector of the box, or with vacuum the vacuum kernel: the
    d = 0 block with only its vacuum column, in O(N) work (_vacuum_block).
    That column is the full kernel's bit for bit, and since the block
    skips the columns the analytic sum evaluates least accurately, it also
    holds at cutoffs where the full kernel fails the column-sum check.

    Gates on the closed-form vacuum-column leakage: the vacuum column is the
    slowest-leaking low-lying column, so a budget violation there means the
    box cannot represent this squeeze at all. Columns of higher total leak
    more; their losses are recorded per column and must be folded into
    downstream truncation bounds rather than gated here. The column-sum
    check runs on every block built. vacuum must be a bool: the slot once
    took a sector count, and a count read as a flag would build the wrong
    kernel without a word.
    """
    if not isinstance(vacuum, (bool, np.bool_)):
        raise ValueError(
            f"vacuum must be a bool, got {vacuum!r}: transition_kernel takes "
            "no sector count; pass vacuum=True for the d = 0 vacuum column"
        )
    _squeeze_values(z)
    _gate_vacuum_leakage(z, spec)
    if vacuum:
        amps = (_frozen(_vacuum_block(z, spec.cutoff)),)
    else:
        terms = _block_terms(z, spec.cutoff)
        amps = tuple(
            _frozen(_amplitude_block(s.d, s.size, terms))
            for s in sector_layout(spec.cutoff)
        )
        del terms  # its z grid would otherwise add to the build's peak memory
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
        vacuum=vacuum,
        probabilities=probs,
        column_leakage=tuple(_frozen(np.maximum(1.0 - c, 0.0)) for c in colsums),
        amplitudes=amps,
    )
